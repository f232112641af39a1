//! Scoring: exact percentiles, prediction quality, open-loop schedule
//! lateness and request accounting. Pure functions over recorded samples,
//! so the unit tests below pin the benchmark's own arithmetic.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `q` of all samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted set of readings (mean of the middle two for an
/// even count). Used for repeated timings of one quantity.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Exact latency summary of one phase, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Latency {
    /// Number of samples the percentiles are taken over.
    pub count: usize,
    pub p50: u64,
    pub p99: u64,
    pub max: u64,
}

impl Latency {
    /// Summarize per-request samples (consumed: sorted in place).
    pub fn of(mut samples: Vec<u64>) -> Latency {
        if samples.is_empty() {
            return Latency::default();
        }
        samples.sort_unstable();
        Latency {
            count: samples.len(),
            p50: percentile(&samples, 0.50),
            p99: percentile(&samples, 0.99),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// Events per second that arrived in `[start, start + width)` (ns).
pub fn rate_in(arrivals: impl Iterator<Item = u64>, start: u64, width: u64) -> f64 {
    let n = arrivals.filter(|&at| at >= start && at - start < width).count();
    n as f64 * 1e9 / width as f64
}

/// Prefetch quality counts, summed over streams.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quality {
    /// Prefetch blocks emitted.
    pub emitted: u64,
    /// Emitted blocks that occur in the stream's next `lookforward` accesses.
    pub useful: u64,
    /// Accesses that an earlier warm response of their stream could cover.
    pub warm_accesses: u64,
    /// Warm accesses whose block an earlier response emitted within
    /// `lookforward` accesses.
    pub covered: u64,
}

impl Quality {
    pub fn add(&mut self, other: Quality) {
        self.emitted += other.emitted;
        self.useful += other.useful;
        self.warm_accesses += other.warm_accesses;
        self.covered += other.covered;
    }

    /// Share of emitted blocks that were useful. With nothing emitted no
    /// emitted block was wrong, so the share is 1.
    pub fn accuracy(&self) -> f64 {
        if self.emitted == 0 {
            1.0
        } else {
            self.useful as f64 / self.emitted as f64
        }
    }

    /// Share of warm accesses that were covered. With no warm access none
    /// was missed, so the share is 1.
    pub fn coverage(&self) -> f64 {
        if self.warm_accesses == 0 {
            1.0
        } else {
            self.covered as f64 / self.warm_accesses as f64
        }
    }
}

/// Score one stream.
///
/// `blocks[j]` is the block of the stream's access `j`, including accesses
/// beyond the ones sent (the stream's future). `emitted[i]` holds the
/// prefetch blocks served for access `i`, for every sent access. Access `j`
/// counts as warm from `seq_len` on: the first response that can carry a
/// prediction answers access `seq_len - 1`.
pub fn score_stream(
    blocks: &[u64],
    emitted: &[Vec<u64>],
    seq_len: usize,
    lookforward: usize,
) -> Quality {
    assert!(emitted.len() <= blocks.len(), "more responses than accesses");
    let mut q = Quality::default();
    for (i, out) in emitted.iter().enumerate() {
        let future = &blocks[(i + 1).min(blocks.len())..(i + 1 + lookforward).min(blocks.len())];
        q.emitted += out.len() as u64;
        q.useful += out.iter().filter(|b| future.contains(b)).count() as u64;
    }
    for j in seq_len..emitted.len() {
        q.warm_accesses += 1;
        let first = j.saturating_sub(lookforward).max(seq_len - 1);
        if emitted[first..j].iter().any(|out| out.contains(&blocks[j])) {
            q.covered += 1;
        }
    }
    q
}

/// How late an open-loop generator sent its requests, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lateness {
    pub p99: u64,
    pub max: u64,
}

impl Lateness {
    /// From per-request `(scheduled, actually sent)` instants.
    pub fn of(pairs: impl Iterator<Item = (u64, u64)>) -> Lateness {
        let late: Vec<u64> = pairs.map(|(sched, sent)| sent.saturating_sub(sched)).collect();
        let lat = Latency::of(late);
        Lateness { p99: lat.p99, max: lat.max }
    }

    /// The generator fell behind its schedule when a request left more
    /// than `limit_ns` after its slot: latency measured from the schedule
    /// still counts the stall, but the offered rate was not the one set.
    pub fn behind(&self, limit_ns: u64) -> bool {
        self.max > limit_ns
    }
}

/// Request accounting over one or more phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    pub sent: u64,
    /// Responses received, failed ones included.
    pub responses: u64,
    /// Responses that carried a failure.
    pub failed: u64,
    /// Requests refused with a NACK (they get no response).
    pub nacked: u64,
}

impl Accounting {
    pub fn add(&mut self, other: Accounting) {
        self.sent += other.sent;
        self.responses += other.responses;
        self.failed += other.failed;
        self.nacked += other.nacked;
    }

    /// Requests that got neither a response nor a NACK.
    pub fn lost(&self) -> u64 {
        self.sent.saturating_sub(self.responses + self.nacked)
    }

    /// Failed, NACKed and lost requests.
    pub fn errors(&self) -> u64 {
        self.failed + self.nacked + self.lost()
    }

    /// Errors over requests sent.
    pub fn error_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.errors() as f64 / self.sent as f64
        }
    }

    /// Every request answered exactly once: responses plus NACKs equal
    /// requests sent.
    pub fn exactly_once(&self) -> bool {
        self.responses + self.nacked == self.sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // 1000 samples: p99 is the 990th value, leaving ten above it.
        let s: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&s, 0.99), 989);
        assert_eq!(s.iter().filter(|&&v| v > 989).count(), 10);
    }

    #[test]
    fn latency_summary_sorts_and_counts() {
        let lat = Latency::of(vec![5, 1, 4, 2, 3]);
        assert_eq!(lat, Latency { count: 5, p50: 3, p99: 5, max: 5 });
        assert_eq!(Latency::of(Vec::new()).count, 0);
    }

    #[test]
    fn rate_counts_arrivals_inside_the_window() {
        // A 2 s window from t=10 s: one arrival before it, three inside,
        // one at its end (excluded).
        let s = 1_000_000_000u64;
        let at = [9 * s, 10 * s, 11 * s, 12 * s - 1, 12 * s];
        assert_eq!(rate_in(at.into_iter(), 10 * s, 2 * s), 1.5);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quality_on_a_hand_built_stream() {
        // Accesses 0..8 with blocks 10, 11, ..., 17; seq_len 2, lookforward 2.
        let blocks: Vec<u64> = (10..18).collect();
        let emitted = vec![
            vec![],       // access 0: cold
            vec![12, 13], // access 1: next two are 12, 13 -> 2 useful
            vec![14, 99], // access 2: next two are 13, 14 -> 1 useful
            vec![],       // access 3
            vec![15],     // access 4: next two are 15, 16 -> 1 useful
            vec![20],     // access 5: next two are 16, 17 -> not useful
        ];
        let q = score_stream(&blocks, &emitted, 2, 2);
        assert_eq!(q.emitted, 6);
        assert_eq!(q.useful, 4);
        // Warm accesses are 2..6 (four of them). Access 2 (block 12) was
        // emitted by response 1; access 3 (13) by response 1; access 4 (14)
        // by response 2; access 5 (15) by response 4.
        assert_eq!(q.warm_accesses, 4);
        assert_eq!(q.covered, 4);
        assert!((q.accuracy() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(q.coverage(), 1.0);
    }

    #[test]
    fn coverage_respects_the_lookforward_window() {
        // Response 1 emits block 15, which access 5 needs, but access 5 is
        // four accesses later and the window is 2: not covered.
        let blocks: Vec<u64> = (10..18).collect();
        let emitted = vec![vec![], vec![15], vec![], vec![], vec![], vec![]];
        let q = score_stream(&blocks, &emitted, 2, 2);
        assert_eq!(q.useful, 0);
        assert_eq!(q.covered, 0);
        assert_eq!(q.warm_accesses, 4);
        assert_eq!(q.accuracy(), 0.0);
        assert_eq!(q.coverage(), 0.0);
    }

    #[test]
    fn quality_without_predictions_is_vacuous() {
        let q = score_stream(&[1, 2, 3], &[vec![], vec![]], 4, 2);
        assert_eq!(q, Quality::default());
        assert_eq!(q.accuracy(), 1.0);
        assert_eq!(q.coverage(), 1.0);
    }

    #[test]
    fn lateness_and_falling_behind() {
        let pairs = [(0u64, 10u64), (100, 100), (200, 250), (300, 290)];
        let l = Lateness::of(pairs.into_iter());
        assert_eq!(l.max, 50);
        assert_eq!(l.p99, 50);
        assert!(!l.behind(50));
        assert!(l.behind(49));
        // Sending early is not negative lateness.
        assert_eq!(Lateness::of([(300u64, 290u64)].into_iter()).max, 0);
    }

    #[test]
    fn error_rate_counts_nacks_and_lost_requests() {
        let a = Accounting { sent: 100, responses: 90, failed: 3, nacked: 6 };
        assert_eq!(a.lost(), 4);
        assert_eq!(a.errors(), 13);
        assert!((a.error_rate() - 0.13).abs() < 1e-12);
        assert!(!a.exactly_once());
        let ok = Accounting { sent: 10, responses: 8, failed: 0, nacked: 2 };
        assert!(ok.exactly_once());
        assert_eq!(ok.errors(), 2);
        let mut sum = a;
        sum.add(ok);
        assert_eq!(sum.sent, 110);
        assert_eq!(sum.errors(), 15);
    }
}
