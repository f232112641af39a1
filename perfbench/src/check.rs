//! Output checks, run after the timed phases: exactly-once accounting,
//! per-stream sequence contiguity, and served predictions against a serial
//! reference.

use dart_core::TabularModel;
use dart_nn::matrix::Matrix;
use dart_serve::StreamState;
use dart_trace::PreprocessConfig;

use crate::load::{Ev, PhaseLog};
use crate::score::{score_stream, Accounting, Quality};
use crate::streams::{locate, Pool};

/// Reference predictions checked per phase (a deterministic sample).
const REFERENCE_PER_PHASE: usize = 64;
/// Streams per phase the reference sample is spread over.
const REFERENCE_STREAMS: usize = 8;
/// Violations kept verbatim per phase; the rest are counted.
const MAX_VIOLATIONS: usize = 20;
const NONE: u32 = u32::MAX;

/// A phase's answers matched to its requests. Compact (a few bytes per
/// request), since a churn phase sends millions.
pub struct Resolved {
    pub acct: Accounting,
    /// Response event index of each sent request (`NONE` if unanswered).
    resp_of: Vec<u32>,
    /// Indices of the accepted (not NACKed) requests, grouped by stream,
    /// in send order within a stream: each stream's server-side history.
    accepted: Vec<u32>,
    /// `(stream id, start, len)` of each stream's run in `accepted`,
    /// sorted by stream id.
    streams: Vec<(u32, u32, u32)>,
    /// Exactly-once violations.
    pub violations: Vec<String>,
}

impl Resolved {
    /// The response to sent request `i`.
    pub fn resp<'a>(&self, log: &'a PhaseLog, i: usize) -> Option<&'a Ev> {
        (self.resp_of[i] != NONE).then(|| &log.events[self.resp_of[i] as usize])
    }

    /// Blocks served for sent request `i` (empty when unanswered).
    pub fn blocks<'a>(&self, log: &'a PhaseLog, i: usize) -> &'a [u64] {
        match self.resp(log, i) {
            Some(Ev::Resp { blocks, .. }) => blocks,
            _ => &[],
        }
    }

    /// Each stream with the sent indices of its accepted requests.
    pub fn streams(&self) -> impl Iterator<Item = (u32, &[u32])> {
        self.streams
            .iter()
            .map(|&(sid, start, len)| (sid, &self.accepted[start as usize..(start + len) as usize]))
    }
}

/// `(sid, start, len)` runs of equal stream ids in `order`.
fn runs(order: &[u32], sid_of: impl Fn(u32) -> u32) -> Vec<(u32, u32, u32)> {
    let mut out: Vec<(u32, u32, u32)> = Vec::new();
    for (pos, &i) in order.iter().enumerate() {
        let sid = sid_of(i);
        match out.last_mut() {
            Some(run) if run.0 == sid => run.2 += 1,
            _ => out.push((sid, pos as u32, 1)),
        }
    }
    out
}

fn find(streams: &[(u32, u32, u32)], sid: u32) -> Option<(usize, usize)> {
    let at = streams.binary_search_by_key(&sid, |r| r.0).ok()?;
    Some((streams[at].1 as usize, streams[at].2 as usize))
}

/// Match every answer of `log` to the request it answers.
///
/// A response names its stream and per-stream sequence number, which
/// counts the stream's accepted requests; a NACK echoes the refused
/// request's address, so it is matched to that stream's earliest
/// not-yet-refused request with that address.
pub fn resolve(pool: &Pool, log: &PhaseLog) -> Resolved {
    let shape = log.spec.shape;
    let n = log.sent.len();
    let sids: Vec<u32> = log.sent.iter().map(|s| locate(shape, s.k).0).collect();
    // `sent` is in send order, so a stable sort by stream keeps each
    // stream's requests in send order.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&i| sids[i as usize]);
    let mut streams = runs(&order, |i| sids[i as usize]);
    let mut violations = Vec::new();
    let mut extra_violations = 0usize;
    let mut violate = |v: String| {
        if violations.len() < MAX_VIOLATIONS {
            violations.push(v);
        } else {
            extra_violations += 1;
        }
    };
    let mut acct = Accounting { sent: n as u64, ..Accounting::default() };
    let mut nacked = vec![false; n];
    for ev in &log.events {
        let Ev::Nack { sid, addr } = *ev else { continue };
        acct.nacked += 1;
        let hit = find(&streams, sid).and_then(|(start, len)| {
            order[start..start + len]
                .iter()
                .map(|&i| i as usize)
                .find(|&i| !nacked[i] && pool.req(shape, log.sent[i].k).addr == addr)
        });
        match hit {
            Some(i) => nacked[i] = true,
            None => violate(format!("NACK for stream {sid} matches no request")),
        }
    }
    if acct.nacked > 0 {
        order.retain(|&i| !nacked[i as usize]);
        streams = runs(&order, |i| sids[i as usize]);
    }
    drop(sids);
    let mut resp_of = vec![NONE; n];
    for (e, ev) in log.events.iter().enumerate() {
        let Ev::Resp { sid, seq, failed, .. } = *ev else { continue };
        acct.responses += 1;
        if failed {
            // A failed response carries no sequence number to match.
            acct.failed += 1;
            continue;
        }
        match find(&streams, sid).filter(|&(_, len)| seq < len as u64) {
            Some((start, _)) => {
                let i = order[start + seq as usize] as usize;
                if resp_of[i] == NONE {
                    resp_of[i] = e as u32;
                } else {
                    violate(format!("stream {sid}: seq {seq} answered twice"));
                }
            }
            None => violate(format!("stream {sid}: seq {seq} answers no request")),
        }
    }
    // The answered sequence numbers of a stream must run 0, 1, 2, ...
    // without a gap.
    for &(sid, start, len) in &streams {
        let answered: Vec<bool> = order[start as usize..(start + len) as usize]
            .iter()
            .map(|&i| resp_of[i as usize] != NONE)
            .collect();
        if answered.windows(2).any(|w| !w[0] && w[1]) {
            violate(format!("stream {sid}: response seqs are not contiguous from 0"));
        }
    }
    if !acct.exactly_once() {
        violate(format!(
            "{} sent, {} responses + {} NACKs: {} lost",
            acct.sent,
            acct.responses,
            acct.nacked,
            acct.lost()
        ));
    }
    if extra_violations > 0 {
        violations.push(format!("... and {extra_violations} more violations"));
    }
    Resolved { acct, resp_of, accepted: order, streams, violations }
}

/// Prefetch quality of a phase's served answers.
pub fn quality(pool: &Pool, log: &PhaseLog, res: &Resolved, pre: &PreprocessConfig) -> Quality {
    let shape = log.spec.shape;
    let mut q = Quality::default();
    for (sid, idx) in res.streams() {
        let Some(&last) = idx.last() else { continue };
        let last_pos = locate(shape, log.sent[last as usize].k).1;
        let mut blocks: Vec<u64> =
            idx.iter().map(|&i| pool.req(shape, log.sent[i as usize].k).block()).collect();
        blocks.extend(
            (1..=pre.lookforward as u32)
                .map(|d| pool.record(shape, sid, last_pos + d).addr >> dart_core::BLOCK_BITS),
        );
        let emitted: Vec<Vec<u64>> =
            idx.iter().map(|&i| res.blocks(log, i as usize).to_vec()).collect();
        q.add(score_stream(&blocks, &emitted, pre.seq_len, pre.lookforward));
    }
    q
}

/// The emission rule the runtime was started with.
#[derive(Clone, Copy, Debug)]
pub struct Emit {
    pub threshold: f32,
    pub max_degree: usize,
}

/// Compare served predictions with a serial reference.
///
/// Every response to a cold request must be empty. On a deterministic
/// sample of warm requests, the stream is replayed through `StreamState`,
/// its window run through `forward_probs` alone, and the probabilities
/// decoded with `decode_bitmap_into`; the served blocks must be equal.
/// Returns the number of reference predictions made and any mismatches.
pub fn reference(
    model: &TabularModel,
    pre: &PreprocessConfig,
    emit: Emit,
    pool: &Pool,
    log: &PhaseLog,
    res: &Resolved,
) -> (usize, Vec<String>) {
    let t = pre.seq_len;
    let mut mismatches = Vec::new();
    let mut checked = 0;
    // Spread the sample over at most REFERENCE_STREAMS of the streams
    // that got warm, and over each stream's warm requests.
    let warm_sids: Vec<u32> =
        res.streams().filter(|(_, idx)| idx.len() >= t).map(|(sid, _)| sid).collect();
    let stream_step = warm_sids.len().div_ceil(REFERENCE_STREAMS).max(1);
    let sampled_sids: std::collections::BTreeSet<u32> =
        warm_sids.iter().copied().step_by(stream_step).collect();
    let per_stream = REFERENCE_PER_PHASE / REFERENCE_STREAMS;
    let mut feats = Matrix::zeros(t, pre.input_dim());
    let mut candidates = Vec::new();
    for (sid, idx) in res.streams() {
        let sampled = sampled_sids.contains(&sid);
        let warm_count = idx.len().saturating_sub(t - 1);
        let step = warm_count.div_ceil(per_stream).max(1);
        let mut state = StreamState::new(t);
        for (j, &i) in idx.iter().enumerate() {
            let i = i as usize;
            let req = pool.req(log.spec.shape, log.sent[i].k);
            state.push(req.block(), req.pc);
            let served = res.blocks(log, i);
            if !state.warm() {
                if !served.is_empty() {
                    mismatches.push(format!("stream {sid} access {j}: cold request got blocks"));
                }
                continue;
            }
            if !sampled || !(j + 1 - t).is_multiple_of(step) || res.resp(log, i).is_none() {
                continue;
            }
            state.write_features_into(pre, &mut feats, 0);
            let probs = model.forward_probs(&feats);
            let anchor = state.last_block().expect("warm stream has history");
            let expected = pre.decode_bitmap_into(
                probs.row(0),
                anchor,
                emit.threshold,
                emit.max_degree,
                &mut candidates,
            );
            checked += 1;
            if expected != served {
                mismatches.push(format!(
                    "stream {sid} access {j}: served {served:?}, serial reference {expected:?}"
                ));
            }
        }
    }
    (checked, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{PhaseSpec, Sent};
    use crate::streams::Shape;

    /// A phase of two warm streams (ids 0 and 1) with requests `0..n`.
    fn phase(n: u64) -> (Pool, PhaseLog) {
        let shape = Shape::Warm { base: 0, streams: 2 };
        let mut pool = Pool::new(1);
        pool.prepare(shape);
        let mut log = PhaseLog::new(PhaseSpec { name: "test", shape, window: 4 });
        log.sent = (0..n).map(|k| Sent { k, sched: k, send: k, timed: true }).collect();
        (pool, log)
    }

    fn resp(sid: u32, seq: u64) -> Ev {
        Ev::Resp { sid, seq, failed: false, resident_ns: 1, blocks: Box::new([]), at: 9 }
    }

    #[test]
    fn responses_and_nacks_account_for_every_request() {
        // Requests 0, 2, 4 belong to stream 0; 1, 3, 5 to stream 1.
        let (pool, mut log) = phase(6);
        let nacked_addr = pool.req(log.spec.shape, 3).addr;
        log.events = vec![
            resp(0, 0),
            resp(1, 0),
            Ev::Nack { sid: 1, addr: nacked_addr },
            resp(0, 2),
            resp(0, 1),
            resp(1, 1),
        ];
        let res = resolve(&pool, &log);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        assert_eq!(res.acct, Accounting { sent: 6, responses: 5, failed: 0, nacked: 1 });
        // Stream 1's second accepted request is request 5 (3 was refused).
        assert!(res.resp(&log, 3).is_none());
        assert!(matches!(res.resp(&log, 5), Some(Ev::Resp { seq: 1, .. })));
        let streams: Vec<(u32, Vec<u32>)> = res.streams().map(|(s, i)| (s, i.to_vec())).collect();
        assert_eq!(streams, vec![(0, vec![0, 2, 4]), (1, vec![1, 5])]);
    }

    #[test]
    fn duplicates_gaps_and_losses_are_violations() {
        let (pool, mut log) = phase(6);
        // Stream 0 gets seq 0 twice and seq 2 without seq 1; stream 1 is
        // answered once, so three requests are lost.
        log.events = vec![resp(0, 0), resp(0, 0), resp(0, 2), resp(1, 0)];
        let res = resolve(&pool, &log);
        let all = res.violations.join("\n");
        assert!(all.contains("stream 0: seq 0 answered twice"), "{all}");
        assert!(all.contains("stream 0: response seqs are not contiguous"), "{all}");
        assert_eq!(res.acct.lost(), 2);
        assert!(all.contains("2 lost"), "{all}");
        // A sequence number beyond the stream's requests matches nothing.
        log.events = vec![resp(1, 7)];
        assert!(resolve(&pool, &log).violations[0].contains("seq 7 answers no request"));
    }
}
