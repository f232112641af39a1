//! Best-Offset prefetcher (Michaud, HPCA 2016), the paper's strongest
//! rule-based baseline (Table IX: 4 KB storage, ≈60-cycle latency).
//!
//! Learning proceeds in rounds: each LLC access tests one candidate offset
//! `d` in round-robin order, scoring it when `block - d` appears in the
//! recent-request (RR) table. When an offset reaches `SCORE_MAX` (or a round
//! limit passes), the best-scoring offset becomes the active prefetch
//! offset; scores below `BAD_SCORE` disable prefetching.
//!
//! Simplification vs. the HPCA'16 design: the RR
//! table records recent *demand* bases rather than completed-fill bases, so
//! offset timeliness feedback is approximated by recency rather than fill
//! time — adequate for trace-driven evaluation and standard practice.

use dart_sim::{LlcAccess, Prefetcher};

/// Score at which an offset is adopted immediately.
const SCORE_MAX: u32 = 31;
/// Minimum best score required to keep prefetching at all.
const BAD_SCORE: u32 = 1;
/// Learning rounds before a forced decision.
const ROUND_MAX: u32 = 100;
/// Recent-request table entries (direct-mapped).
const RR_ENTRIES: usize = 256;

/// Michaud's candidate offset list: integers ≤ 64 whose prime factors are
/// limited to {2, 3, 5} — a compact multiplicative family that covers both
/// small and large strides.
fn default_offsets() -> Vec<i64> {
    let mut offs: Vec<i64> = (1..=64i64)
        .filter(|&n| {
            let mut m = n;
            for p in [2, 3, 5] {
                while m % p == 0 {
                    m /= p;
                }
            }
            m == 1
        })
        .collect();
    offs.sort_unstable();
    offs
}

/// The Best-Offset prefetcher.
#[derive(Clone, Debug)]
pub struct BestOffset {
    rr: Vec<u64>,
    offsets: Vec<i64>,
    scores: Vec<u32>,
    test_idx: usize,
    round: u32,
    /// Active prefetch offset (0 = prefetching off).
    current: i64,
    degree: usize,
    latency: u64,
}

impl BestOffset {
    /// New BO with the paper's Table IX latency (≈60 cycles) and degree 1.
    pub fn new() -> BestOffset {
        BestOffset::with_params(60, 1)
    }

    /// Parameterized constructor for ablations.
    pub fn with_params(latency: u64, degree: usize) -> BestOffset {
        let offsets = default_offsets();
        BestOffset {
            rr: vec![u64::MAX; RR_ENTRIES],
            scores: vec![0; offsets.len()],
            offsets,
            test_idx: 0,
            round: 0,
            current: 1,
            degree: degree.max(1),
            latency,
        }
    }

    /// Currently adopted offset (0 when prefetching is disabled).
    pub fn current_offset(&self) -> i64 {
        self.current
    }

    fn rr_insert(&mut self, block: u64) {
        let idx = (block as usize) % RR_ENTRIES;
        self.rr[idx] = block;
    }

    fn rr_contains(&self, block: u64) -> bool {
        self.rr[(block as usize) % RR_ENTRIES] == block
    }

    fn end_round(&mut self) {
        let (best_idx, &best_score) =
            self.scores.iter().enumerate().max_by_key(|&(_, s)| *s).expect("non-empty scores");
        self.current = if best_score >= BAD_SCORE { self.offsets[best_idx] } else { 0 };
        self.scores.fill(0);
        self.round = 0;
    }
}

impl Default for BestOffset {
    fn default() -> Self {
        BestOffset::new()
    }
}

impl Prefetcher for BestOffset {
    fn name(&self) -> &str {
        "BO"
    }

    fn latency(&self) -> u64 {
        self.latency
    }

    fn on_access(&mut self, access: &LlcAccess) -> Vec<u64> {
        let block = access.block;

        // Learning: test one offset per access.
        let d = self.offsets[self.test_idx];
        let base = block.wrapping_sub(d as u64);
        if d > 0 && block >= d as u64 && self.rr_contains(base) {
            self.scores[self.test_idx] += 1;
            if self.scores[self.test_idx] >= SCORE_MAX {
                self.current = d;
                self.scores.fill(0);
                self.round = 0;
                self.test_idx = 0;
            }
        }
        self.test_idx = (self.test_idx + 1) % self.offsets.len();
        if self.test_idx == 0 {
            self.round += 1;
            if self.round >= ROUND_MAX {
                self.end_round();
            }
        }

        self.rr_insert(block);

        if self.current == 0 {
            return Vec::new();
        }
        (1..=self.degree as i64).map(|i| (block as i64 + i * self.current) as u64).collect()
    }

    fn storage_bytes(&self) -> u64 {
        // RR table (8 B tags) + per-offset scores.
        (RR_ENTRIES * 8 + self.offsets.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(seq: usize, block: u64) -> LlcAccess {
        LlcAccess {
            seq,
            instr_id: seq as u64 * 4,
            pc: 0x400000,
            addr: block << 6,
            block,
            hit: false,
        }
    }

    #[test]
    fn offset_list_is_235_smooth() {
        for d in default_offsets() {
            let mut m = d;
            for p in [2, 3, 5] {
                while m % p == 0 {
                    m /= p;
                }
            }
            assert_eq!(m, 1, "offset {d} has a large prime factor");
        }
        assert!(default_offsets().contains(&1));
        assert!(default_offsets().contains(&64));
    }

    #[test]
    fn learns_a_constant_stride() {
        let mut bo = BestOffset::new();
        // Stride-3 stream: BO should converge to offset 3.
        for i in 0..20_000u64 {
            let _ = bo.on_access(&access(i as usize, 1_000 + i * 3));
        }
        assert_eq!(bo.current_offset(), 3, "adopted offset {}", bo.current_offset());
    }

    #[test]
    fn prefetches_current_offset_ahead() {
        let mut bo = BestOffset::new();
        for i in 0..20_000u64 {
            let _ = bo.on_access(&access(i as usize, 5_000 + i * 2));
        }
        assert_eq!(bo.current_offset(), 2);
        let pf = bo.on_access(&access(20_000, 100_000));
        assert_eq!(pf, vec![100_002]);
    }

    #[test]
    fn random_stream_eventually_disables_or_struggles() {
        // A stream with no reusable offset should not sustain a high score.
        let mut bo = BestOffset::new();
        let mut x: u64 = 12345;
        for i in 0..60_000usize {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let block = (x >> 20) & 0xF_FFFF;
            let _ = bo.on_access(&access(i, block));
        }
        // After many rounds on random data the adopted offset, if any,
        // carries a near-zero score — verify scores stay tiny.
        assert!(bo.scores.iter().all(|&s| s < SCORE_MAX / 2));
    }

    #[test]
    fn storage_is_table_ix_scale() {
        // Table IX lists BO at 4 KB; ours must be the same order of magnitude.
        let bo = BestOffset::new();
        assert!(bo.storage_bytes() <= 8 << 10, "storage {}", bo.storage_bytes());
    }

    #[test]
    fn degree_scales_emissions() {
        let mut bo = BestOffset::with_params(60, 4);
        for i in 0..20_000u64 {
            let _ = bo.on_access(&access(i as usize, 1_000 + i));
        }
        let pf = bo.on_access(&access(20_001, 500_000));
        assert_eq!(pf.len(), 4);
    }
}
