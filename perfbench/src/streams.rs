//! The served request streams, made from the run's seed.
//!
//! Every stream replays one of the eight `dart-trace` spec patterns. A
//! phase sends request `k` of an endless, deterministic sequence:
//!
//! * warm phases cycle round-robin over `streams` long streams, so request
//!   `k` is access `k / streams` of stream `k % streams`, and the first
//!   `streams * (seq_len - 1)` requests are the untimed warm-up;
//! * churn phases keep `active` short-lived streams in flight, each sending
//!   `per_stream` (< `seq_len`) accesses and never seen again.
//!
//! Stream ids are unique across the phases of a run, and their parity
//! equals that of `k`, so `k % 2` names the one connection that carries a
//! stream.

use dart_trace::{spec_workloads, TraceRecord};

/// Accesses generated per warm stream; longer phases wrap around.
pub const WARM_LEN: usize = 4096;
/// Accesses per source trace that churn streams are cut from.
const CHURN_SRC_LEN: usize = 1 << 16;

/// One request as the generator sends it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    /// Stream id, unique within the run.
    pub sid: u32,
    /// Position of this access within its stream.
    pub pos: u32,
    pub pc: u64,
    pub addr: u64,
}

impl Req {
    pub fn block(&self) -> u64 {
        self.addr >> dart_core::BLOCK_BITS
    }
}

/// Deterministic per-stream trace seed, top bit clear (the fit's seeds
/// have it set).
fn stream_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 1
}

/// How a phase's request sequence is made.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    Warm { base: u32, streams: u32 },
    Churn { base: u32, active: u32, per_stream: u32 },
}

/// The traces every phase draws from.
pub struct Pool {
    seed: u64,
    /// Warm streams, generated on first use and keyed by stream id.
    warm: std::collections::BTreeMap<u32, Vec<TraceRecord>>,
    /// Eight long traces churn streams are cut from.
    churn: Vec<Vec<TraceRecord>>,
}

impl Pool {
    pub fn new(seed: u64) -> Pool {
        Pool { seed, warm: Default::default(), churn: Vec::new() }
    }

    /// Generate the traces `shape` needs (idempotent).
    pub fn prepare(&mut self, shape: Shape) {
        let workloads = spec_workloads();
        match shape {
            Shape::Warm { base, streams } => {
                for sid in base..base + streams {
                    let w = &workloads[sid as usize % workloads.len()];
                    let seed = stream_seed(self.seed, sid as u64);
                    self.warm.entry(sid).or_insert_with(|| w.generate(WARM_LEN, seed));
                }
            }
            Shape::Churn { .. } => {
                if self.churn.is_empty() {
                    self.churn = workloads
                        .iter()
                        .enumerate()
                        .map(|(i, w)| {
                            w.generate(CHURN_SRC_LEN, stream_seed(self.seed, (1 << 40) + i as u64))
                        })
                        .collect();
                }
            }
        }
    }

    /// The record behind access `pos` of stream `sid` in a phase of `shape`.
    pub fn record(&self, shape: Shape, sid: u32, pos: u32) -> TraceRecord {
        match shape {
            Shape::Warm { .. } => {
                let t = &self.warm[&sid];
                t[pos as usize % t.len()]
            }
            Shape::Churn { base, per_stream, .. } => {
                let n = (sid - base) as usize;
                let src = &self.churn[n % self.churn.len()];
                src[(per_stream as usize * (n / self.churn.len()) + pos as usize) % src.len()]
            }
        }
    }

    /// Request `k` of a phase.
    pub fn req(&self, shape: Shape, k: u64) -> Req {
        let (sid, pos) = locate(shape, k);
        let rec = self.record(shape, sid, pos);
        Req { sid, pos, pc: rec.pc, addr: rec.addr }
    }

    /// Blocks of stream `sid`'s accesses `0..len`.
    #[cfg(test)]
    fn blocks(&self, shape: Shape, sid: u32, len: usize) -> Vec<u64> {
        (0..len as u32).map(|pos| self.record(shape, sid, pos).block()).collect()
    }
}

/// Stream id and position of request `k`.
pub fn locate(shape: Shape, k: u64) -> (u32, u32) {
    match shape {
        Shape::Warm { base, streams } => {
            let s = streams as u64;
            (base + (k % s) as u32, (k / s) as u32)
        }
        Shape::Churn { base, active, per_stream } => {
            let a = active as u64;
            let (slot, j) = (k % a, k / a);
            let generation = j / per_stream as u64;
            (base + (generation * a + slot) as u32, (j % per_stream as u64) as u32)
        }
    }
}

/// Requests after which a phase's sequence may be cut without leaving a
/// stream half sent: any multiple of `conns` for warm streams (they
/// resume in the next window), a whole generation of churn streams (a
/// cut one would be evicted before it resumed).
pub fn period(shape: Shape, conns: u64) -> u64 {
    match shape {
        Shape::Warm { .. } => conns,
        Shape::Churn { active, per_stream, .. } => {
            (active as u64 * per_stream as u64).next_multiple_of(conns)
        }
    }
}

/// Untimed warm-up requests at the head of a phase.
pub fn warmup(shape: Shape, seq_len: usize) -> u64 {
    match shape {
        Shape::Warm { streams, .. } => streams as u64 * (seq_len as u64 - 1),
        Shape::Churn { .. } => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_requests_cycle_over_streams() {
        let shape = Shape::Warm { base: 10, streams: 4 };
        assert_eq!(locate(shape, 0), (10, 0));
        assert_eq!(locate(shape, 3), (13, 0));
        assert_eq!(locate(shape, 5), (11, 1));
        assert_eq!(warmup(shape, 16), 60);
    }

    #[test]
    fn churn_streams_are_short_and_never_reused() {
        let shape = Shape::Churn { base: 100, active: 4, per_stream: 3 };
        let mut seen = std::collections::HashMap::new();
        for k in 0..120u64 {
            let (sid, pos) = locate(shape, k);
            let n = seen.entry(sid).or_insert(0u32);
            assert_eq!(pos, *n, "stream {sid} accesses arrive in order");
            *n += 1;
            // The stream rides on the connection of k's parity.
            assert_eq!(sid % 2, (k % 2) as u32);
        }
        assert!(seen.values().all(|&n| n == 3));
        assert_eq!(seen.len(), 40);
    }

    #[test]
    fn pool_is_deterministic_per_seed() {
        let shape = Shape::Warm { base: 0, streams: 2 };
        let mut a = Pool::new(7);
        let mut b = Pool::new(7);
        let mut c = Pool::new(8);
        for p in [&mut a, &mut b, &mut c] {
            p.prepare(shape);
        }
        assert_eq!(a.req(shape, 41), b.req(shape, 41));
        assert_ne!(a.blocks(shape, 0, 64), c.blocks(shape, 0, 64));
    }
}
