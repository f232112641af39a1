//! # dart-sim — trace-driven cache/CPU simulator
//!
//! A ChampSim-substitute for evaluating LLC prefetchers (paper §VII-A,
//! Table III). The simulator consumes a load trace (one record per memory
//! instruction, with instruction-id gaps modeling non-memory work) and
//! produces cycles/IPC plus prefetch accuracy and coverage.
//!
//! Model summary (each point simplifies ChampSim, keeping only what
//! separates prefetchers: memory-level parallelism, DRAM contention and
//! prefetch timeliness):
//!
//! * three-level hierarchy (L1D → L2 → LLC) of set-associative LRU caches,
//! * DRAM with fixed access latency, limited in-flight requests (the LLC
//!   MSHR budget), and a per-core bandwidth model,
//! * a simplified out-of-order core: instructions issue at `width`/cycle and
//!   a load blocks issue once it is `rob_size` instructions old and still
//!   incomplete — this reproduces memory-level parallelism within the ROB
//!   window and stall-on-full-ROB behaviour,
//! * LLC prefetchers observe every LLC *demand* access (hit or miss) and may
//!   issue block prefetches that become visible only after the prefetcher's
//!   **inference latency** — the mechanism that separates DART from the
//!   idealized NN prefetchers in Fig. 12–14,
//! * late prefetches (demand arrives while the prefetch is in flight)
//!   partially hide latency, exactly the effect that collapses
//!   TransFetch/Voyager accuracy when latency is modeled.

pub mod cache;
pub mod config;
pub mod dram;
pub mod engine;
pub mod metrics;
pub mod prefetcher;

pub use config::{CacheConfig, CoreConfig, DramConfig, SimConfig};
pub use engine::Simulator;
pub use metrics::SimResult;
pub use prefetcher::{LlcAccess, NullPrefetcher, Prefetcher};
