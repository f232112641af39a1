//! # dart-telemetry — live observability for the DART serving stack
//!
//! The paper's claim is a *serving-latency budget*; a budget you can only
//! check after shutdown is not a budget. This crate is the measurement
//! substrate the runtime reports through **while it serves**:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic metric cells, cheap enough
//!   to sit on kernel entry points and queue hot paths.
//! * [`Histogram`] — the log2-bucketed latency histogram (promoted out of
//!   `dart-serve`'s shard internals): O(1) memory, mergeable,
//!   percentile/mean queries. [`AtomicHistogram`] is its shareable twin
//!   with atomic-bucket recording for concurrent writers.
//! * [`MetricsRegistry`] — a process-wide (or per-component) registry of
//!   named cells with a Prometheus-style plaintext [`MetricsRegistry::render`].
//! * [`Exposition`] — the shared plaintext formatter (`# HELP`/`# TYPE`
//!   lines, label escaping, cumulative histogram buckets) used by the
//!   registry and by `dart-serve`'s `ServeStats` exposition.
//! * [`lockcheck`] — the serving stack's mutex facade: `std::sync`
//!   re-exports by default, order-tracked mutexes that panic on
//!   lock-order cycles under the `lockcheck` cargo feature.
//!
//! Everything here is std-only and allocation-free on the record paths;
//! the only lock is in the registry's *registration* path (off the
//! per-request hot path).

pub mod cell;
pub mod expo;
pub mod hist;
pub mod lockcheck;
pub mod registry;

pub use cell::{Counter, Gauge};
pub use expo::{Exposition, MetricKind};
pub use hist::{AtomicHistogram, Histogram, BUCKETS};
pub use registry::{global, MetricsRegistry};
