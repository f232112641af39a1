//! # dart-trace — memory-access trace substrate
//!
//! Everything DART needs from "a trace of LLC accesses":
//!
//! * [`record`] — the trace record type and address arithmetic (blocks,
//!   pages, deltas),
//! * [`io`] — compact binary and human-readable text serialization,
//! * [`synth`] — synthetic workload generators standing in for the paper's
//!   SPEC CPU 2006/2017 LLC traces, which are licensed and cannot ship with
//!   the repository; eight named workloads match the qualitative pattern
//!   classes and trace statistics of the paper's Table IV,
//! * [`preprocess`] — TransFetch-style input preparation (paper §VI-A):
//!   segmented block-address inputs and delta-bitmap labels over a
//!   look-forward window, producing `dart-nn` datasets,
//! * [`stats`] — trace statistics (Table IV) and the access-pattern scatter
//!   data behind Fig. 7,
//! * [`compose`] — slicing, offsetting, and multi-programmed interleaving of
//!   traces (shared-LLC robustness checks).

pub mod compose;
pub mod io;
pub mod preprocess;
pub mod record;
pub mod stats;
pub mod synth;

pub use preprocess::{build_dataset, PreprocessConfig};
pub use record::TraceRecord;
pub use stats::TraceStats;
pub use synth::{spec_workloads, workload_by_name, Workload, WorkloadKind};
