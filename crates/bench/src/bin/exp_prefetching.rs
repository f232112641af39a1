//! Fig. 12, 13 and 14 — prefetch accuracy, coverage and IPC improvement of
//! the DART variants and every baseline, printed from one evaluation of
//! the prefetcher matrix.
//!
//! Set `DART_REUSE=1` to reprint the matrix an earlier run cached under
//! `target/experiments/` instead of recomputing it.

use dart_bench::prefetch_eval::{load_or_run, print_metric_table};
use dart_bench::{record_json, ExperimentContext};

/// Paper Fig. 12 mean accuracies.
const ACCURACY: [(&str, f64); 9] = [
    ("BO", 0.894),
    ("ISB", 0.774), // read from the figure; the text highlights the others
    ("DART-S", 0.806),
    ("DART", 0.807),
    ("DART-L", 0.825),
    ("TransFetch", 0.786),
    ("TransFetch-I", 0.896),
    ("Voyager", 0.499),
    ("Voyager-I", 0.951),
];

/// Paper Fig. 13 mean coverages.
const COVERAGE: [(&str, f64); 9] = [
    ("BO", 0.461), // read from the figure
    ("ISB", 0.05),
    ("DART-S", 0.483),
    ("DART", 0.510),
    ("DART-L", 0.518),
    ("TransFetch", 0.144),
    ("TransFetch-I", 0.547),
    ("Voyager", 0.021),
    ("Voyager-I", 0.470),
];

/// Paper Fig. 14 mean IPC improvements (percentage points).
const IPC: [(&str, f64); 9] = [
    ("BO", 31.5),
    ("ISB", 1.6),
    ("DART-S", 35.4),
    ("DART", 37.6),
    ("DART-L", 38.5),
    ("TransFetch", 4.5),
    ("TransFetch-I", 40.9),
    ("Voyager", 0.38),
    ("Voyager-I", 38.8), // DART-S underperforms Voyager-I by 3.4% per the text
];

fn main() {
    let ctx = ExperimentContext::from_env();
    let matrix = load_or_run(&ctx);
    print_metric_table("Fig. 12: prefetch accuracy", &matrix, &ACCURACY, |c| c.accuracy, false);
    println!(
        "\nShape check (paper): the ideal NN prefetchers top the chart; adding \
         real latency collapses Voyager hardest (0.951 -> 0.499) and dents \
         TransFetch; DART stays close to its ideal because its latency is tiny."
    );
    print_metric_table("Fig. 13: prefetch coverage", &matrix, &COVERAGE, |c| c.coverage, false);
    println!(
        "\nShape check (paper): latency costs the practical NN prefetchers most of \
         their coverage (TransFetch 0.547 -> 0.144, Voyager 0.470 -> 0.021); \
         DART keeps coverage near its ideal."
    );
    print_metric_table(
        "Fig. 14: IPC improvement over no-prefetch",
        &matrix,
        &IPC,
        |c| c.ipc_improvement_pct,
        true,
    );
    println!(
        "\nShape check (paper): DART variants beat BO and crush the practical NN \
         prefetchers (TransFetch 4.5%, Voyager 0.38%), landing a few points \
         below the zero-latency ideals."
    );
    record_json("prefetching", &serde_json::to_value(&matrix).unwrap());
}
