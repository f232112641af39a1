//! Set-up: fit the served model from the library defaults.
//!
//! The student (`ModelConfig::student`: L=1, D=32, H=2) is trained on a
//! trace of the eight `dart-trace` spec patterns and tabularized with
//! `TabularConfig::default()`. A change of library default (encoder kind,
//! K, C, fine-tuning) therefore shows in the benchmark instead of being
//! pinned away.

use std::time::Instant;

use dart_core::config::TabularConfig;
use dart_core::tabularize::tabularize;
use dart_core::TabularModel;
use dart_nn::matrix::Matrix;
use dart_nn::model::{AccessPredictor, ModelConfig};
use dart_nn::train::{train_bce, Dataset, TrainConfig};
use dart_trace::{build_dataset, spec_workloads, PreprocessConfig};

/// Accesses taken from each spec pattern for the fit.
const FIT_ACCESSES: usize = 100;
/// Student training epochs.
const FIT_EPOCHS: usize = 8;
/// Trace seeds of the fit. Served streams draw their seeds with the top
/// bit clear (see `streams.rs`), so the two never share a trace.
const FIT_SEED: u64 = 0xF17 | (1 << 63);

/// A fitted model and what each fitting step cost.
pub struct Fitted {
    pub student: AccessPredictor,
    pub model: TabularModel,
    pub train_s: f64,
    pub tabularize_s: f64,
}

/// The fit's training set: windows over every spec pattern.
pub fn fit_dataset(pre: &PreprocessConfig) -> Dataset {
    let (mut inputs, mut targets) = (Vec::new(), Vec::new());
    for (i, w) in spec_workloads().iter().enumerate() {
        let trace = w.generate(FIT_ACCESSES, FIT_SEED + i as u64);
        let d = build_dataset(&trace, pre, 2);
        inputs.push(d.inputs);
        targets.push(d.targets);
    }
    Dataset::new(Matrix::vstack(&inputs), Matrix::vstack(&targets), pre.seq_len)
}

/// Train the student and tabularize it.
pub fn fit(pre: &PreprocessConfig) -> Fitted {
    let data = fit_dataset(pre);
    let cfg = ModelConfig::student(pre.input_dim(), pre.output_dim(), pre.seq_len);
    let mut student = AccessPredictor::new(cfg, FIT_SEED).expect("student config is valid");
    let t0 = Instant::now();
    train_bce(&mut student, &data, &TrainConfig { epochs: FIT_EPOCHS, ..TrainConfig::default() });
    let train_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (model, _) = tabularize(&student, &data.inputs, &TabularConfig::default());
    let tabularize_s = t1.elapsed().as_secs_f64();
    Fitted { student, model, train_s, tabularize_s }
}
