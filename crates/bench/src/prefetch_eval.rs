//! The Fig. 12–14 evaluation matrix: every prefetcher on every workload,
//! reporting accuracy, coverage, and IPC improvement over a no-prefetch
//! baseline.

use dart_core::configurator::model_latency;
use dart_core::distill::distill;
use dart_core::tabularize::tabularize;
use dart_core::DistillConfig;
use dart_nn::model::{AccessPredictor, SequenceModel};
use dart_nn::train::train_bce;
use dart_prefetch::{precompute_predictions, BestOffset, DartPrefetcher, Isb, NnBatchPrefetcher};
use dart_sim::{NullPrefetcher, Prefetcher, SimResult};
use dart_trace::spec_workloads;
use serde::{Deserialize, Serialize};

use crate::context::ExperimentContext;
use crate::zoo::{
    dart_variants, student_config, tabular_config, teacher_config, train_config, train_voyager,
};

/// Bitmap probability threshold for issuing a prefetch.
const PREDICT_THRESHOLD: f32 = 0.5;
/// Maximum prefetches per trigger (variable-degree cap).
const MAX_DEGREE: usize = 8;
/// TransFetch inference latency (paper Table IX).
const TRANSFETCH_LATENCY: u64 = 4_500;
/// Voyager inference latency (paper Table IX).
const VOYAGER_LATENCY: u64 = 27_700;

/// One (workload, prefetcher) cell of the Fig. 12–14 matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PrefetchCell {
    /// Workload name.
    pub workload: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Prefetch accuracy (Fig. 12).
    pub accuracy: f64,
    /// Prefetch coverage (Fig. 13).
    pub coverage: f64,
    /// IPC improvement over no-prefetch, percent (Fig. 14).
    pub ipc_improvement_pct: f64,
    /// Prefetcher storage (bytes).
    pub storage_bytes: u64,
    /// Prefetcher latency (cycles).
    pub latency_cycles: u64,
}

/// Full evaluation output.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PrefetchMatrix {
    /// All cells, grouped by workload then prefetcher.
    pub cells: Vec<PrefetchCell>,
}

impl PrefetchMatrix {
    /// Prefetcher names in first-appearance order.
    pub fn prefetchers(&self) -> Vec<String> {
        let mut names = Vec::new();
        for c in &self.cells {
            if !names.contains(&c.prefetcher) {
                names.push(c.prefetcher.clone());
            }
        }
        names
    }

    /// Mean of a metric across workloads for one prefetcher.
    pub fn mean(&self, prefetcher: &str, metric: impl Fn(&PrefetchCell) -> f64) -> f64 {
        let vals: Vec<f64> =
            self.cells.iter().filter(|c| c.prefetcher == prefetcher).map(&metric).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

/// How many workloads to evaluate (env `DART_WORKLOADS`, default all 8).
pub fn workload_limit() -> usize {
    std::env::var("DART_WORKLOADS").ok().and_then(|v| v.parse().ok()).unwrap_or(8).clamp(1, 8)
}

/// Run the full prefetcher-evaluation matrix.
///
/// Per workload: a no-prefetch baseline, BO, ISB, the three DART variants
/// (fresh student + tables each), TransFetch(-I) replaying the teacher's
/// predictions, and Voyager(-I) replaying a trained LSTM's predictions.
pub fn run_matrix(ctx: &ExperimentContext, verbose: bool) -> PrefetchMatrix {
    let mut matrix = PrefetchMatrix::default();
    let workloads: Vec<_> = spec_workloads().into_iter().take(workload_limit()).collect();

    for (wi, workload) in workloads.iter().enumerate() {
        if verbose {
            eprintln!("[prefetch-eval] {} ({}/{})", workload.name, wi + 1, workloads.len());
        }
        let prepared = ctx.prepare(workload, 0x5EC + wi as u64 * 101);
        let baseline = ctx.sim.run(&prepared.trace, &mut NullPrefetcher, false);

        let mut push = |name: &str, result: &SimResult, storage: u64, latency: u64| {
            matrix.cells.push(PrefetchCell {
                workload: workload.name.clone(),
                prefetcher: name.to_string(),
                accuracy: result.prefetch_accuracy(),
                coverage: result.prefetch_coverage(),
                ipc_improvement_pct: result.ipc_improvement_pct(&baseline),
                storage_bytes: storage,
                latency_cycles: latency,
            });
        };

        // Rule-based baselines.
        let mut bo = BestOffset::new();
        let r = ctx.sim.run(&prepared.trace, &mut bo, false);
        push("BO", &r, bo.storage_bytes(), bo.latency());

        let mut isb = Isb::new();
        let r = ctx.sim.run(&prepared.trace, &mut isb, false);
        push("ISB", &r, isb.storage_bytes(), isb.latency());

        // One teacher per workload, shared by every DART variant (each
        // variant distills its own student from it) and by TransFetch.
        let mut teacher =
            AccessPredictor::new(teacher_config(ctx.scale, &ctx.pre), 0x7EAC).expect("teacher");
        train_bce(&mut teacher, &prepared.train, &train_config(ctx.scale, 3, 8));

        for (name, variant) in dart_variants() {
            let dcfg =
                DistillConfig { train: train_config(ctx.scale, 5, 12), ..Default::default() };
            let (student, _) =
                distill(&mut teacher, student_config(&variant, &ctx.pre), &prepared.train, &dcfg);
            let (tabular, _) =
                tabularize(&student, &prepared.train.inputs, &tabular_config(ctx.scale, &variant));
            let latency = model_latency(&variant);
            let mut dart = DartPrefetcher::with_latency(
                name,
                tabular,
                ctx.pre,
                latency,
                PREDICT_THRESHOLD,
                MAX_DEGREE,
            );
            let r = ctx.sim.run(&prepared.trace, &mut dart, false);
            push(name, &r, dart.storage_bytes(), latency);
        }

        // TransFetch-like: the attention teacher with its Table IX latency,
        // plus the idealized zero-latency variant.
        let teacher_storage = (teacher.param_count() * 4) as u64;
        let preds = precompute_predictions(
            &mut teacher,
            &prepared.llc_trace,
            &ctx.pre,
            PREDICT_THRESHOLD,
            MAX_DEGREE,
        );
        for (name, latency) in [("TransFetch", TRANSFETCH_LATENCY), ("TransFetch-I", 0)] {
            let mut pf = NnBatchPrefetcher::new(name, latency, teacher_storage, preds.clone());
            let r = ctx.sim.run(&prepared.trace, &mut pf, false);
            push(name, &r, teacher_storage, latency);
        }

        // Voyager-like LSTM, practical and ideal.
        let mut voyager = train_voyager(&prepared, &ctx.pre, ctx.scale);
        let voyager_storage = (voyager.param_count() * 4) as u64;
        let preds = precompute_predictions(
            &mut voyager,
            &prepared.llc_trace,
            &ctx.pre,
            PREDICT_THRESHOLD,
            MAX_DEGREE,
        );
        for (name, latency) in [("Voyager", VOYAGER_LATENCY), ("Voyager-I", 0)] {
            let mut pf = NnBatchPrefetcher::new(name, latency, voyager_storage, preds.clone());
            let r = ctx.sim.run(&prepared.trace, &mut pf, false);
            push(name, &r, voyager_storage, latency);
        }
    }
    matrix
}

/// Path the evaluated matrix is cached at.
pub fn matrix_cache_path() -> std::path::PathBuf {
    std::path::PathBuf::from("target/experiments/prefetch_matrix.json")
}

/// Run the matrix, or reuse a previously saved one when `DART_REUSE=1`
/// (so `exp_prefetching` can reprint Fig. 12/13/14 without recomputing).
pub fn load_or_run(ctx: &ExperimentContext) -> PrefetchMatrix {
    let path = matrix_cache_path();
    if std::env::var("DART_REUSE").as_deref() == Ok("1") {
        if let Ok(data) = std::fs::read_to_string(&path) {
            if let Ok(matrix) = serde_json::from_str::<PrefetchMatrix>(&data) {
                eprintln!("[prefetch-eval] reusing cached matrix at {}", path.display());
                return matrix;
            }
        }
        eprintln!("[prefetch-eval] no usable cache; running fresh");
    }
    let matrix = run_matrix(ctx, true);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let _ = std::fs::write(&path, serde_json::to_string_pretty(&matrix).unwrap_or_default());
    matrix
}

/// Print one Fig. 12/13/14-style table from the matrix.
pub fn print_metric_table(
    title: &str,
    matrix: &PrefetchMatrix,
    paper_means: &[(&str, f64)],
    metric: impl Fn(&PrefetchCell) -> f64 + Copy,
    as_pct_points: bool,
) {
    use crate::report::{print_table, Table};
    let prefetchers = matrix.prefetchers();
    let mut headers: Vec<String> = vec!["Workload".into()];
    headers.extend(prefetchers.iter().cloned());
    let mut t = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());

    let mut workloads = Vec::new();
    for c in &matrix.cells {
        if !workloads.contains(&c.workload) {
            workloads.push(c.workload.clone());
        }
    }
    let fmt = |v: f64| {
        if as_pct_points {
            format!("{v:.1}%")
        } else {
            format!("{:.1}%", v * 100.0)
        }
    };
    for w in &workloads {
        let mut row = vec![w.clone()];
        for p in &prefetchers {
            let cell = matrix.cells.iter().find(|c| &c.workload == w && &c.prefetcher == p);
            row.push(cell.map_or("-".into(), |c| fmt(metric(c))));
        }
        t.row(row);
    }
    let mut mean_row = vec!["Mean (ours)".to_string()];
    for p in &prefetchers {
        mean_row.push(fmt(matrix.mean(p, metric)));
    }
    t.row(mean_row);
    let mut paper_row = vec!["Mean (paper)".to_string()];
    for p in &prefetchers {
        let v = paper_means.iter().find(|(name, _)| name == p).map(|&(_, v)| v);
        paper_row.push(v.map_or("-".into(), |v| {
            if as_pct_points {
                format!("{v:.1}%")
            } else {
                format!("{:.1}%", v * 100.0)
            }
        }));
    }
    t.row(paper_row);
    print_table(title, &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_means_are_per_prefetcher() {
        let mut m = PrefetchMatrix::default();
        for (w, acc) in [("a", 0.5), ("b", 0.7)] {
            m.cells.push(PrefetchCell {
                workload: w.into(),
                prefetcher: "BO".into(),
                accuracy: acc,
                coverage: 0.0,
                ipc_improvement_pct: 0.0,
                storage_bytes: 0,
                latency_cycles: 0,
            });
        }
        m.cells.push(PrefetchCell {
            workload: "a".into(),
            prefetcher: "ISB".into(),
            accuracy: 0.1,
            coverage: 0.0,
            ipc_improvement_pct: 0.0,
            storage_bytes: 0,
            latency_cycles: 0,
        });
        assert!((m.mean("BO", |c| c.accuracy) - 0.6).abs() < 1e-9);
        assert!((m.mean("ISB", |c| c.accuracy) - 0.1).abs() < 1e-9);
        assert_eq!(m.prefetchers(), vec!["BO".to_string(), "ISB".to_string()]);
        assert_eq!(m.mean("none", |c| c.accuracy), 0.0);
    }
}
