//! Ablation experiments for three design choices:
//!
//! 1. encoder kind (exact arg-min vs log-K hash tree),
//! 2. attention activation (Eq. 14 sigmoid vs per-subspace softmax),
//! 3. fused single-table FFN (paper §VIII future work) vs two kernels,
//!
//! each measured as held-out F1 on two representative workloads.

use dart_bench::zoo::{tabular_config, train_dart};
use dart_bench::{print_table, record_json, ExperimentContext, Table};
use dart_core::config::PredictorConfig;
use dart_core::eval::evaluate_tabular_f1;
use dart_core::tabularize::tabularize;
use dart_pq::{AttentionActivation, EncoderKind};
use dart_trace::workload_by_name;

fn main() {
    let ctx = ExperimentContext::from_env();
    let variant = PredictorConfig::dart();
    let apps = ["410.bwaves", "602.gcc"];
    let mut t = Table::new(&["Ablation", "Setting", "F1 (bwaves)", "F1 (gcc)"]);
    let mut records = Vec::new();

    // Train one student per app, reuse across all ablation settings.
    let mut students = Vec::new();
    for (wi, app) in apps.iter().enumerate() {
        eprintln!("[ablations] training {app}");
        let workload = workload_by_name(app).expect("workload");
        let prepared = ctx.prepare(&workload, 0xAB1A + wi as u64 * 17);
        let artifacts = train_dart(&prepared, &ctx.pre, ctx.scale, &variant, false);
        students.push((prepared, artifacts.student));
    }

    let mut run_setting =
        |name: &str, setting: &str, mutate: &dyn Fn(&mut dart_core::config::TabularConfig)| {
            let mut row = vec![name.to_string(), setting.to_string()];
            let mut scores = Vec::new();
            for (prepared, student) in &students {
                let mut cfg = tabular_config(ctx.scale, &variant);
                mutate(&mut cfg);
                let (tab, _) = tabularize(student, &prepared.train.inputs, &cfg);
                let f1 = evaluate_tabular_f1(&tab, &prepared.test, 256);
                row.push(format!("{f1:.3}"));
                scores.push(f1);
            }
            t.row(row);
            records.push(serde_json::json!({
                "ablation": name, "setting": setting, "f1": scores,
            }));
        };

    run_setting("encoder", "argmin (exact)", &|c| c.encoder = EncoderKind::Argmin);
    run_setting("encoder", "hash-tree (log K)", &|c| c.encoder = EncoderKind::HashTree);
    run_setting("attention act", "sigmoid (Eq. 14)", &|c| {
        c.activation = AttentionActivation::SigmoidScaled
    });
    run_setting("attention act", "softmax/subspace", &|c| {
        c.activation = AttentionActivation::SoftmaxPerSubspace
    });
    run_setting("ffn", "two kernels", &|c| c.fuse_ffn = false);
    run_setting("ffn", "fused table", &|c| c.fuse_ffn = true);

    print_table("Ablations: encoder, attention activation, fused FFN", &t);
    println!(
        "\nExpected shapes: argmin >= hash-tree (accuracy), sigmoid vs softmax \
         comparable (the fine-tuned layers absorb either), fused FFN trades \
         accuracy for half the FFN latency."
    );
    record_json("ablations", &serde_json::Value::Array(records));
}
