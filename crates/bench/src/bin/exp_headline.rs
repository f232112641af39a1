//! Headline reproduction summary: collects the JSON records the other
//! experiment binaries saved under `target/experiments/` and prints the
//! paper's abstract-level claims next to our measurements.
//!
//! Run after the other experiments (or after `cargo bench`):
//!
//! ```sh
//! cargo run --release -p dart-bench --bin exp_headline
//! ```

use dart_bench::{print_table, Table};
use serde_json::Value;

fn load(name: &str) -> Option<Value> {
    let path = format!("target/experiments/{name}.json");
    let data = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&data).ok()
}

fn mean_of(records: &Value, stage: &str) -> Option<f64> {
    let arr = records.as_array()?;
    let vals: Vec<f64> = arr.iter().filter_map(|r| r.get("ours")?.get(stage)?.as_f64()).collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

fn prefetch_mean(matrix: &Value, prefetcher: &str, metric: &str) -> Option<f64> {
    let cells = matrix.get("cells")?.as_array()?;
    let vals: Vec<f64> = cells
        .iter()
        .filter(|c| c.get("prefetcher").and_then(Value::as_str) == Some(prefetcher))
        .filter_map(|c| c.get(metric)?.as_f64())
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

fn fmt(v: Option<f64>, scale: f64, suffix: &str) -> String {
    v.map_or("(run exp first)".into(), |x| format!("{:.3}{suffix}", x * scale))
}

fn main() {
    let mut t = Table::new(&["Claim (paper abstract/§VII)", "Paper", "Ours"]);

    if let Some(t5) = load("table5") {
        let get = |m: &str, f: &str| t5.get(m).and_then(|v| v.get(f)).and_then(Value::as_u64);
        if let (Some(tl), Some(dl), Some(to), Some(dops), Some(so), Some(sl)) = (
            get("teacher", "latency_cycles"),
            get("dart", "latency_cycles"),
            get("teacher", "ops"),
            get("dart", "ops"),
            get("student", "ops"),
            get("student", "latency_cycles"),
        ) {
            t.row(vec![
                "Accelerates the large model by".into(),
                "170x".into(),
                format!("{:.0}x", tl as f64 / dl as f64),
            ]);
            t.row(vec![
                "Accelerates the distilled model by".into(),
                "9.4x".into(),
                format!("{:.1}x", sl as f64 / dl as f64),
            ]);
            t.row(vec![
                "Arithmetic ops removed vs large model".into(),
                "99.99%".into(),
                format!("{:.2}%", (1.0 - dops as f64 / to as f64) * 100.0),
            ]);
            t.row(vec![
                "Arithmetic ops removed vs distilled".into(),
                "91.83%".into(),
                format!("{:.2}%", (1.0 - dops as f64 / so as f64) * 100.0),
            ]);
        }
    }

    if let (Some(t6), Some(t7)) = (load("table6"), load("table7")) {
        let student = mean_of(&t6, "student");
        let dart = mean_of(&t7, "dart");
        if let (Some(s), Some(d)) = (student, dart) {
            t.row(vec![
                "F1 drop from tabularization (student -> DART)".into(),
                "0.09 (0.783 -> 0.699)".into(),
                format!("{:.3} ({s:.3} -> {d:.3})", s - d),
            ]);
        }
        let no_ft = mean_of(&t7, "dart_no_ft");
        if let (Some(nf), Some(d)) = (no_ft, dart) {
            t.row(vec![
                "Fine-tuning F1 gain".into(),
                "+5.75% rel (0.661 -> 0.699)".into(),
                format!("{:+.1}% rel ({nf:.3} -> {d:.3})", (d / nf - 1.0) * 100.0),
            ]);
        }
        let kd = mean_of(&t6, "student");
        let no_kd = mean_of(&t6, "student_no_kd");
        if let (Some(kd), Some(nk)) = (kd, no_kd) {
            t.row(vec![
                "KD F1 gain (student vs no-KD)".into(),
                "0.751 -> 0.783".into(),
                format!("{nk:.3} -> {kd:.3}"),
            ]);
        }
    }

    if let Some(m) = load("prefetching") {
        let ipc = |p: &str| prefetch_mean(&m, p, "ipc_improvement_pct");
        t.row(vec!["DART IPC improvement".into(), "37.6%".into(), fmt(ipc("DART"), 1.0, "%")]);
        if let (Some(d), Some(b)) = (ipc("DART"), ipc("BO")) {
            t.row(vec![
                "DART over BO (IPC points)".into(),
                "+6.1%".into(),
                format!("{:+.1}%", d - b),
            ]);
        }
        if let (Some(d), Some(tf)) = (ipc("DART"), ipc("TransFetch")) {
            t.row(vec![
                "DART over TransFetch (IPC points)".into(),
                "+33.1%".into(),
                format!("{:+.1}%", d - tf),
            ]);
        }
        if let (Some(d), Some(v)) = (ipc("DART"), ipc("Voyager")) {
            t.row(vec![
                "DART over Voyager (IPC points)".into(),
                "+37.2%".into(),
                format!("{:+.1}%", d - v),
            ]);
        }
        let acc = |p: &str| prefetch_mean(&m, p, "accuracy");
        if let (Some(d), Some(di)) = (acc("DART"), acc("TransFetch-I")) {
            t.row(vec![
                "DART accuracy vs zero-latency attention ideal".into(),
                "80.7% vs 89.6%".into(),
                format!("{:.1}% vs {:.1}%", d * 100.0, di * 100.0),
            ]);
        }
    }

    print_table("Headline reproduction summary (quick scale)", &t);
    println!(
        "\nMissing rows mean the experiment that records them has not been run yet: \
         exp_table5 (latency, ops), exp_table6 + exp_table7 (F1), \
         exp_prefetching (accuracy, IPC)."
    );
}
