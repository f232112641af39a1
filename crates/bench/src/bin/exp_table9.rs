//! Table IX — prefetcher configurations: paper values plus the measured
//! storage of our implementations.

use dart_bench::report::human_bytes;
use dart_bench::{print_table, record_json, Table};
use dart_prefetch::spec::table_ix;
use dart_prefetch::{BestOffset, Isb};
use dart_sim::Prefetcher;

fn main() {
    let mut t = Table::new(&[
        "Prefetcher",
        "Storage (paper)",
        "Latency (paper)",
        "Table",
        "ML",
        "Mechanism",
        "Our impl storage",
    ]);
    let bo = BestOffset::new();
    let isb = Isb::new();
    let mut records = Vec::new();
    for spec in table_ix() {
        let ours = match spec.name.as_str() {
            "BO" => human_bytes(bo.storage_bytes()),
            "ISB" => human_bytes(isb.storage_bytes()),
            "DART" => "measured per run (exp_prefetching)".into(),
            name if name.ends_with("-I") => "-".into(),
            _ => "model params x 4B".into(),
        };
        t.row(vec![
            spec.name.clone(),
            spec.storage_bytes.map_or("-".into(), human_bytes),
            if spec.latency_cycles == 0 { "0".into() } else { format!("~{}", spec.latency_cycles) },
            if spec.table_based { "yes" } else { "no" }.into(),
            if spec.ml_based { "yes" } else { "no" }.into(),
            spec.mechanism.clone(),
            ours,
        ]);
        records.push(serde_json::to_value(&spec).unwrap());
    }
    print_table("Table IX: prefetcher configurations", &t);
    record_json("table9", &serde_json::Value::Array(records));
}
