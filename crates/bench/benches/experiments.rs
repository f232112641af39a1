//! `cargo bench` entry point that regenerates every table and figure at
//! reduced scale (the per-experiment binaries under `src/bin/` do the same
//! individually, with `DART_SCALE=full` for paper-faithful sizes).
//!
//! This is a `harness = false` bench target: it shells out to the already
//! built experiment binaries so their stdout lands in the bench log.

use std::process::Command;

fn run(bin: &str, envs: &[(&str, &str)]) {
    println!("\n############ {bin} ############");
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args(["run", "--release", "-p", "dart-bench", "--bin", bin]);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    match cmd.status() {
        Ok(s) if s.success() => {}
        Ok(s) => eprintln!("{bin} exited with {s}"),
        Err(e) => eprintln!("failed to run {bin}: {e}"),
    }
}

fn main() {
    // Honour `cargo bench -- <filter>`: run only experiments whose name
    // contains the filter string.
    let filter = std::env::args().nth(1).filter(|a| !a.starts_with('-'));
    let experiments = [
        "exp_table3",
        "exp_table4",
        "exp_table5",
        "exp_table8",
        "exp_table9",
        "exp_fig7",
        "exp_fig10",
        "exp_table6",
        "exp_table7",
        "exp_fig8",
        "exp_fig9",
        "exp_fig11",
        "exp_prefetching",
        "exp_ablations",
        "exp_headline",
    ];
    for bin in experiments {
        if let Some(f) = &filter {
            if !bin.contains(f.as_str()) {
                continue;
            }
        }
        // Training-heavy experiments run on a 2-workload subset so the whole
        // regeneration stays within a coffee break (unset DART_WORKLOADS and
        // DART_SCALE=full for the paper-faithful runs).
        let heavy = ["exp_table6", "exp_table7", "exp_fig8", "exp_fig9", "exp_prefetching"];
        let envs: &[(&str, &str)] =
            if heavy.contains(&bin) { &[("DART_WORKLOADS", "2")] } else { &[] };
        run(bin, envs);
    }
    println!("\nAll experiments done. JSON records: target/experiments/");
}
