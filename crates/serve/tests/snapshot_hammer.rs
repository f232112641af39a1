//! Concurrent-snapshot consistency hammer: many submitter threads drive
//! the runtime while a poller calls `stats_snapshot()` in a tight loop,
//! asserting that **every** snapshot is internally consistent — the
//! whole-batch report commit means a snapshot can never observe a
//! half-counted batch, and counters only move forward between polls.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use dart_core::config::TabularConfig;
use dart_core::tabularize::tabularize;
use dart_core::TabularModel;
use dart_nn::init::InitRng;
use dart_nn::matrix::Matrix;
use dart_nn::model::{AccessPredictor, ModelConfig};
use dart_serve::{generate_requests, LoadGenConfig, ServeConfig, ServeRuntime, ServeStats};
use dart_trace::PreprocessConfig;

/// A tiny tabularized model + preprocessing pair (fast to fit).
fn tiny_setup() -> (Arc<TabularModel>, PreprocessConfig) {
    let pre = PreprocessConfig {
        seq_len: 4,
        addr_segments: 3,
        seg_bits: 4,
        pc_segments: 1,
        delta_range: 4,
        lookforward: 4,
    };
    let cfg = ModelConfig {
        input_dim: pre.input_dim(),
        dim: 8,
        heads: 2,
        layers: 1,
        ffn_dim: 16,
        output_dim: pre.output_dim(),
        seq_len: pre.seq_len,
    };
    let student = AccessPredictor::new(cfg, 3).unwrap();
    let mut rng = InitRng::new(9);
    let x = Matrix::from_fn(40 * 4, pre.input_dim(), |_, _| rng.next_f32());
    let tab_cfg = TabularConfig { k: 8, c: 2, fine_tune_epochs: 0, ..Default::default() };
    let (model, _) = tabularize(&student, &x, &tab_cfg);
    (Arc::new(model), pre)
}

/// The invariants every single snapshot must satisfy, no matter when it
/// was taken relative to in-flight batches.
fn assert_consistent(s: &ServeStats, ctx: &str) {
    assert!(
        s.predictions <= s.requests,
        "{ctx}: predictions {} > requests {}",
        s.predictions,
        s.requests
    );
    assert_eq!(
        s.latency.count(),
        s.requests,
        "{ctx}: latency histogram count {} != requests {} (torn batch commit)",
        s.latency.count(),
        s.requests
    );
    assert!(s.batches <= s.requests, "{ctx}: batches {} > requests {}", s.batches, s.requests);
    let per_shard: u64 = s.per_shard_requests.iter().sum();
    assert_eq!(
        per_shard, s.requests,
        "{ctx}: per-shard requests sum {per_shard} != total {}",
        s.requests
    );
    if s.requests > 0 {
        assert!(s.max_batch >= 1, "{ctx}: served requests but max_batch 0");
    }
}

/// Extra invariants that only hold at quiescence (workers joined): the
/// lock-free batch-size and lifecycle-stage cells are recorded *after*
/// the report commit, so mid-flight snapshots may see them lag or lead by
/// one batch — but once the workers are gone the views must agree
/// exactly. Every batch is stamped with all four stages.
fn assert_quiescent(s: &ServeStats, ctx: &str) {
    assert_consistent(s, ctx);
    assert_eq!(
        s.batch_sizes.sum(),
        s.requests,
        "{ctx}: batch-size histogram mass {} != requests {}",
        s.batch_sizes.sum(),
        s.requests
    );
    assert_eq!(
        s.batch_sizes.count(),
        s.batches,
        "{ctx}: batch-size histogram count {} != batches {}",
        s.batch_sizes.count(),
        s.batches
    );
    assert_eq!(
        s.stage_queue_wait.count(),
        s.requests,
        "{ctx}: queue-wait stage count {} != requests {}",
        s.stage_queue_wait.count(),
        s.requests
    );
    for (stage, h) in
        [("coalesce", &s.stage_coalesce), ("kernel", &s.stage_kernel), ("sink", &s.stage_sink)]
    {
        assert_eq!(
            h.count(),
            s.batches,
            "{ctx}: {stage} stage count {} != batches {}",
            h.count(),
            s.batches
        );
    }
}

/// Counters are monotone across successive snapshots.
fn assert_monotone(prev: &ServeStats, next: &ServeStats, ctx: &str) {
    assert!(next.requests >= prev.requests, "{ctx}: requests went backwards");
    assert!(next.predictions >= prev.predictions, "{ctx}: predictions went backwards");
    assert!(next.batches >= prev.batches, "{ctx}: batches went backwards");
    assert!(next.failed >= prev.failed, "{ctx}: failed went backwards");
    assert!(next.stream_evictions >= prev.stream_evictions, "{ctx}: evictions went backwards");
    assert!(next.latency.count() >= prev.latency.count(), "{ctx}: histogram shrank");
}

fn hammer(cfg: ServeConfig, submitters: usize, per_submitter_streams: usize) -> ServeStats {
    let (model, pre) = tiny_setup();
    let runtime = Arc::new(ServeRuntime::start(model, pre, cfg));
    let accesses = 60usize;

    let done = Arc::new(AtomicBool::new(false));
    let poller = {
        let runtime = Arc::clone(&runtime);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut prev = runtime.stats_snapshot();
            let mut polls = 0u64;
            assert_consistent(&prev, "first poll");
            while !done.load(Ordering::Acquire) {
                let s = runtime.stats_snapshot();
                assert_consistent(&s, "live poll");
                assert_monotone(&prev, &s, "live poll");
                prev = s;
                polls += 1;
            }
            // One more after the submitters are done, so at least one
            // snapshot observes the final totals.
            let s = runtime.stats_snapshot();
            assert_consistent(&s, "final poll");
            assert_monotone(&prev, &s, "final poll");
            polls + 1
        })
    };

    let mut total_submitted = 0usize;
    let handles: Vec<_> = (0..submitters)
        .map(|i| {
            let runtime = Arc::clone(&runtime);
            // Disjoint stream-id ranges per submitter: generate with a
            // per-submitter seed and shift the ids.
            let reqs = generate_requests(&LoadGenConfig {
                streams: per_submitter_streams,
                accesses_per_stream: accesses,
                seed: 100 + i as u64,
            });
            total_submitted += reqs.len();
            let offset = (i * per_submitter_streams) as u64;
            thread::spawn(move || {
                for mut req in reqs {
                    req.stream_id += offset;
                    runtime.submit(req);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    runtime.wait_idle();
    done.store(true, Ordering::Release);
    let polls = poller.join().unwrap();
    assert!(polls >= 2, "poller barely ran");

    let runtime = Arc::into_inner(runtime).expect("all clones dropped");
    let stats = runtime.shutdown();
    assert_quiescent(&stats, "shutdown");
    assert_eq!(
        stats.requests + stats.failed,
        total_submitted as u64,
        "every submitted request is either served or failed"
    );
    stats
}

#[test]
fn snapshots_stay_consistent_under_concurrent_submitters() {
    let cfg = ServeConfig { shards: 4, max_batch: 16, threshold: 0.0, ..ServeConfig::default() };
    let stats = hammer(cfg, 8, 4);
    assert_eq!(stats.failed, 0, "healthy run must not fail requests");
    assert!(stats.requests > 0);
}

#[test]
fn snapshots_stay_consistent_across_worker_death() {
    // Fault injection: the shard serving stream 1 panics mid-batch. Every
    // snapshot — taken before, during, or after the death — must still be
    // internally consistent, and the dying batch's requests surface as
    // failure responses rather than vanishing.
    let cfg = ServeConfig {
        shards: 4,
        max_batch: 16,
        threshold: 0.0,
        panic_on_stream: Some(1),
        ..ServeConfig::default()
    };
    let stats = hammer(cfg, 8, 4);
    assert_eq!(stats.worker_panics.len(), 1, "exactly one worker died");
    assert!(stats.failed > 0, "dying batch surfaces as failures");
}
