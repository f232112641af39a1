//! Shard worker: queue, batch coalescing, and batched prediction.

use dart_telemetry::lockcheck::{named_mutex, Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::{Arc, PoisonError};
use std::time::Instant;

use dart_nn::matrix::Matrix;
use dart_telemetry::{AtomicHistogram, Gauge, Histogram};
use dart_trace::PreprocessConfig;

use crate::lru::StreamLru;
use crate::request::PrefetchResponse;
use crate::shadow::{ReplaySample, ReplaySampler};
use crate::slot::ModelHandle;

/// A request plus its enqueue timestamp (for latency accounting).
pub(crate) struct Envelope {
    pub req: crate::request::PrefetchRequest,
    pub enqueued: Instant,
}

/// The mutex+condvar request queue feeding one shard worker.
///
/// Capacity is bounded by `ServeConfig::queue_capacity`. Producers have
/// two ways in: [`Self::push`]/[`Self::push_all`] **block** while the
/// queue is full (in-process submitters), while [`Self::try_push`] fails
/// fast with the current depth (the network front-end turns that into a
/// protocol NACK instead of ever blocking an IO thread).
pub(crate) struct ShardQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    /// Producer-side condvar: blocked `push`/`push_all` callers wait here
    /// for space. Woken by `pop_batch` (space freed) AND by
    /// `shutdown`/`poison` — a producer parked on a full queue whose
    /// worker dies must wake and fail fast with the worker's panic
    /// message, never sleep forever (the wakeup-on-death bugfix).
    space: Condvar,
    /// Maximum queued envelopes (`usize::MAX` = unbounded).
    capacity: usize,
    /// Live queue depth, mirrored from `pending.len()` on every
    /// push/drain. A lock-free cell so `stats_snapshot` reads it without
    /// contending for the hot-path queue mutex.
    depth: Gauge,
}

/// Why [`ShardQueue::try_push`] bounced an envelope.
pub(crate) enum TryPushError {
    /// The queue is at capacity; `depth` is its length at rejection time
    /// (what a protocol NACK carries back to the client).
    Full { depth: u64 },
    /// The queue is shut down or its worker died; the caller must fail
    /// the envelope with this reason.
    Closed(Arc<str>),
}

struct QueueInner {
    pending: VecDeque<Envelope>,
    shutdown: bool,
    /// Set when the shard worker died (panicked): the queue will never be
    /// drained again, so pushes must be rejected back to the caller.
    dead: Option<Arc<str>>,
}

impl QueueInner {
    /// Why a push must be rejected right now, if it must be.
    fn reject_reason(&self) -> Option<Arc<str>> {
        if let Some(reason) = &self.dead {
            return Some(Arc::clone(reason));
        }
        if self.shutdown {
            return Some(Arc::from("shard queue already shut down"));
        }
        None
    }
}

impl ShardQueue {
    pub fn new(capacity: usize) -> ShardQueue {
        ShardQueue {
            inner: named_mutex(
                "serve.shard_queue",
                QueueInner { pending: VecDeque::new(), shutdown: false, dead: None },
            ),
            cv: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
            depth: Gauge::new(),
        }
    }

    /// Requests currently queued (not yet drained by the worker).
    /// Lock-free read of the mirrored depth gauge; clamped at 0 against
    /// transient push/drain interleavings.
    pub fn depth(&self) -> u64 {
        self.depth.get().max(0) as u64
    }

    /// Lock the queue, recovering from mutex poisoning: a panicking worker
    /// must not turn every later producer into a confusing `PoisonError`
    /// unwrap — the queue state is a plain FIFO and stays consistent.
    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue one request, **blocking while the queue is full**. After
    /// [`Self::shutdown`] or [`Self::poison`] the envelope is handed back
    /// with the reason instead: a request pushed into a queue no worker
    /// will drain again must be failed by the caller, never silently
    /// dropped. A producer parked here when the worker dies is woken by
    /// `poison`'s `space` notification and gets the rejection, so it can
    /// never hang on a dead shard.
    pub fn push(&self, env: Envelope) -> Result<(), (Vec<Envelope>, Arc<str>)> {
        let mut inner = self.lock();
        loop {
            if let Some(reason) = inner.reject_reason() {
                return Err((vec![env], reason));
            }
            if inner.pending.len() < self.capacity {
                break;
            }
            inner = self.space.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        let was_empty = inner.pending.is_empty();
        inner.pending.push_back(env);
        self.depth.add(1);
        drop(inner);
        if was_empty {
            self.cv.notify_one();
        }
        Ok(())
    }

    /// Enqueue one request **without ever blocking**: a full queue comes
    /// back as [`TryPushError::Full`] with the depth at rejection time.
    /// This is the network front-end's entry point — a full bounded shard
    /// queue becomes a protocol NACK carrying that depth, instead of a
    /// blocked socket thread.
    pub fn try_push(&self, env: Envelope) -> Result<(), (Envelope, TryPushError)> {
        let mut inner = self.lock();
        if let Some(reason) = inner.reject_reason() {
            return Err((env, TryPushError::Closed(reason)));
        }
        if inner.pending.len() >= self.capacity {
            let depth = inner.pending.len() as u64;
            return Err((env, TryPushError::Full { depth }));
        }
        let was_empty = inner.pending.is_empty();
        inner.pending.push_back(env);
        self.depth.add(1);
        drop(inner);
        if was_empty {
            self.cv.notify_one();
        }
        Ok(())
    }

    /// Enqueue many requests, blocking in chunks while the queue is full;
    /// same rejection contract as [`Self::push`]. If the queue dies while
    /// a chunk is parked, the **not-yet-queued tail** is handed back
    /// (envelopes already queued are drained and failed by the poisoner),
    /// so every envelope is accounted exactly once either way.
    pub fn push_all(&self, envs: Vec<Envelope>) -> Result<(), (Vec<Envelope>, Arc<str>)> {
        let mut envs: VecDeque<Envelope> = envs.into();
        let mut inner = self.lock();
        while !envs.is_empty() {
            if let Some(reason) = inner.reject_reason() {
                return Err((envs.into_iter().collect(), reason));
            }
            let room = self.capacity.saturating_sub(inner.pending.len());
            if room == 0 {
                inner = self.space.wait(inner).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            let take = room.min(envs.len());
            let was_empty = inner.pending.is_empty();
            inner.pending.extend(envs.drain(..take));
            self.depth.add(take as i64);
            if was_empty {
                self.cv.notify_one();
            }
        }
        Ok(())
    }

    /// Block until work or shutdown; drain up to `max_batch` requests.
    /// Returns `None` when shut down with an empty queue — envelopes that
    /// were already queued when `shutdown()` landed keep draining until
    /// the queue is empty, so they are always answered.
    pub fn pop_batch(&self, max_batch: usize) -> Option<Vec<Envelope>> {
        let mut inner = self.lock();
        while inner.pending.is_empty() && !inner.shutdown {
            inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        if inner.pending.is_empty() {
            return None; // shutdown
        }
        let n = inner.pending.len().min(max_batch.max(1));
        self.depth.sub(n as i64);
        let batch = inner.pending.drain(..n).collect();
        drop(inner);
        // Space was freed: wake every producer parked on the full queue
        // (notify_all — several may fit into the drained room).
        self.space.notify_all();
        Some(batch)
    }

    /// Mark the queue shut down and wake the worker **and** any producers
    /// parked on a full queue (they get the shutdown rejection).
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.cv.notify_all();
        self.space.notify_all();
    }

    /// Mark the queue dead (its worker panicked): refuse all future
    /// pushes with `reason` and hand back everything still queued so the
    /// caller can fail those envelopes.
    ///
    /// Wakes producers parked on the full queue too — a submitter blocked
    /// inside `ServeRuntime::submit`'s full-queue wait used to sleep
    /// forever when the shard's worker died, because nothing ever freed
    /// space again. Now it wakes, sees the death reason, and the submit
    /// fails fast with the worker's panic message.
    pub fn poison(&self, reason: &str) -> Vec<Envelope> {
        let mut inner = self.lock();
        inner.shutdown = true;
        inner.dead = Some(Arc::from(reason));
        let drained: Vec<Envelope> = inner.pending.drain(..).collect();
        self.depth.sub(drained.len() as i64);
        drop(inner);
        self.cv.notify_all();
        self.space.notify_all();
        drained
    }
}

/// Cross-thread stream-retirement requests for one shard.
///
/// A shard worker owns its [`StreamLru`] locally (allocated on the
/// worker thread, after any NUMA pin, for first-touch locality), so
/// other threads cannot evict dead streams directly. Instead they push
/// the doomed namespace here; the worker drains the cell at the top of
/// each batch iteration, **before** serving, so a batch's new streams
/// see the freed residency. Draining is lazy by design: retired streams
/// can only displace live ones when new traffic arrives, and new
/// traffic is exactly what wakes the worker.
pub(crate) struct RetireCell {
    /// Fast-path flag so the worker loop pays one relaxed load per batch
    /// when nothing is pending (the common case — disconnects are rare).
    flagged: std::sync::atomic::AtomicBool,
    prefixes: Mutex<Vec<u32>>,
}

impl Default for RetireCell {
    fn default() -> RetireCell {
        RetireCell {
            flagged: std::sync::atomic::AtomicBool::new(false),
            prefixes: named_mutex("serve.retire", Vec::new()),
        }
    }
}

impl RetireCell {
    /// Ask the owning worker to retire every stream namespaced under
    /// `prefix` (upper 32 bits of the stream id).
    pub fn push(&self, prefix: u32) {
        self.prefixes.lock().unwrap_or_else(PoisonError::into_inner).push(prefix);
        // Release pairs with the worker's acquire load: the prefix push
        // above must be visible once the flag is.
        self.flagged.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Drain pending retirements into the worker's LRU. Returns how many
    /// streams were actually removed.
    fn drain_into(&self, streams: &mut StreamLru) -> usize {
        if !self.flagged.load(std::sync::atomic::Ordering::Acquire) {
            return 0;
        }
        let prefixes: Vec<u32> = {
            let mut list = self.prefixes.lock().unwrap_or_else(PoisonError::into_inner);
            self.flagged.store(false, std::sync::atomic::Ordering::Relaxed);
            list.drain(..).collect()
        };
        prefixes.into_iter().map(|p| streams.retire_prefix(p)).sum()
    }
}

/// Where finished responses land (shared by all shards), plus the in-flight
/// counter that [`crate::ServeRuntime::wait_idle`] blocks on.
pub(crate) struct CompletionSink {
    pub state: Mutex<SinkState>,
    pub cv: Condvar,
}

pub(crate) struct SinkState {
    pub completed: Vec<PrefetchResponse>,
    pub in_flight: u64,
    /// Failure responses delivered so far (worker panics, dead-shard
    /// submissions).
    pub failed: u64,
    /// `(shard_id, panic message)` of every shard worker that died.
    pub worker_panics: Vec<(usize, String)>,
}

impl CompletionSink {
    pub fn new() -> CompletionSink {
        CompletionSink {
            state: named_mutex(
                "serve.sink",
                SinkState {
                    completed: Vec::new(),
                    in_flight: 0,
                    failed: 0,
                    worker_panics: Vec::new(),
                },
            ),
            cv: Condvar::new(),
        }
    }

    /// Lock the sink state, recovering from mutex poisoning. A shard
    /// worker that panics while holding this lock must not cascade into
    /// `PoisonError` panics at every later lock site — the state is plain
    /// counters plus a response list and stays consistent.
    pub fn lock(&self) -> MutexGuard<'_, SinkState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deliver a **failure** response for each `(stream_id, enqueued)`
    /// request and release its in-flight slot, so `wait_idle`/`wait_below`
    /// callers can never hang on a request no worker will ever serve.
    pub fn fail_requests(&self, shard: usize, items: Vec<(u64, Instant)>, reason: &str) {
        if items.is_empty() {
            return;
        }
        let now = Instant::now();
        let n = items.len() as u64;
        let mut state = self.lock();
        for (stream_id, enqueued) in items {
            state.completed.push(PrefetchResponse {
                stream_id,
                seq: u64::MAX,
                shard,
                prefetch_blocks: Vec::new(),
                latency_ns: now.duration_since(enqueued).as_nanos() as u64,
                error: Some(reason.to_string()),
            });
        }
        debug_assert!(state.in_flight >= n, "in-flight accounting underflow");
        state.in_flight -= n;
        state.failed += n;
        drop(state);
        self.cv.notify_all();
    }

    /// Record a dead worker's panic message (surfaced by
    /// `ServeRuntime::worker_panics` and `ServeStats::worker_panics`).
    pub fn record_worker_panic(&self, shard: usize, message: String) {
        self.lock().worker_panics.push((shard, message));
        self.cv.notify_all();
    }
}

/// Unwind guard armed around one popped batch: if the worker panics
/// before delivering the batch's responses, the guard fails every
/// envelope of the batch (error response + in-flight release) instead of
/// leaking its `in_flight` slots and hanging `wait_idle` forever.
struct BatchGuard<'a> {
    sink: &'a CompletionSink,
    shard: usize,
    items: Vec<(u64, Instant)>,
    armed: bool,
}

impl<'a> BatchGuard<'a> {
    fn arm(sink: &'a CompletionSink, shard: usize, batch: &[Envelope]) -> BatchGuard<'a> {
        BatchGuard {
            sink,
            shard,
            items: batch.iter().map(|e| (e.req.stream_id, e.enqueued)).collect(),
            armed: true,
        }
    }
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.sink.fail_requests(
                self.shard,
                std::mem::take(&mut self.items),
                "shard worker panicked while serving this batch",
            );
        }
    }
}

/// Per-shard serving statistics, committed whole-batch under the report
/// cell's lock so any clone of the cell is internally consistent
/// (`latency.count() == requests`, `predictions <= requests`). Backs both
/// `ServeRuntime::stats_snapshot` (live) and `shutdown` (final) through
/// the same aggregation path.
#[derive(Clone, Debug, Default)]
pub(crate) struct ShardReport {
    pub requests: u64,
    pub predictions: u64,
    pub batches: u64,
    pub max_batch: usize,
    /// Streams resident in the shard's LRU map as of the last served
    /// batch (always `<= ServeConfig::max_streams_per_shard`).
    pub resident_streams: usize,
    /// Streams evicted by the LRU cap so far.
    pub stream_evictions: u64,
    /// Streams explicitly retired (dead-connection cleanup via
    /// [`RetireCell`]) so far.
    pub stream_retirements: u64,
    /// Whether this shard's worker successfully pinned itself to its
    /// assigned node's cpuset (always `false` when unplaced, when the
    /// `numa` feature is off, or when the kernel rejected the mask).
    pub pinned: bool,
    /// Request latency (queue + inference), log2-bucketed
    /// ([`dart_telemetry::Histogram`], promoted out of this module).
    pub latency: Histogram,
}

/// Lock-free per-shard lifecycle metric cells, recorded by the worker
/// without taking any lock and snapshot by `stats_snapshot` at any time.
///
/// Every served batch records its size and the coalesce / kernel / sink
/// stages once, and one queue-wait sample per request.
#[derive(Debug, Default)]
pub(crate) struct ShardTelemetry {
    /// Enqueue → drained by the worker, per request, nanoseconds.
    pub queue_wait: AtomicHistogram,
    /// Drain → feature matrix formed (stream updates + staging), per
    /// batch, nanoseconds.
    pub coalesce: AtomicHistogram,
    /// Feature matrix → predictions decoded (`predict_batch` + emission),
    /// per batch, nanoseconds.
    pub kernel: AtomicHistogram,
    /// Predictions → responses delivered to the completion sink, per
    /// batch, nanoseconds.
    pub sink: AtomicHistogram,
    /// Coalesced batch-size distribution (per batch, in requests).
    pub batch_size: AtomicHistogram,
}

/// Emission policy applied to each bitmap prediction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EmitPolicy {
    pub threshold: f32,
    pub max_degree: usize,
}

/// One shard: owns its streams' history state and a versioned handle
/// into the shared [`crate::ModelSlot`].
pub(crate) struct ShardWorker {
    pub shard_id: usize,
    /// Versioned model view: re-checked once per batch boundary (one
    /// atomic load when nothing changed), so hot-swapped versions are
    /// adopted between batches and a batch never observes a torn model.
    pub model: ModelHandle,
    pub pre: PreprocessConfig,
    pub max_batch: usize,
    pub emit: EmitPolicy,
    /// Resident-stream cap of this shard's LRU state map
    /// (`ServeConfig::max_streams_per_shard`).
    pub max_streams: usize,
    /// Fault injection (`ServeConfig::panic_on_stream`): panic while
    /// serving the batch that contains this stream id.
    pub panic_on_stream: Option<u64>,
    /// Fault injection (`ServeConfig::stall_on_stream`): sleep for
    /// `stall_ms` before serving a batch that contains this stream id —
    /// deterministic back-pressure for queue-full / NACK tests.
    pub stall_on_stream: Option<u64>,
    /// Milliseconds [`Self::stall_on_stream`] sleeps for.
    pub stall_ms: u64,
    /// Dead-stream retirement requests from other threads (the runtime
    /// holds the other reference); drained before each served batch.
    pub retire: Arc<RetireCell>,
    /// This shard's lock-free lifecycle metric cells (the runtime holds
    /// the other reference and snapshots them live).
    pub telemetry: Arc<ShardTelemetry>,
    /// Live-traffic replay sampler feeding the shadow retrainer
    /// (`ServeConfig::replay_capacity > 0`); one bulk push per served
    /// batch. `None` disables sampling entirely.
    pub replay: Option<Arc<ReplaySampler>>,
}

impl ShardWorker {
    /// Worker loop: drain → coalesce → `predict_batch` → respond, until the
    /// queue shuts down.
    ///
    /// Statistics land in the shared `report` cell once per batch (after
    /// that batch's responses are final), so a worker that panics later
    /// loses at most the dying batch's numbers — everything it served
    /// before the panic stays counted in `ServeStats`.
    ///
    /// The per-batch feature matrix and the stacked warm-row matrix are
    /// built from two scratch buffers owned by the worker and recycled via
    /// `Matrix::from_vec` / `Matrix::into_vec`, so a long-running shard
    /// performs no steady-state allocation for feature staging regardless
    /// of how many batches it drains.
    pub fn run(
        mut self,
        queue: Arc<ShardQueue>,
        sink: Arc<CompletionSink>,
        report: Arc<Mutex<ShardReport>>,
    ) {
        let t = self.pre.seq_len;
        let di = self.pre.input_dim();
        // Bounded per-stream state: at most `max_streams` resident, LRU
        // eviction beyond that (see `crate::lru` for why an evicted stream
        // re-warms from scratch). Allocated here, on the worker thread,
        // *after* any NUMA pinning — first touch keeps it node-local.
        let mut streams = StreamLru::new(self.max_streams);
        // (request index in batch, anchor block) of each warm request, in
        // feature-matrix order.
        let mut warm: Vec<(usize, u64)> = Vec::new();
        let mut candidates: Vec<(f32, usize)> = Vec::new();
        // Reused feature staging: `feat_buf` backs the per-batch feature
        // matrix (capacity max_batch * t * di after the first full batch),
        // `stack_buf` backs the exact-size stacked matrix handed to
        // `predict_batch`.
        let mut feat_buf: Vec<f32> = Vec::new();
        let mut stack_buf: Vec<f32> = Vec::new();

        while let Some(batch) = queue.pop_batch(self.max_batch) {
            // Dead-connection cleanup first, so this batch's new streams
            // see the freed residency instead of evicting live ones.
            self.retire.drain_into(&mut streams);
            // Lifecycle stage stamps: drained → formed → predicted →
            // delivered, one clock read per stage boundary per batch.
            let t_drained = Instant::now();
            // Fault injection: stall before touching the batch, so the
            // queue can fill (and NACK) behind a deterministically slow
            // worker.
            if let Some(sid) = self.stall_on_stream {
                if self.stall_ms > 0 && batch.iter().any(|e| e.req.stream_id == sid) {
                    std::thread::sleep(std::time::Duration::from_millis(self.stall_ms));
                }
            }
            // If anything below unwinds, the guard converts this batch
            // into failure responses so its in-flight slots are released.
            let mut batch_guard = BatchGuard::arm(&sink, self.shard_id, &batch);
            // Batch-boundary model adoption, deliberately AFTER arming the
            // guard: if adopting a hot-swapped version panics (a node
            // replica's deep clone OOMs, say), the batch fails cleanly —
            // its in-flight slots are released — instead of leaking. The
            // adopted `Arc` serves this whole batch: a swap landing
            // mid-batch is picked up at the next boundary, never torn.
            let model = Arc::clone(self.model.current());
            warm.clear();

            // Phase 1: update stream state in arrival order. Features are
            // written immediately after each push, so a stream submitting
            // several requests within one batch gets one prediction per
            // request, each over its own history window.
            feat_buf.clear();
            feat_buf.resize(batch.len() * t * di, 0.0);
            let mut feats = Matrix::from_vec(batch.len() * t, di, std::mem::take(&mut feat_buf));
            let mut responses: Vec<PrefetchResponse> = Vec::with_capacity(batch.len());
            for (i, env) in batch.iter().enumerate() {
                if Some(env.req.stream_id) == self.panic_on_stream {
                    // The message deliberately contains a double quote, a
                    // backslash, and a newline: panic reasons flow into
                    // exposition labels (`dart_serve_worker_panic_info`),
                    // so every fault-injection run also exercises label
                    // escaping end to end.
                    panic!(
                        "fault injection: shard worker told to die on stream {} \
                         (\"quoted\", back\\slash,\nsecond line)",
                        env.req.stream_id
                    );
                }
                let state = streams.entry(env.req.stream_id, t);
                let seq = state.push(env.req.block(), env.req.pc);
                responses.push(PrefetchResponse {
                    stream_id: env.req.stream_id,
                    seq,
                    shard: self.shard_id,
                    prefetch_blocks: Vec::new(),
                    latency_ns: 0,
                    error: None,
                });
                if state.warm() {
                    state.write_features_into(&self.pre, &mut feats, warm.len() * t);
                    warm.push((i, state.last_block().unwrap()));
                }
            }

            let t_formed = Instant::now();

            // Phase 2: one batched prediction for every warm request.
            if !warm.is_empty() {
                stack_buf.clear();
                stack_buf.extend_from_slice(&feats.as_slice()[..warm.len() * t * di]);
                let stacked = Matrix::from_vec(warm.len() * t, di, std::mem::take(&mut stack_buf));
                let probs = model.predict_batch(&stacked);
                stack_buf = stacked.into_vec();
                for (w, &(i, anchor)) in warm.iter().enumerate() {
                    responses[i].prefetch_blocks =
                        decode_bitmap(probs.row(w), &self.pre, anchor, self.emit, &mut candidates);
                }
            }
            feat_buf = feats.into_vec();
            let t_predicted = Instant::now();

            // Phase 3: stamp latencies, then deliver. All fallible work is
            // done; disarm before taking any lock so the guard's Drop can
            // never re-lock the sink from this thread. Commit this batch's
            // statistics only now that its responses are final: a panic
            // earlier in the batch loses at most the dying batch's numbers.
            for (env, resp) in batch.iter().zip(&mut responses) {
                resp.latency_ns = t_predicted.duration_since(env.enqueued).as_nanos() as u64;
            }
            batch_guard.armed = false;
            {
                let mut r = report.lock().unwrap_or_else(PoisonError::into_inner);
                r.batches += 1;
                r.max_batch = r.max_batch.max(batch.len());
                r.requests += batch.len() as u64;
                r.predictions += warm.len() as u64;
                r.resident_streams = streams.len();
                r.stream_evictions = streams.evictions();
                r.stream_retirements = streams.retirements();
                for resp in &responses {
                    r.latency.record(resp.latency_ns);
                }
            }
            let mut sink_state = sink.lock();
            sink_state.completed.append(&mut responses);
            sink_state.in_flight -= batch.len() as u64;
            drop(sink_state);
            sink.cv.notify_all();

            // Feed the shadow retrainer's replay window (one bulk push per
            // batch, after the responses are already delivered — sampling
            // adds nothing to request latency). Arrival order within the
            // batch is preserved, which is what keeps per-stream replay
            // traces meaningful.
            if let Some(sampler) = &self.replay {
                sampler.push_batch(batch.iter().map(|env| ReplaySample {
                    stream_id: env.req.stream_id,
                    pc: env.req.pc,
                    addr: env.req.addr,
                }));
            }

            // Lifecycle telemetry, all lock-free cells: batch size and the
            // three per-batch stages once each, queue wait per request.
            let t_delivered = Instant::now();
            let tel = &self.telemetry;
            tel.batch_size.record(batch.len() as u64);
            tel.coalesce.record(t_formed.duration_since(t_drained).as_nanos() as u64);
            tel.kernel.record(t_predicted.duration_since(t_formed).as_nanos() as u64);
            tel.sink.record(t_delivered.duration_since(t_predicted).as_nanos() as u64);
            tel.queue_wait.record_many(
                batch.iter().map(|env| t_drained.duration_since(env.enqueued).as_nanos() as u64),
            );
        }
    }
}

/// Turn one bitmap-probability row into prefetch block addresses via the
/// emission rule shared with `DartPrefetcher`
/// ([`PreprocessConfig::decode_bitmap_into`]).
pub(crate) fn decode_bitmap(
    probs: &[f32],
    pre: &PreprocessConfig,
    anchor_block: u64,
    emit: EmitPolicy,
    candidates: &mut Vec<(f32, usize)>,
) -> Vec<u64> {
    pre.decode_bitmap_into(probs, anchor_block, emit.threshold, emit.max_degree, candidates)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_for(stream_id: u64) -> Envelope {
        Envelope {
            req: crate::request::PrefetchRequest { stream_id, pc: 0, addr: stream_id << 6 },
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn queue_drains_in_order_and_respects_max_batch() {
        let q = ShardQueue::new(usize::MAX);
        for i in 0..5u64 {
            assert!(q.push(env_for(i)).is_ok());
        }
        let batch = q.pop_batch(3).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].req.stream_id, 0);
        assert_eq!(batch[2].req.stream_id, 2);
        let rest = q.pop_batch(16).unwrap();
        assert_eq!(rest.len(), 2);
        q.shutdown();
        assert!(q.pop_batch(16).is_none());
    }

    #[test]
    fn envelopes_queued_at_shutdown_still_drain() {
        // Regression (shutdown-path audit): requests that were already
        // queued when `shutdown()` landed must keep draining — the worker
        // answers them before `pop_batch` reports `None`.
        let q = ShardQueue::new(usize::MAX);
        for i in 0..7u64 {
            assert!(q.push(env_for(i)).is_ok());
        }
        q.shutdown();
        let first = q.pop_batch(4).expect("queued work must survive shutdown");
        assert_eq!(first.len(), 4);
        let rest = q.pop_batch(4).expect("tail must survive shutdown too");
        assert_eq!(rest.len(), 3);
        assert_eq!(rest[2].req.stream_id, 6, "drain order broken across shutdown");
        assert!(q.pop_batch(4).is_none());
    }

    #[test]
    fn push_after_shutdown_is_rejected_not_dropped() {
        // Regression: a push after shutdown used to enqueue silently even
        // though no worker would ever drain it again — the envelope (and
        // its in-flight slot) just vanished.
        let q = ShardQueue::new(usize::MAX);
        q.shutdown();
        let (rejected, reason) = q.push(env_for(9)).expect_err("push must be rejected");
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].req.stream_id, 9);
        assert!(reason.contains("shut down"), "unhelpful reason: {reason}");
        let (batch_rejected, _) =
            q.push_all(vec![env_for(1), env_for(2)]).expect_err("push_all must be rejected");
        assert_eq!(batch_rejected.len(), 2);
        assert!(q.pop_batch(8).is_none(), "rejected envelopes must not linger in the queue");
    }

    #[test]
    fn poison_drains_pending_and_rejects_future_pushes() {
        let q = ShardQueue::new(usize::MAX);
        assert!(q.push(env_for(1)).is_ok());
        assert!(q.push(env_for(2)).is_ok());
        let leaked = q.poison("shard 0 worker panicked: boom");
        assert_eq!(leaked.len(), 2, "poison must hand queued envelopes back");
        let (_, reason) = q.push(env_for(3)).expect_err("dead queue must reject");
        assert!(reason.contains("boom"), "original panic lost: {reason}");
        assert!(q.pop_batch(8).is_none());
    }

    #[test]
    fn fail_requests_releases_in_flight_and_delivers_errors() {
        let sink = CompletionSink::new();
        sink.lock().in_flight = 3;
        let now = Instant::now();
        sink.fail_requests(1, vec![(7, now), (8, now)], "worker died");
        let state = sink.lock();
        assert_eq!(state.in_flight, 1);
        assert_eq!(state.failed, 2);
        assert_eq!(state.completed.len(), 2);
        for resp in &state.completed {
            assert_eq!(resp.shard, 1);
            assert_eq!(resp.seq, u64::MAX);
            assert!(resp.prefetch_blocks.is_empty());
            assert_eq!(resp.error.as_deref(), Some("worker died"));
        }
    }

    #[test]
    fn decode_bitmap_ranks_and_caps() {
        let pre = PreprocessConfig { delta_range: 4, ..Default::default() };
        // Bits: deltas -4..-1 then +1..+4; probabilities favor +1 and -2.
        let mut probs = vec![0.0f32; pre.output_dim()];
        probs[pre.delta_to_bit(1).unwrap()] = 0.9;
        probs[pre.delta_to_bit(-2).unwrap()] = 0.8;
        probs[pre.delta_to_bit(3).unwrap()] = 0.6;
        let emit = EmitPolicy { threshold: 0.7, max_degree: 4 };
        let mut scratch = Vec::new();
        let out = decode_bitmap(&probs, &pre, 100, emit, &mut scratch);
        assert_eq!(out, vec![101, 98]); // delta +1 first (higher prob), then -2
    }

    #[test]
    fn queue_depth_gauge_tracks_push_drain_and_poison() {
        // The depth gauge is what `stats_snapshot` reads without touching
        // the queue mutex — it must mirror pending.len() at every
        // quiescent point, including the poison drain.
        let q = ShardQueue::new(usize::MAX);
        assert_eq!(q.depth(), 0);
        assert!(q.push(env_for(1)).is_ok());
        assert!(q.push_all(vec![env_for(2), env_for(3), env_for(4)]).is_ok());
        assert_eq!(q.depth(), 4);
        let batch = q.pop_batch(3).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(q.depth(), 1);
        let leaked = q.poison("worker died");
        assert_eq!(leaked.len(), 1);
        assert_eq!(q.depth(), 0, "poison must release the drained depth");
        // Rejected pushes never count into the depth.
        assert!(q.push(env_for(5)).is_err());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn decode_bitmap_drops_nonpositive_targets() {
        let pre = PreprocessConfig { delta_range: 4, ..Default::default() };
        let mut probs = vec![0.0f32; pre.output_dim()];
        probs[pre.delta_to_bit(-3).unwrap()] = 0.9;
        let emit = EmitPolicy { threshold: 0.5, max_degree: 2 };
        let mut scratch = Vec::new();
        // Anchor block 2: 2 - 3 = -1 is not a valid block.
        assert!(decode_bitmap(&probs, &pre, 2, emit, &mut scratch).is_empty());
    }
}
