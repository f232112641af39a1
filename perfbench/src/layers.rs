//! Per-layer measurements for the traced run.
//!
//! Every timing here is a span recorded around one call into a layer's
//! public API; the metrics are medians over the spans. The DART forward
//! pass is rebuilt from the model's public layer fields, one span per
//! stage, and must reproduce `predict_batch` bit for bit, or its stage
//! times would describe a different program.

use dart_core::configurator::model_latency;
use dart_core::tabular_model::FfnTables;
use dart_core::PredictorConfig;
use dart_core::TabularModel;
use dart_net::wire::{encode_request, encode_response};
use dart_net::{FrameDecoder, RequestFrame, ResponseFrame};
use dart_nn::cost::attention_model_cost;
use dart_nn::matrix::Matrix;
use dart_nn::model::{AccessPredictor, ModelConfig, SequenceModel};
use dart_pq::complexity::{attention_ops, linear_ops};
use dart_pq::LinearTable;
use dart_serve::{ServeRuntime, StreamLru, StreamState};
use dart_telemetry::Histogram;
use dart_trace::PreprocessConfig;

use crate::score::median;
use crate::spans::{self, Span, SpanBuf, Tracing};
use crate::Metrics;

/// Stages of the rebuilt forward pass in execution order, with the name
/// of the span each is recorded under.
const STAGES: [(&str, &str); 12] = [
    ("input_linear", "core.input_linear"),
    ("input_ln", "core.input_ln"),
    ("ln1", "core.ln1"),
    ("qkv", "core.qkv"),
    ("qkv_split", "core.qkv_split"),
    ("heads", "core.heads"),
    ("out_proj", "core.out_proj"),
    ("ln2", "core.ln2"),
    ("ffn", "core.ffn"),
    ("output_linear", "core.output_linear"),
    ("pool", "core.pool"),
    ("sigmoid", "core.sigmoid"),
];

/// Iterations of the forward-pass timings at batch 1 and batch 32.
const ITERS_B1: usize = 150;
const ITERS_B32: usize = 25;
/// Calls per span in the per-call (nanosecond) microbenchmarks.
const CHUNK: usize = 1000;
const CHUNKS: usize = 25;

/// Inputs of the model's linear kernels seen during one forward pass.
struct KernelInputs<'m> {
    linear: Vec<(&'m LinearTable, Matrix)>,
}

/// `TabularModel::predict_batch`, rebuilt from public stage calls with
/// one span per stage under a `core.forward` root.
fn forward_staged<'m>(
    m: &'m TabularModel,
    x: &Matrix,
    sp: &mut SpanBuf,
    group: u64,
    mut capture: Option<&mut KernelInputs<'m>>,
) -> Matrix {
    let root = sp.open();
    let p = root.0;
    if let Some(c) = capture.as_deref_mut() {
        c.linear.push((&m.input_linear, x.clone()));
    }
    let mut h = sp.time("core.input_linear", p, group, || m.input_linear.query(x));
    h = sp.time("core.input_ln", p, group, || m.input_ln.apply(&h));
    for blk in &m.blocks {
        let dim = h.cols();
        let dh = dim / blk.heads.len();
        let a = sp.time("core.ln1", p, group, || blk.ln1.apply(&h));
        let qkv = sp.time("core.qkv", p, group, || blk.qkv.query(&a));
        let (q, k, v) = sp.time("core.qkv_split", p, group, || {
            (qkv.slice_cols(0, dim), qkv.slice_cols(dim, 2 * dim), qkv.slice_cols(2 * dim, 3 * dim))
        });
        let concat = sp.time("core.heads", p, group, || {
            let mut concat = Matrix::zeros(h.rows(), dim);
            for (i, head) in blk.heads.iter().enumerate() {
                let (lo, hi) = (i * dh, (i + 1) * dh);
                let y = head.query_batch(
                    &q.slice_cols(lo, hi),
                    &k.slice_cols(lo, hi),
                    &v.slice_cols(lo, hi),
                );
                for r in 0..h.rows() {
                    concat.row_mut(r)[lo..hi].copy_from_slice(y.row(r));
                }
            }
            concat
        });
        let x1 = sp.time("core.out_proj", p, group, || h.add(&blk.out.query(&concat)));
        let f = sp.time("core.ln2", p, group, || blk.ln2.apply(&x1));
        h = sp.time("core.ffn", p, group, || x1.add(&blk.ffn.query(&f)));
        if let Some(c) = capture.as_deref_mut() {
            c.linear.push((&blk.qkv, a.clone()));
            c.linear.push((&blk.out, concat.clone()));
            if let FfnTables::TwoKernel { hidden, out } = &blk.ffn {
                c.linear.push((out, hidden.query(&f)));
                c.linear.push((hidden, f.clone()));
            }
        }
    }
    if let Some(c) = capture {
        c.linear.push((&m.output_linear, h.clone()));
    }
    let per_token = sp.time("core.output_linear", p, group, || m.output_linear.query(&h));
    let t = m.config.seq_len;
    let mut out = sp.time("core.pool", p, group, || {
        let batch = per_token.rows() / t;
        let mut out = Matrix::zeros(batch, m.config.output_dim);
        for n in 0..batch {
            let orow = out.row_mut(n);
            for step in 0..t {
                for (o, &v) in orow.iter_mut().zip(per_token.row(n * t + step)) {
                    *o += v;
                }
            }
            let inv = 1.0 / t as f32;
            for o in orow.iter_mut() {
                *o *= inv;
            }
        }
        out
    });
    sp.time("core.sigmoid", p, group, || m.sigmoid.apply(out.as_mut_slice()));
    sp.close("core.forward", root, 0, group);
    out
}

/// Per-iteration totals of the spans called `name` in `group`, summed
/// per root (a stage runs once per encoder block).
fn per_root(all: &[Span], name: &str, group: u64) -> Vec<f64> {
    let mut by_root: std::collections::BTreeMap<u64, u64> = Default::default();
    for s in all.iter().filter(|s| s.name == name && s.group == group) {
        *by_root.entry(if s.parent == 0 { s.id } else { s.parent }).or_default() += s.dur();
    }
    by_root.values().map(|&ns| ns as f64).collect()
}

fn median_of(all: &[Span], name: &str, group: u64) -> f64 {
    let v = per_root(all, name, group);
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Time the model's forward pass, its stages, its encoders and the NN
/// layers it replaces. Returns an error when the rebuilt pass differs
/// from `predict_batch`.
pub fn core(
    model: &TabularModel,
    student: &mut AccessPredictor,
    x32: &Matrix,
    sp: &mut SpanBuf,
    out: &mut Metrics,
) -> Result<(), String> {
    let t = model.config.seq_len;
    let x1 = x32.slice_rows(0, t);
    for (b, x, iters) in [(1u64, &x1, ITERS_B1), (32, x32, ITERS_B32)] {
        let mut ok = true;
        for _ in 0..iters {
            let served = sp.time("core.predict_batch", 0, b, || model.predict_batch(x));
            let rebuilt = forward_staged(model, x, sp, b, None);
            ok &= bits_equal(&served, &rebuilt);
        }
        if !ok {
            return Err(format!(
                "rebuilt forward pass differs from predict_batch at batch {b}: \
                 the stage times would not describe the served program"
            ));
        }
        for _ in 0..iters {
            sp.time("nn.student", 0, b, || student.forward_probs(x));
        }
    }
    let us = |ns: f64| ns / 1e3;
    let (mut dart_b1, mut student_b1) = (0.0, 0.0);
    for b in [1u64, 32] {
        let all = &sp.spans;
        let whole = per_root(all, "core.predict_batch", b);
        let predict = median(&whole);
        out.push(format!("core.predict_us.b{b}"), us(predict), "us");
        let mut staged = vec![0.0; whole.len()];
        for (stage, span) in STAGES {
            let per_iter = per_root(all, span, b);
            for (sum, v) in staged.iter_mut().zip(&per_iter) {
                *sum += v;
            }
            out.push(format!("core.{stage}_us.b{b}"), us(median(&per_iter)), "us");
        }
        // Paired per iteration: each predict_batch call against the
        // rebuilt pass that ran right after it.
        let gaps: Vec<f64> = whole.iter().zip(&staged).map(|(w, parts)| w - parts).collect();
        out.push(format!("core.unattributed_us.b{b}"), us(median(&gaps)), "us");
        let student_ns = median_of(all, "nn.student", b);
        out.push(format!("nn.student_us.b{b}"), us(student_ns), "us");
        out.push(format!("core.speedup_vs_student.b{b}"), student_ns / predict, "x");
        if b == 1 {
            (dart_b1, student_b1) = (predict, student_ns);
        }
    }

    // The teacher (Table V: L=4, D=256, H=8) at batch 1. Its latency does
    // not depend on its weights, so an untrained one is timed.
    let c = &model.config;
    let teacher_cfg = ModelConfig::teacher(c.input_dim, c.output_dim, c.seq_len);
    let mut teacher =
        AccessPredictor::new(teacher_cfg.clone(), 0x7EAC).expect("teacher config is valid");
    for _ in 0..8 {
        sp.time("nn.teacher", 0, 1, || teacher.forward_probs(&x1));
    }
    let teacher_ns = median(
        &spans::durations(&sp.spans, "nn.teacher").iter().map(|&d| d as f64).collect::<Vec<_>>(),
    );
    out.push("nn.teacher_us.b1".into(), us(teacher_ns), "us");
    out.push("core.speedup_vs_teacher.b1".into(), teacher_ns / dart_b1, "x");
    // Report, do not gate: the paper's ordering teacher > student > DART.
    let ordered = teacher_ns > student_b1 && student_b1 > dart_b1;
    out.push("core.ordering_holds.b1".into(), if ordered { 1.0 } else { 0.0 }, "bool");

    // The analytic cost model behind the paper's 9.4x / 170x (Eq. 22 vs
    // the NN cost of Table V).
    let (k, cc) = (model.input_linear.num_protos(), model.input_linear.num_subspaces());
    let pcfg = PredictorConfig { layers: c.layers, dim: c.dim, heads: c.heads, k, c: cc };
    let dart_cycles = model_latency(&pcfg) as f64;
    let student_cfg = ModelConfig::student(c.input_dim, c.output_dim, c.seq_len);
    out.push(
        "core.analytic_speedup_vs_student".into(),
        attention_model_cost(&student_cfg).latency_cycles as f64 / dart_cycles,
        "x",
    );
    out.push(
        "core.analytic_speedup_vs_teacher".into(),
        attention_model_cost(&teacher_cfg).latency_cycles as f64 / dart_cycles,
        "x",
    );
    let ops = [
        ("input_linear", linear_ops(t, c.dim, k, cc)),
        ("qkv", c.layers as u64 * linear_ops(t, 3 * c.dim, k, cc)),
        ("heads", c.layers as u64 * attention_ops(t, c.dim, k, cc, cc)),
        ("out_proj", c.layers as u64 * linear_ops(t, c.dim, k, cc)),
        ("ffn", c.layers as u64 * (linear_ops(t, c.ffn_dim, k, cc) + linear_ops(t, c.dim, k, cc))),
        ("output_linear", linear_ops(t, c.output_dim, k, cc)),
    ];
    for (stage, n) in ops {
        out.push(format!("core.{stage}.analytic_ops"), n as f64, "ops");
    }

    // Encoder share of the linear kernels at batch 32.
    let mut inputs = KernelInputs { linear: Vec::new() };
    forward_staged(
        model,
        x32,
        &mut SpanBuf::new(std::time::Instant::now(), Tracing::new(false), 0),
        0,
        Some(&mut inputs),
    );
    let (mut encode_ns, mut query_ns) = (0.0, 0.0);
    for (i, (table, x)) in inputs.linear.iter().enumerate() {
        let g = 100 + i as u64;
        let mut codes = vec![0usize; x.rows() * table.num_subspaces()];
        for _ in 0..ITERS_B32 {
            sp.time("pq.encode", 0, g, || table.quantizer().encode_batch_into(x, &mut codes));
            sp.time("pq.query", 0, g, || table.query(x));
        }
        encode_ns += median_of(&sp.spans, "pq.encode", g);
        query_ns += median_of(&sp.spans, "pq.query", g);
    }
    out.push("pq.encode_us.b32".into(), us(encode_ns), "us");
    out.push("pq.encode_share.b32".into(), encode_ns / query_ns, "ratio");
    Ok(())
}

/// Median nanoseconds per call of `f`, timed in spans of [`CHUNK`] calls.
fn per_call(sp: &mut SpanBuf, name: &'static str, mut f: impl FnMut(usize)) -> f64 {
    let mut i = 0;
    for _ in 0..CHUNKS {
        sp.time(name, 0, CHUNK as u64, || {
            for _ in 0..CHUNK {
                f(i);
                i += 1;
            }
        });
    }
    let d: Vec<f64> = spans::durations(&sp.spans, name).iter().map(|&n| n as f64).collect();
    median(&d) / CHUNK as f64
}

/// Serving-path helpers: feature staging, bitmap decode, LRU churn.
pub fn serve(
    pre: &PreprocessConfig,
    accesses: &[(u64, u64)],
    probs: &Matrix,
    emit: crate::check::Emit,
    sp: &mut SpanBuf,
    out: &mut Metrics,
) {
    let t = pre.seq_len;
    let mut state = StreamState::new(t);
    for &(block, pc) in &accesses[..t] {
        state.push(block, pc);
    }
    let mut feats = Matrix::zeros(t, pre.input_dim());
    let ns = per_call(sp, "serve.features", |i| {
        let (block, pc) = accesses[i % accesses.len()];
        state.push(block, pc);
        state.write_features_into(pre, &mut feats, 0);
        std::hint::black_box(&feats);
    });
    out.push("serve.features_ns".into(), ns, "ns");
    let mut candidates = Vec::new();
    let ns = per_call(sp, "serve.decode", |i| {
        let row = probs.row(i % probs.rows());
        let anchor = accesses[i % accesses.len()].0;
        std::hint::black_box(pre.decode_bitmap_into(
            row,
            anchor,
            emit.threshold,
            emit.max_degree,
            &mut candidates,
        ));
    });
    out.push("serve.decode_ns".into(), ns, "ns");
    // A full LRU where every access is a new stream: each entry evicts.
    let cap = dart_serve::ServeConfig::default().max_streams_per_shard;
    let mut lru = StreamLru::new(cap);
    for key in 0..cap as u64 {
        lru.entry(key, t);
    }
    let ns = per_call(sp, "serve.lru_entry", |i| {
        let s = lru.entry((cap + i) as u64, t);
        std::hint::black_box(s.push(1, 2));
    });
    out.push("serve.lru_entry_ns".into(), ns, "ns");
}

/// Wire encode/decode per frame, histogram record, metrics rendering.
pub fn net_and_telemetry(rt: &ServeRuntime, sp: &mut SpanBuf, out: &mut Metrics) {
    let mut buf = Vec::with_capacity(64);
    let ns = per_call(sp, "net.encode_frame", |i| {
        buf.clear();
        let frame =
            RequestFrame { stream: i as u32, pc: 0x400_000 + i as u64, addr: (i as u64) << 6 };
        encode_request(&frame, &mut buf);
        std::hint::black_box(&buf);
    });
    out.push("net.encode_ns".into(), ns, "ns");
    // Response frames carrying 0..=4 blocks, as the runtime emits them.
    let mut wire = Vec::new();
    for i in 0..CHUNK {
        let blocks = (0..(i % 5) as u64).map(|b| 1000 + b).collect();
        let frame =
            ResponseFrame { stream: i as u32, seq: i as u64, latency_ns: 1, failed: false, blocks };
        encode_response(&frame, &mut wire);
    }
    let mut decoder = FrameDecoder::new();
    let ns = per_call(sp, "net.decode_frame", |i| {
        if i % CHUNK == 0 {
            decoder.extend(&wire);
        }
        std::hint::black_box(decoder.next().expect("well-formed frame"));
    });
    out.push("net.decode_ns".into(), ns, "ns");
    let mut hist = Histogram::new();
    let ns = per_call(sp, "telemetry.hist_record", |i| {
        hist.record(std::hint::black_box(((i as u64) * 7919) % 5_000_000));
    });
    out.push("telemetry.hist_record_ns".into(), ns, "ns");
    for _ in 0..5 {
        sp.time("telemetry.render", 0, 0, || std::hint::black_box(rt.render_metrics()));
    }
    let d: Vec<f64> =
        spans::durations(&sp.spans, "telemetry.render").iter().map(|&n| n as f64).collect();
    out.push("telemetry.render_ms".into(), median(&d) / 1e6, "ms");
}

/// Model fingerprinting, the registry's per-swap cost.
pub fn fingerprint(model: &TabularModel, sp: &mut SpanBuf, out: &mut Metrics) {
    for _ in 0..3 {
        sp.time("core.fingerprint", 0, 0, || std::hint::black_box(model.fingerprint()));
    }
    let d: Vec<f64> =
        spans::durations(&sp.spans, "core.fingerprint").iter().map(|&n| n as f64).collect();
    out.push("core.fingerprint_ms".into(), median(&d) / 1e6, "ms");
}
