//! Criterion: ablation benches for three design choices —
//! encoder kind (argmin vs hash tree), attention activation (the Eq. 14
//! sigmoid vs per-subspace softmax), and quantization granularity.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dart_nn::init::InitRng;
use dart_nn::matrix::Matrix;
use dart_pq::{
    AttentionActivation, AttentionTable, AttentionTableConfig, EncoderKind, FusedFfnTable,
    LinearTable, ProductQuantizer, QuantizedLinearTable,
};

fn rand_matrix(r: usize, c: usize, seed: u64) -> Matrix {
    let mut rng = InitRng::new(seed);
    Matrix::from_fn(r, c, |_, _| rng.normal())
}

fn bench_encoders(c: &mut Criterion) {
    let mut group = c.benchmark_group("encoder_ablation");
    group.sample_size(30);
    let data = rand_matrix(4000, 32, 1);
    let row = rand_matrix(1, 32, 2);
    for k in [16usize, 128, 1024] {
        let argmin = ProductQuantizer::fit(&data, 2, k, EncoderKind::Argmin, 3);
        let tree = ProductQuantizer::fit(&data, 2, k, EncoderKind::HashTree, 3);
        let mut buf = vec![0usize; 2];
        group.bench_function(format!("argmin_k{k}"), |b| {
            b.iter(|| {
                argmin.encode_row_into(row.row(0), &mut buf);
                black_box(buf[0])
            })
        });
        group.bench_function(format!("hashtree_k{k}"), |b| {
            b.iter(|| {
                tree.encode_row_into(row.row(0), &mut buf);
                black_box(buf[0])
            })
        });
    }
    group.finish();
}

fn bench_attention_activation(c: &mut Criterion) {
    let mut group = c.benchmark_group("attention_activation_ablation");
    group.sample_size(30);
    let (t, dh) = (16usize, 16usize);
    let q = rand_matrix(60 * t, dh, 11);
    let k = rand_matrix(60 * t, dh, 12);
    let v = rand_matrix(60 * t, dh, 13);
    for (name, act) in [
        ("sigmoid_scaled", AttentionActivation::SigmoidScaled),
        ("softmax_per_subspace", AttentionActivation::SoftmaxPerSubspace),
    ] {
        let cfg =
            AttentionTableConfig { k: 64, ck: 2, ct: 2, activation: act, ..Default::default() };
        let table = AttentionTable::fit(&q, &k, &v, t, &cfg);
        let qs = q.slice_rows(0, t);
        let ks = k.slice_rows(0, t);
        let vs = v.slice_rows(0, t);
        group.bench_function(name, |b| b.iter(|| black_box(table.query(&qs, &ks, &vs))));
    }
    group.finish();
}

/// Paper §VIII future work: one fused FFN table vs. the standard two-kernel
/// FFN (hidden + ReLU-folded output) — latency halves, accuracy drops.
fn bench_fused_ffn(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_ffn_ablation");
    group.sample_size(30);
    let (t, d, df) = (16usize, 32usize, 128usize);
    let train = rand_matrix(1000, d, 3);
    let wh = rand_matrix(df, d, 4);
    let bh = vec![0.0f32; df];
    let wo = rand_matrix(d, df, 5);
    let bo = vec![0.0f32; d];

    let hidden_table = LinearTable::fit(&train, &wh, &bh, 2, 128, EncoderKind::Argmin, 6);
    let hidden_out = hidden_table.query(&train);
    let out_table = LinearTable::fit_transformed(
        &hidden_out,
        &wo,
        &bo,
        2,
        128,
        EncoderKind::Argmin,
        dart_pq::ProtoTransform::Relu,
        7,
    );
    let fused = FusedFfnTable::fit(&train, &wh, &bh, &wo, &bo, 2, 128, EncoderKind::Argmin, 8);

    let x = rand_matrix(t, d, 9);
    group.bench_function("two_kernels", |b| {
        b.iter(|| black_box(out_table.query(&hidden_table.query(&x))))
    });
    group.bench_function("fused_single_table", |b| b.iter(|| black_box(fused.query(&x))));
    group.finish();
}

/// Int8 table entries (the `d` parameter of Eq. 18) vs f32.
fn bench_quantized_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_precision_ablation");
    group.sample_size(30);
    let train = rand_matrix(1000, 32, 11);
    let w = rand_matrix(128, 32, 12);
    let b = vec![0.0f32; 128];
    let f32_table = LinearTable::fit(&train, &w, &b, 2, 128, EncoderKind::Argmin, 13);
    let int8_table = QuantizedLinearTable::from_table(&f32_table);
    let x = rand_matrix(16, 32, 14);
    group.bench_function("f32_entries", |bench| bench.iter(|| black_box(f32_table.query(&x))));
    group.bench_function("int8_entries", |bench| bench.iter(|| black_box(int8_table.query(&x))));
    group.finish();
}

criterion_group!(
    benches,
    bench_encoders,
    bench_attention_activation,
    bench_fused_ffn,
    bench_quantized_tables
);
criterion_main!(benches);
