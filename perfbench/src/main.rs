//! The serving benchmark of the DART workspace.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_inproc --seed 1 --seconds 32 --trace 0
//! ```
//!
//! One run fits the paper-sized model from the library defaults, serves
//! one workload in process through `ServeRuntime`'s public API, checks
//! every served answer, and prints each metric with its unit. The last
//! line of standard output is one JSON object: `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics of a run with
//! spans recorded around every call into a layer (written to
//! `.bench_out/spans-<workload>-<seed>.jsonl`). The traced run also serves
//! a segment over real sockets through `NetServer`, for the `net` layer.
//!
//! Each workload has a closed-loop saturation phase and three open-loop
//! phases at fixed rates: `low`, `high`, and `swap` (the high rate while
//! bit-identical model clones are hot-swapped in). The phases run
//! interleaved, one window of each per round; a phase's latency
//! percentiles are taken over all its requests, its throughput and swap
//! time are medians over its windows. The exit code is 0 only when every
//! output check passes.

mod check;
mod fit;
mod layers;
mod load;
mod score;
mod spans;
mod streams;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dart_core::TabularModel;
use dart_net::{NetConfig, NetServer};
use dart_nn::matrix::Matrix;
use dart_serve::{ServeConfig, ServeRuntime, ServeStats};
use dart_trace::PreprocessConfig;

use check::Emit;
use load::{Ev, Mode, PhaseLog, PhaseSpec, Session};
use score::{median, Accounting, Latency, Lateness, Quality};
use spans::{SpanBuf, Tracing};
use streams::{Pool, Shape};

/// Metrics in the order they are printed: name, value, unit.
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: String, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// One serving workload. Both run in process through `ServeRuntime`; the
/// traced run adds a segment over TCP through `NetServer` (see `run`).
struct Workload {
    name: &'static str,
    /// Short-lived streams that never warm up, instead of long warm ones.
    churn: bool,
    /// Open-loop rates, requests per second. `low` stays in the batch-1
    /// regime; `high` lies well below saturation, where batches coalesce
    /// without a backlog.
    low_rps: f64,
    high_rps: f64,
    /// Closed-loop requests in flight.
    window: usize,
    /// Share of `--seconds` given to the saturation, low, high and swap
    /// phases. Churn saturates at millions of requests per second, so its
    /// saturation share is small enough to keep the per-request records
    /// in memory.
    shares: [f64; 4],
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "warm_inproc",
        churn: false,
        low_rps: 300.0,
        high_rps: 500.0,
        window: 128,
        shares: [0.2, 0.3, 0.2, 0.3],
    },
    Workload {
        name: "churn_inproc",
        churn: true,
        low_rps: 15000.0,
        high_rps: 30000.0,
        window: 256,
        shares: [0.025, 0.375, 0.25, 0.35],
    },
];

/// Rounds the phases are interleaved in; each round runs one window of
/// every phase, and the swap window of each round publishes one model.
const ROUNDS: u64 = 16;
/// Order of the phases within a round (indices into `phases`): the
/// open-loop ones first, so the peak RSS read before the first saturation
/// window covers the serving stack after one window of each open-loop
/// phase, a swap included, while the benchmark's own records are small.
const ROUND_ORDER: [usize; 4] = [1, 2, 3, 0];
/// Windows of the traced run's TCP segment.
const NET_WINDOWS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Shard workers (the host's CPU count).
const SHARDS: usize = 2;
/// TCP connections of the traced run's TCP segment (at most one generator
/// thread each).
const CONNS: usize = 2;
/// An open-loop generator that sends a request later than this after its
/// slot has fallen behind its schedule, and the run is invalid.
const MAX_LATENESS_NS: u64 = 100_000_000;
/// Churn streams send this many accesses, fewer than `seq_len`.
const CHURN_ACCESSES: u32 = 4;
/// Streams kept in flight by churn phases.
const CHURN_ACTIVE: u32 = 64;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let report = run(&args, w);
    for (name, value, unit) in &report.printed.0 {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    for f in &report.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    let correct = report.failures.is_empty();
    let metrics: Vec<String> = report
        .json
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.acct.sent.max(1),
        report.acct.errors(),
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

struct Report {
    /// Everything measured, printed as a table.
    printed: Metrics,
    /// The metrics of the result line.
    json: Metrics,
    acct: Accounting,
    failures: Vec<String>,
}

/// The system under test after one set-up.
struct Served {
    runtime: Arc<ServeRuntime>,
    /// Bound by the traced run for its TCP segment.
    server: Option<NetServer>,
    model: Arc<TabularModel>,
    student: dart_nn::model::AccessPredictor,
}

impl Served {
    fn stop(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
        match Arc::try_unwrap(self.runtime) {
            Ok(rt) => {
                rt.shutdown();
            }
            Err(_) => eprintln!("perfbench: runtime still shared at shutdown"),
        }
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig { shards: SHARDS, ..ServeConfig::default() }
}

/// Fit and start the runtime, until the first request can be sent.
/// Returns the served system and the step times.
fn set_up(pre: &PreprocessConfig) -> (Served, [f64; 4]) {
    let t0 = Instant::now();
    let fitted = fit::fit(pre);
    let t1 = Instant::now();
    let model = Arc::new(fitted.model);
    let runtime = Arc::new(ServeRuntime::start(Arc::clone(&model), *pre, serve_config()));
    let total = t0.elapsed().as_secs_f64();
    let start_s = t1.elapsed().as_secs_f64();
    let served = Served { runtime, server: None, model, student: fitted.student };
    (served, [total, fitted.train_s, fitted.tabularize_s, start_s])
}

fn scraped(doc: &str, name: &str) -> f64 {
    doc.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| l.strip_prefix(name).is_some_and(|rest| rest.starts_with([' ', '{'])))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Reset this process's peak resident set size to its current one (Linux
/// 4.0 and later), so a later reading covers only what ran since. False
/// when the kernel refuses.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Hot-swap timings of the swap phase.
#[derive(Default)]
struct SwapLog {
    swap_ms: Vec<f64>,
    /// Time until every shard served the new version, for the swaps whose
    /// adoption was seen. Shards adopt at batch boundaries, so a swap that
    /// returns near the end of its window's traffic is adopted only in a
    /// later window; for those, `adopt_unseen_ms` holds the wait until the
    /// traffic ended, a lower bound.
    adopt_ms: Vec<f64>,
    adopt_unseen_ms: Vec<f64>,
    errors: Vec<String>,
}

/// Publish one bit-identical clone of the active model at `due` (ns since
/// epoch). With `adopt`, also time how long the shards take to serve it.
fn swap_once(
    rt: &ServeRuntime,
    epoch: Instant,
    due: u64,
    adopt: bool,
    drained: &AtomicBool,
    log: &mut SwapLog,
) {
    let now = epoch.elapsed().as_nanos() as u64;
    if due > now {
        std::thread::sleep(Duration::from_nanos(due - now));
    }
    let (_, active) = rt.registry().active();
    let clone = Arc::new(active.deep_clone());
    let t = Instant::now();
    let version = match rt.swap_model(clone, "perfbench: bit-identical clone") {
        Ok(v) => v,
        Err(e) => return log.errors.push(format!("swap_model refused a clone: {e}")),
    };
    log.swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
    if adopt {
        let t = Instant::now();
        while rt.stats_snapshot().per_shard_model_version.iter().any(|&v| v < version) {
            if drained.load(Ordering::Acquire) {
                return log.adopt_unseen_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        log.adopt_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
}

/// The streams of phase number `p`: stream ids are unique per phase.
fn shape(w: &Workload, p: u32, streams: u32) -> Shape {
    let base = p << 26;
    if w.churn {
        Shape::Churn { base, active: CHURN_ACTIVE, per_stream: CHURN_ACCESSES }
    } else {
        Shape::Warm { base, streams }
    }
}

/// The four phases of a workload: saturation, low, high, swap.
fn phases(w: &Workload) -> [PhaseSpec; 4] {
    let spec = |name, p, streams| PhaseSpec { name, shape: shape(w, p, streams), window: w.window };
    [spec("saturation", 1, 64), spec("low", 2, 8), spec("high", 3, 32), spec("swap", 4, 32)]
}

/// One window of each phase, for a run of `seconds` split in `ROUNDS`.
fn window_modes(w: &Workload, seconds: f64) -> [Mode; 4] {
    let secs = |p: usize| seconds * w.shares[p] / ROUNDS as f64;
    let open = |rate: f64, p| Mode::Open { rate, count: (rate * secs(p)) as u64 };
    [Mode::Closed { secs: secs(0) }, open(w.low_rps, 1), open(w.high_rps, 2), open(w.high_rps, 3)]
}

/// Per-request samples of a window's timed requests.
#[derive(Default)]
struct Samples {
    /// Client latency from the scheduled send, ns.
    client: Vec<u64>,
    /// Server residence (`latency_ns` of the response), ns.
    resident: Vec<u64>,
    /// Client latency from the actual send minus residence, ns.
    overhead: Vec<u64>,
}

fn samples(log: &PhaseLog, res: &check::Resolved, range: std::ops::Range<usize>) -> Samples {
    let mut s = Samples::default();
    for i in range {
        let sent = &log.sent[i];
        if let Some(Ev::Resp { at, resident_ns, failed: false, .. }) = res.resp(log, i) {
            s.client.push(at.saturating_sub(sent.sched));
            s.resident.push(*resident_ns);
            s.overhead.push(at.saturating_sub(sent.send).saturating_sub(*resident_ns));
        }
    }
    s
}

/// All timed samples of a phase.
fn phase_samples(log: &PhaseLog, res: &check::Resolved) -> Samples {
    let mut all = Samples::default();
    for w in &log.windows {
        let s = samples(log, res, w.sent.clone());
        all.client.extend(s.client);
        all.resident.extend(s.resident);
        all.overhead.extend(s.overhead);
    }
    all
}

/// Responses per second that arrived within a saturation window, median
/// over the windows. Medians, not best windows: on a shared host a
/// window's figure stays within a few percent of the phase's, except for
/// the odd window that runs far faster or slower, and the best window is
/// such an outlier.
fn throughput(log: &PhaseLog, res: &check::Resolved) -> f64 {
    let rates: Vec<f64> = log
        .windows
        .iter()
        .map(|w| {
            let Mode::Closed { secs } = w.mode else { unreachable!("saturation is a closed loop") };
            let arrivals = w.sent.clone().filter_map(|i| match res.resp(log, i) {
                Some(Ev::Resp { at, .. }) => Some(*at),
                _ => None,
            });
            score::rate_in(arrivals, w.start, (secs * 1e9) as u64)
        })
        .collect();
    median_or_nan(&rates)
}

fn median_or_nan(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        median(v)
    }
}

/// Sum of a counter's growth over several (before, after) snapshots.
fn grown(pairs: &[(ServeStats, ServeStats)], f: impl Fn(&ServeStats) -> u64) -> u64 {
    pairs.iter().map(|(a, b)| f(b) - f(a)).sum()
}

/// What the traced run's TCP segment saw.
struct NetSegment {
    log: PhaseLog,
    /// `/metrics` before and after the segment.
    scrape: [String; 2],
    /// Predictions the runtime made during the segment.
    predictions: u64,
    /// Spans of the connections' reader threads.
    spans: Vec<spans::Span>,
    spans_recorded: u64,
}

/// Bind a `NetServer` on the running runtime and serve `NET_WINDOWS`
/// windows of the high rate over `CONNS` real TCP connections, on streams
/// of their own.
fn net_segment(
    served: &mut Served,
    pool: &Pool,
    spec: PhaseSpec,
    mode: Mode,
    seq_len: usize,
    epoch: Instant,
    failures: &mut Vec<String>,
) -> NetSegment {
    let rt = Arc::clone(&served.runtime);
    let server = NetServer::start(Arc::clone(&rt), NetConfig::default()).expect("bind the server");
    let addr = server.local_addr();
    served.server = Some(server);
    let before = dart_net::fetch_metrics(addr).unwrap_or_default();
    let predictions_before = rt.stats_snapshot().predictions;
    let mut session =
        Session::tcp(addr, CONNS, epoch, Tracing::new(true)).expect("connect to the server");
    let mut log = PhaseLog::new(spec);
    for _ in 0..NET_WINDOWS {
        session.run(pool, &mut log, mode, seq_len, 7, |_, _| ());
    }
    if session.protocol_error.load(Ordering::Acquire) {
        failures.push("net: a response stream carried a malformed frame".into());
    }
    let (spans, spans_recorded) = session.close();
    let predictions = rt.stats_snapshot().predictions - predictions_before;
    let after = dart_net::fetch_metrics(addr).unwrap_or_default();
    NetSegment { log, scrape: [before, after], predictions, spans, spans_recorded }
}

/// Checks of one phase's records, folded into the run's books.
#[derive(Default)]
struct Books {
    acct: Accounting,
    expected_predictions: u64,
    reference_checked: usize,
    failures: Vec<String>,
}

impl Books {
    /// Match the phase's answers to its requests and check them: exactly
    /// once, served blocks against the serial reference, and (open loop)
    /// the generator's lateness, which is returned.
    fn check(
        &mut self,
        served: &Served,
        pre: &PreprocessConfig,
        emit: Emit,
        pool: &Pool,
        log: &PhaseLog,
    ) -> (check::Resolved, Option<Lateness>) {
        let res = check::resolve(pool, log);
        self.acct.add(res.acct);
        let name = log.spec.name;
        self.failures.extend(res.violations.iter().map(|v| format!("{name}: {v}")));
        self.expected_predictions += res
            .streams()
            .map(|(_, idx)| (idx.len() as u64).saturating_sub(pre.seq_len as u64 - 1))
            .sum::<u64>();
        let (checked, mismatches) = check::reference(&served.model, pre, emit, pool, log, &res);
        self.reference_checked += checked;
        self.failures.extend(mismatches.iter().take(5).map(|m| format!("{name}: {m}")));
        if !log.windows.iter().all(|w| matches!(w.mode, Mode::Open { .. })) {
            return (res, None);
        }
        let late = Lateness::of(log.sent.iter().filter(|s| s.timed).map(|s| (s.sched, s.send)));
        if late.behind(MAX_LATENESS_NS) {
            self.failures.push(format!(
                "{name}: generator fell behind its schedule by {:.1} ms; the run is invalid",
                late.max as f64 / 1e6
            ));
        }
        (res, Some(late))
    }
}

fn run(args: &Args, w: &Workload) -> Report {
    let epoch = Instant::now();
    let pre = PreprocessConfig::default();
    let cfg = serve_config();
    let emit = Emit { threshold: cfg.threshold, max_degree: cfg.max_degree.max(1) };
    let mut printed = Metrics(Vec::new());
    let mut failures = Vec::new();

    // Set-up, several times; the last system serves.
    let mut times = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        if let Some(previous) = served.take() {
            Served::stop(previous);
        }
        let (s, t) = set_up(&pre);
        times.push(t);
        served = Some(s);
    }
    let mut served = served.expect("at least one set-up");
    let step = |i: usize| median(&times.iter().map(|t| t[i]).collect::<Vec<_>>());
    let rt = Arc::clone(&served.runtime);
    let stats_before = rt.stats_snapshot();

    let specs = phases(w);
    let modes = window_modes(w, args.seconds);
    // Warm streams the per-layer timings take their inputs from.
    let probe = Shape::Warm { base: 5 << 26, streams: 32 };
    // The traced run's untraced saturation windows and its TCP segment
    // use streams of their own.
    let untraced_spec = PhaseSpec { name: "untraced", shape: shape(w, 6, 64), ..specs[0] };
    let net_spec = PhaseSpec { name: "net", shape: shape(w, 7, 32), ..specs[2] };
    let mut pool = Pool::new(args.seed);
    for spec in specs.iter().chain([&untraced_spec, &net_spec]) {
        pool.prepare(spec.shape);
    }
    pool.prepare(probe);
    // The peak RSS is read once serving has run, and covers serving only.
    let rss_reset = reset_peak_rss();
    printed.push("rss_peak_reset".into(), f64::from(u8::from(rss_reset)), "bool");

    // The timed phases, interleaved: each round runs one window of every
    // phase, so host noise in one stretch of the run spreads over all
    // phases instead of landing on one. With --trace 1, each round also
    // runs one saturation window with tracing off, before or after the
    // traced one in turn, so the traced run can report its own overhead.
    let mut logs: Vec<PhaseLog> = specs.iter().copied().map(PhaseLog::new).collect();
    let mut untraced = args.trace.then(|| PhaseLog::new(untraced_spec));
    let mut session = Session::in_process(&rt, epoch, Tracing::new(args.trace));
    let mut swap_log = SwapLog::default();
    let mut high_stats = Vec::new();
    let mut rss_mb = f64::NAN;
    for round in 0..ROUNDS {
        for p in ROUND_ORDER {
            let tag = 2 + p as u64;
            if p == 0 && round == 0 {
                rss_mb = peak_rss_mb();
            }
            let before = rt.stats_snapshot();
            if p == 3 {
                let Mode::Open { rate, count } = modes[3] else {
                    unreachable!("swap is open-loop")
                };
                let quarter = (count as f64 * 1e9 / rate / 4.0) as u64;
                session.run(&pool, &mut logs[3], modes[3], pre.seq_len, tag, |t0, drained| {
                    swap_once(&rt, epoch, t0 + quarter, args.trace, drained, &mut swap_log)
                });
            } else if let (0, Some(log)) = (p, untraced.as_mut()) {
                let untraced_first = round % 2 == 0;
                for traced in [!untraced_first, untraced_first] {
                    session.tracing.set(traced);
                    let log = if traced { &mut logs[0] } else { &mut *log };
                    session.run(&pool, log, modes[0], pre.seq_len, tag, |_, _| ());
                }
                session.tracing.set(true);
            } else {
                session.run(&pool, &mut logs[p], modes[p], pre.seq_len, tag, |_, _| ());
            }
            if p == 2 {
                high_stats.push((before, rt.stats_snapshot()));
            }
        }
    }
    if session.protocol_error.load(Ordering::Acquire) {
        failures.push("a response stream carried a malformed frame".into());
    }
    let (mut all_spans, mut spans_recorded) = session.close();
    let net = args.trace.then(|| {
        net_segment(&mut served, &pool, net_spec, modes[2], pre.seq_len, epoch, &mut failures)
    });
    let stats = rt.stats_snapshot();

    // Output checks.
    let mut books = Books::default();
    let mut quality = Quality::default();
    let mut lateness = Metrics(Vec::new());
    let mut resolved = Vec::new();
    for log in &logs {
        let (res, late) = books.check(&served, &pre, emit, &pool, log);
        if let Some(late) = late {
            quality.add(check::quality(&pool, log, &res, &pre));
            let name = log.spec.name;
            lateness.push(format!("gen.late_us.p99.{name}"), late.p99 as f64 / 1e3, "us");
            lateness.push(format!("gen.late_us.max.{name}"), late.max as f64 / 1e3, "us");
        }
        resolved.push(res);
    }
    let untraced_res = untraced.as_ref().map(|log| books.check(&served, &pre, emit, &pool, log).0);
    let net_res = net.as_ref().map(|n| books.check(&served, &pre, emit, &pool, &n.log).0);
    failures.append(&mut books.failures);
    let acct = books.acct;
    printed.push("reference_checked".into(), books.reference_checked as f64, "count");
    if !w.churn && books.reference_checked == 0 {
        failures.push("no served prediction was checked against the serial reference".into());
    }

    // Guards: each workload exercises the path it claims to measure.
    let predictions = stats.predictions - stats_before.predictions;
    let evictions = stats.stream_evictions - stats_before.stream_evictions;
    if w.churn {
        if predictions != 0 {
            failures.push(format!("{} made {predictions} predictions; it must make none", w.name));
        }
        if evictions == 0 {
            failures.push(format!("{} evicted no stream from the LRU", w.name));
        }
    } else if predictions == 0 || predictions != books.expected_predictions {
        failures.push(format!(
            "warm workload made {predictions} predictions, expected {} (> 0)",
            books.expected_predictions
        ));
    }
    let swaps = stats.model_swaps - stats_before.model_swaps;
    if swaps != ROUNDS || swap_log.swap_ms.len() as u64 != ROUNDS {
        failures.push(format!("{swaps} of {ROUNDS} scheduled model swaps landed"));
    }
    failures.extend(swap_log.errors.iter().cloned());
    let net_counts = net.as_ref().zip(net_res.as_ref()).map(|(n, res)| {
        let delta = |name: &str| scraped(&n.scrape[1], name) - scraped(&n.scrape[0], name);
        let frames_in = delta("dart_net_frames_in_total");
        if frames_in as u64 != res.acct.sent {
            failures.push(format!(
                "net: server decoded {frames_in} frames, the client sent {}",
                res.acct.sent
            ));
        }
        let nacks = delta("dart_net_nacks_total");
        if nacks as u64 != res.acct.nacked {
            failures.push(format!(
                "net: server sent {nacks} NACKs, the client got {}",
                res.acct.nacked
            ));
        }
        let scraped_predictions = delta("dart_serve_predictions_total");
        if scraped_predictions as u64 != n.predictions {
            failures.push(format!(
                "net: /metrics reports {scraped_predictions} predictions, stats {}",
                n.predictions
            ));
        }
        [frames_in, nacks, delta("dart_net_batched_writes_total")]
    });

    // End-to-end metrics.
    let mut e2e = Metrics(Vec::new());
    let rps = throughput(&logs[0], &resolved[0]);
    e2e.push("throughput_rps".into(), rps, "1/s");
    let mut tails = Metrics(Vec::new());
    for (p, name) in [(1, "low"), (2, "high"), (3, "swap")] {
        let all = Latency::of(phase_samples(&logs[p], &resolved[p]).client);
        if all.count < 1000 {
            failures.push(format!("{name}: {} samples cannot support a p99", all.count));
        }
        e2e.push(format!("p50_us.{name}"), all.p50 as f64 / 1e3, "us");
        tails.push(format!("p99_us.{name}"), all.p99 as f64 / 1e3, "us");
        printed.push(format!("samples.{name}"), all.count as f64, "count");
    }
    e2e.push("swap_ms".into(), median_or_nan(&swap_log.swap_ms), "ms");
    e2e.push("success_rate".into(), 1.0 - acct.error_rate(), "ratio");
    e2e.push("prefetch_accuracy".into(), quality.accuracy(), "ratio");
    e2e.push("prefetch_coverage".into(), quality.coverage(), "ratio");
    e2e.push("peak_rss_mb".into(), rss_mb, "MB");
    e2e.push("model_bytes".into(), served.model.storage_bytes() as f64, "bytes");
    e2e.push("setup_s".into(), step(0), "s");
    printed.push("error_rate".into(), acct.error_rate(), "ratio");
    printed.push("requests_sent".into(), acct.sent as f64, "count");
    printed.push("predictions".into(), predictions as f64, "count");
    printed.0.extend(e2e.0.iter().cloned());
    printed.0.extend(tails.0.iter().cloned());
    printed.0.extend(lateness.0.iter().cloned());

    let mut out = e2e;
    if let (Some(net), Some(net_res), Some(net_counts)) = (net, net_res, net_counts) {
        let mut layer = tails;
        layer.0.extend(lateness.0);
        // Tails and lateness are in the printed table already.
        let printed_already = layer.0.len();
        layer.push("nn.train_s".into(), step(1), "s");
        layer.push("core.tabularize_s".into(), step(2), "s");
        layer.push("serve.start_s".into(), step(3), "s");
        let mut sp = SpanBuf::new(epoch, Tracing::new(true), 0xFFFF);
        let x32 = warm_batch(&pool, probe, &pre, 32);
        if let Err(e) = layers::core(&served.model, &mut served.student, &x32, &mut sp, &mut layer)
        {
            failures.push(e);
        }
        layers::fingerprint(&served.model, &mut sp, &mut layer);
        let probs = served.model.predict_batch(&x32);
        let accesses: Vec<(u64, u64)> = (0..4096)
            .map(|k| {
                let r = pool.req(probe, k);
                (r.block(), r.pc)
            })
            .collect();
        layers::serve(&pre, &accesses, &probs, emit, &mut sp, &mut layer);
        layers::net_and_telemetry(&rt, &mut sp, &mut layer);

        // Serving layers over the high phase, where batches coalesce.
        let high = phase_samples(&logs[2], &resolved[2]);
        let resident = Latency::of(high.resident);
        let batches = grown(&high_stats, |s| s.batches);
        let requests = grown(&high_stats, |s| s.requests);
        let batch_mean = requests as f64 / batches.max(1) as f64;
        layer.push("serve.batch_mean".into(), batch_mean, "requests");
        layer.push("serve.batches".into(), batches as f64, "count");
        let warm = grown(&high_stats, |s| s.predictions) as f64;
        layer.push("serve.warm_share".into(), warm / requests.max(1) as f64, "ratio");
        layer.push("serve.resident_us.p50".into(), resident.p50 as f64 / 1e3, "us");
        layer.push("serve.resident_us.p99".into(), resident.p99 as f64 / 1e3, "us");
        // Kernel time at the mean number of warm rows per batch,
        // interpolated between b1 and b32 (none when nothing is warm).
        let find = |m: &Metrics, n: &str| m.0.iter().find(|(k, _, _)| k == n).map_or(0.0, |e| e.1);
        let (b1, b32) = (find(&layer, "core.predict_us.b1"), find(&layer, "core.predict_us.b32"));
        let warm_rows = warm / batches.max(1) as f64;
        let kernel_us = if warm_rows > 0.0 {
            b1 + (b32 - b1) * (warm_rows.clamp(1.0, 32.0) - 1.0) / 31.0
        } else {
            0.0
        };
        layer.push("serve.wait_us".into(), resident.p50 as f64 / 1e3 - kernel_us, "us");
        // With no adoption seen, the lower bounds are all there is.
        let adopt = if swap_log.adopt_ms.is_empty() {
            &swap_log.adopt_unseen_ms
        } else {
            &swap_log.adopt_ms
        };
        layer.push("serve.swap_adopt_ms".into(), median_or_nan(adopt), "ms");
        printed.push(
            "swap_adoptions_unseen".into(),
            swap_log.adopt_unseen_ms.len() as f64,
            "count",
        );
        layer.push("serve.evictions".into(), evictions as f64, "count");
        // Client latency minus server residence, over real sockets.
        let overhead = Latency::of(phase_samples(&net.log, &net_res).overhead);
        printed.push("net.samples".into(), overhead.count as f64, "count");
        layer.push("net.overhead_us.p50".into(), overhead.p50 as f64 / 1e3, "us");
        layer.push("net.overhead_us.p99".into(), overhead.p99 as f64 / 1e3, "us");
        layer.push("net.frames_in".into(), net_counts[0], "count");
        layer.push("net.nacks".into(), net_counts[1], "count");
        layer.push("net.batched_writes".into(), net_counts[2], "count");
        let log = untraced.as_ref().expect("untraced saturation ran");
        let untraced_rps = throughput(log, untraced_res.as_ref().expect("resolved"));
        layer.push("trace.untraced_rps".into(), untraced_rps, "1/s");
        layer.push("trace.overhead_share".into(), (untraced_rps - rps) / untraced_rps, "ratio");

        for l in logs.iter().chain([&net.log]) {
            all_spans.extend(l.spans.iter().copied());
            spans_recorded += l.spans_recorded;
        }
        all_spans.extend(net.spans);
        spans_recorded += net.spans_recorded;
        spans_recorded += sp.recorded;
        all_spans.extend(sp.spans);
        printed.push("spans_recorded".into(), spans_recorded as f64, "count");
        let path =
            std::path::PathBuf::from(format!(".bench_out/spans-{}-{}.jsonl", w.name, args.seed));
        match spans::write_jsonl(&path, &all_spans) {
            Ok(()) => printed.push("spans_written".into(), all_spans.len() as f64, "count"),
            Err(e) => failures.push(format!("writing {}: {e}", path.display())),
        }
        printed.0.extend(layer.0.iter().skip(printed_already).cloned());
        out = layer;
    }
    if out.0.iter().any(|(_, v, _)| !v.is_finite()) {
        failures.push("a metric is not a finite number".into());
        out.0.retain(|(_, v, _)| v.is_finite());
    }
    drop(rt);
    served.stop();
    Report { printed, json: out, acct, failures }
}

/// A batch of `n` warm windows from the streams of `shape`.
fn warm_batch(pool: &Pool, shape: Shape, pre: &PreprocessConfig, n: usize) -> Matrix {
    let t = pre.seq_len;
    let Shape::Warm { base, streams } = shape else {
        unreachable!("windows come from warm streams")
    };
    let mut x = Matrix::zeros(n * t, pre.input_dim());
    for s in 0..n {
        let sid = base + (s as u32 % streams);
        for tok in 0..t {
            let rec = pool.record(shape, sid, (s / streams as usize * t + tok) as u32);
            let block = rec.addr >> dart_core::BLOCK_BITS;
            pre.write_token_features(block, rec.pc, x.row_mut(s * t + tok));
        }
    }
    x
}
