//! The TCP serving front-end: non-blocking readiness loop feeding
//! [`dart_serve::ServeRuntime`], with explicit backpressure.
//!
//! Thread layout for one [`NetServer`]:
//!
//! ```text
//!   listener (shared, non-blocking)
//!      │ accepted by whichever IO thread's poller fires first
//!  ┌───▼────┐  ┌────────┐     each owns its connections' reads AND
//!  │ io-0   │  │ io-1 … │     writes: decode → try_submit, flush on
//!  └───┬────┘  └───┬────┘     writable events / dirty-list passes
//!      │  shard queues / workers (dart-serve)
//!  ┌───▼──────────────────┐   take_completed_timeout → group by conn
//!  │ response dispatcher  │   → ONE encoded buffer per conn per pump
//!  └──────────────────────┘   → outbox append + dirty mark + waker
//! ```
//!
//! Invariants the tests pin down:
//!
//! * **An IO thread never blocks on the runtime.** Admission uses
//!   [`dart_serve::ServeRuntime::try_submit`]; a full shard queue comes
//!   back as a NACK frame carrying the queue depth, written to the
//!   client instead of parking the thread.
//! * **Every accepted frame is answered exactly once** — a response
//!   (served or failed) or a NACK, never both, never neither.
//! * **The dispatcher never writes to a socket.** It groups each pump's
//!   responses by connection, encodes them into one buffer per conn
//!   (one outbox lock per conn per pump instead of one per response),
//!   and hands the flush to the owning IO thread via a dirty list + a
//!   waker. Socket writes happen only on IO threads: on writable
//!   events, on dirty-list passes, and on the enqueue fast path for
//!   IO-thread-originated bytes (NACKs, HTTP responses).
//! * **Writable interest only while pending.** `EPOLLOUT` (or the
//!   fallback poller's equivalent) is registered exactly while a conn's
//!   outbox holds un-flushed bytes and dropped once it drains — a
//!   level-triggered writable interest left on an idle socket would
//!   fire on every wait.
//! * **Slow readers cannot pin memory.** A connection whose un-flushed
//!   outbox exceeds [`NetConfig::write_buf_cap`] is disconnected, and a
//!   connection with more than [`NetConfig::max_inflight_per_conn`]
//!   unanswered frames gets NACKs instead of new submissions.
//! * **Dead connections free their serving state.** Reaping a conn
//!   retires its namespaced streams (`conn_id << 32 | stream`) from the
//!   shard LRU maps instead of letting them squat until cap churn
//!   displaces live streams, and with [`NetConfig::idle_timeout_ms`]
//!   set, connections with no traffic and nothing in flight are reaped
//!   (reason `idle`) instead of holding state forever.

use dart_telemetry::lockcheck::{named_mutex, Mutex};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dart_serve::{ServeRuntime, SubmitRejected};

use crate::http::{HeadParser, HttpStep};
use crate::sys::{Event, Poller};
use crate::wire::{
    encode_nack, encode_response, Frame, FrameDecoder, NackFrame, ResponseFrame, MAGIC0,
};

/// Front-end configuration.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` (port 0 picks a free port;
    /// read it back via [`NetServer::local_addr`]).
    pub addr: String,
    /// Acceptor/IO threads, each with its own poller (clamped ≥ 1). The
    /// listener is registered in every poller; a connection is owned for
    /// reading by whichever thread accepted it.
    pub io_threads: usize,
    /// Per-connection admission cap: frames submitted but not yet
    /// answered. Beyond it new frames are NACKed (depth = the in-flight
    /// count) without touching the shard queues.
    pub max_inflight_per_conn: u64,
    /// Per-connection un-flushed outbox cap in bytes; a reader slower
    /// than its response stream is disconnected when crossed.
    pub write_buf_cap: usize,
    /// Poll/dispatch tick in milliseconds (clamped ≥ 1). Bounds how long
    /// a pending flush or a shutdown request waits for a quiet loop.
    pub poll_timeout_ms: u64,
    /// Reap connections with no traffic, nothing in flight, and an empty
    /// outbox after this many milliseconds (disconnect reason `idle`).
    /// `0` disables idle reaping.
    pub idle_timeout_ms: u64,
    /// Probe-sleep cap of the **fallback** poller backend, milliseconds
    /// (clamped ≥ 1; irrelevant under epoll). The fallback has no kernel
    /// readiness source — it sleeps then reports every token — so this
    /// bounds how stale its readiness view can be: lower it for
    /// latency-sensitive non-Linux serving, raise it for near-idle links
    /// where 5 ms wakeups are pure waste. Overridable at
    /// [`NetServer::start`] via `DART_NET_POLLER_SLEEP_MS` (strict parse:
    /// a malformed value is a startup error, not a silent default).
    pub fallback_poller_sleep_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            io_threads: 2,
            max_inflight_per_conn: 1024,
            write_buf_cap: 1 << 20,
            poll_timeout_ms: 2,
            idle_timeout_ms: 0,
            fallback_poller_sleep_ms: 5,
        }
    }
}

/// Why a connection was torn down (the label on
/// `dart_net_disconnects_total`). First doom reason wins; later ones
/// are no-ops.
mod reason {
    pub const ALIVE: u8 = 0;
    pub const EOF: u8 = 1;
    pub const SLOW_READER: u8 = 2;
    pub const PROTOCOL_ERROR: u8 = 3;
    pub const IO_ERROR: u8 = 4;
    pub const HTTP_DONE: u8 = 5;
    pub const SHUTDOWN: u8 = 6;
    pub const IDLE: u8 = 7;
    pub const ACCEPT_ERROR: u8 = 8;

    pub fn label(code: u8) -> &'static str {
        match code {
            EOF => "eof",
            SLOW_READER => "slow_reader",
            PROTOCOL_ERROR => "protocol_error",
            IO_ERROR => "io_error",
            HTTP_DONE => "http_done",
            SHUTDOWN => "shutdown",
            IDLE => "idle",
            ACCEPT_ERROR => "accept_error",
            _ => "unknown",
        }
    }
}

/// Live front-end counters in the **global** telemetry registry (so they
/// appear in the same `/metrics` document as the serving runtime's own
/// exposition). Registration is idempotent: two servers in one process
/// share cells.
struct Counters {
    accepted: Arc<dart_telemetry::Counter>,
    active: Arc<dart_telemetry::Gauge>,
    frames_in: Arc<dart_telemetry::Counter>,
    responses_out: Arc<dart_telemetry::Counter>,
    /// Dispatcher outbox appends that coalesced **more than one**
    /// response frame — the proof the batched write path is taken.
    batched_writes: Arc<dart_telemetry::Counter>,
    nacks_queue_full: Arc<dart_telemetry::Counter>,
    nacks_admission: Arc<dart_telemetry::Counter>,
    http_requests: Arc<dart_telemetry::Counter>,
    orphaned: Arc<dart_telemetry::Counter>,
    /// Times a connection gained writable interest (pending outbox).
    writable_regs: Arc<dart_telemetry::Counter>,
    /// Connections currently under writable interest (pending outbox
    /// right now). Returns to 0 whenever every outbox is drained.
    writable_watch: Arc<dart_telemetry::Gauge>,
    disconnects: HashMap<u8, Arc<dart_telemetry::Counter>>,
}

impl Counters {
    fn register() -> Counters {
        let reg = dart_telemetry::global();
        let disconnects = [
            reason::EOF,
            reason::SLOW_READER,
            reason::PROTOCOL_ERROR,
            reason::IO_ERROR,
            reason::HTTP_DONE,
            reason::SHUTDOWN,
            reason::IDLE,
            reason::ACCEPT_ERROR,
        ]
        .into_iter()
        .map(|code| {
            let cell = reg.counter(
                "dart_net_disconnects_total",
                "Connections torn down, by reason.",
                &[("reason", reason::label(code))],
            );
            (code, cell)
        })
        .collect();
        Counters {
            accepted: reg.counter(
                "dart_net_connections_accepted_total",
                "TCP connections accepted.",
                &[],
            ),
            active: reg.gauge(
                "dart_net_connections_active",
                "TCP connections currently open.",
                &[],
            ),
            frames_in: reg.counter(
                "dart_net_frames_in_total",
                "Well-formed request frames decoded.",
                &[],
            ),
            responses_out: reg.counter(
                "dart_net_responses_out_total",
                "Response frames routed to a connection outbox.",
                &[],
            ),
            batched_writes: reg.counter(
                "dart_net_batched_writes_total",
                "Outbox appends carrying more than one coalesced response frame.",
                &[],
            ),
            nacks_queue_full: reg.counter(
                "dart_net_nacks_total",
                "Requests refused with a NACK frame, by reason.",
                &[("reason", "queue_full")],
            ),
            nacks_admission: reg.counter(
                "dart_net_nacks_total",
                "Requests refused with a NACK frame, by reason.",
                &[("reason", "admission")],
            ),
            http_requests: reg.counter(
                "dart_net_http_requests_total",
                "HTTP requests served on the binary port.",
                &[],
            ),
            orphaned: reg.counter(
                "dart_net_orphaned_responses_total",
                "Responses whose connection was already gone.",
                &[],
            ),
            writable_regs: reg.counter(
                "dart_net_writable_registrations_total",
                "Times a connection gained writable (EPOLLOUT-style) interest.",
                &[],
            ),
            writable_watch: reg.gauge(
                "dart_net_writable_watched",
                "Connections currently under writable interest (pending outbox).",
                &[],
            ),
            disconnects,
        }
    }
}

/// Un-flushed bytes headed for one socket. `start` marks the flushed
/// prefix; it is compacted away once it dominates the buffer.
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    start: usize,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// One client connection. Reads happen only on the owning IO thread; the
/// outbox is shared with the response dispatcher and serialized by its
/// mutex. **Socket writes happen only on the owning IO thread** — the
/// dispatcher appends ([`Conn::append`]) and marks the conn dirty, never
/// touching the socket itself.
struct Conn {
    id: u32,
    /// Index of the IO thread that accepted (and therefore owns) this
    /// connection — where dirty marks are routed.
    owner: usize,
    stream: TcpStream,
    /// Frames submitted to the runtime, not yet answered.
    inflight: AtomicU64,
    /// First doom reason (see [`reason`]); `ALIVE` while healthy. Set by
    /// either side, acted on (disconnect) by the owning IO thread.
    doomed: AtomicU8,
    /// Whether this conn already sits in its owner's dirty list (dedupes
    /// the list under a hot dispatcher). Cleared by the IO thread
    /// *before* it flushes, so an append racing the flush re-marks.
    in_dirty: AtomicBool,
    /// Last traffic (accept, read, or response routed), in
    /// [`Shared::now_ms`] time — what idle reaping compares against.
    last_activity_ms: AtomicU64,
    outbox: Mutex<OutBuf>,
}

impl Conn {
    /// Mark for disconnect; the first reason sticks.
    fn doom(&self, code: u8) {
        let _ =
            self.doomed.compare_exchange(reason::ALIVE, code, Ordering::Relaxed, Ordering::Relaxed);
    }

    fn doom_code(&self) -> u8 {
        self.doomed.load(Ordering::Relaxed)
    }

    fn touch(&self, now_ms: u64) {
        self.last_activity_ms.store(now_ms, Ordering::Relaxed);
    }

    /// Un-flushed outbox bytes right now.
    fn pending(&self) -> usize {
        self.outbox.lock().unwrap_or_else(PoisonError::into_inner).pending()
    }

    /// Dispatcher path: queue `bytes` **without touching the socket** —
    /// the owning IO thread flushes on its next dirty-list pass or
    /// writable event. Keeps the outbox lock hold time at one memcpy
    /// and keeps every socket write on IO threads. Overflow past `cap`
    /// dooms the connection as a slow reader.
    fn append(&self, bytes: &[u8], cap: usize) {
        let mut out = self.outbox.lock().unwrap_or_else(PoisonError::into_inner);
        out.buf.extend_from_slice(bytes);
        if out.pending() > cap {
            self.doom(reason::SLOW_READER);
        }
    }

    /// IO-thread fast path: queue `bytes` and push as much of the outbox
    /// into the socket as it will take right now (NACKs and HTTP
    /// responses originate on the owning IO thread, so writing inline is
    /// both legal and the lowest-latency option). Never blocks.
    fn enqueue_write(&self, bytes: &[u8], cap: usize) {
        let mut out = self.outbox.lock().unwrap_or_else(PoisonError::into_inner);
        out.buf.extend_from_slice(bytes);
        self.flush_locked(&mut out, cap);
    }

    /// Retry the socket write for anything still buffered. Returns true
    /// while bytes remain un-flushed.
    fn flush(&self, cap: usize) -> bool {
        let mut out = self.outbox.lock().unwrap_or_else(PoisonError::into_inner);
        self.flush_locked(&mut out, cap);
        out.pending() > 0
    }

    fn flush_locked(&self, out: &mut OutBuf, cap: usize) {
        while out.start < out.buf.len() {
            match (&self.stream).write(&out.buf[out.start..]) {
                Ok(0) => {
                    self.doom(reason::IO_ERROR);
                    break;
                }
                Ok(n) => out.start += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.doom(reason::IO_ERROR);
                    break;
                }
            }
        }
        if out.start == out.buf.len() {
            out.buf.clear();
            out.start = 0;
        } else if out.start > 4096 && out.start * 2 >= out.buf.len() {
            out.buf.drain(..out.start);
            out.start = 0;
        }
        if out.pending() > cap {
            self.doom(reason::SLOW_READER);
        }
    }
}

/// Wakes one IO thread's poller from the dispatcher, portably: a
/// connected loopback TCP pair whose read end sits in the poller under
/// [`WAKE_TOKEN`]. Without it a freshly-appended response would wait out
/// the remainder of the owner's poll timeout before flushing.
struct Waker {
    tx: TcpStream,
    /// True while a wake byte is (or is about to be) in flight — dedupes
    /// writes so a hot dispatcher cannot fill the loopback buffer.
    armed: AtomicBool,
}

impl Waker {
    fn wake(&self) {
        if !self.armed.swap(true, Ordering::SeqCst) {
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    /// Drain pending wake bytes on the owning IO thread. Disarms FIRST:
    /// a wake landing mid-drain leaves at worst one extra byte (a
    /// spurious next wakeup), never a lost one.
    fn drain(&self, rx: &TcpStream) {
        self.armed.store(false, Ordering::SeqCst);
        let mut buf = [0u8; 64];
        loop {
            match (&*rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }
}

/// Per-IO-thread rendezvous state: which conns the dispatcher filled
/// outboxes for since the thread's last pass, plus the waker that cuts
/// the flush latency to "next poll return".
struct IoShared {
    dirty: Mutex<Vec<u32>>,
    waker: Waker,
}

/// State shared by the IO threads and the dispatcher.
struct Shared {
    runtime: Arc<ServeRuntime>,
    cfg: NetConfig,
    counters: Counters,
    /// conn id → connection, for response routing. IO threads insert on
    /// accept and remove on disconnect; the dispatcher only reads.
    conns: Mutex<HashMap<u32, Arc<Conn>>>,
    /// One slot per IO thread (index = [`Conn::owner`]).
    io: Vec<IoShared>,
    next_conn_id: AtomicU32,
    shutdown: AtomicBool,
    /// Epoch for [`Shared::now_ms`] (idle-timeout arithmetic on a
    /// compact monotone u64 instead of `Instant`s per conn).
    epoch: Instant,
}

impl Shared {
    fn lookup(&self, conn_id: u32) -> Option<Arc<Conn>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner).get(&conn_id).cloned()
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

#[cfg(unix)]
fn fd_of(s: &impl std::os::unix::io::AsRawFd) -> i32 {
    s.as_raw_fd()
}
#[cfg(not(unix))]
fn fd_of<T>(_s: &T) -> i32 {
    0
}

/// How a connection's inbound bytes are being interpreted. Decided by
/// the first byte: [`MAGIC0`] is binary, anything else is HTTP.
enum Mode {
    Undecided,
    Binary(FrameDecoder),
    Http(HeadParser),
}

/// Per-connection state private to the owning IO thread.
struct ConnState {
    conn: Arc<Conn>,
    mode: Mode,
    /// Disconnect (reason `http_done`) once the outbox drains.
    close_after_flush: bool,
    /// Whether the poller currently watches this conn for writability.
    /// Kept in lock-step with "outbox has pending bytes" by
    /// [`service_conn`].
    writable_registered: bool,
}

const LISTENER_TOKEN: u64 = 0;
/// The IO thread's waker read-end. `u64::MAX` can never collide with a
/// conn token (conn ids are `u32`).
const WAKE_TOKEN: u64 = u64::MAX;
/// Reads drained from one connection per readiness event before yielding
/// to the rest of the loop (level-triggered pollers re-report).
const READ_BUDGET: usize = 64;

/// The running front-end. [`NetServer::shutdown`] stops it explicitly;
/// merely dropping it also flags shutdown and joins every thread (no
/// leak), losing only the chance to surface a worker panic.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    io_threads: Vec<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

/// Build one connected loopback pair for a [`Waker`] (portable — no
/// `pipe(2)`/`eventfd(2)` syscall surface needed, and it works with the
/// fallback poller unchanged).
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let _ = tx.set_nodelay(true);
    Ok((tx, rx))
}

/// Resolve the fallback poller's sleep cap: `DART_NET_POLLER_SLEEP_MS`
/// when set (strict parse — a malformed or non-numeric value is a
/// startup `InvalidInput` error, never a silently-applied default, the
/// same contract as `dart_bench::env`'s strict helpers), else the
/// configured value. `dart-net` cannot call those helpers directly
/// (`dart-bench` depends on `dart-net`), so the policy is restated here.
fn fallback_sleep_from_env(configured: u64) -> io::Result<u64> {
    match std::env::var("DART_NET_POLLER_SLEEP_MS") {
        Ok(raw) => parse_fallback_sleep_ms(&raw),
        Err(std::env::VarError::NotPresent) => Ok(configured),
        Err(e) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("DART_NET_POLLER_SLEEP_MS is not valid unicode: {e}"),
        )),
    }
}

/// The strict-parse half of [`fallback_sleep_from_env`], split out so
/// tests can pin the policy without racing on process-global env vars.
fn parse_fallback_sleep_ms(raw: &str) -> io::Result<u64> {
    raw.trim().parse::<u64>().map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("DART_NET_POLLER_SLEEP_MS={raw:?} is not a valid millisecond count: {e}"),
        )
    })
}

impl NetServer {
    /// Bind `cfg.addr` and start the IO + dispatcher threads.
    pub fn start(runtime: Arc<ServeRuntime>, cfg: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let listener = Arc::new(listener);

        let io_threads_n = cfg.io_threads.max(1);
        let mut io = Vec::with_capacity(io_threads_n);
        let mut wake_rxs = Vec::with_capacity(io_threads_n);
        for _ in 0..io_threads_n {
            let (tx, rx) = wake_pair()?;
            io.push(IoShared {
                dirty: named_mutex("net.io_dirty", Vec::new()),
                waker: Waker { tx, armed: AtomicBool::new(false) },
            });
            wake_rxs.push(rx);
        }

        let shared = Arc::new(Shared {
            runtime,
            cfg: NetConfig {
                io_threads: io_threads_n,
                poll_timeout_ms: cfg.poll_timeout_ms.max(1),
                fallback_poller_sleep_ms: fallback_sleep_from_env(cfg.fallback_poller_sleep_ms)?
                    .max(1),
                ..cfg
            },
            counters: Counters::register(),
            conns: named_mutex("net.conns", HashMap::new()),
            io,
            next_conn_id: AtomicU32::new(1),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
        });

        let mut io_threads = Vec::new();
        for (i, wake_rx) in wake_rxs.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let listener = Arc::clone(&listener);
            io_threads.push(
                std::thread::Builder::new()
                    .name(format!("dart-net-io-{i}"))
                    .spawn(move || io_loop(&shared, &listener, i, &wake_rx))?,
            );
        }
        let dispatcher = {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("dart-net-dispatch".to_string())
                    .spawn(move || dispatch_loop(&shared))?,
            )
        };
        Ok(NetServer { shared, local_addr, io_threads, dispatcher })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Flag shutdown, wake every IO thread, and join. Returns whether
    /// any worker thread had panicked. Idempotent: the handle vectors
    /// drain, so a second call is a no-op.
    fn stop_threads(&mut self) -> bool {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for io in &self.shared.io {
            io.waker.wake();
        }
        let mut panicked = false;
        for h in self.io_threads.drain(..) {
            panicked |= h.join().is_err();
        }
        if let Some(h) = self.dispatcher.take() {
            panicked |= h.join().is_err();
        }
        panicked
    }

    /// Stop accepting, tear down every connection (reason `shutdown`),
    /// and join the threads. Responses still inside the serving runtime
    /// at this point are dropped as orphans — quiesce clients first if
    /// every response matters.
    pub fn shutdown(mut self) {
        if self.stop_threads() {
            panic!("a dart-net worker thread panicked");
        }
    }
}

impl Drop for NetServer {
    /// Dropping without [`NetServer::shutdown`] used to leak the IO and
    /// dispatcher threads until process exit; now it performs the same
    /// flag-and-join (a no-op after an explicit shutdown). A worker
    /// panic is swallowed here only when this thread is already
    /// unwinding — a double panic would abort.
    fn drop(&mut self) {
        if self.stop_threads() && !std::thread::panicking() {
            panic!("a dart-net worker thread panicked");
        }
    }
}

/// How often the owning IO thread runs its full-scan pass (idle reaping
/// plus the safety net behind the event/dirty-driven fast path).
fn scan_interval(cfg: &NetConfig) -> Duration {
    if cfg.idle_timeout_ms > 0 {
        // Scan a few times per idle window so reaping lands within
        // ~1.25x the configured timeout, but never busier than 1 ms.
        Duration::from_millis((cfg.idle_timeout_ms / 4).clamp(1, 250))
    } else {
        Duration::from_millis(250)
    }
}

/// One IO thread: poll, accept, read/decode/submit, flush what the
/// dispatcher marked dirty, maintain writable interest, reap.
fn io_loop(shared: &Shared, listener: &TcpListener, index: usize, wake_rx: &TcpStream) {
    let mut poller = Poller::with_fallback_sleep(shared.cfg.fallback_poller_sleep_ms)
        .expect("poller construction cannot fail");
    poller.register(fd_of(listener), LISTENER_TOKEN).expect("listener registration");
    poller.register(fd_of(wake_rx), WAKE_TOKEN).expect("waker registration");
    let me = &shared.io[index];
    let mut local: HashMap<u32, ConnState> = HashMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut read_buf = vec![0u8; 16 * 1024];
    let mut touched: Vec<u32> = Vec::new();
    let mut dirty: Vec<u32> = Vec::new();
    let mut dead: Vec<u32> = Vec::new();
    let scan_every = scan_interval(&shared.cfg);
    let mut last_scan = Instant::now();

    while !shared.shutdown.load(Ordering::SeqCst) {
        if poller.wait(&mut events, shared.cfg.poll_timeout_ms).is_err() {
            continue;
        }
        touched.clear();
        dead.clear();
        for ev in events.iter().copied() {
            match ev.token {
                LISTENER_TOKEN => accept_ready(shared, listener, &mut poller, &mut local, index),
                WAKE_TOKEN => me.waker.drain(wake_rx),
                token => {
                    let id = token as u32;
                    if let Some(state) = local.get_mut(&id) {
                        if ev.hangup {
                            state.conn.doom(reason::EOF);
                        }
                        if ev.readable {
                            read_ready(shared, state, &mut read_buf);
                        }
                        if ev.writable {
                            state.conn.flush(shared.cfg.write_buf_cap);
                        }
                        touched.push(id);
                    }
                }
            }
        }

        // Dispatcher handoff: flush every conn it filled an outbox for.
        // Checked every iteration, not only on waker events, so a racily
        // coalesced wake costs at most one poll tick, never a stall.
        {
            let mut list = me.dirty.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::swap(&mut *list, &mut dirty);
        }
        for &id in &dirty {
            if let Some(state) = local.get_mut(&id) {
                // Clear the mark BEFORE flushing: an append racing this
                // flush re-marks the conn and re-queues it, so no byte
                // can end up both un-flushed and un-marked.
                state.conn.in_dirty.store(false, Ordering::SeqCst);
                state.conn.flush(shared.cfg.write_buf_cap);
                touched.push(id);
            }
        }
        dirty.clear();

        // Service only what something happened to this tick (the old
        // `sweep` re-flushed and re-inspected EVERY conn every 2 ms)...
        touched.sort_unstable();
        touched.dedup();
        for &id in &touched {
            if let Some(state) = local.get_mut(&id) {
                if service_conn(shared, &mut poller, state) {
                    dead.push(id);
                }
            }
        }
        // ...plus a periodic full pass: idle reaping, and the safety net
        // behind the event-driven fast path.
        if last_scan.elapsed() >= scan_every {
            last_scan = Instant::now();
            let now_ms = shared.now_ms();
            for (&id, state) in local.iter_mut() {
                if is_idle(shared, state, now_ms) {
                    state.conn.doom(reason::IDLE);
                }
                if service_conn(shared, &mut poller, state) {
                    dead.push(id);
                }
            }
        }
        reap(shared, &mut poller, &mut local, &dead);
    }

    // Orderly exit: every connection this thread owns goes down as
    // `shutdown`.
    let all: Vec<u32> = local.keys().copied().collect();
    for state in local.values() {
        state.conn.doom(reason::SHUTDOWN);
    }
    reap(shared, &mut poller, &mut local, &all);
}

/// Whether a conn qualifies for idle reaping **right now**: idle
/// reaping enabled, no request in flight (a slow shard must not get its
/// client reaped from under it), nothing buffered to send, and no
/// traffic for the configured window.
fn is_idle(shared: &Shared, state: &ConnState, now_ms: u64) -> bool {
    let idle = shared.cfg.idle_timeout_ms;
    idle > 0
        && state.conn.inflight.load(Ordering::Relaxed) == 0
        && state.conn.pending() == 0
        && now_ms.saturating_sub(state.conn.last_activity_ms.load(Ordering::Relaxed)) >= idle
}

/// Post-flush bookkeeping for one conn: finish close-after-flush HTTP
/// responses, detect dooms (returns true = reap me), and keep writable
/// interest in lock-step with "outbox has pending bytes".
fn service_conn(shared: &Shared, poller: &mut Poller, state: &mut ConnState) -> bool {
    let pending = state.conn.pending();
    if state.close_after_flush && pending == 0 {
        state.conn.doom(reason::HTTP_DONE);
    }
    if state.conn.doom_code() != reason::ALIVE {
        return true;
    }
    let fd = fd_of(&state.conn.stream);
    let token = state.conn.id as u64;
    if pending > 0 && !state.writable_registered {
        if poller.set_writable(fd, token, true).is_ok() {
            state.writable_registered = true;
            shared.counters.writable_regs.inc();
            shared.counters.writable_watch.add(1);
        }
        // On failure the periodic scan keeps flushing it — degraded, not
        // stuck.
    } else if pending == 0
        && state.writable_registered
        && poller.set_writable(fd, token, false).is_ok()
    {
        state.writable_registered = false;
        shared.counters.writable_watch.sub(1);
    }
    false
}

/// Tear down every conn in `dead` (duplicates tolerated — the second
/// remove is a no-op): deregister, unpublish from the dispatcher's map,
/// retire its streams from the serving shards, final best-effort flush,
/// close, count.
fn reap(shared: &Shared, poller: &mut Poller, local: &mut HashMap<u32, ConnState>, dead: &[u32]) {
    for &id in dead {
        let Some(state) = local.remove(&id) else { continue };
        let _ = poller.deregister(fd_of(&state.conn.stream), id as u64);
        if state.writable_registered {
            shared.counters.writable_watch.sub(1);
        }
        shared.conns.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
        // Free the dead conn's stream state in the shard LRU maps
        // (namespaced `conn_id << 32 | stream`) instead of letting it
        // squat there displacing live streams until cap churn clears it.
        shared.runtime.retire_streams_with_prefix(id);
        // One last push of whatever the socket will still take (best
        // effort — a NACK or HTTP body already in the outbox).
        let _ = state.conn.flush(shared.cfg.write_buf_cap);
        let _ = state.conn.stream.shutdown(std::net::Shutdown::Both);
        shared.counters.active.sub(1);
        let code = state.conn.doom_code();
        if let Some(cell) = shared.counters.disconnects.get(&code) {
            cell.inc();
        }
    }
}

/// Accept everything pending (the listener is level-triggered and shared
/// across IO threads, so `WouldBlock` here may just mean another thread
/// won the race).
fn accept_ready(
    shared: &Shared,
    listener: &TcpListener,
    poller: &mut Poller,
    local: &mut HashMap<u32, ConnState>,
    owner: usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.counters.accepted.inc();
                if stream.set_nonblocking(true).is_err() {
                    accept_failed(shared, &stream);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let id = loop {
                    let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                    // Skip the listener's token on u32 wrap-around.
                    if id as u64 != LISTENER_TOKEN {
                        break id;
                    }
                };
                let conn = Arc::new(Conn {
                    id,
                    owner,
                    stream,
                    inflight: AtomicU64::new(0),
                    doomed: AtomicU8::new(reason::ALIVE),
                    in_dirty: AtomicBool::new(false),
                    last_activity_ms: AtomicU64::new(shared.now_ms()),
                    outbox: named_mutex("net.conn_outbox", OutBuf::default()),
                });
                if poller.register(fd_of(&conn.stream), id as u64).is_err() {
                    accept_failed(shared, &conn.stream);
                    continue;
                }
                shared
                    .conns
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(id, Arc::clone(&conn));
                local.insert(
                    id,
                    ConnState {
                        conn,
                        mode: Mode::Undecided,
                        close_after_flush: false,
                        writable_registered: false,
                    },
                );
                shared.counters.active.add(1);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// An accepted socket we could not set up (non-blocking mode or poller
/// registration failed): tear it down explicitly and count it — it used
/// to be silently dropped with no shutdown, no counter, and no reason.
fn accept_failed(shared: &Shared, stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Both);
    if let Some(cell) = shared.counters.disconnects.get(&reason::ACCEPT_ERROR) {
        cell.inc();
    }
}

/// Drain one connection's socket (bounded by [`READ_BUDGET`]) and feed
/// the bytes to whichever parser its first byte selected.
fn read_ready(shared: &Shared, state: &mut ConnState, read_buf: &mut [u8]) {
    for _ in 0..READ_BUDGET {
        if state.conn.doom_code() != reason::ALIVE {
            return;
        }
        match (&state.conn.stream).read(read_buf) {
            Ok(0) => {
                state.conn.doom(reason::EOF);
                return;
            }
            Ok(n) => {
                state.conn.touch(shared.now_ms());
                handle_bytes(shared, state, &read_buf[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                state.conn.doom(reason::IO_ERROR);
                return;
            }
        }
    }
}

fn handle_bytes(shared: &Shared, state: &mut ConnState, bytes: &[u8]) {
    if let Mode::Undecided = state.mode {
        state.mode = if bytes[0] == MAGIC0 {
            Mode::Binary(FrameDecoder::new())
        } else {
            Mode::Http(HeadParser::default())
        };
    }
    match &mut state.mode {
        Mode::Undecided => unreachable!("mode decided above"),
        Mode::Binary(decoder) => {
            decoder.extend(bytes);
            loop {
                match decoder.next() {
                    Ok(Some(Frame::Request(req))) => handle_request(shared, &state.conn, req),
                    Ok(Some(_)) => {
                        // Clients must not send server-side frame kinds.
                        state.conn.doom(reason::PROTOCOL_ERROR);
                        return;
                    }
                    Ok(None) => return,
                    Err(_) => {
                        state.conn.doom(reason::PROTOCOL_ERROR);
                        return;
                    }
                }
            }
        }
        Mode::Http(parser) => {
            if state.close_after_flush {
                return; // response already queued; ignore trailing bytes
            }
            // A scrape must be counted *before* the exposition renders, so
            // the document a scraper reads already includes that scrape —
            // otherwise the served body is one request behind an
            // in-process `render_metrics()` taken at the same moment.
            let counted = std::cell::Cell::new(false);
            match parser.feed(bytes, || {
                counted.set(true);
                shared.counters.http_requests.inc();
                shared.runtime.render_metrics()
            }) {
                HttpStep::NeedMore => {}
                HttpStep::Respond(response) => {
                    if !counted.get() {
                        shared.counters.http_requests.inc();
                    }
                    state.conn.enqueue_write(&response, shared.cfg.write_buf_cap);
                    state.close_after_flush = true;
                }
            }
        }
    }
}

/// Admission + submission for one decoded request frame. Never blocks:
/// over-cap connections and full shard queues are answered with a NACK
/// frame carrying the relevant depth.
fn handle_request(shared: &Shared, conn: &Conn, req: crate::wire::RequestFrame) {
    shared.counters.frames_in.inc();
    let inflight = conn.inflight.load(Ordering::Relaxed);
    if inflight >= shared.cfg.max_inflight_per_conn {
        shared.counters.nacks_admission.inc();
        send_nack(shared, conn, &req, inflight);
        return;
    }
    // Pre-charge before submitting: the response can race back through
    // the dispatcher (which decrements) before try_submit even returns.
    conn.inflight.fetch_add(1, Ordering::Relaxed);
    match shared.runtime.try_submit(req.into_prefetch(conn.id)) {
        Ok(()) => {}
        Err(SubmitRejected::QueueFull { depth, .. }) => {
            conn.inflight.fetch_sub(1, Ordering::Relaxed);
            shared.counters.nacks_queue_full.inc();
            send_nack(shared, conn, &req, depth);
        }
    }
}

fn send_nack(shared: &Shared, conn: &Conn, req: &crate::wire::RequestFrame, depth: u64) {
    let mut bytes = Vec::with_capacity(crate::wire::NACK_LEN);
    encode_nack(&NackFrame { stream: req.stream, addr: req.addr, depth }, &mut bytes);
    conn.enqueue_write(&bytes, shared.cfg.write_buf_cap);
}

/// Route one already-encoded buffer (`count` coalesced response frames)
/// to its connection: append to the outbox (NO socket write — that
/// happens on the owning IO thread), release the in-flight slots, and
/// mark the conn dirty for its owner.
fn route_buffer(shared: &Shared, conn_id: u32, bytes: &[u8], count: u64) {
    let Some(conn) = shared.lookup(conn_id) else {
        shared.counters.orphaned.add(count);
        return;
    };
    // Count before the owning IO thread can flush: the moment the bytes
    // hit the socket a client can act on them (e.g. scrape /metrics),
    // and the scraped counter must already include these responses.
    shared.counters.responses_out.add(count);
    if count > 1 {
        shared.counters.batched_writes.inc();
    }
    conn.append(bytes, shared.cfg.write_buf_cap);
    conn.touch(shared.now_ms());
    conn.inflight.fetch_sub(count, Ordering::Relaxed);
    if !conn.in_dirty.swap(true, Ordering::SeqCst) {
        let io = &shared.io[conn.owner];
        io.dirty.lock().unwrap_or_else(PoisonError::into_inner).push(conn.id);
        io.waker.wake();
    }
}

fn response_frame(resp: &dart_serve::PrefetchResponse) -> ResponseFrame {
    ResponseFrame {
        stream: resp.stream_id as u32,
        seq: resp.seq,
        latency_ns: resp.latency_ns,
        failed: resp.error.is_some(),
        blocks: resp.prefetch_blocks.clone(),
    }
}

/// The response dispatcher: pump completed responses out of the runtime,
/// group them by connection, and hand each conn **one** encoded buffer
/// per pump (one outbox lock + one flush for N responses instead of N).
/// Performs no socket IO itself. Runs until shutdown is flagged *and*
/// the current pump comes back empty.
fn dispatch_loop(shared: &Shared) {
    let tick = Duration::from_millis(shared.cfg.poll_timeout_ms);
    let mut responses: Vec<dart_serve::PrefetchResponse> = Vec::new();
    // Per-conn coalescing buffers, recycled across pumps.
    let mut groups: HashMap<u32, (Vec<u8>, u64)> = HashMap::new();
    let mut spare: Vec<Vec<u8>> = Vec::new();
    loop {
        let stopping = shared.shutdown.load(Ordering::SeqCst);
        shared.runtime.take_completed_timeout_into(tick, &mut responses);
        if responses.is_empty() {
            if stopping {
                return;
            }
            continue;
        }
        for resp in responses.drain(..) {
            let conn_id = (resp.stream_id >> 32) as u32;
            let (buf, count) =
                groups.entry(conn_id).or_insert_with(|| (spare.pop().unwrap_or_default(), 0));
            encode_response(&response_frame(&resp), buf);
            *count += 1;
        }
        // Relative order within a conn is preserved (grouping is a stable
        // partition of the pump), so per-stream seq order on the wire is
        // the runtime's completion order.
        for (conn_id, (mut buf, count)) in groups.drain() {
            route_buffer(shared, conn_id, &buf, count);
            buf.clear();
            spare.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_sleep_env_parse_is_strict() {
        assert_eq!(parse_fallback_sleep_ms("7").unwrap(), 7);
        assert_eq!(parse_fallback_sleep_ms(" 12 ").unwrap(), 12, "whitespace is tolerated");
        // Malformed values are startup errors, never silent defaults.
        for bad in ["", "5ms", "-1", "2.5", "fast"] {
            let err = parse_fallback_sleep_ms(bad).expect_err(bad);
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("DART_NET_POLLER_SLEEP_MS"), "{err}");
        }
        // 0 parses (the clamp to >= 1 happens at `start`, like
        // poll_timeout_ms), and the config default matches the historical
        // hardcoded cap.
        assert_eq!(parse_fallback_sleep_ms("0").unwrap(), 0);
        assert_eq!(NetConfig::default().fallback_poller_sleep_ms, 5);
    }
}
