//! Load generation over the serving stack's public API.
//!
//! A [`Session`] holds one or two connections to the system under test:
//! the in-process [`ServeRuntime`] (one connection, submissions plus a
//! collector thread on `take_completed_timeout_into`), or a [`NetServer`]
//! over real sockets (two connections, each with a reader thread decoding
//! frames with the `dart-net` wire functions). A phase runs one generator
//! thread per connection:
//!
//! * the warm-up is a closed loop that is not timed;
//! * a closed-loop phase keeps `window` requests in flight per connection
//!   until its deadline;
//! * an open-loop phase sends request `k` at `start + k / rate` whether or
//!   not earlier ones were answered, and records when it really left.
//!
//! Every answer (response or NACK) is timestamped where it arrives.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Barrier, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dart_net::wire::encode_request;
use dart_net::{Frame, FrameDecoder, RequestFrame};
use dart_serve::{PrefetchRequest, ServeRuntime};

use crate::spans::{Span, SpanBuf, Tracing};
use crate::streams::{period, warmup, Pool, Req, Shape};

/// How long a phase waits for outstanding answers after its last send
/// before counting the rest as lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Marks a closed-loop request in [`Generator::send`].
const CLOSED_LOOP: u64 = u64::MAX;
/// Most overdue open-loop requests sent in one batch.
const OPEN_BATCH_MAX: usize = 64;

/// One answer from the system under test.
#[derive(Clone, Debug)]
pub enum Ev {
    Resp { sid: u32, seq: u64, failed: bool, resident_ns: u64, blocks: Box<[u64]>, at: u64 },
    Nack { sid: u32, addr: u64 },
}

/// One request as it left the generator.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    /// Request `k` of its phase (see `streams.rs`).
    pub k: u64,
    /// When it was due (open loop) or sent (closed loop), ns since epoch.
    pub sched: u64,
    /// When it actually left, ns since epoch.
    pub send: u64,
    /// False for warm-up requests.
    pub timed: bool,
}

/// Send side of one connection.
trait Link: Send {
    fn send(&mut self, reqs: &[Req], spans: &mut SpanBuf) -> io::Result<()>;
}

struct InProcLink(Arc<ServeRuntime>);

impl Link for InProcLink {
    fn send(&mut self, reqs: &[Req], spans: &mut SpanBuf) -> io::Result<()> {
        spans.time("serve.submit", 0, 0, || {
            self.0.submit_all(reqs.iter().map(|r| PrefetchRequest {
                stream_id: r.sid as u64,
                pc: r.pc,
                addr: r.addr,
            }))
        });
        Ok(())
    }
}

struct TcpLink {
    sock: TcpStream,
    buf: Vec<u8>,
}

impl Link for TcpLink {
    fn send(&mut self, reqs: &[Req], spans: &mut SpanBuf) -> io::Result<()> {
        let write = spans.open();
        self.buf.clear();
        for r in reqs {
            encode_request(&RequestFrame { stream: r.sid, pc: r.pc, addr: r.addr }, &mut self.buf);
        }
        let out = self.sock.write_all(&self.buf);
        spans.close("net.write", write, 0, 0);
        out
    }
}

struct Conn {
    link: Box<dyn Link>,
    rx: Receiver<Ev>,
}

/// What one phase sends. A phase runs as one or more windows that
/// continue the same streams; only the first window warms them up.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSpec {
    pub name: &'static str,
    pub shape: Shape,
    /// In-flight requests per connection in closed loops (warm-up too).
    pub window: usize,
}

/// How one window of a phase sends.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    Closed { secs: f64 },
    Open { rate: f64, count: u64 },
}

/// One timed window of a phase.
#[derive(Clone, Debug)]
pub struct Window {
    pub mode: Mode,
    /// Start of the timed part, ns since epoch.
    pub start: u64,
    /// Its requests: a range of `PhaseLog::sent`.
    pub sent: std::ops::Range<usize>,
}

/// Everything one phase recorded, over all its windows.
pub struct PhaseLog {
    pub spec: PhaseSpec,
    /// Requests in send order (`k` ascending).
    pub sent: Vec<Sent>,
    pub events: Vec<Ev>,
    pub windows: Vec<Window>,
    pub spans: Vec<Span>,
    /// Spans the generators recorded, kept or since overwritten.
    pub spans_recorded: u64,
}

impl PhaseLog {
    pub fn new(spec: PhaseSpec) -> PhaseLog {
        PhaseLog {
            spec,
            sent: Vec::new(),
            events: Vec::new(),
            windows: Vec::new(),
            spans: Vec::new(),
            spans_recorded: 0,
        }
    }

    /// Offset of the next window's first timed request past the warm-up:
    /// past every request sent so far, at a multiple of the shape's
    /// `period` (which keeps each stream on its connection).
    fn next_skip(&self, w0: u64, conns: u64) -> u64 {
        let period = period(self.spec.shape, conns);
        self.sent.last().map_or(0, |s| (s.k + 1).saturating_sub(w0).next_multiple_of(period))
    }
}

/// Connections to the system under test plus their receive threads.
pub struct Session {
    epoch: Instant,
    conns: Vec<Conn>,
    stop: Arc<AtomicBool>,
    /// TCP sockets to shut down when the session ends.
    socks: Vec<TcpStream>,
    receivers: Vec<JoinHandle<SpanBuf>>,
    /// Set by a reader that met a malformed frame.
    pub protocol_error: Arc<AtomicBool>,
    /// Shared by every span buffer of the session.
    pub tracing: Tracing,
}

impl Session {
    /// One in-process connection to `rt`.
    pub fn in_process(rt: &Arc<ServeRuntime>, epoch: Instant, tracing: Tracing) -> Session {
        let (tx, rx) = channel();
        let stop = Arc::new(AtomicBool::new(false));
        let collector = {
            let (rt, stop) = (Arc::clone(rt), Arc::clone(&stop));
            let spans = SpanBuf::new(epoch, tracing.clone(), 1);
            std::thread::spawn(move || collect(rt, stop, tx, epoch, spans))
        };
        Session {
            epoch,
            conns: vec![Conn { link: Box::new(InProcLink(Arc::clone(rt))), rx }],
            stop,
            socks: Vec::new(),
            receivers: vec![collector],
            protocol_error: Arc::new(AtomicBool::new(false)),
            tracing,
        }
    }

    /// `conns` TCP connections to `addr`.
    pub fn tcp(
        addr: std::net::SocketAddr,
        conns: usize,
        epoch: Instant,
        tracing: Tracing,
    ) -> io::Result<Session> {
        let protocol_error = Arc::new(AtomicBool::new(false));
        let mut session = Session {
            epoch,
            conns: Vec::new(),
            stop: Arc::new(AtomicBool::new(false)),
            socks: Vec::new(),
            receivers: Vec::new(),
            protocol_error: Arc::clone(&protocol_error),
            tracing,
        };
        for c in 0..conns {
            let sock = TcpStream::connect(addr)?;
            sock.set_nodelay(true)?;
            let (tx, rx) = channel();
            let reader_sock = sock.try_clone()?;
            let spans = SpanBuf::new(epoch, session.tracing.clone(), 1 + c as u64);
            let err = Arc::clone(&protocol_error);
            session
                .receivers
                .push(std::thread::spawn(move || read_frames(reader_sock, tx, epoch, spans, err)));
            session.socks.push(sock.try_clone()?);
            session.conns.push(Conn { link: Box::new(TcpLink { sock, buf: Vec::new() }), rx });
        }
        Ok(session)
    }

    /// Run one window of a phase (after the warm-up, on its first window)
    /// and drain it, appending to `log`. `on_start` runs on its own thread
    /// once the timed part has started, with the start instant (ns since
    /// epoch) and a flag that is raised once every request of the window
    /// is answered; its result is returned.
    pub fn run<T: Send>(
        &mut self,
        pool: &Pool,
        log: &mut PhaseLog,
        mode: Mode,
        seq_len: usize,
        tag: u64,
        on_start: impl FnOnce(u64, &AtomicBool) -> T + Send,
    ) -> T {
        let spec = log.spec;
        let n = self.conns.len();
        let barrier = Barrier::new(n);
        let start: OnceLock<u64> = OnceLock::new();
        let drained = AtomicBool::new(false);
        let epoch = self.epoch;
        let tracing = &self.tracing;
        let w0 = warmup(spec.shape, seq_len);
        let first_window = log.windows.is_empty();
        let skip = log.next_skip(w0, n as u64);
        let first_sent = log.sent.len();
        let mut sent = Vec::new();
        let hook_out = std::thread::scope(|scope| {
            let hook = scope.spawn(|| {
                while start.get().is_none() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                on_start(*start.get().expect("set"), &drained)
            });
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let (barrier, start) = (&barrier, &start);
                    scope.spawn(move || {
                        let mut g = Generator {
                            conn,
                            pool,
                            shape: spec.shape,
                            epoch,
                            sent: Vec::new(),
                            events: Vec::new(),
                            outstanding: 0,
                            spans: SpanBuf::new(
                                epoch,
                                tracing.clone(),
                                (tag << 8) | (16 + c as u64),
                            ),
                        };
                        if first_window {
                            g.closed((c as u64..w0).step_by(n), None, spec.window, false);
                        }
                        barrier.wait();
                        let t0 = *start.get_or_init(|| epoch.elapsed().as_nanos() as u64);
                        let first = w0 + skip + c as u64;
                        match mode {
                            Mode::Closed { secs } => {
                                let deadline = t0 + (secs * 1e9) as u64;
                                g.closed((first..).step_by(n), Some(deadline), spec.window, true)
                            }
                            Mode::Open { rate, count } => g
                                .open((first..w0 + skip + count).step_by(n), |k| {
                                    t0 + ((k - w0 - skip) as f64 * 1e9 / rate) as u64
                                }),
                        }
                        g.drain();
                        (g.sent, g.events, g.spans)
                    })
                })
                .collect();
            for h in handles {
                let (s, e, sp) = h.join().expect("generator thread panicked");
                sent.extend(s);
                log.events.extend(e);
                log.spans.extend(sp.spans);
                log.spans_recorded += sp.recorded;
            }
            drained.store(true, Ordering::Release);
            hook.join().expect("phase hook panicked")
        });
        sent.sort_by_key(|s| s.k);
        log.sent.extend(sent);
        let start = *start.get().expect("window started");
        // Warm-up requests lead the first window's records; the window
        // covers the timed ones.
        let timed_from =
            first_sent + log.sent[first_sent..].iter().take_while(|s| !s.timed).count();
        log.windows.push(Window { mode, start, sent: timed_from..log.sent.len() });
        hook_out
    }

    /// Stop the receive threads and return their spans, with the number
    /// recorded (kept or since overwritten).
    pub fn close(self) -> (Vec<Span>, u64) {
        self.stop.store(true, Ordering::Release);
        for s in &self.socks {
            // The peer may already be gone; either way the reader sees EOF.
            let _ = s.shutdown(Shutdown::Both);
        }
        drop(self.conns);
        let mut spans = Vec::new();
        let mut recorded = 0;
        for h in self.receivers {
            let buf = h.join().expect("receive thread panicked");
            spans.extend(buf.spans);
            recorded += buf.recorded;
        }
        (spans, recorded)
    }
}

/// One connection's generator for one phase.
struct Generator<'a> {
    conn: &'a mut Conn,
    pool: &'a Pool,
    shape: Shape,
    epoch: Instant,
    sent: Vec<Sent>,
    events: Vec<Ev>,
    outstanding: usize,
    spans: SpanBuf,
}

impl Generator<'_> {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn take(&mut self, ev: Ev) {
        self.events.push(ev);
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// Wait for one answer until `until` (ns since epoch); false on timeout.
    fn wait_one(&mut self, until: u64) -> bool {
        let now = self.now();
        if until <= now {
            return self.poll() > 0;
        }
        match self.conn.rx.recv_timeout(Duration::from_nanos(until - now)) {
            Ok(ev) => {
                self.take(ev);
                true
            }
            Err(RecvTimeoutError::Timeout) => false,
            Err(RecvTimeoutError::Disconnected) => {
                // The receive side is gone: nothing more will arrive.
                self.outstanding = 0;
                false
            }
        }
    }

    /// Take every answer already waiting.
    fn poll(&mut self) -> usize {
        let mut n = 0;
        while let Ok(ev) = self.conn.rx.try_recv() {
            self.take(ev);
            n += 1;
        }
        n
    }

    /// Send a batch of `(k, request, due)`; a closed loop passes
    /// `CLOSED_LOOP` as due, and the request is due when it leaves.
    fn send(&mut self, batch: &[(u64, Req, u64)], timed: bool) {
        let reqs: Vec<Req> = batch.iter().map(|&(_, r, _)| r).collect();
        let send = self.now();
        // A broken link leaves the batch unanswered: it counts as lost.
        let _ = self.conn.link.send(&reqs, &mut self.spans);
        for &(k, _, due) in batch {
            let sched = if due == CLOSED_LOOP { send } else { due };
            self.sent.push(Sent { k, sched, send, timed });
        }
        self.outstanding += batch.len();
    }

    /// Keep `window` requests in flight until `ks` runs out or `deadline`.
    fn closed(
        &mut self,
        mut ks: impl Iterator<Item = u64>,
        deadline: Option<u64>,
        window: usize,
        timed: bool,
    ) {
        let mut batch = Vec::with_capacity(window);
        loop {
            if deadline.is_some_and(|d| self.now() >= d) {
                break;
            }
            batch.clear();
            while self.outstanding + batch.len() < window {
                match ks.next() {
                    Some(k) => batch.push((k, self.pool.req(self.shape, k), CLOSED_LOOP)),
                    None => break,
                }
            }
            if batch.is_empty() && self.outstanding == 0 {
                break;
            }
            if !batch.is_empty() {
                self.send(&batch, timed);
            }
            let until =
                deadline.unwrap_or(u64::MAX).min(self.now() + DRAIN_TIMEOUT.as_nanos() as u64);
            if self.wait_one(until) {
                self.poll();
            } else if deadline.is_none_or(|d| self.now() < d) {
                // No answer within the drain timeout: stop feeding.
                break;
            }
        }
        self.drain();
    }

    /// Send each request of `ks` at `sched(k)`. Requests already due when
    /// the generator gets to them leave together in one batch.
    fn open(&mut self, ks: impl Iterator<Item = u64>, sched: impl Fn(u64) -> u64) {
        let mut ks = ks.peekable();
        let mut batch = Vec::new();
        while let Some(&first) = ks.peek() {
            let due = sched(first);
            while self.now() < due {
                if !self.wait_one(due) {
                    break;
                }
            }
            let now = self.now();
            batch.clear();
            while let Some(&k) = ks.peek() {
                let due = sched(k);
                if (due > now && !batch.is_empty()) || batch.len() == OPEN_BATCH_MAX {
                    break;
                }
                batch.push((k, self.pool.req(self.shape, k), due));
                ks.next();
            }
            self.send(&batch, true);
            self.poll();
        }
    }

    /// Wait until every sent request is answered, or the drain timeout
    /// passes without progress.
    fn drain(&mut self) {
        while self.outstanding > 0 {
            let until = self.now() + DRAIN_TIMEOUT.as_nanos() as u64;
            if !self.wait_one(until) {
                break;
            }
        }
    }
}

/// In-process collector: pump completed responses into the channel.
fn collect(
    rt: Arc<ServeRuntime>,
    stop: Arc<AtomicBool>,
    tx: Sender<Ev>,
    epoch: Instant,
    mut spans: SpanBuf,
) -> SpanBuf {
    let mut buf = Vec::new();
    while !stop.load(Ordering::Acquire) {
        let opened = spans.open();
        rt.take_completed_timeout_into(Duration::from_millis(2), &mut buf);
        if buf.is_empty() {
            continue;
        }
        spans.close("serve.take", opened, 0, 0);
        let at = epoch.elapsed().as_nanos() as u64;
        for r in buf.drain(..) {
            let ev = Ev::Resp {
                sid: r.stream_id as u32,
                seq: r.seq,
                failed: r.error.is_some(),
                resident_ns: r.latency_ns,
                blocks: r.prefetch_blocks.into_boxed_slice(),
                at,
            };
            if tx.send(ev).is_err() {
                return spans;
            }
        }
    }
    spans
}

/// TCP reader: decode frames into the channel until the socket closes.
fn read_frames(
    mut sock: TcpStream,
    tx: Sender<Ev>,
    epoch: Instant,
    mut spans: SpanBuf,
    protocol_error: Arc<AtomicBool>,
) -> SpanBuf {
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match sock.read(&mut buf) {
            Ok(0) | Err(_) => return spans,
            Ok(n) => n,
        };
        let at = epoch.elapsed().as_nanos() as u64;
        decoder.extend(&buf[..n]);
        // One span per read: decoding every frame it delivered.
        let decode = spans.open();
        loop {
            let ev = match decoder.next() {
                Ok(Some(Frame::Response(r))) => Ev::Resp {
                    sid: r.stream,
                    seq: r.seq,
                    failed: r.failed,
                    resident_ns: r.latency_ns,
                    blocks: r.blocks.into_boxed_slice(),
                    at,
                },
                Ok(Some(Frame::Nack(nk))) => Ev::Nack { sid: nk.stream, addr: nk.addr },
                Ok(None) => break,
                Ok(Some(Frame::Request(_))) | Err(_) => {
                    protocol_error.store(true, Ordering::Release);
                    return spans;
                }
            };
            if tx.send(ev).is_err() {
                return spans;
            }
        }
        spans.close("net.decode", decode, 0, 0);
    }
}
