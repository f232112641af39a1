//! In-memory span recording for the traced run.
//!
//! Each thread owns a [`SpanBuf`]; a span is stored when it closes, so the
//! recording cost is one clock read at each end plus one store. The
//! buffers are merged and written out as JSON lines when the run ends.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One closed span: a call into one layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one (`0` for a root).
    pub parent: u64,
    /// Groups the spans of one request or one iteration.
    pub group: u64,
    /// Nanoseconds since the run epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Spans one buffer keeps. Past this, each new span overwrites the oldest
/// one, so every span costs the same to record while a traced run at
/// millions of requests per second stays small: a buffer ends up holding
/// its thread's latest spans. The per-layer timings record far fewer than
/// this into their own buffer.
const MAX_SPANS: usize = 10_000;

/// Switches span recording on and off for every buffer made from it, so
/// one session can run traced and untraced windows.
#[derive(Clone)]
pub struct Tracing(Arc<AtomicBool>);

impl Tracing {
    pub fn new(on: bool) -> Tracing {
        Tracing(Arc::new(AtomicBool::new(on)))
    }

    pub fn set(&self, on: bool) {
        self.0.store(on, Ordering::Release);
    }

    fn on(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A thread's span buffer. While its [`Tracing`] is off it records
/// nothing and reads no clock.
pub struct SpanBuf {
    epoch: Instant,
    tracing: Tracing,
    /// High bits of every id this buffer hands out.
    thread_tag: u64,
    next: u64,
    /// Spans recorded, kept or since overwritten.
    pub recorded: u64,
    pub spans: Vec<Span>,
}

impl SpanBuf {
    pub fn new(epoch: Instant, tracing: Tracing, thread_tag: u64) -> SpanBuf {
        SpanBuf {
            epoch,
            tracing,
            thread_tag: thread_tag << 40,
            next: 0,
            recorded: 0,
            spans: Vec::new(),
        }
    }

    /// Open a span: returns its id and start stamp (both 0 when tracing is
    /// off, and such a span is not recorded when it closes).
    pub fn open(&mut self) -> (u64, u64) {
        if !self.tracing.on() {
            return (0, 0);
        }
        self.next += 1;
        (self.thread_tag | self.next, self.epoch.elapsed().as_nanos() as u64)
    }

    /// Close a span opened with [`Self::open`].
    pub fn close(&mut self, name: &'static str, opened: (u64, u64), parent: u64, group: u64) {
        if opened.0 == 0 {
            return;
        }
        let end = self.epoch.elapsed().as_nanos() as u64;
        let span = Span { name, id: opened.0, parent, group, start: opened.1, end };
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        } else {
            self.spans[(self.recorded % MAX_SPANS as u64) as usize] = span;
        }
        self.recorded += 1;
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let opened = self.open();
        let out = f();
        self.close(name, opened, parent, group);
        out
    }
}

/// Durations of every span called `name`, in nanoseconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::dur).collect()
}

/// Write spans as JSON lines, one object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"group\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.group, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span { name, id, parent, group: 0, start, end }
    }

    #[test]
    fn durations_filter_by_name() {
        let spans = [
            span("forward", 1, 0, 0, 100),
            span("a", 2, 1, 10, 30),
            span("forward", 4, 0, 200, 260),
        ];
        assert_eq!(durations(&spans, "forward"), vec![100, 60]);
        assert_eq!(durations(&spans, "a"), vec![20]);
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let tracing = Tracing::new(false);
        let mut buf = SpanBuf::new(Instant::now(), tracing.clone(), 1);
        assert_eq!(buf.time("x", 0, 0, || 7), 7);
        assert!(buf.spans.is_empty());
        tracing.set(true);
        buf.time("x", 0, 5, || ());
        assert_eq!(buf.spans.len(), 1);
        assert_eq!(buf.spans[0].group, 5);
        assert_eq!(buf.spans[0].id >> 40, 1);
        // A span opened while tracing was off stays unrecorded.
        tracing.set(false);
        let opened = buf.open();
        tracing.set(true);
        buf.close("x", opened, 0, 0);
        assert_eq!(buf.recorded, 1);
    }

    #[test]
    fn a_full_buffer_keeps_the_latest_spans() {
        let mut buf = SpanBuf::new(Instant::now(), Tracing::new(true), 1);
        for g in 0..(MAX_SPANS as u64 + 3) {
            buf.time("x", 0, g, || ());
        }
        assert_eq!(buf.recorded, MAX_SPANS as u64 + 3);
        assert_eq!(buf.spans.len(), MAX_SPANS);
        let mut groups: Vec<u64> = buf.spans.iter().map(|s| s.group).collect();
        groups.sort_unstable();
        assert_eq!(groups[0], 3);
        assert_eq!(*groups.last().unwrap(), MAX_SPANS as u64 + 2);
    }
}
