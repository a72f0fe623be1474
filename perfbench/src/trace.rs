//! In-memory span recorder for the traced run.
//!
//! A span is one public call into one layer: its name (the layer metric's
//! prefix, e.g. `replay.counts`), the op it served, the thread it ran on,
//! and its start and end in microseconds since the recorder was made.
//! Spans stay in memory until the run ends; [`Tracer::write_chrome`] then
//! writes them as Chrome trace-event JSON, which Perfetto and
//! `chrome://tracing` open offline. With tracing off, [`Tracer::span`] is a
//! plain call.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Op the call served (0 = set-up).
    pub op: u64,
    /// Recording thread (small sequential ids, 1 = first thread seen).
    pub tid: u64,
    /// Start, µs since the recorder's origin.
    pub start_us: f64,
    /// End, µs since the recorder's origin.
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// The recorder. Shared by reference across the program's worker threads.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    /// A recorder, switched off.
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switch recording on or off (the traced run alternates per op).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Tag every span recorded from now on, on any thread, with `op`.
    pub fn set_op(&self, op: u64) {
        self.op.store(op, Ordering::Relaxed);
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` as one call into layer `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let start_us = self.now_us();
        let r = f();
        let end_us = self.now_us();
        self.push(name, start_us, end_us);
        r
    }

    fn push(&self, name: &'static str, start_us: f64, end_us: f64) {
        let span = Span {
            name,
            op: self.op.load(Ordering::Relaxed),
            tid: TID.with(|t| *t),
            start_us,
            end_us,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// The spans recorded for `op`, in recording order.
    pub fn spans_of(&self, op: u64) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.op == op)
            .cloned()
            .collect()
    }

    /// Write every span as Chrome trace-event JSON (complete events,
    /// `ph: "X"`; the op id is in `args`).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}{sep}",
                s.name,
                s.tid,
                s.start_us,
                s.end_us - s.start_us,
                s.op
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()?;
        Ok(spans.len())
    }
}

/// Wall-clock milliseconds each layer held among `spans`, sharing every
/// instant equally among the spans active at it. Spans that run on
/// parallel threads therefore split the wall-clock they overlap, and the
/// shares of all layers add up to the wall-clock covered by any span —
/// never more than the op that contains them.
pub fn shared_wall_ms(spans: &[&Span]) -> HashMap<&'static str, f64> {
    let mut events: Vec<(f64, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start_us, i));
        events.push((s.end_us, i));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut share: HashMap<&'static str, f64> = HashMap::new();
    let mut active: Vec<usize> = Vec::new();
    let mut last = 0.0f64;
    for (t, i) in events {
        if !active.is_empty() && t > last {
            let each = (t - last) / active.len() as f64 / 1e3;
            for &a in &active {
                *share.entry(spans[a].name).or_default() += each;
            }
        }
        last = t;
        match active.iter().position(|&a| a == i) {
            Some(pos) => {
                active.swap_remove(pos);
            }
            None => active.push(i),
        }
    }
    share
}

/// Summed duration in milliseconds of the spans named `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
}

/// Wall-clock milliseconds covered by at least one of `spans`.
pub fn covered_ms(spans: &[&Span]) -> f64 {
    shared_wall_ms(spans).values().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64) -> Span {
        Span {
            name,
            op: 1,
            tid: 1,
            start_us,
            end_us,
        }
    }

    #[test]
    fn overlapping_spans_split_the_overlap() {
        let a = span("a", 0.0, 2000.0);
        let b = span("b", 1000.0, 3000.0);
        let w = shared_wall_ms(&[&a, &b]);
        assert!((w["a"] - 1.5).abs() < 1e-9);
        assert!((w["b"] - 1.5).abs() < 1e-9);
        assert!((covered_ms(&[&a, &b]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn gaps_are_not_covered() {
        let a = span("a", 0.0, 1000.0);
        let b = span("a", 5000.0, 6000.0);
        assert!((covered_ms(&[&a, &b]) - 2.0).abs() < 1e-9);
    }
}
