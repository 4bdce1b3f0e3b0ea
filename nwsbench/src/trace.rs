//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer — the crates themselves carry no instrumentation. Each thread
//! fills its own [`SpanBuf`] (no locking on the hot path) and hands it to
//! the [`Tracer`] when its phase ends; the tracer derives every layer's
//! self time (duration minus the part covered by child spans) and writes
//! the spans out as TSV at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer epoch;
/// `parent` indexes the same thread's buffer; `id` is the request or
/// slot the span belongs to (shared by all spans of one request).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u32>,
    pub start: u64,
    pub end: u64,
}

/// One thread's spans.
#[derive(Default)]
pub struct SpanBuf {
    spans: Vec<Span>,
}

impl SpanBuf {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            spans: Vec::with_capacity(n),
        }
    }

    /// Records a closed span and returns its index, for children to
    /// name as their parent.
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<u32>,
        start: u64,
        end: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
        (self.spans.len() - 1) as u32
    }
}

/// Collects every thread's spans for one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch of an instant.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Takes over one thread's buffer, rebasing its parent indices.
    pub fn absorb(&self, buf: SpanBuf) {
        let mut all = self.spans.lock().expect("span sink poisoned");
        let base = all.len() as u32;
        all.extend(buf.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span sink poisoned").len()
    }

    /// Self time of every span, grouped by span name: the span's
    /// duration minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let all = self.spans.lock().expect("span sink poisoned");
        let mut child = vec![0u64; all.len()];
        for s in all.iter() {
            if let Some(p) = s.parent {
                child[p as usize] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, c) in all.iter().zip(child) {
            out.entry(s.name)
                .or_default()
                .push(s.end.saturating_sub(s.start).saturating_sub(c));
        }
        out
    }

    /// Writes each span name's self-time summary as one TSV row:
    /// `name count p50_ns mean_ns total_ns`.
    pub fn write_self_times(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\tcount\tp50_ns\tmean_ns\ttotal_ns")?;
        for (name, times) in self.self_times() {
            let total: u64 = times.iter().sum();
            writeln!(
                w,
                "{name}\t{}\t{}\t{:.1}\t{total}",
                times.len(),
                crate::stats::pct_of(&times, 0.5),
                total as f64 / times.len().max(1) as f64
            )?;
        }
        w.flush()
    }

    /// Writes every span as one TSV row:
    /// `index name id parent start_ns end_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let all = self.spans.lock().expect("span sink poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tid\tparent\tstart_ns\tend_ns")?;
        for (i, s) in all.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.id, s.start, s.end
            )?;
        }
        w.flush()
    }
}
