//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, request, class)`, recorded
//! around a call into one layer's public API. Spans live in memory
//! until the run ends, then [`Tracer::write_tsv`] writes them out with
//! each span's self time (its duration minus the part its children
//! cover). A disabled tracer records nothing, so the same code path
//! serves the untraced passes.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Workload-defined class (the input count on the analyzer paths).
    pub class: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span; `NONE` when the tracer is disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
    request: u64,
    class: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            request: 0,
            class: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans opened from now on with a request id and class.
    pub fn set_request(&mut self, request: u64, class: u32) {
        self.request = request;
        self.class = class;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost span still open.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
            class: self.class,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (which must be the innermost open span).
    pub fn close(&mut self, id: SpanId) {
        if id.0 == usize::MAX {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Adds `n` to a named counter recorded at a layer boundary.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0) += n;
        }
    }

    /// A counter's value; `None` when it was never counted.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Number of spans named `name` and their total seconds, over the
    /// spans `keep` selects.
    fn sum(&self, name: &str, keep: impl Fn(&Span) -> bool) -> (usize, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s))
            .fold((0, 0.0), |(n, t), s| (n + 1, t + s.seconds()))
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.sum(name, |_| true).0
    }

    /// Total seconds of the spans named `name`; `None` when none was
    /// recorded, so a renamed or skipped span cannot read as 0.
    pub fn total(&self, name: &str) -> Option<f64> {
        let (n, total) = self.sum(name, |_| true);
        (n > 0).then_some(total)
    }

    /// [`Tracer::total`] over the spans of one class.
    pub fn total_in_class(&self, name: &str, class: u32) -> Option<f64> {
        let (n, total) = self.sum(name, |s| s.class == class);
        (n > 0).then_some(total)
    }

    /// Mean seconds per span named `name`; `None` when none was recorded.
    pub fn mean(&self, name: &str) -> Option<f64> {
        let (n, total) = self.sum(name, |_| true);
        (n > 0).then(|| total / n as f64)
    }

    /// Nanoseconds each span's direct children cover.
    fn child_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        covered
    }

    /// Share of the wall time of spans named `parent` that their direct
    /// children cover (1.0 means every nanosecond is attributed); `None`
    /// when no such span was recorded.
    pub fn coverage(&self, parent: &str) -> Option<f64> {
        let covered = self.child_ns();
        let (mut wall, mut children) = (0u64, 0u64);
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == parent {
                wall += span.end_ns - span.start_ns;
                children += covered[i];
            }
        }
        (wall > 0).then(|| children as f64 / wall as f64)
    }

    /// Writes every span, one per line, with its self time.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let covered = self.child_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tname\tstart_ns\tend_ns\tparent\trequest\tclass\tself_ns"
        )?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            let self_ns = (span.end_ns - span.start_ns).saturating_sub(covered[i]);
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{self_ns}",
                span.name, span.start_ns, span.end_ns, span.request, span.class
            )?;
        }
        out.flush()
    }
}
