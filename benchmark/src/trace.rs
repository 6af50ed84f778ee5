//! Spans recorded by the harness around each call into a layer's public
//! API — the program itself is not instrumented (that is ROADMAP item 1).
//!
//! Spans stay in memory and are written once, when the run ends. A span's
//! self time is its duration minus the part its child spans cover. Every
//! span is opened and closed on the harness's main thread, so children
//! nest strictly and never overlap.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::escape;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
}

pub struct Tracer {
    workload: String,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            epoch: Instant::now(),
            inner: RefCell::new(Inner { spans: Vec::new(), open: Vec::new(), rep: 0 }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on carry this repetition number.
    pub fn set_rep(&self, rep: usize) {
        self.inner.borrow_mut().rep = rep;
    }

    /// Runs `f` inside a span called `name`, child of whichever span is
    /// open; returns `f`'s value and the span's index.
    pub fn span_id<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
        let id = {
            let mut g = self.inner.borrow_mut();
            let id = g.spans.len();
            let (parent, rep) = (g.open.last().copied(), g.rep);
            g.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, rep });
            g.open.push(id);
            id
        };
        // The clock reads sit innermost, so the span brackets `f` and
        // nothing of the bookkeeping above.
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut g = self.inner.borrow_mut();
        g.spans[id].start_ns = start;
        g.spans[id].end_ns = end;
        g.open.pop();
        (out, id)
    }

    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_id(name, f).0
    }

    /// Records a span whose ends were clocked elsewhere (the arrival of a
    /// child process's output line, a request's round trip).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        let mut g = self.inner.borrow_mut();
        let (parent, rep) = (g.open.last().copied(), g.rep);
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        g.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, rep });
    }

    pub fn secs(&self, id: usize) -> f64 {
        self.inner.borrow().spans[id].secs()
    }

    /// Duration of span `id` minus what its direct children cover.
    pub fn self_secs(&self, id: usize) -> f64 {
        let g = self.inner.borrow();
        let covered: f64 = g.spans.iter().filter(|s| s.parent == Some(id)).map(Span::secs).sum();
        g.spans[id].secs() - covered
    }

    /// `(total seconds, count)` of the direct children of `id` called `name`.
    pub fn children(&self, id: usize, name: &str) -> (f64, usize) {
        let g = self.inner.borrow();
        g.spans
            .iter()
            .filter(|s| s.parent == Some(id) && s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
    }

    /// Writes every span, with its self time, and a per-name roll-up.
    ///
    /// # Errors
    /// The I/O error of creating the directory or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let g = self.inner.borrow();
        let mut covered = vec![0u64; g.spans.len()];
        for s in &g.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\": {}, \"spans\": [", escape(&self.workload));
        for (i, s) in g.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let self_ns = dur.saturating_sub(covered[i]);
            let e = by_name.entry(s.name).or_default();
            *e = (e.0 + 1, e.1 + dur, e.2 + self_ns);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"workload\": {}, \"rep\": {}, \"self_ns\": {self_ns}}}",
                if i == 0 { "" } else { "," },
                escape(s.name),
                s.start_ns,
                s.end_ns,
                escape(&self.workload),
                s.rep,
            );
        }
        out.push_str("\n], \"by_name\": {");
        for (i, (name, (count, total, self_ns))) in by_name.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{}: {{\"count\": {count}, \"total_ns\": {total}, \"self_ns\": {self_ns}}}",
                if i == 0 { "" } else { "," },
                escape(name),
            );
        }
        out.push_str("\n}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
