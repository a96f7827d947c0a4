//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, start, end, parent and job id. The layer is the
//! name up to its first `.` (`route.global` belongs to `route`). Spans are
//! kept until the run ends; a layer's self time is its spans' durations
//! minus the time their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: usize,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    job: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    pub fn set_job(&mut self, job: usize) {
        self.job = job;
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.stack.last().copied(),
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_s = self.epoch.elapsed().as_secs_f64();
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    /// Total time of every span with this name.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per layer: each span's duration minus its children's.
    /// Children of one span never overlap here (the replay is
    /// single-threaded), so subtracting their durations subtracts the
    /// time they cover.
    pub fn self_s_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.dur_s();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.layer()).or_insert(0.0) += s.dur_s() - child_s[i];
        }
        out
    }

    /// Writes every span, one per line: id, parent, job, name, start and
    /// end in seconds since the tracer started.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::from("id\tparent\tjob\tname\tstart_s\tend_s\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{i}\t{parent}\t{}\t{}\t{:.9}\t{:.9}\n",
                s.job, s.name, s.start_s, s.end_s
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }

    /// Time covered by the direct children of the spans named `root`.
    pub fn child_coverage_s(&self, root: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == root))
            .map(Span::dur_s)
            .sum()
    }
}
