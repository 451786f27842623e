//! The traced run's span recorder: a span (name, start, end, parent,
//! request id) around each call the benchmark makes into a layer.
//! Spans stay in memory and are written as JSON lines at exit. With
//! tracing off, `span` calls the closure and records nothing, without
//! reading the clock.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// An open span; pass its `id` as the parent of nested spans.
pub struct Open {
    pub id: u64,
    start_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` with tracing off.
    pub fn begin(&self) -> Option<Open> {
        self.enabled.then(|| Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: self.now_ns(),
        })
    }

    pub fn end(&self, open: Option<Open>, name: &'static str, parent: u64, request: u64) {
        if let Some(o) = open {
            let rec = SpanRec {
                id: o.id,
                parent,
                request,
                name,
                start_ns: o.start_ns,
                end_ns: self.now_ns(),
            };
            self.spans.lock().push(rec);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin();
        let out = f();
        self.end(open, name, parent, request);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Per span name: count, total time and self time (duration minus
    /// the part its direct children cover), in milliseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += own as f64 / 1e6;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_nests() {
        let off = Tracer::new(false);
        assert_eq!(off.span("a", 0, 1, || 5), 5);
        assert_eq!(off.len(), 0);

        let on = Tracer::new(true);
        let parent = on.begin();
        let pid = parent.as_ref().map_or(0, |o| o.id);
        on.span("child", pid, 9, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        on.end(parent, "parent", 0, 9);
        let sum = on.summary();
        let (n, total, own) = sum["parent"];
        assert_eq!(n, 1);
        assert!(own < total, "child time is not self time");
        assert_eq!(sum["child"].0, 1);
    }
}
