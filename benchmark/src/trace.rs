//! The traced run's span recorder. Spans are recorded from the benchmark's
//! own code, around each call into a layer's public function, kept in
//! memory and written as JSON lines when the run ends. A layer's self time
//! is its spans' durations minus their children's.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based id in opening order.
    pub id: u32,
    /// Id of the span that was open when this one opened; 0 for a root.
    pub parent: u32,
    /// The request (wire frame or campaign) this span belongs to.
    pub request: u64,
    /// The repository module the spanned call belongs to.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Id and duration of a finished span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Done {
    pub id: u32,
    pub nanos: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

/// Records spans when enabled; when disabled [`Recorder::span`] only calls
/// its closure. Interior mutability lets objective closures that the
/// library holds by shared reference record spans too. One thread only.
pub struct Recorder {
    epoch: Instant,
    inner: Option<RefCell<Inner>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            inner: enabled.then(RefCell::default),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Spans opened from now on belong to `request`.
    pub fn set_request(&self, request: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().request = request;
        }
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    /// Returns `f`'s result and the finished span's id and duration (both 0
    /// when disabled).
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Done) {
        let Some(inner) = &self.inner else {
            return (f(), Done::default());
        };
        let idx = {
            let mut g = inner.borrow_mut();
            let id = g.spans.len() as u32 + 1;
            let span = Span {
                id,
                parent: g.open.last().copied().unwrap_or(0),
                request: g.request,
                layer,
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
            };
            g.spans.push(span);
            g.open.push(id);
            id as usize - 1
        };
        let out = f();
        let mut g = inner.borrow_mut();
        g.open.pop();
        let end = self.epoch.elapsed().as_nanos() as u64;
        g.spans[idx].end_ns = end;
        let done = Done {
            id: idx as u32 + 1,
            nanos: end - g.spans[idx].start_ns,
        };
        (out, done)
    }

    /// Run `f` with the finished span `parent` as the parent of the spans it
    /// opens: a wire request's library replay happens after the reply, but
    /// is attributed to that request's span.
    pub fn under<T>(&self, parent: u32, f: impl FnOnce() -> T) -> T {
        let Some(inner) = &self.inner else {
            return f();
        };
        inner.borrow_mut().open.push(parent);
        let out = f();
        inner.borrow_mut().open.pop();
        out
    }

    /// Record a span whose interval was measured elsewhere (for example a
    /// span of the repository's own tracer), as a child of the open span.
    pub fn push_measured(&self, layer: &'static str, name: &'static str, nanos: u64) {
        if let Some(inner) = &self.inner {
            let mut g = inner.borrow_mut();
            let id = g.spans.len() as u32 + 1;
            let now = self.epoch.elapsed().as_nanos() as u64;
            let span = Span {
                id,
                parent: g.open.last().copied().unwrap_or(0),
                request: g.request,
                layer,
                name,
                start_ns: now.saturating_sub(nanos),
                end_ns: now,
            };
            g.spans.push(span);
        }
    }

    /// Every finished span so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|i| i.borrow().spans.clone())
            .unwrap_or_default()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// durations of its direct children (never below zero), summed by layer.
pub fn self_time_by_layer<'a>(
    spans: impl Iterator<Item = &'a Span> + Clone,
) -> BTreeMap<&'static str, u64> {
    let mut child_nanos: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.clone() {
        *child_nanos.entry(s.parent).or_insert(0) += s.nanos();
    }
    let mut by_layer = BTreeMap::new();
    for s in spans {
        let children = child_nanos.get(&s.id).copied().unwrap_or(0);
        *by_layer.entry(s.layer).or_insert(0) += s.nanos().saturating_sub(children);
    }
    by_layer
}

/// Durations in nanoseconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.nanos() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            layer,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, 0, "server", 0, 100),
            span(2, 1, "query", 10, 60),
            span(3, 2, "storage", 20, 50),
            span(4, 1, "server", 60, 70),
        ];
        let by = self_time_by_layer(spans.iter());
        // root: 100 - (50 + 10) = 40, plus the second server span's 10.
        assert_eq!(by["server"], 50);
        assert_eq!(by["query"], 20);
        assert_eq!(by["storage"], 30);
    }

    #[test]
    fn children_longer_than_the_parent_floor_at_zero() {
        // A replayed child may outlast the wire span it is attributed to.
        let spans = [span(1, 0, "server", 0, 10), span(2, 1, "query", 0, 25)];
        let by = self_time_by_layer(spans.iter());
        assert_eq!(by["server"], 0);
        assert_eq!(by["query"], 25);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let rec = Recorder::new(true);
        rec.set_request(7);
        rec.span("server", "outer", || {
            rec.span("query", "inner", || ());
            rec.push_measured("storage", "scan", 5);
        });
        rec.under(2, || rec.span("sql", "replayed", || ()));
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [0, 1, 1, 2]);
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Recorder::new(false);
        assert_eq!(off.span("server", "x", || 3), (3, Done::default()));
        assert!(off.spans().is_empty());
    }
}
