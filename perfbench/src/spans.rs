//! In-memory spans around the benchmark's calls into each layer, written
//! out as Chrome trace-event JSON when the run ends.
//!
//! A span is a name (`<layer>.<call>`), a start, an end and the span that
//! was open when it began. The recorder always times the call, because
//! the timing run needs the durations too; it keeps the span only when
//! tracing is on, so the timing run records nothing.

use rb_simcore::Json;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Spans::spans`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder for one benchmark process.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps spans (`keep`) or only times calls.
    pub fn new(keep: bool) -> Self {
        Spans {
            origin: Instant::now(),
            keep,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Time `f` as span `name`, nested under the span open around this
    /// call. Returns `f`'s result and the elapsed wall time in ms.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let start_ns = self.now_ns();
        let slot = self.keep.then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            let i = self.spans.len() - 1;
            self.open.push(i);
            i
        });
        let out = f(self);
        let end_ns = self.now_ns();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].end_ns = end_ns;
        }
        (out, (end_ns - start_ns) as f64 / 1e6)
    }

    /// Durations in ms of every kept span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// The spans as a Chrome trace-event document: one complete (`X`)
    /// event per span on a single track, its layer as the category, and
    /// its own and its parent's index in `args`.
    pub fn chrome(&self, process: &str) -> Json {
        let mut events = vec![Json::obj()
            .set("name", "process_name")
            .set("ph", "M")
            .set("pid", 1u64)
            .set("args", Json::obj().set("name", process))];
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(Json::Null, Json::from);
            events.push(
                Json::obj()
                    .set("name", s.name)
                    .set("cat", layer)
                    .set("ph", "X")
                    .set("ts", s.start_ns as f64 / 1e3)
                    .set("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .set("pid", 1u64)
                    .set("tid", 1u64)
                    .set("args", Json::obj().set("id", i).set("parent", parent)),
            );
        }
        Json::obj()
            .set("traceEvents", Json::Arr(events))
            .set("displayTimeUnit", "ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_export_valid_chrome() {
        let mut spans = Spans::new(true);
        let ((), outer_ms) = spans.time("broker.outer", |s| {
            s.time("simnet.inner", |_| std::hint::black_box(()));
        });
        assert!(outer_ms >= 0.0);
        let kept = &spans.spans;
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].parent, None);
        assert_eq!(kept[1].parent, Some(0));
        assert!(kept[1].start_ns >= kept[0].start_ns && kept[1].end_ns <= kept[0].end_ns);
        let doc = spans.chrome("test");
        assert_eq!(rb_analyze::validate_chrome(&doc), Ok(3));
    }

    #[test]
    fn a_timing_recorder_keeps_nothing() {
        let mut spans = Spans::new(false);
        let (v, _) = spans.time("simcore.x", |_| 7);
        assert_eq!(v, 7);
        assert!(spans.spans.is_empty());
    }
}
