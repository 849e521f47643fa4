//! In-memory span recorder around the benchmark's calls into each layer.
//!
//! A disabled tracer only runs the wrapped call. An enabled one records a
//! span per call — name, start, end, parent span, job id — keeps them in
//! memory, and renders them at exit as Chrome trace-event JSON (which
//! `chrome://tracing` and Perfetto open). A span's self time is its
//! duration minus the durations of its direct children; the harness is
//! single-threaded around its spans, so children never overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `analysis.exact`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the call belongs to (the op index within its round).
    pub job: u64,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Spans entered so far, recorded or not (to tell leaf calls).
    entered: u64,
    /// Wall time of every leaf call, recorded or not, in call order.
    laps: Vec<Duration>,
    /// Test builds only: sleep this long inside every span of this name.
    #[cfg(test)]
    pub delay: Option<(&'static str, Duration)>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`, and otherwise only runs
    /// the wrapped calls.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            entered: 0,
            laps: Vec::new(),
            #[cfg(test)]
            delay: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for subsequent spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` belonging to `job`. A call
    /// that opens no span of its own is a leaf: its wall time goes to
    /// [`Tracer::laps`] whether or not spans are being recorded.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.entered += 1;
        let entered = self.entered;
        let began = Instant::now();
        let out = self.recorded(name, job, f);
        if self.entered == entered {
            self.laps.push(began.elapsed());
        }
        out
    }

    fn recorded<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(index);
        #[cfg(test)]
        if let Some((delayed, pause)) = self.delay {
            if delayed == name {
                std::thread::sleep(pause);
            }
        }
        let out = f(self);
        self.close_to(self.open.len() - 1);
        out
    }

    /// Open-span depth, to restore with [`Tracer::close_to`] after a
    /// caught panic unwound through open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Ends every span opened above `depth`, at the current time.
    pub fn close_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.open.len() > depth {
            let index = self.open.pop().expect("open span above depth");
            self.spans[index].end_ns = now;
        }
    }

    /// Wall times of the leaf calls since the tracer was created or last
    /// drained, in call order.
    pub fn laps(&self) -> &[Duration] {
        &self.laps
    }

    /// Removes and returns the leaf-call times from index `from` on.
    pub fn drain_laps(&mut self, from: usize) -> Vec<Duration> {
        self.laps.drain(from.min(self.laps.len())..).collect()
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the next span to be recorded (marks a region of spans).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, over spans recorded at or after `from`.
    pub fn self_times(&self, from: usize) -> BTreeMap<&'static str, Duration> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans[from..] {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate().skip(from) {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[i]);
            *out.entry(span.name).or_default() += Duration::from_nanos(own);
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, times in
    /// microseconds).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"job\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.job
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 0, |t| {
            std::thread::sleep(Duration::from_millis(5));
            t.span("inner", 0, |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let own = t.self_times(0);
        assert!(own["inner"] >= Duration::from_millis(20));
        assert!(own["outer"] >= Duration::from_millis(5));
        assert!(own["outer"] < Duration::from_millis(20), "outer self time {:?}", own["outer"]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_leaf_laps() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |_| 7), 7);
        t.span("outer", 0, |t| {
            t.span("inner", 0, |_| std::thread::sleep(Duration::from_millis(2)))
        });
        assert!(t.spans().is_empty());
        assert_eq!(t.laps().len(), 2, "x and inner are leaves, outer is not");
        assert!(t.laps()[1] >= Duration::from_millis(2));
        assert_eq!(t.drain_laps(1).len(), 1);
        assert_eq!(t.laps().len(), 1);
    }

    #[test]
    fn close_to_ends_spans_left_open_by_a_panic() {
        let mut t = Tracer::new(true);
        let depth = t.depth();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("boom", 3, |_| panic!("injected"));
        }));
        assert!(caught.is_err());
        t.close_to(depth);
        assert_eq!(t.depth(), 0);
        assert!(t.spans()[0].end_ns >= t.spans()[0].start_ns);
    }

    #[test]
    fn chrome_json_names_every_span() {
        let mut t = Tracer::new(true);
        t.span("a", 1, |t| t.span("b", 1, |_| ()));
        let json = t.chrome_json();
        assert!(json.contains("\"name\":\"a\"") && json.contains("\"name\":\"b\""));
        assert!(json.contains("\"parent\":0") && json.contains("\"job\":1"));
    }
}
