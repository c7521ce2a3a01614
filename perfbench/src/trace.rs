//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into each crate's public functions
//! (never inside the program), kept in memory, and written out once
//! the run ends. A span's self time is its duration minus the part of
//! its interval that its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
pub struct Span {
    pub name: &'static str,
    /// The layer the span is attributed to (crate-level name).
    pub layer: &'static str,
    /// Groups the spans of one request (service) or one tune (tuner).
    pub request: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// In-memory span recorder with an explicit parent stack. Single
/// threaded: every span is opened and closed by the benchmark's own
/// thread around a blocking call.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Starts a new request id for the spans that follow.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, layer: &'static str) {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            layer,
            request: self.request,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> f64 {
        let idx = self.stack.pop().expect("exit without a matching enter");
        let span = &mut self.spans[idx];
        span.end = self.origin.elapsed().as_secs_f64();
        span.end - span.start
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        self.enter(name, layer);
        let out = f(self);
        let dur = self.exit();
        (out, dur)
    }

    /// Self time summed per layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                // Children are closed inside their parent and never
                // overlap each other, so their durations add up to the
                // covered part of the parent's interval.
                child_time[p] += span.end - span.start;
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_time) {
            *out.entry(span.layer).or_insert(0.0) += (span.end - span.start) - covered;
        }
        out
    }

    /// Writes the spans as Chrome trace events (`ph: "X"`, one named
    /// thread per layer) so they load in `chrome://tracing` or Perfetto.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        assert!(self.stack.is_empty(), "spans still open at write-out");
        let mut layers: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !layers.contains(&s.layer) {
                layers.push(s.layer);
            }
        }
        let tid = |layer: &str| layers.iter().position(|l| *l == layer).expect("listed") + 1;
        let mut events: Vec<String> = layers
            .iter()
            .map(|l| {
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                     \"args\":{{\"name\":\"{l}\"}}}}",
                    tid(l)
                )
            })
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                s.layer,
                tid(s.layer),
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.request,
                i,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
        )
    }
}
