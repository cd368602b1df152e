//! Spans recorded from outside the program, at the calls into its public
//! traits.
//!
//! A span is a name, a start and an end, a pass id and a parent.  Ids are
//! paths (`kron_count/p2/w0/deliver`); a span's parent is its id with the
//! last segment removed.  Calls made once per chunk (the pipeline's
//! delivery callback, `EdgeSink::consume`) are kept as one aggregate span
//! per worker and pass — first start, last end, summed busy time and the
//! call count — so a multi-billion-edge pass records tens of spans, not
//! tens of thousands.  Spans stay in memory and are written when the run
//! ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kron_core::CoreError;
use kron_core::{GraphProperties, ValidationReport};
use kron_gen::{EdgeChunk, EdgeSink, EdgeSource, SourceDescriptor, SourceRun, SplitPlan};
use kron_sparse::SparseError;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: String,
    pub name: &'static str,
    pub pass: u32,
    pub start: Duration,
    pub end: Duration,
    /// Time the call itself was running: `end − start` for a single call,
    /// the sum of the calls for an aggregate.
    pub busy: Duration,
    pub calls: u64,
}

impl Span {
    fn parent(&self) -> Option<&str> {
        self.id.rsplit_once('/').map(|(parent, _)| parent)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Counts recorded at the same boundaries: `(id, name, value)`.
    values: Mutex<Vec<(String, &'static str, f64)>>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            values: Mutex::new(Vec::new()),
        })
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no span writer panicked")
            .push(span);
    }

    /// Record one call that ran from `start` to `end`.
    fn record(&self, id: String, name: &'static str, pass: u32, start: Instant, end: Instant) {
        self.push(Span {
            id,
            name,
            pass,
            start: start - self.epoch,
            end: end - self.epoch,
            busy: end - start,
            calls: 1,
        });
    }

    /// Time `call` as one span.
    pub fn time<T>(
        &self,
        id: String,
        name: &'static str,
        pass: u32,
        call: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = call();
        self.record(id, name, pass, start, Instant::now());
        value
    }

    fn record_aggregate(&self, id: String, name: &'static str, pass: u32, calls: &Calls) {
        if let Some((first, last)) = calls.window {
            self.push(Span {
                id,
                name,
                pass,
                start: first - self.epoch,
                end: last - self.epoch,
                busy: calls.busy,
                calls: calls.count,
            });
        }
    }

    pub fn record_value(&self, id: &str, name: &'static str, value: f64) {
        self.values
            .lock()
            .expect("no value writer panicked")
            .push((id.to_string(), name, value));
    }

    /// Values named `name` recorded at span id `id`.
    pub fn values(&self, id: &str, name: &str) -> Vec<f64> {
        self.values
            .lock()
            .expect("no value writer panicked")
            .iter()
            .filter(|(at, n, _)| at == id && *n == name)
            .map(|(_, _, v)| *v)
            .collect()
    }

    fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panicked").clone()
    }

    /// Busy seconds of every span whose id starts with `prefix` and whose
    /// name is `name`.
    pub fn busy_s(&self, prefix: &str, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.id.starts_with(prefix) && s.name == name)
            .map(|s| s.busy.as_secs_f64())
            .sum()
    }

    /// Self time per span name: a span's busy time minus the busy time of
    /// its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child_busy: BTreeMap<&str, Duration> = BTreeMap::new();
        for span in &spans {
            if let Some(parent) = span.parent() {
                *child_busy.entry(parent).or_default() += span.busy;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for span in &spans {
            let children = child_busy
                .get(span.id.as_str())
                .copied()
                .unwrap_or_default();
            *out.entry(span.name).or_default() += span.busy.saturating_sub(children).as_secs_f64();
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.spans() {
            let _ = writeln!(
                out,
                "{{\"id\": \"{}\", \"parent\": {}, \"name\": \"{}\", \"pass\": {}, \"start_s\": {:.9}, \"end_s\": {:.9}, \"busy_s\": {:.9}, \"calls\": {}}}",
                span.id,
                span.parent().map_or("null".to_string(), |p| format!("\"{p}\"")),
                span.name,
                span.pass,
                span.start.as_secs_f64(),
                span.end.as_secs_f64(),
                span.busy.as_secs_f64(),
                span.calls
            );
        }
        out
    }
}

/// Summed time of repeated calls.
#[derive(Debug, Default)]
struct Calls {
    window: Option<(Instant, Instant)>,
    busy: Duration,
    count: u64,
}

impl Calls {
    fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = call();
        let end = Instant::now();
        self.busy += end - start;
        self.count += 1;
        self.window = Some((self.window.map_or(start, |(first, _)| first), end));
        value
    }
}

/// An [`EdgeSource`] adapter that records `EdgeSource::prepare`, each
/// worker's `SourceRun::stream_worker`, and the pipeline's delivery
/// callback (relabelling, metrics and the sink) as spans under `prefix`.
pub struct TracedSource<S> {
    inner: S,
    tracer: Arc<Tracer>,
    prefix: String,
    pass: u32,
}

impl<S> TracedSource<S> {
    pub fn new(inner: S, tracer: &Arc<Tracer>, prefix: &str, pass: u32) -> Self {
        TracedSource {
            inner,
            tracer: Arc::clone(tracer),
            prefix: prefix.to_string(),
            pass,
        }
    }
}

impl<S: EdgeSource> EdgeSource for TracedSource<S> {
    type Run = TracedRun<S::Run>;

    fn vertices(&self) -> Result<u64, CoreError> {
        self.inner.vertices()
    }

    fn prepare(&self, workers: usize) -> Result<(Self::Run, Vec<String>), CoreError> {
        let (run, warnings) = self.tracer.time(
            format!("{}/prepare", self.prefix),
            "EdgeSource::prepare",
            self.pass,
            || self.inner.prepare(workers),
        )?;
        Ok((
            TracedRun {
                inner: run,
                tracer: Arc::clone(&self.tracer),
                prefix: self.prefix.clone(),
                pass: self.pass,
            },
            warnings,
        ))
    }
}

pub struct TracedRun<R> {
    inner: R,
    tracer: Arc<Tracer>,
    prefix: String,
    pass: u32,
}

impl<R: SourceRun> SourceRun for TracedRun<R> {
    fn stream_worker<E, F>(
        &self,
        worker: usize,
        chunk: &mut EdgeChunk,
        mut sink: F,
    ) -> Result<u64, E>
    where
        E: From<SparseError>,
        F: FnMut(&[(u64, u64)]) -> Result<(), E>,
    {
        let mut deliver = Calls::default();
        let start = Instant::now();
        let result = self
            .inner
            .stream_worker(worker, chunk, |edges| deliver.time(|| sink(edges)));
        let end = Instant::now();
        let id = format!("{}/w{worker}", self.prefix);
        self.tracer.record_aggregate(
            format!("{id}/deliver"),
            "pipeline.deliver",
            self.pass,
            &deliver,
        );
        self.tracer
            .record(id, "SourceRun::stream_worker", self.pass, start, end);
        result
    }

    fn predicted_properties(&self) -> Option<GraphProperties> {
        self.inner.predicted_properties()
    }

    fn validate(&self, measured: &GraphProperties) -> ValidationReport {
        self.inner.validate(measured)
    }

    fn split_plan(&self) -> Option<SplitPlan> {
        self.inner.split_plan()
    }

    fn descriptor(&self) -> SourceDescriptor {
        self.inner.descriptor()
    }
}

/// An [`EdgeSink`] adapter that records `consume` (aggregated, a child of
/// the worker's delivery span) and `finish` (a child of the pass).
pub struct TracedSink<K> {
    inner: K,
    tracer: Arc<Tracer>,
    prefix: String,
    pass: u32,
    worker: usize,
    consume: Calls,
}

impl<K> TracedSink<K> {
    pub fn new(inner: K, tracer: &Arc<Tracer>, prefix: &str, pass: u32, worker: usize) -> Self {
        TracedSink {
            inner,
            tracer: Arc::clone(tracer),
            prefix: prefix.to_string(),
            pass,
            worker,
            consume: Calls::default(),
        }
    }

    fn record_consume(&self) {
        self.tracer.record_aggregate(
            format!("{}/w{}/deliver/consume", self.prefix, self.worker),
            "EdgeSink::consume",
            self.pass,
            &self.consume,
        );
    }
}

impl<K: EdgeSink> EdgeSink for TracedSink<K> {
    type Output = K::Output;

    fn consume(&mut self, edges: &[(u64, u64)]) -> Result<(), SparseError> {
        let inner = &mut self.inner;
        self.consume.time(|| inner.consume(edges))
    }

    fn finish(self) -> Result<K::Output, SparseError> {
        self.finish_with_checksum().map(|(output, _)| output)
    }

    fn abandon(self) {
        self.inner.abandon();
    }

    fn payload_checksum(&self) -> Option<u64> {
        self.inner.payload_checksum()
    }

    fn finish_with_checksum(self) -> Result<(K::Output, Option<u64>), SparseError> {
        self.record_consume();
        let id = format!("{}/finish{}", self.prefix, self.worker);
        let (tracer, pass) = (Arc::clone(&self.tracer), self.pass);
        tracer.time(id, "EdgeSink::finish", pass, || {
            self.inner.finish_with_checksum()
        })
    }
}
