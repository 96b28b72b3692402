//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, an op id shared by every span of one request or
//! transaction, a parent span, and start and end times in nanoseconds since
//! the run's epoch. Each load thread keeps its own [`SpanLog`] in memory;
//! the logs are merged and written out once the run ends. Nothing is
//! recorded inside the program: the boundaries are the public functions the
//! benchmark calls ([`ifdb_platform::AppServer::handle`], the
//! [`SessionApi`] methods of a wrapped connection or session).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use ifdb::prelude::*;
use ifdb::{Aggregate, Datum, Join};

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary name, `<layer>.<call>`.
    pub name: &'static str,
    /// The request or transaction the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// An in-memory span log owned by one thread.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant to nanoseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is filled in by [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(name, op, parent, now, now)
    }

    /// Closes a span opened by [`SpanLog::open`].
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Appends `other`'s spans, re-basing its parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name in µs: a span's duration minus the part its
    /// direct children cover. Children of one span run one after another
    /// on the same thread, so their durations add up without overlap.
    pub fn self_time_us(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            let e = out.entry(s.name).or_default();
            e.0 += own as f64 / 1e3;
            e.1 += 1;
        }
        out
    }

    /// Writes the log as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A forwarding [`SessionApi`] that records one span per call and counts
/// the rows its reads return. `execute_batch` is forwarded as one call, so
/// a pipelining session keeps pipelining.
pub struct Traced<'a, S: SessionApi> {
    inner: &'a mut S,
    log: &'a mut SpanLog,
    call: &'static str,
    commit: &'static str,
    /// Op id stamped on every span.
    pub op: u64,
    /// Parent span of every call span.
    pub parent: Option<usize>,
    /// Rows returned by reads since construction.
    pub rows_returned: u64,
}

impl<'a, S: SessionApi> Traced<'a, S> {
    /// Wraps `inner`, naming call spans `call` and commit spans `commit`.
    pub fn new(
        inner: &'a mut S,
        log: &'a mut SpanLog,
        call: &'static str,
        commit: &'static str,
    ) -> Self {
        Traced {
            inner,
            log,
            call,
            commit,
            op: 0,
            parent: None,
            rows_returned: 0,
        }
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut S) -> R) -> R {
        let start = self.log.now();
        let r = f(self.inner);
        let end = self.log.now();
        self.log.record(name, self.op, self.parent, start, end);
        r
    }

    fn rows(&mut self, r: IfdbResult<ResultSet>) -> IfdbResult<ResultSet> {
        if let Ok(rs) = &r {
            self.rows_returned += rs.len() as u64;
        }
        r
    }
}

impl<S: SessionApi> SessionApi for Traced<'_, S> {
    fn select(&mut self, q: &Select) -> IfdbResult<ResultSet> {
        let r = self.timed(self.call, |s| s.select(q));
        self.rows(r)
    }
    fn select_join(&mut self, join: &Join) -> IfdbResult<ResultSet> {
        let r = self.timed(self.call, |s| s.select_join(join));
        self.rows(r)
    }
    fn select_aggregate(&mut self, agg: &Aggregate) -> IfdbResult<ResultSet> {
        let r = self.timed(self.call, |s| s.select_aggregate(agg));
        self.rows(r)
    }
    fn insert(&mut self, ins: &Insert) -> IfdbResult<()> {
        self.timed(self.call, |s| s.insert(ins))
    }
    fn update(&mut self, upd: &Update) -> IfdbResult<usize> {
        self.timed(self.call, |s| s.update(upd))
    }
    fn delete(&mut self, del: &Delete) -> IfdbResult<usize> {
        self.timed(self.call, |s| s.delete(del))
    }
    fn begin(&mut self) -> IfdbResult<()> {
        self.timed(self.call, |s| s.begin())
    }
    fn commit(&mut self) -> IfdbResult<()> {
        self.timed(self.commit, |s| s.commit())
    }
    fn abort(&mut self) -> IfdbResult<()> {
        self.timed(self.call, |s| s.abort())
    }
    fn in_transaction(&self) -> bool {
        self.inner.in_transaction()
    }
    fn add_secrecy(&mut self, tag: TagId) -> IfdbResult<()> {
        self.timed(self.call, |s| s.add_secrecy(tag))
    }
    fn raise_label(&mut self, other: &Label) -> IfdbResult<()> {
        self.timed(self.call, |s| s.raise_label(other))
    }
    fn declassify(&mut self, tag: TagId) -> IfdbResult<()> {
        self.timed(self.call, |s| s.declassify(tag))
    }
    fn declassify_all(&mut self, tags: &Label) -> IfdbResult<()> {
        self.timed(self.call, |s| s.declassify_all(tags))
    }
    fn delegate(&mut self, grantee: PrincipalId, tag: TagId) -> IfdbResult<()> {
        self.timed(self.call, |s| s.delegate(grantee, tag))
    }
    fn call_procedure(&mut self, name: &str, args: &[Datum]) -> IfdbResult<ResultSet> {
        let r = self.timed(self.call, |s| s.call_procedure(name, args));
        self.rows(r)
    }
    fn principal(&self) -> PrincipalId {
        self.inner.principal()
    }
    fn current_label(&self) -> Label {
        self.inner.current_label()
    }
    fn check_release_to_world(&self) -> IfdbResult<()> {
        self.inner.check_release_to_world()
    }
    fn execute_batch(&mut self, stmts: &[Statement]) -> Vec<IfdbResult<StatementResult>> {
        let results = self.timed(self.call, |s| s.execute_batch(stmts));
        for r in results.iter().flatten() {
            if let StatementResult::Rows(rs) = r {
                self.rows_returned += rs.len() as u64;
            }
        }
        results
    }
}
