//! Dependency-free observability: hierarchical spans, named points, and a
//! JSON-lines event stream.
//!
//! The paper's argument is quantitative — per-GPU busy/idle time, scheduler
//! overhead, memory-traffic ablations (Figs 4–6) — so the runtime needs a
//! measurement substrate rather than ad-hoc accounting per figure. This
//! module provides one with no external crates (builds stay offline):
//!
//! * [`Obs`] — a cheap cloneable handle. [`Obs::disabled`] is a no-op sink
//!   (a `None` inner; every record call is one branch), so hot paths take
//!   `&Obs` unconditionally.
//! * [`Obs::span`] — RAII wall-clock spans. Nesting is tracked per thread,
//!   so a span records its slash-joined `path` ("discover/greedy_iter").
//! * [`Obs::point`] — a named point event with typed fields; this is how
//!   per-iteration metrics (`scan_ns`, `combos_scored`, per-rank
//!   `busy_ns`/`idle_ns`, `partition_ns`, ...) enter the stream. Every
//!   number is recorded once, as a field of the point that produced it;
//!   [`Obs::sum`] and [`RunReport`] total the fields on demand.
//! * [`Event`] — hand-rolled JSON-lines serialization and parsing, so the
//!   stream round-trips without serde.
//! * [`RunReport`] — the aggregate view consumers (the CLI, the bench
//!   figure harness) build from an event stream.

use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Values and events
// ---------------------------------------------------------------------------

/// A typed field value carried by an [`Event`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer (counters, nanosecond durations, indices).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (rates, utilizations, seconds).
    F64(f64),
    /// String (names, modes).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl Value {
    /// The value as `u64`, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (integers convert).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// What kind of record an [`Event`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A completed timing span.
    Span,
    /// A named metrics point (one row of per-iteration / per-rank data).
    Point,
}

impl EventKind {
    /// Wire name in the JSON `type` field.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Point => "point",
        }
    }

    /// Parse the wire name back.
    #[must_use]
    pub fn from_wire(s: &str) -> Option<Self> {
        match s {
            "span" => Some(EventKind::Span),
            "point" => Some(EventKind::Point),
            _ => None,
        }
    }
}

/// One record of the observability stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Record kind.
    pub kind: EventKind,
    /// Event name (span name or point name).
    pub name: String,
    /// Ordered typed fields.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Look up a field by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field as `u64` (missing or mistyped → `None`).
    #[must_use]
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Value::as_u64)
    }

    /// Field as `f64`.
    #[must_use]
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Value::as_f64)
    }

    /// Field as a string slice.
    #[must_use]
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }

    /// Serialize as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 16 * self.fields.len());
        out.push_str("{\"type\":\"");
        out.push_str(self.kind.wire_name());
        out.push_str("\",\"name\":\"");
        escape_json(&self.name, &mut out);
        out.push('"');
        for (k, v) in &self.fields {
            out.push(',');
            out.push('"');
            escape_json(k, &mut out);
            out.push_str("\":");
            write_value(v, &mut out);
        }
        out.push('}');
        out
    }

    /// Parse one JSON line produced by [`Event::to_json`].
    ///
    /// # Errors
    /// Returns a description of the first syntax problem.
    pub fn from_json(line: &str) -> Result<Event, String> {
        let pairs = parse_json_object(line)?;
        let mut kind = None;
        let mut name = None;
        let mut fields = Vec::with_capacity(pairs.len().saturating_sub(2));
        for (k, v) in pairs {
            match (k.as_str(), &v) {
                ("type", Value::Str(s)) => {
                    kind =
                        Some(EventKind::from_wire(s).ok_or_else(|| format!("unknown type {s:?}"))?);
                }
                ("name", Value::Str(s)) => name = Some(s.clone()),
                _ => fields.push((k, v)),
            }
        }
        Ok(Event {
            kind: kind.ok_or("missing \"type\"")?,
            name: name.ok_or("missing \"name\"")?,
            fields,
        })
    }
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => {
            if f.is_finite() {
                // {:?} keeps a decimal point or exponent, so the parser
                // reads the token back as a float and round-trips exactly.
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => {
            out.push('"');
            escape_json(s, out);
            out.push('"');
        }
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Serialize a flat key/value list as one JSON object line (no trailing
/// newline) — the same shape [`Event::to_json`] writes and
/// [`parse_json_object`] reads back. The serving protocol reuses this for
/// its request/response lines so the repo carries exactly one JSON codec.
#[must_use]
pub fn json_object(pairs: &[(String, Value)]) -> String {
    let mut out = String::with_capacity(16 + 16 * pairs.len());
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(k, &mut out);
        out.push_str("\":");
        write_value(v, &mut out);
    }
    out.push('}');
    out
}

/// Clamp a possibly non-finite reported ratio to something finite (0.0).
///
/// The wire format writes non-finite `f64` as `null` and parses `null`
/// back as NaN, so any ratio read from a stream can be NaN even though
/// in-process producers never emit one. Every `RunReport` ratio field is
/// routed through this so downstream arithmetic (means, JSON re-emission,
/// bench gates) never sees NaN/∞.
#[inline]
#[must_use]
pub fn finite_or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Parse a flat JSON object of scalar values (the only shape this stream —
/// and the serving wire protocol — emits). Returns the key/value pairs in
/// input order. JSON `null` parses as [`Value::F64`]`(NAN)`; consumers that
/// report ratios must pass such fields through [`finite_or_zero`].
///
/// # Errors
/// Returns a description of the first syntax problem.
pub fn parse_json_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut chars = line.trim().char_indices().peekable();
    let src = line.trim();
    let mut pairs = Vec::new();
    let next_non_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices>| loop {
        match chars.next() {
            Some((_, c)) if c.is_whitespace() => {}
            other => return other,
        }
    };
    match next_non_ws(&mut chars) {
        Some((_, '{')) => {}
        _ => return Err("expected '{'".into()),
    }
    loop {
        match next_non_ws(&mut chars) {
            Some((_, '}')) => return Ok(pairs),
            Some((_, '"')) => {
                let key = parse_string_body(src, &mut chars)?;
                match next_non_ws(&mut chars) {
                    Some((_, ':')) => {}
                    _ => return Err(format!("expected ':' after key {key:?}")),
                }
                let value = parse_value(src, &mut chars)?;
                pairs.push((key, value));
                match next_non_ws(&mut chars) {
                    Some((_, ',')) => {}
                    Some((_, '}')) => return Ok(pairs),
                    _ => return Err("expected ',' or '}'".into()),
                }
            }
            Some((_, ',')) if pairs.is_empty() => return Err("leading comma".into()),
            other => return Err(format!("unexpected token {other:?}")),
        }
    }
}

/// Consume a string body (opening quote already consumed); returns the
/// unescaped string.
fn parse_string_body(
    src: &str,
    chars: &mut std::iter::Peekable<std::str::CharIndices>,
) -> Result<String, String> {
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                        code = code * 16 + h.to_digit(16).ok_or("bad \\u escape")?;
                    }
                    out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                }
                other => return Err(format!("bad escape {other:?} in {src:?}")),
            },
            Some((_, c)) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

fn parse_value(
    src: &str,
    chars: &mut std::iter::Peekable<std::str::CharIndices>,
) -> Result<Value, String> {
    // Skip whitespace.
    while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
        chars.next();
    }
    match chars.peek().copied() {
        Some((_, '"')) => {
            chars.next();
            parse_string_body(src, chars).map(Value::Str)
        }
        Some((_, 't')) => {
            expect_word(chars, "true")?;
            Ok(Value::Bool(true))
        }
        Some((_, 'f')) => {
            expect_word(chars, "false")?;
            Ok(Value::Bool(false))
        }
        Some((_, 'n')) => {
            expect_word(chars, "null")?;
            Ok(Value::F64(f64::NAN))
        }
        Some((start, c)) if c == '-' || c.is_ascii_digit() => {
            let mut end = start;
            let mut float = false;
            while let Some(&(j, c)) = chars.peek() {
                match c {
                    '0'..='9' | '-' | '+' => {}
                    '.' | 'e' | 'E' => float = true,
                    _ => break,
                }
                end = j + c.len_utf8();
                chars.next();
            }
            let tok = &src[start..end];
            if float {
                tok.parse::<f64>()
                    .map(Value::F64)
                    .map_err(|e| format!("bad number {tok:?}: {e}"))
            } else if tok.starts_with('-') {
                tok.parse::<i64>()
                    .map(Value::I64)
                    .map_err(|e| format!("bad number {tok:?}: {e}"))
            } else {
                tok.parse::<u64>()
                    .map(Value::U64)
                    .map_err(|e| format!("bad number {tok:?}: {e}"))
            }
        }
        other => Err(format!("unexpected value start {other:?}")),
    }
}

fn expect_word(
    chars: &mut std::iter::Peekable<std::str::CharIndices>,
    word: &str,
) -> Result<(), String> {
    for expect in word.chars() {
        match chars.next() {
            Some((_, c)) if c == expect => {}
            other => return Err(format!("expected {word:?}, found {other:?}")),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The Obs handle
// ---------------------------------------------------------------------------

struct Inner {
    trace: bool,
    events: Mutex<Vec<Event>>,
}

/// Cloneable observability handle. Disabled handles make every record call
/// a single branch, so instrumented code paths take `&Obs` unconditionally.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

thread_local! {
    static SPAN_STACK: std::cell::RefCell<Vec<String>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl Obs {
    /// A no-op sink.
    #[must_use]
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// An enabled collector.
    #[must_use]
    pub fn enabled() -> Obs {
        Obs::collecting(false)
    }

    /// An enabled collector that also prints each record to stderr as it
    /// completes (the CLI's `--trace`).
    #[must_use]
    pub fn with_trace() -> Obs {
        Obs::collecting(true)
    }

    fn collecting(trace: bool) -> Obs {
        Obs {
            inner: Some(Arc::new(Inner {
                trace,
                events: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether records are collected.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Run `f` on the recorded events (the default value when disabled).
    fn with_events<R: Default>(&self, f: impl FnOnce(&mut Vec<Event>) -> R) -> R {
        self.inner.as_ref().map_or_else(R::default, |inner| {
            f(&mut inner.events.lock().expect("obs events poisoned"))
        })
    }

    fn record(&self, event: Event) {
        if self.inner.as_ref().is_some_and(|inner| inner.trace) {
            eprintln!("[obs] {}", event.to_json());
        }
        self.with_events(|events| events.push(event));
    }

    /// Open a wall-clock span; it records itself on drop. Nested spans on
    /// the same thread record slash-joined paths.
    #[must_use]
    pub fn span(&self, name: &str) -> SpanGuard {
        if self.inner.is_some() {
            SPAN_STACK.with(|s| s.borrow_mut().push(name.to_string()));
        }
        SpanGuard {
            obs: self.clone(),
            start: Instant::now(),
        }
    }

    /// Record a named metrics point.
    pub fn point(&self, name: &str, fields: &[(&str, Value)]) {
        if self.inner.is_some() {
            self.record(Event {
                kind: EventKind::Point,
                name: name.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.clone()))
                    .collect(),
            });
        }
    }

    /// Total of `field` over every recorded point named `point` (0 when
    /// absent or disabled).
    #[must_use]
    pub fn sum(&self, point: &str, field: &str) -> u64 {
        self.with_events(|events| {
            let points = events
                .iter()
                .filter(|e| e.kind == EventKind::Point && e.name == point);
            points.filter_map(|e| e.u64(field)).sum()
        })
    }

    /// Snapshot of recorded events (in record order).
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.with_events(|events| events.clone())
    }

    /// The full stream as JSON lines, one event per line in record order.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        self.with_events(|events| events.iter().map(|e| e.to_json() + "\n").collect())
    }

    /// Write the JSON-lines stream to a file.
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    pub fn write_json_lines(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_lines())
    }
}

/// RAII guard returned by [`Obs::span`].
pub struct SpanGuard {
    obs: Obs,
    start: Instant,
}

impl SpanGuard {
    /// Elapsed time so far, nanoseconds.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.obs.is_enabled() {
            return;
        }
        let dur_ns = self.elapsed_ns();
        let (name, path) = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let name = stack.pop().unwrap_or_default();
            let mut path = stack.join("/");
            if path.is_empty() {
                path = name.clone();
            } else {
                path.push('/');
                path.push_str(&name);
            }
            (name, path)
        });
        self.obs.record(Event {
            kind: EventKind::Span,
            name,
            fields: vec![
                ("path".to_string(), Value::Str(path)),
                ("dur_ns".to_string(), Value::U64(dur_ns)),
            ],
        });
    }
}

// ---------------------------------------------------------------------------
// RunReport: the aggregate consumers build from the stream
// ---------------------------------------------------------------------------

/// One greedy iteration's metrics (from `greedy_iter` points).
#[derive(Clone, Debug, PartialEq)]
pub struct GreedyIterReport {
    /// Iteration index.
    pub iter: u64,
    /// Wall time of the argmax scan, nanoseconds.
    pub scan_ns: u64,
    /// The size of the iteration's enumeration, `C(G,H)` over the genes it
    /// searched: what an exhaustive scan would score, whether or not this
    /// iteration scanned at all. See `scan_scored` for what was scored.
    pub combos_scored: u64,
    /// `combos_scored` per second of `scan_ns`.
    pub combos_per_sec: f64,
    /// Tumor samples newly covered.
    pub newly_covered: u64,
    /// Tumor samples still uncovered.
    pub remaining: u64,
    /// Combinations the scan actually scored: at most `combos_scored` when
    /// branch-and-bound pruning is on, and 0 when the frontier answered
    /// without a scan (and on streams from older versions).
    pub scan_scored: u64,
    /// Combinations eliminated without scoring by the F upper bound.
    pub pruned_combos: u64,
    /// Subtrees eliminated by the F upper bound.
    pub pruned_subtrees: u64,
    /// λ-blocks dispatched by the work-stealing cursor.
    pub steal_blocks: u64,
    /// Blocks beyond each worker's first.
    pub steals: u64,
    /// 1 when the lazy-greedy frontier proved the argmax and the full scan
    /// was skipped (0 on full rescans and on streams from older versions).
    pub frontier_hit: u64,
    /// Frontier members rescored this iteration.
    pub frontier_rescored: u64,
    /// All-zero words the sparse scan skipped (0 on dense scans and on
    /// streams from older versions).
    pub words_skipped: u64,
    /// Level-0 block-kernel invocations (0 with `--no-block-sweep` and on
    /// streams from older versions).
    pub block_sweeps: u64,
    /// Candidate rows scored through the block kernels.
    pub swept_rows: u64,
}

/// The instance-reduction summary (from the `kernelize` point).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelizeReport {
    /// Reduction wall time, nanoseconds.
    pub kernelize_ns: u64,
    /// Genes before reduction.
    pub orig_genes: u64,
    /// Genes surviving reduction.
    pub kept_genes: u64,
    /// Genes removed for an all-zero tumor row.
    pub useless_genes: u64,
    /// Genes removed by the ≥H-dominators rule.
    pub dominated_genes: u64,
    /// Uncoverable tumor columns removed.
    pub zero_tumor_cols: u64,
    /// All-zero normal columns removed (uniform TN shift).
    pub zero_normal_cols: u64,
    /// All-ones normal columns removed (no shift).
    pub ones_normal_cols: u64,
    /// All-ones tumor columns detected (not removed).
    pub forced_tumor_cols: u64,
    /// Duplicate nonzero tumor columns detected (not removed).
    pub dup_tumor_cols: u64,
    /// Fraction of genes removed.
    pub gene_reduction: f64,
}

/// One rank's aggregated busy/idle attribution (from `rank` points).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankReport {
    /// Busy time (concurrent-kernel wall + communication), nanoseconds.
    pub busy_ns: u64,
    /// Idle time, nanoseconds.
    pub idle_ns: u64,
    /// Communication share of busy time, nanoseconds.
    pub comm_ns: u64,
    /// Summed per-GPU kernel time of the rank, nanoseconds (exceeds wall
    /// time when the rank's GPUs run concurrently).
    pub kernel_ns: u64,
}

/// One injected fault (from `fault` points).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultReport {
    /// Fault kind (`rank_kill`, `msg_drop`, `ckpt_bitflip`, `node_failure`, …).
    pub kind: String,
    /// Iteration the fault fired in.
    pub iter: u64,
}

/// One recovery event (from `recovery` points): a driver re-execution after
/// a failed iteration attempt, a checkpoint fallback to the backup copy, or
/// a modeled-failure cost summary.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryReport {
    /// Recovery kind: `rank_recovery` (driver re-execution), `ckpt_fallback`,
    /// or `modeled`.
    pub kind: String,
    /// Iteration the recovery happened in (0 for stream-level events).
    pub iter: u64,
    /// Ranks newly declared dead by this recovery step.
    pub dead: u64,
    /// Ranks still alive afterwards.
    pub survivors: u64,
    /// λ-work (combinations) discarded and re-executed.
    pub re_executed_combos: u64,
}

/// One membership epoch (from `membership` points): ranks admitted to the
/// roster at an iteration barrier, and what the admission moved.
#[derive(Clone, Debug, PartialEq)]
pub struct MembershipReport {
    /// Iteration barrier the epoch began at.
    pub iter: u64,
    /// Epoch number after the admission (1-based).
    pub epoch: u64,
    /// Ranks admitted in this epoch.
    pub joined: u64,
    /// Roster size after the admission.
    pub roster: u64,
    /// 1 when the join was incremental (boundary slab moves); 0 when it
    /// degraded to a full re-shard.
    pub incremental: bool,
    /// Boundary slabs moved to the joiners.
    pub slab_moves: u64,
    /// Total λ-area of the moved slabs.
    pub moved_area: u64,
}

/// Per-tenant admission totals, from the `serve_tenant` points the server
/// emits at shutdown (one per tenant seen by admission control).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant id (the wire's `tenant` field).
    pub tenant: u64,
    /// Requests that passed the tenant's fair-share gate.
    pub admitted: u64,
    /// Requests shed at admission because the tenant's budget was spent.
    pub shed: u64,
}

/// Aggregated serving-layer metrics: what `Server::shutdown` returns, and
/// what [`RunReport::from_events`] rebuilds from the one `serve_summary`
/// point (plus one `serve_tenant` point per tenant) shutdown emits.
///
/// All ratio accessors are zero-guarded: an empty or summary-less stream
/// reports 0.0 everywhere, never NaN.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeReport {
    /// Requests admitted or shed (everything that reached admission).
    pub requests: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests rejected by shedding — over-budget tenants plus queue-full
    /// overflow.
    pub shed: u64,
    /// The subset of [`Self::shed`] rejected by per-tenant admission
    /// control, before any queue was probed.
    pub admission_shed: u64,
    /// Requests failed with an error response.
    pub errors: u64,
    /// Ok responses served from the signature cache.
    pub cache_hits: u64,
    /// Dead-generation cache entries purged after registry hot swaps.
    pub stale_evictions: u64,
    /// Scoring batches executed.
    pub batches: u64,
    /// Requests drained into batches, cache hits included.
    pub batched_samples: u64,
    /// Configured batch-size ceiling (denominator of [`Self::mean_batch_fill`]).
    pub batch_max: u64,
    /// Deepest queue observed at batch formation.
    pub max_queue_depth: u64,
    /// Nanoseconds the shards spent probing caches and scoring batches.
    pub score_ns: u64,
    /// Front-end connections accepted over the serving window.
    pub conn_accepted: u64,
    /// Front-end connections closed (drained) over the serving window.
    pub conn_closed: u64,
    /// Binary frames decoded by the front end.
    pub frames_decoded: u64,
    /// Registry hot swaps published while serving.
    pub swaps: u64,
    /// Swaps that arrived as publish control frames (discover→serve).
    pub publishes: u64,
    /// Reactor event-loop iterations (0 for in-process serving).
    pub reactor_loops: u64,
    /// Nanoseconds the reactors spent processing ready events (vs parked
    /// in the poller).
    pub reactor_busy_ns: u64,
    /// Median request latency, nanoseconds.
    pub p50_latency_ns: u64,
    /// 95th-percentile request latency, nanoseconds.
    pub p95_latency_ns: u64,
    /// 99th-percentile request latency, nanoseconds.
    pub p99_latency_ns: u64,
    /// Sustained ok-responses per second over the serving window.
    pub throughput_rps: f64,
    /// Per-tenant admission totals, in tenant order (empty when admission
    /// control is disabled).
    pub tenants: Vec<TenantReport>,
}

impl ServeReport {
    /// Fraction of ok responses served from the cache (0.0 with no traffic).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            finite_or_zero(self.cache_hits as f64 / self.ok as f64)
        }
    }

    /// Mean batch occupancy relative to the configured ceiling
    /// (0.0 with no batches or an unknown ceiling).
    #[must_use]
    pub fn mean_batch_fill(&self) -> f64 {
        let denom = self.batches.saturating_mul(self.batch_max);
        if denom == 0 {
            0.0
        } else {
            finite_or_zero(self.batched_samples as f64 / denom as f64)
        }
    }
}

/// Aggregated view of one observability stream.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Greedy iterations in order.
    pub greedy_iters: Vec<GreedyIterReport>,
    /// Per-rank totals across iterations, indexed by rank.
    pub ranks: Vec<RankReport>,
    /// Scheduler partition times, nanoseconds, in call order.
    pub partition_ns: Vec<u64>,
    /// Checkpoint save durations, nanoseconds.
    pub checkpoint_ns: Vec<u64>,
    /// Iteration makespans (from `timeline_iter` points), nanoseconds.
    pub makespan_ns: Vec<u64>,
    /// Injected faults in firing order (empty for fault-free runs).
    pub faults: Vec<FaultReport>,
    /// Recovery events in order (empty for fault-free runs).
    pub recoveries: Vec<RecoveryReport>,
    /// Membership epochs in order (empty for fixed-roster runs).
    pub memberships: Vec<MembershipReport>,
    /// Serving-layer aggregates (all-zero for non-serving runs).
    pub serve: ServeReport,
    /// Instance-reduction summary (None when kernelization did not run).
    pub kernelize: Option<KernelizeReport>,
    /// Message retransmissions by the fault-tolerant collectives (from the
    /// end-of-run `ft` point; 0 on clean runs).
    retransmits: u64,
}

impl RunReport {
    /// Build from parsed events.
    #[must_use]
    pub fn from_events(events: &[Event]) -> RunReport {
        let mut r = RunReport::default();
        for e in events {
            match (e.kind, e.name.as_str()) {
                (EventKind::Point, "greedy_iter") => {
                    r.greedy_iters.push(GreedyIterReport {
                        iter: e.u64("iter").unwrap_or(0),
                        scan_ns: e.u64("scan_ns").unwrap_or(0),
                        combos_scored: e.u64("combos_scored").unwrap_or(0),
                        // `null` on the wire parses as NaN; keep the report
                        // finite (regression: NaN used to flow through here).
                        combos_per_sec: finite_or_zero(e.f64("combos_per_sec").unwrap_or(0.0)),
                        newly_covered: e.u64("newly_covered").unwrap_or(0),
                        remaining: e.u64("remaining").unwrap_or(0),
                        scan_scored: e.u64("scan_scored").unwrap_or(0),
                        pruned_combos: e.u64("pruned_combos").unwrap_or(0),
                        pruned_subtrees: e.u64("pruned_subtrees").unwrap_or(0),
                        steal_blocks: e.u64("steal_blocks").unwrap_or(0),
                        steals: e.u64("steals").unwrap_or(0),
                        frontier_hit: e.u64("frontier_hit").unwrap_or(0),
                        frontier_rescored: e.u64("frontier_rescored").unwrap_or(0),
                        words_skipped: e.u64("words_skipped").unwrap_or(0),
                        block_sweeps: e.u64("block_sweeps").unwrap_or(0),
                        swept_rows: e.u64("swept_rows").unwrap_or(0),
                    });
                }
                (EventKind::Point, "kernelize") => {
                    r.kernelize = Some(KernelizeReport {
                        kernelize_ns: e.u64("kernelize_ns").unwrap_or(0),
                        orig_genes: e.u64("orig_genes").unwrap_or(0),
                        kept_genes: e.u64("kept_genes").unwrap_or(0),
                        useless_genes: e.u64("useless_genes").unwrap_or(0),
                        dominated_genes: e.u64("dominated_genes").unwrap_or(0),
                        zero_tumor_cols: e.u64("zero_tumor_cols").unwrap_or(0),
                        zero_normal_cols: e.u64("zero_normal_cols").unwrap_or(0),
                        ones_normal_cols: e.u64("ones_normal_cols").unwrap_or(0),
                        forced_tumor_cols: e.u64("forced_tumor_cols").unwrap_or(0),
                        dup_tumor_cols: e.u64("dup_tumor_cols").unwrap_or(0),
                        gene_reduction: finite_or_zero(e.f64("gene_reduction").unwrap_or(0.0)),
                    });
                }
                (EventKind::Point, "rank") => {
                    let rank = e.u64("rank").unwrap_or(0) as usize;
                    if r.ranks.len() <= rank {
                        r.ranks.resize(rank + 1, RankReport::default());
                    }
                    let slot = &mut r.ranks[rank];
                    slot.busy_ns += e.u64("busy_ns").unwrap_or(0);
                    slot.idle_ns += e.u64("idle_ns").unwrap_or(0);
                    slot.comm_ns += e.u64("comm_ns").unwrap_or(0);
                    slot.kernel_ns += e.u64("kernel_ns").unwrap_or(0);
                }
                (EventKind::Point, "sched_partition") => {
                    r.partition_ns.push(e.u64("partition_ns").unwrap_or(0));
                }
                (EventKind::Point, "checkpoint") => {
                    r.checkpoint_ns.push(e.u64("save_ns").unwrap_or(0));
                }
                (EventKind::Point, "timeline_iter") => {
                    r.makespan_ns.push(e.u64("makespan_ns").unwrap_or(0));
                }
                (EventKind::Point, "fault") => {
                    r.faults.push(FaultReport {
                        kind: e.str("kind").unwrap_or("unknown").to_string(),
                        iter: e.u64("iter").unwrap_or(0),
                    });
                }
                (EventKind::Point, "recovery") => {
                    // Driver re-execution points carry no `kind` field.
                    r.recoveries.push(RecoveryReport {
                        kind: e.str("kind").unwrap_or("rank_recovery").to_string(),
                        iter: e.u64("iter").unwrap_or(0),
                        dead: e.u64("dead").unwrap_or(0),
                        survivors: e.u64("survivors").unwrap_or(0),
                        re_executed_combos: e.u64("re_executed_combos").unwrap_or(0),
                    });
                }
                (EventKind::Point, "membership") => {
                    r.memberships.push(MembershipReport {
                        iter: e.u64("iter").unwrap_or(0),
                        epoch: e.u64("epoch").unwrap_or(0),
                        joined: e.u64("joined").unwrap_or(0),
                        roster: e.u64("roster").unwrap_or(0),
                        incremental: e.u64("incremental").unwrap_or(0) != 0,
                        slab_moves: e.u64("slab_moves").unwrap_or(0),
                        moved_area: e.u64("moved_area").unwrap_or(0),
                    });
                }
                (EventKind::Point, "ft") => {
                    r.retransmits += e.u64("retransmits").unwrap_or(0);
                }
                (EventKind::Point, "serve_summary") => {
                    r.serve.requests = e.u64("requests").unwrap_or(0);
                    r.serve.ok = e.u64("ok").unwrap_or(0);
                    r.serve.shed = e.u64("shed").unwrap_or(0);
                    r.serve.admission_shed = e.u64("admission_shed").unwrap_or(0);
                    r.serve.errors = e.u64("errors").unwrap_or(0);
                    r.serve.cache_hits = e.u64("cache_hits").unwrap_or(0);
                    r.serve.stale_evictions = e.u64("stale_evictions").unwrap_or(0);
                    r.serve.batches = e.u64("batches").unwrap_or(0);
                    r.serve.batched_samples = e.u64("batched_samples").unwrap_or(0);
                    r.serve.batch_max = e.u64("batch_max").unwrap_or(0);
                    r.serve.max_queue_depth = e.u64("max_queue_depth").unwrap_or(0);
                    r.serve.score_ns = e.u64("score_ns").unwrap_or(0);
                    r.serve.conn_accepted = e.u64("conn_accepted").unwrap_or(0);
                    r.serve.conn_closed = e.u64("conn_closed").unwrap_or(0);
                    r.serve.frames_decoded = e.u64("frames_decoded").unwrap_or(0);
                    r.serve.swaps = e.u64("swaps").unwrap_or(0);
                    r.serve.publishes = e.u64("publishes").unwrap_or(0);
                    r.serve.reactor_loops = e.u64("reactor_loops").unwrap_or(0);
                    r.serve.reactor_busy_ns = e.u64("reactor_busy_ns").unwrap_or(0);
                    r.serve.p50_latency_ns = e.u64("p50_latency_ns").unwrap_or(0);
                    r.serve.p95_latency_ns = e.u64("p95_latency_ns").unwrap_or(0);
                    r.serve.p99_latency_ns = e.u64("p99_latency_ns").unwrap_or(0);
                    r.serve.throughput_rps = finite_or_zero(e.f64("throughput_rps").unwrap_or(0.0));
                }
                (EventKind::Point, "serve_tenant") => {
                    // One point per tenant; an idempotent second shutdown
                    // re-emits the same tenants, so replace, don't append.
                    let tenant = e.u64("tenant").unwrap_or(0);
                    let entry = TenantReport {
                        tenant,
                        admitted: e.u64("admitted").unwrap_or(0),
                        shed: e.u64("shed").unwrap_or(0),
                    };
                    match r.serve.tenants.iter_mut().find(|t| t.tenant == tenant) {
                        Some(slot) => *slot = entry,
                        None => r.serve.tenants.push(entry),
                    }
                }
                _ => {}
            }
        }
        r
    }

    /// Build from a JSON-lines stream (blank lines skipped).
    ///
    /// # Errors
    /// Returns the first line that fails to parse.
    pub fn from_json_lines(text: &str) -> Result<RunReport, String> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            events.push(Event::from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(RunReport::from_events(&events))
    }

    /// Total scan time across greedy iterations, nanoseconds.
    #[must_use]
    pub fn total_scan_ns(&self) -> u64 {
        self.greedy_iters.iter().map(|i| i.scan_ns).sum()
    }

    /// Total combinations the scans scored across greedy iterations (an
    /// iteration the frontier answered scored none).
    #[must_use]
    pub fn total_combos_scored(&self) -> u64 {
        self.greedy_iters.iter().map(|i| i.scan_scored).sum()
    }

    /// Total combinations the F upper bound eliminated without scoring.
    #[must_use]
    pub fn total_pruned_combos(&self) -> u64 {
        self.greedy_iters.iter().map(|i| i.pruned_combos).sum()
    }

    /// Fraction of the combinations the scans enumerated that the bound
    /// pruned, across the run (0.0 when no scan enumerated anything).
    #[must_use]
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.total_combos_scored() + self.total_pruned_combos();
        if total == 0 {
            0.0
        } else {
            self.total_pruned_combos() as f64 / total as f64
        }
    }

    /// Total work-stealing blocks dispatched across greedy iterations.
    #[must_use]
    pub fn total_steal_blocks(&self) -> u64 {
        self.greedy_iters.iter().map(|i| i.steal_blocks).sum()
    }

    /// Iterations whose argmax the lazy-greedy frontier proved without a
    /// full scan.
    #[must_use]
    pub fn frontier_hits(&self) -> u64 {
        self.greedy_iters.iter().map(|i| i.frontier_hit).sum()
    }

    /// Iterations that fell back to (or started with) a full scan.
    #[must_use]
    pub fn full_rescans(&self) -> u64 {
        self.greedy_iters.len() as u64 - self.frontier_hits()
    }

    /// Total frontier members rescored across iterations.
    #[must_use]
    pub fn total_frontier_rescored(&self) -> u64 {
        self.greedy_iters.iter().map(|i| i.frontier_rescored).sum()
    }

    /// Total all-zero words the sparse scan skipped across iterations.
    #[must_use]
    pub fn total_words_skipped(&self) -> u64 {
        self.greedy_iters.iter().map(|i| i.words_skipped).sum()
    }

    /// Fraction of iterations the frontier skipped the full scan (0.0 on
    /// empty runs).
    #[must_use]
    pub fn frontier_hit_rate(&self) -> f64 {
        finite_or_zero(self.frontier_hits() as f64 / self.greedy_iters.len() as f64)
    }

    /// Rank busy-time imbalance: max busy / mean busy (1.0 = balanced,
    /// 0.0 when no rank data). This is the Fig 4 quantity.
    #[must_use]
    pub fn rank_imbalance(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        let busy: Vec<f64> = self.ranks.iter().map(|r| r.busy_ns as f64).collect();
        let max = busy.iter().copied().fold(0.0f64, f64::max);
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean
        }
    }

    /// Mean rank utilization: busy / (busy + idle), 0.0 without rank data.
    #[must_use]
    pub fn mean_rank_utilization(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .ranks
            .iter()
            .map(|r| {
                let denom = (r.busy_ns + r.idle_ns) as f64;
                if denom == 0.0 {
                    0.0
                } else {
                    r.busy_ns as f64 / denom
                }
            })
            .sum();
        total / self.ranks.len() as f64
    }

    /// Total λ-work (combinations) discarded and re-executed by recovery.
    #[must_use]
    pub fn re_executed_combos(&self) -> u64 {
        self.recoveries.iter().map(|r| r.re_executed_combos).sum()
    }

    /// Ranks declared dead across the run.
    #[must_use]
    pub fn dead_ranks(&self) -> u64 {
        self.recoveries
            .iter()
            .filter(|r| r.kind == "rank_recovery")
            .map(|r| r.dead)
            .sum()
    }

    /// Ranks admitted to the roster mid-run across all membership epochs.
    #[must_use]
    pub fn joined_ranks(&self) -> u64 {
        self.memberships.iter().map(|m| m.joined).sum()
    }

    /// Membership epochs begun during the run.
    #[must_use]
    pub fn membership_epochs(&self) -> u64 {
        self.memberships.len() as u64
    }

    /// Checkpoint loads that fell back to the backup copy.
    #[must_use]
    pub fn ckpt_fallbacks(&self) -> u64 {
        self.recoveries
            .iter()
            .filter(|r| r.kind == "ckpt_fallback")
            .count() as u64
    }

    /// Message retransmissions performed by the fault-tolerant collectives
    /// (from the end-of-run `ft` point; 0 on clean runs).
    #[must_use]
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_is_inert() {
        let obs = Obs::disabled();
        obs.point("p", &[("a", Value::U64(1))]);
        {
            let _s = obs.span("outer");
        }
        assert!(!obs.is_enabled());
        assert_eq!(obs.sum("p", "a"), 0);
        assert!(obs.events().is_empty());
        assert!(obs.to_json_lines().is_empty());
    }

    #[test]
    fn spans_nest_and_time_monotonically() {
        let obs = Obs::enabled();
        {
            let _outer = obs.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = obs.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let events = obs.events();
        assert_eq!(events.len(), 2);
        // Inner drops first.
        assert_eq!(events[0].name, "inner");
        assert_eq!(
            events[0].get("path").unwrap().as_str().unwrap(),
            "outer/inner"
        );
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].get("path").unwrap().as_str().unwrap(), "outer");
        let inner_ns = events[0].u64("dur_ns").unwrap();
        let outer_ns = events[1].u64("dur_ns").unwrap();
        assert!(inner_ns > 0);
        assert!(outer_ns >= inner_ns, "outer {outer_ns} < inner {inner_ns}");
    }

    #[test]
    fn json_lines_round_trip() {
        let obs = Obs::enabled();
        obs.point(
            "greedy_iter",
            &[
                ("iter", Value::U64(0)),
                ("scan_ns", Value::U64(123_456)),
                ("combos_scored", Value::U64(19_411)),
                ("combos_per_sec", Value::F64(157_234.5)),
                ("exclusion", Value::Str("BitSplice".to_string())),
                ("capped", Value::Bool(false)),
            ],
        );
        let text = obs.to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let back = Event::from_json(lines[0]).unwrap();
        assert_eq!(back, obs.events()[0]);
    }

    #[test]
    fn json_escaping_round_trips() {
        let e = Event {
            kind: EventKind::Point,
            name: "weird \"name\"\twith\nstuff\\".to_string(),
            fields: vec![("k\u{1}".to_string(), Value::Str("v\"\\\n".to_string()))],
        };
        let back = Event::from_json(&e.to_json()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(Event::from_json("").is_err());
        assert!(Event::from_json("{").is_err());
        assert!(Event::from_json("{\"type\":\"span\"}").is_err());
        assert!(Event::from_json("{\"name\":\"x\",\"type\":\"nope\"}").is_err());
        assert!(Event::from_json("{\"type\":\"span\",\"name\":\"x\",\"v\":}").is_err());
    }

    #[test]
    fn run_report_aggregates_stream() {
        let obs = Obs::enabled();
        obs.point(
            "greedy_iter",
            &[
                ("iter", Value::U64(0)),
                ("scan_ns", Value::U64(1000)),
                ("combos_scored", Value::U64(500)),
                ("combos_per_sec", Value::F64(5e8)),
                ("scan_scored", Value::U64(120)),
                ("pruned_combos", Value::U64(380)),
                ("newly_covered", Value::U64(40)),
                ("remaining", Value::U64(10)),
                ("block_sweeps", Value::U64(30)),
                ("swept_rows", Value::U64(450)),
            ],
        );
        obs.point(
            "greedy_iter",
            &[
                ("iter", Value::U64(1)),
                ("scan_ns", Value::U64(800)),
                ("combos_scored", Value::U64(500)),
                ("combos_per_sec", Value::F64(6.25e8)),
                // A frontier hit: nothing enumerated.
                ("scan_scored", Value::U64(0)),
                ("pruned_combos", Value::U64(0)),
                ("newly_covered", Value::U64(10)),
                ("remaining", Value::U64(0)),
                ("block_sweeps", Value::U64(20)),
                ("swept_rows", Value::U64(350)),
            ],
        );
        for (rank, busy, idle) in [(0u64, 900u64, 100u64), (1, 600, 400)] {
            obs.point(
                "rank",
                &[
                    ("iter", Value::U64(0)),
                    ("rank", Value::U64(rank)),
                    ("busy_ns", Value::U64(busy)),
                    ("idle_ns", Value::U64(idle)),
                    ("comm_ns", Value::U64(5)),
                ],
            );
        }
        obs.point("sched_partition", &[("partition_ns", Value::U64(77))]);
        obs.point(
            "timeline_iter",
            &[("iter", Value::U64(0)), ("makespan_ns", Value::U64(1000))],
        );
        {
            // A span sharing a point's name is not part of that point's sum.
            let _s = obs.span("greedy_iter");
        }
        assert_eq!(obs.sum("greedy_iter", "scan_ns"), 1800);
        assert_eq!(obs.sum("rank", "comm_ns"), 10);
        assert_eq!(obs.sum("greedy_iter", "no_such_field"), 0);
        assert_eq!(obs.sum("no_such_point", "scan_ns"), 0);

        let report = RunReport::from_json_lines(&obs.to_json_lines()).unwrap();
        assert_eq!(report.greedy_iters.len(), 2);
        assert_eq!(report.total_scan_ns(), 1800);
        assert_eq!(report.total_combos_scored(), 120);
        assert!((report.pruned_fraction() - 0.76).abs() < 1e-12);
        assert_eq!(report.ranks.len(), 2);
        assert_eq!(report.ranks[0].busy_ns, 900);
        assert_eq!(report.partition_ns, vec![77]);
        assert_eq!(report.makespan_ns, vec![1000]);
        let imb = report.rank_imbalance();
        assert!((imb - 1.2).abs() < 1e-12, "imbalance {imb}");
        let util = report.mean_rank_utilization();
        assert!((util - 0.75).abs() < 1e-12, "utilization {util}");
        assert_eq!(report.greedy_iters[1].block_sweeps, 20);
        assert_eq!(report.greedy_iters[1].swept_rows, 350);
    }

    #[test]
    fn run_report_aggregates_faults_and_recoveries() {
        let obs = Obs::enabled();
        obs.point(
            "fault",
            &[
                ("kind", Value::Str("rank_kill".to_string())),
                ("iter", Value::U64(2)),
                ("rank", Value::U64(1)),
            ],
        );
        obs.point(
            "recovery",
            &[
                ("iter", Value::U64(2)),
                ("dead", Value::U64(1)),
                ("survivors", Value::U64(3)),
                ("re_executed_combos", Value::U64(4000)),
            ],
        );
        obs.point(
            "recovery",
            &[
                ("kind", Value::Str("ckpt_fallback".to_string())),
                ("error", Value::Str("bad crc".to_string())),
            ],
        );
        obs.point(
            "ft",
            &[("retransmits", Value::U64(3)), ("timeouts", Value::U64(1))],
        );

        let report = RunReport::from_json_lines(&obs.to_json_lines()).unwrap();
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].kind, "rank_kill");
        assert_eq!(report.faults[0].iter, 2);
        assert_eq!(report.recoveries.len(), 2);
        assert_eq!(report.recoveries[0].kind, "rank_recovery");
        assert_eq!(report.recoveries[0].survivors, 3);
        assert_eq!(report.re_executed_combos(), 4000);
        assert_eq!(report.dead_ranks(), 1);
        assert_eq!(report.ckpt_fallbacks(), 1);
        assert_eq!(report.retransmits(), 3);

        // A fault-free stream leaves the new fields empty.
        let clean = RunReport::from_events(&[]);
        assert!(clean.faults.is_empty() && clean.recoveries.is_empty());
        assert_eq!(clean.re_executed_combos(), 0);
        assert_eq!(clean.retransmits(), 0);
    }

    #[test]
    fn run_report_aggregates_membership_epochs() {
        let obs = Obs::enabled();
        obs.point(
            "membership",
            &[
                ("iter", Value::U64(1)),
                ("epoch", Value::U64(1)),
                ("joined", Value::U64(2)),
                ("roster", Value::U64(6)),
                ("incremental", Value::U64(1)),
                ("slab_moves", Value::U64(4)),
                ("moved_area", Value::U64(12_000)),
            ],
        );
        obs.point(
            "membership",
            &[
                ("iter", Value::U64(3)),
                ("epoch", Value::U64(2)),
                ("joined", Value::U64(1)),
                ("roster", Value::U64(7)),
                ("incremental", Value::U64(0)),
            ],
        );
        let report = RunReport::from_json_lines(&obs.to_json_lines()).unwrap();
        assert_eq!(report.membership_epochs(), 2);
        assert_eq!(report.joined_ranks(), 3);
        assert!(report.memberships[0].incremental);
        assert_eq!(report.memberships[0].slab_moves, 4);
        assert!(!report.memberships[1].incremental, "degraded join");
        // Missing fields parse defensively to zero, never panic.
        assert_eq!(report.memberships[1].moved_area, 0);
        let clean = RunReport::from_events(&[]);
        assert_eq!(clean.membership_epochs(), 0);
        assert_eq!(clean.joined_ranks(), 0);
    }

    #[test]
    fn run_report_sanitizes_non_finite_ratios() {
        // Regression: non-finite f64 serialize as `null`, parse back as
        // NaN, and used to flow straight into GreedyIterReport — any
        // mean/sum over iterations then went NaN too.
        let stream = concat!(
            "{\"type\":\"point\",\"name\":\"greedy_iter\",\"iter\":0,",
            "\"scan_ns\":0,\"combos_scored\":0,\"combos_per_sec\":null}\n",
        );
        let report = RunReport::from_json_lines(stream).unwrap();
        assert_eq!(report.greedy_iters.len(), 1);
        let cps = report.greedy_iters[0].combos_per_sec;
        assert!(cps.is_finite(), "combos_per_sec not finite: {cps}");
        assert_eq!(cps, 0.0);

        // The round trip really does produce `null` for non-finite input.
        let obs = Obs::enabled();
        obs.point("greedy_iter", &[("combos_per_sec", Value::F64(f64::NAN))]);
        assert!(obs.to_json_lines().contains("\"combos_per_sec\":null"));
        let back = RunReport::from_json_lines(&obs.to_json_lines()).unwrap();
        assert_eq!(back.greedy_iters[0].combos_per_sec, 0.0);
    }

    #[test]
    fn empty_run_report_ratios_are_finite() {
        let r = RunReport::from_events(&[]);
        for (name, v) in [
            ("pruned_fraction", r.pruned_fraction()),
            ("rank_imbalance", r.rank_imbalance()),
            ("mean_rank_utilization", r.mean_rank_utilization()),
            ("cache_hit_rate", r.serve.cache_hit_rate()),
            ("mean_batch_fill", r.serve.mean_batch_fill()),
            ("throughput_rps", r.serve.throughput_rps),
            ("frontier_hit_rate", r.frontier_hit_rate()),
        ] {
            assert!(v.is_finite(), "{name} not finite on empty run: {v}");
            assert_eq!(v, 0.0, "{name} must be 0.0 on an empty run");
        }
        // Rank data present but all-zero must also stay finite.
        let zeroed = RunReport {
            ranks: vec![RankReport::default(); 2],
            ..RunReport::default()
        };
        assert!(zeroed.rank_imbalance().is_finite());
        assert!(zeroed.mean_rank_utilization().is_finite());
    }

    #[test]
    fn run_report_aggregates_frontier_counters() {
        let obs = Obs::enabled();
        obs.point(
            "greedy_iter",
            &[
                ("iter", Value::U64(0)),
                ("scan_scored", Value::U64(100)),
                ("frontier_hit", Value::U64(0)),
                ("frontier_rescored", Value::U64(0)),
            ],
        );
        obs.point(
            "greedy_iter",
            &[
                ("iter", Value::U64(1)),
                ("scan_scored", Value::U64(0)),
                ("frontier_hit", Value::U64(1)),
                ("frontier_rescored", Value::U64(25)),
            ],
        );
        let r = RunReport::from_json_lines(&obs.to_json_lines()).unwrap();
        assert_eq!(r.frontier_hits(), 1);
        assert_eq!(r.full_rescans(), 1);
        assert_eq!(r.total_frontier_rescored(), 25);
        assert!((r.frontier_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn run_report_aggregates_serve_points() {
        let obs = Obs::enabled();
        obs.point(
            "serve_summary",
            &[
                ("requests", Value::U64(20)),
                ("ok", Value::U64(16)),
                ("shed", Value::U64(4)),
                ("errors", Value::U64(0)),
                ("cache_hits", Value::U64(4)),
                ("batches", Value::U64(3)),
                ("batched_samples", Value::U64(16)),
                ("batch_max", Value::U64(8)),
                ("max_queue_depth", Value::U64(12)),
                ("score_ns", Value::U64(700)),
                ("reactor_loops", Value::U64(5)),
                ("reactor_busy_ns", Value::U64(900)),
                ("p50_latency_ns", Value::U64(1_000)),
                ("p95_latency_ns", Value::U64(5_000)),
                ("p99_latency_ns", Value::U64(9_000)),
                ("throughput_rps", Value::F64(1.25e5)),
            ],
        );
        let r = RunReport::from_json_lines(&obs.to_json_lines()).unwrap();
        assert_eq!(r.serve.batches, 3);
        assert_eq!(r.serve.batched_samples, 16);
        assert_eq!(r.serve.max_queue_depth, 12);
        assert_eq!(r.serve.shed, 4);
        assert!((r.serve.cache_hit_rate() - 0.25).abs() < 1e-12);
        assert!((r.serve.mean_batch_fill() - 16.0 / 24.0).abs() < 1e-12);
        assert_eq!(r.serve.score_ns, 700);
        assert_eq!((r.serve.reactor_loops, r.serve.reactor_busy_ns), (5, 900));
        assert_eq!(r.serve.p95_latency_ns, 5_000);
    }

    #[test]
    fn json_object_round_trips_through_public_parser() {
        let pairs = vec![
            ("id".to_string(), Value::U64(7)),
            ("genes".to_string(), Value::Str("TP53,KRAS".to_string())),
            ("tumor".to_string(), Value::Bool(true)),
            ("score".to_string(), Value::F64(0.5)),
        ];
        let line = json_object(&pairs);
        assert_eq!(parse_json_object(&line).unwrap(), pairs);
        assert!(parse_json_object("not json").is_err());
        assert_eq!(finite_or_zero(f64::NAN), 0.0);
        assert_eq!(finite_or_zero(f64::INFINITY), 0.0);
        assert_eq!(finite_or_zero(1.5), 1.5);
    }

    #[test]
    fn span_guard_elapsed_is_monotone() {
        let obs = Obs::enabled();
        let s = obs.span("t");
        let a = s.elapsed_ns();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let b = s.elapsed_ns();
        assert!(b >= a);
    }
}
