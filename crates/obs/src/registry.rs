//! Global span registry and per-phase report builder.
//!
//! Finished spans land in one process-global buffer guarded by a
//! `parking_lot` mutex. The buffer is capped (a runaway loop must not
//! eat the heap); overflow increments a visible `spans_dropped`
//! counter instead of silently truncating the report.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::counters::{counters, reset_counters, OpTotals};
use crate::hist::{Histogram, Percentiles};
use crate::json::Value;

/// Hard cap on retained spans (~1M); beyond this we count drops.
const SPAN_CAP: usize = 1 << 20;

/// One closed span as recorded by the registry.
#[derive(Clone, Debug)]
pub struct FinishedSpan {
    /// Span name (phase label).
    pub name: &'static str,
    /// Name of the span that was open on the same thread, if any.
    pub parent: Option<&'static str>,
    /// Nesting depth on its thread (0 = top level).
    pub depth: usize,
    /// Small per-thread id assigned by the obs layer.
    pub tid: u64,
    /// Start offset from the registry epoch, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Crypto ops observed globally while the span was open.
    pub ops: OpTotals,
}

struct State {
    epoch: Instant,
    spans: Vec<FinishedSpan>,
    dropped: u64,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(State {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        })
    })
}

pub(crate) fn submit(span: FinishedSpan) {
    let mut st = state().lock();
    if st.spans.len() >= SPAN_CAP {
        st.dropped = st.dropped.saturating_add(1);
    } else {
        st.spans.push(span);
    }
}

pub(crate) fn epoch_offset_ns(start: Instant) -> u64 {
    let epoch = state().lock().epoch;
    let offset = start
        .checked_duration_since(epoch)
        .unwrap_or(Duration::ZERO);
    u64::try_from(offset.as_nanos()).unwrap_or(u64::MAX)
}

/// Clears all recorded spans and counters and restarts the epoch.
///
/// Call once before the region you want to measure; spans still open
/// across a reset will report against the new epoch.
pub fn reset() {
    let mut st = state().lock();
    st.epoch = Instant::now();
    st.spans.clear();
    st.dropped = 0;
    drop(st);
    reset_counters();
}

/// Aggregated statistics for all spans sharing one name.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Phase (span) name.
    pub name: String,
    /// Number of finished spans with this name.
    pub count: u64,
    /// Sum of their wall-clock durations.
    pub total: Duration,
    /// Mean duration.
    pub mean: Duration,
    /// p50/p95/p99 of the duration distribution.
    pub percentiles: Percentiles,
    /// Crypto ops attributed to this phase.
    pub ops: OpTotals,
}

/// A complete snapshot of one instrumented run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Per-phase aggregates, sorted by total time descending.
    pub phases: Vec<PhaseReport>,
    /// Every finished span, in completion order.
    pub spans: Vec<FinishedSpan>,
    /// Global crypto-op totals at snapshot time.
    pub totals: OpTotals,
    /// Spans discarded because the registry cap was hit.
    pub spans_dropped: u64,
}

/// Builds a [`Report`] from everything recorded since the last
/// [`reset`]. Does not clear the registry.
pub fn report() -> Report {
    // Snapshot the buffer in bounded chunks: the registry mutex sits on
    // every span-guard drop path, and cloning a full `SPAN_CAP` buffer
    // in one critical section would stall every instrumented thread for
    // the whole multi-megabyte memcpy. Submits only append (and a
    // concurrent `reset` only shrinks, which ends the loop), so chunked
    // copying still yields a consistent snapshot.
    const CHUNK: usize = 4096;
    let mut spans: Vec<FinishedSpan> = Vec::new();
    let spans_dropped = loop {
        let st = state().lock();
        let len = st.spans.len();
        if spans.len() >= len {
            break st.dropped;
        }
        let end = len.min(spans.len().saturating_add(CHUNK));
        let Some(chunk) = st.spans.get(spans.len()..end) else {
            break st.dropped;
        };
        spans.extend_from_slice(chunk);
    };

    let mut order: Vec<&'static str> = Vec::new();
    let mut hists: Vec<Histogram> = Vec::new();
    let mut ops: Vec<OpTotals> = Vec::new();
    for s in &spans {
        let idx = match order.iter().position(|n| *n == s.name) {
            Some(i) => i,
            None => {
                order.push(s.name);
                hists.push(Histogram::new());
                ops.push(OpTotals::default());
                order.len() - 1
            }
        };
        if let (Some(h), Some(o)) = (hists.get_mut(idx), ops.get_mut(idx)) {
            h.record(Duration::from_nanos(s.dur_ns));
            *o = o.merge(&s.ops);
        }
    }
    let mut phases: Vec<PhaseReport> = order
        .iter()
        .zip(hists.iter())
        .zip(ops.iter())
        .map(|((name, h), o)| PhaseReport {
            name: (*name).to_owned(),
            count: h.count(),
            total: h.sum(),
            mean: h.mean(),
            percentiles: h.percentiles(),
            ops: *o,
        })
        .collect();
    phases.sort_by_key(|p| std::cmp::Reverse(p.total));

    Report {
        phases,
        spans,
        totals: counters(),
        spans_dropped,
    }
}

fn dur_ns_value(d: Duration) -> Value {
    Value::from_u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

fn ops_value(o: &OpTotals) -> Value {
    Value::object(vec![
        ("mod_exps", Value::from_u64(o.mod_exps)),
        ("mod_muls", Value::from_u64(o.mod_muls)),
        ("encryptions", Value::from_u64(o.encryptions)),
        ("decryptions", Value::from_u64(o.decryptions)),
        ("rerandomizations", Value::from_u64(o.rerandomizations)),
        ("mod_exps_avoided", Value::from_u64(o.mod_exps_avoided)),
        ("pool_misses", Value::from_u64(o.pool_misses)),
        ("inversions", Value::from_u64(o.inversions)),
        ("gcds", Value::from_u64(o.gcds)),
        ("checkpoint_writes", Value::from_u64(o.checkpoint_writes)),
        ("checkpoint_loads", Value::from_u64(o.checkpoint_loads)),
    ])
}

impl Report {
    /// Renders the report as a [`Value`] tree; the caller may graft in
    /// extra sections (e.g. network metrics) before serializing.
    pub fn to_value(&self) -> Value {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Value::object(vec![
                    ("name", Value::Str(p.name.clone())),
                    ("count", Value::from_u64(p.count)),
                    ("total_ns", dur_ns_value(p.total)),
                    ("mean_ns", dur_ns_value(p.mean)),
                    ("p50_ns", dur_ns_value(p.percentiles.p50)),
                    ("p95_ns", dur_ns_value(p.percentiles.p95)),
                    ("p99_ns", dur_ns_value(p.percentiles.p99)),
                    ("ops", ops_value(&p.ops)),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::object(vec![
                    ("name", Value::Str(s.name.to_owned())),
                    (
                        "parent",
                        match s.parent {
                            Some(p) => Value::Str(p.to_owned()),
                            None => Value::Null,
                        },
                    ),
                    (
                        "depth",
                        Value::from_u64(u64::try_from(s.depth).unwrap_or(u64::MAX)),
                    ),
                    ("tid", Value::from_u64(s.tid)),
                    ("start_ns", Value::from_u64(s.start_ns)),
                    ("dur_ns", Value::from_u64(s.dur_ns)),
                    ("ops", ops_value(&s.ops)),
                ])
            })
            .collect();
        Value::object(vec![
            ("phases", Value::Arr(phases)),
            ("spans", Value::Arr(spans)),
            ("totals", ops_value(&self.totals)),
            ("spans_dropped", Value::from_u64(self.spans_dropped)),
        ])
    }

    /// Serializes the report as compact JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Serializes every span as a Chrome-trace (`chrome://tracing` /
    /// Perfetto) document of complete (`"ph":"X"`) events with
    /// microsecond timestamps.
    pub fn to_chrome_trace(&self) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::object(vec![
                    ("name", Value::Str(s.name.to_owned())),
                    ("cat", Value::Str("pisa".to_owned())),
                    ("ph", Value::Str("X".to_owned())),
                    ("ts", Value::from_f64(s.start_ns as f64 / 1_000.0)),
                    ("dur", Value::from_f64(s.dur_ns as f64 / 1_000.0)),
                    ("pid", Value::from_u64(1)),
                    ("tid", Value::from_u64(s.tid)),
                ])
            })
            .collect();
        Value::object(vec![
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::Str("ms".to_owned())),
        ])
        .to_json()
    }

    /// Renders the per-phase table as fixed-width text, mirroring the
    /// layout of the paper's Tables 2–3 (one row per protocol phase,
    /// cost in wall time and modular exponentiations).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>7} {:>12} {:>12} {:>12} {:>9} {:>9} {:>9}\n",
            "phase", "count", "total", "mean", "p95", "mod-exps", "avoided", "encrypts"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "{:<22} {:>7} {:>12} {:>12} {:>12} {:>9} {:>9} {:>9}\n",
                p.name,
                p.count,
                fmt_dur(p.total),
                fmt_dur(p.mean),
                fmt_dur(p.percentiles.p95),
                p.ops.mod_exps,
                p.ops.mod_exps_avoided,
                p.ops.encryptions,
            ));
        }
        if self.spans_dropped > 0 {
            out.push_str(&format!(
                "(+{} spans dropped at registry cap)\n",
                self.spans_dropped
            ));
        }
        out
    }
}

fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}
