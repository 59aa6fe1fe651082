//! The execution flight recorder.
//!
//! A [`Tracer`] is a cheap, cloneable handle to an optional in-memory event
//! buffer. When *off* (the default) every emission is a branch on a `None`
//! and the simulation runs exactly as it would without the recorder — the
//! observer must never perturb the observed run ("observer purity", enforced
//! by property tests in `mashup-core`). When *on*, domain layers append
//! typed [`TraceEvent`] records stamped with the simulated time and a
//! monotone sequence number, so equal-instant records keep their emission
//! order and a recorded trace is bit-for-bit deterministic for a given seed.
//!
//! Two recording levels exist:
//!
//! * **flow** ([`Tracer::new`]) — the domain records every checker and
//!   golden fixture consumes: function invocations, checkpoint chains,
//!   VM component grants, store traffic, task/phase lifecycle;
//! * **verbose** ([`Tracer::verbose`]) — adds engine-level instants (event
//!   dispatch, resource grants, individual link transfers) for deep-dive
//!   timelines; too chatty for fixtures.
//!
//! Serialization is derived: [`TraceEvent`] is an internally tagged enum
//! (`#[serde(tag = "ev")]`), and [`TraceRecord`] puts `seq` and `t` in
//! front of the event's fields, so the compact JSONL form
//! ([`to_jsonl`]/[`from_jsonl`]) is one flat JSON object per record. The
//! module's own printer writes floats in Rust's shortest round-trip
//! formatting, so traces diff cleanly and parse back bit-identically.
//! [`to_chrome_trace`] converts the same records into Chrome's
//! `trace_event` JSON for `chrome://tracing` / Perfetto.

use crate::shared::Shared;
use crate::time::SimTime;
use serde::{Deserialize, Number, Serialize, Value};

/// Why a function invocation was killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KillReason {
    /// The platform watchdog ended the invocation at its timeout deadline.
    #[serde(rename = "watchdog")]
    Watchdog,
    /// An injected microVM failure ended it mid-window.
    #[serde(rename = "injected")]
    Injected,
}

/// One typed flight-recorder event.
///
/// Labels are plain strings because the engine is domain-free; the cloud and
/// core layers put task names, code keys, and platform labels in them.
/// Serialized with the variant name under `"ev"`; fields keep their names
/// unless a shorter JSON key is given (`latency_secs` → `"latency"`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "ev")]
pub enum TraceEvent {
    /// Engine dispatched one event (verbose level only).
    Dispatch {
        /// Events processed so far, including this one.
        events: u64,
    },
    /// A counted resource granted one unit (verbose level only).
    ResourceGrant {
        /// Resource name.
        resource: String,
        /// Units in use after the grant.
        in_use: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// A transfer started on a shared link (verbose level only).
    TransferStart {
        /// Link name.
        link: String,
        /// Link-local transfer id.
        id: u64,
        /// Transfer size in bytes.
        bytes: f64,
    },
    /// A transfer finished on a shared link (verbose level only).
    TransferEnd {
        /// Link name.
        link: String,
        /// Link-local transfer id.
        id: u64,
    },
    /// A function invocation was admitted and assigned a microVM.
    FnStart {
        /// Platform-wide invocation id.
        id: u64,
        /// Code identity (warm pools key on this).
        code: String,
        /// True for a cold start, false for a warm-pool hit.
        cold: bool,
        /// Start latency in seconds (cold or warm).
        #[serde(rename = "latency")]
        latency_secs: f64,
        /// Instant the function body becomes runnable, seconds.
        #[serde(rename = "ready")]
        ready_secs: f64,
        /// Watchdog deadline, seconds.
        #[serde(rename = "deadline")]
        deadline_secs: f64,
    },
    /// A function invocation completed and was billed.
    FnEnd {
        /// Platform-wide invocation id.
        id: u64,
        /// Billed function-seconds for this invocation.
        #[serde(rename = "billed")]
        billed_secs: f64,
    },
    /// A function invocation was killed (watchdog or injected failure).
    FnKill {
        /// Platform-wide invocation id.
        id: u64,
        /// What killed it.
        reason: KillReason,
        /// Billed function-seconds up to the kill.
        #[serde(rename = "billed")]
        billed_secs: f64,
    },
    /// A microVM was pre-warmed into the pool (billed as a cold start).
    FnPrewarm {
        /// Code identity the warm entry is usable for.
        code: String,
        /// Billed cold-start latency, seconds.
        #[serde(rename = "latency")]
        latency_secs: f64,
        /// Instant the entry becomes available, seconds.
        #[serde(rename = "warm")]
        warm_secs: f64,
        /// Instant the entry expires, seconds.
        #[serde(rename = "expires")]
        expires_secs: f64,
    },
    /// A FaaS execution segment began running inside an invocation.
    SegmentStart {
        /// Task label (code key).
        task: String,
        /// Component chain id within the task.
        chain: u32,
        /// Invocation id hosting this segment.
        inv: u64,
        /// True when the segment resumes from a checkpoint.
        resume: bool,
        /// Memory footprint of the component, GiB.
        mem_gb: f64,
    },
    /// A segment finished writing a checkpoint before the time cap.
    Checkpoint {
        /// Task label.
        task: String,
        /// Component chain id.
        chain: u32,
        /// Invocation id that wrote the checkpoint.
        inv: u64,
        /// Checkpoint size in bytes.
        bytes: f64,
        /// Compute seconds still owed after this checkpoint.
        #[serde(rename = "remaining")]
        remaining_secs: f64,
    },
    /// A successor segment restored the chain's last checkpoint.
    CheckpointResume {
        /// Task label.
        task: String,
        /// Component chain id.
        chain: u32,
        /// Invocation id doing the restore.
        inv: u64,
        /// Compute seconds the restored state still owes.
        #[serde(rename = "remaining")]
        remaining_secs: f64,
    },
    /// A VM-side component started computing on a node.
    VmCompStart {
        /// Task label.
        task: String,
        /// Sub-cluster index.
        sub: usize,
        /// Node index within the sub-cluster.
        node: usize,
        /// Components on the node after this one joined.
        load: usize,
        /// Memory footprint of the component, GiB.
        mem_gb: f64,
        /// Timeshare slowdown factor applied to this component.
        factor: f64,
        /// True when memory pressure (thrash) contributes to the factor.
        thrash: bool,
    },
    /// A VM-side component finished computing.
    VmCompEnd {
        /// Task label.
        task: String,
        /// Sub-cluster index.
        sub: usize,
        /// Node index within the sub-cluster.
        node: usize,
    },
    /// Cluster billing began (nodes provisioned).
    BillingStart {
        /// Number of nodes billed.
        nodes: usize,
    },
    /// Cluster billing stopped.
    BillingStop {
        /// Billed node-seconds for the whole span.
        node_seconds: f64,
    },
    /// An object-store read (GET batch) was issued.
    StoreGet {
        /// Bytes read.
        bytes: f64,
        /// GET requests issued (billed; doubled when retried).
        requests: u64,
        /// True when the primary failed and a replica served the read.
        retried: bool,
    },
    /// An object-store write (PUT batch) was issued.
    StorePut {
        /// Bytes written.
        bytes: f64,
        /// PUT requests issued (each billed once per replica).
        requests: u64,
        /// Replication factor the requests were billed at.
        replicas: u64,
    },
    /// A named object became readable in the store.
    ObjectPut {
        /// Object key.
        key: String,
        /// Object size in bytes.
        bytes: f64,
    },
    /// A named object was removed from the store.
    ObjectRemove {
        /// Object key.
        key: String,
    },
    /// A workflow phase began executing.
    PhaseStart {
        /// Phase index.
        phase: usize,
        /// Tasks in the phase.
        tasks: usize,
    },
    /// A task began executing.
    TaskStart {
        /// Task name.
        task: String,
        /// Phase index.
        phase: usize,
        /// Platform label (`vm` or `serverless`).
        platform: String,
        /// Component count.
        components: usize,
    },
    /// A task finished executing (all components done, outputs readable).
    TaskEnd {
        /// Task name.
        task: String,
    },
    /// The PDC committed a placement decision for one task.
    PdcDecision {
        /// Task name.
        task: String,
        /// Profiled cluster-side time, seconds.
        #[serde(rename = "t_vm")]
        t_vm_secs: f64,
        /// Estimated serverless time, seconds (infinite when forced to VM).
        #[serde(rename = "t_serverless")]
        t_serverless_secs: f64,
        /// Chosen platform label.
        platform: String,
        /// Forcing rule, or empty when the argmin decided.
        forced: String,
    },
    /// A PDC profiling stage was served by the planning cache (or not).
    PdcCache {
        /// Stage name: `calibration`, `vm-profile`, or `probe`.
        section: String,
        /// True when the stage was a cache hit.
        hit: bool,
    },
    /// A spot VM node was reclaimed by the provider (seeded fault plan).
    SpotPreempt {
        /// Fault id within the plan (retries chain to this).
        id: u64,
        /// Sub-cluster index of the reclaimed node.
        sub: usize,
        /// Node index within the sub-cluster.
        node: usize,
    },
    /// A scheduled storage/network fault window became active.
    FaultInjected {
        /// Fault id within the plan (retries chain to this).
        id: u64,
        /// Fault kind: `storage-error`, `storage-latency`, or `link-degrade`.
        kind: String,
        /// Instant the window deactivates, seconds.
        #[serde(rename = "until")]
        until_secs: f64,
        /// Kind-specific magnitude: error probability, extra latency in
        /// seconds, or bandwidth factor.
        magnitude: f64,
    },
    /// A store operation was retried or delayed by an injected fault.
    FaultRetry {
        /// Id of the injected fault that hit the operation.
        id: u64,
        /// Operation kind: `get` or `put`.
        op: String,
    },
    /// A VM component lost to a preemption restarted on a surviving node.
    CompRetry {
        /// Id of the preemption fault that killed the attempt.
        id: u64,
        /// Task label.
        task: String,
        /// Sub-cluster index the retry runs in.
        sub: usize,
        /// Surviving node the retry was placed on.
        node: usize,
    },
    /// The online controller re-placed the remaining subgraph.
    Replan {
        /// First phase the new placement applies to.
        phase: usize,
        /// Trigger: `preemption` or `straggler`.
        reason: String,
        /// Cluster nodes the previous plan assumed.
        nodes_before: usize,
        /// Surviving nodes the new plan was sized for.
        nodes_after: usize,
        /// Tasks whose platform changed.
        moved: usize,
    },
    /// Per-node spot billing settled at the end of a run (piecewise price).
    SpotBill {
        /// Sub-cluster index.
        sub: usize,
        /// Node index within the sub-cluster.
        node: usize,
        /// Node-seconds billed for this node (to preemption or run end).
        node_seconds: f64,
        /// Dollars charged across the node's price segments.
        dollars: f64,
    },
}

/// One recorded event: sequence number, simulated time, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Monotone emission index (orders equal-instant records).
    pub seq: u64,
    /// Simulated time of the event, seconds.
    pub t_secs: f64,
    /// The event payload.
    pub event: TraceEvent,
}

struct TraceBuf {
    records: Vec<TraceRecord>,
    next_seq: u64,
    verbose: bool,
}

/// A cheap handle to the flight recorder. Cloning shares the buffer; the
/// default handle is off and records nothing.
#[derive(Clone, Default)]
pub struct Tracer {
    buf: Option<Shared<TraceBuf>>,
}

impl Tracer {
    /// A disabled recorder: every emission is a no-op.
    pub fn off() -> Self {
        Tracer { buf: None }
    }

    /// A recording tracer at flow level (domain records only).
    pub fn new() -> Self {
        Tracer {
            buf: Some(crate::shared::shared(TraceBuf {
                records: Vec::new(),
                next_seq: 0,
                verbose: false,
            })),
        }
    }

    /// A recording tracer that also keeps engine-level instants (event
    /// dispatch, resource grants, link transfers).
    pub fn verbose() -> Self {
        Tracer {
            buf: Some(crate::shared::shared(TraceBuf {
                records: Vec::new(),
                next_seq: 0,
                verbose: true,
            })),
        }
    }

    /// True when the recorder is capturing events.
    pub fn is_on(&self) -> bool {
        self.buf.is_some()
    }

    /// True when engine-level instants are captured too.
    pub fn is_verbose(&self) -> bool {
        self.buf.as_ref().is_some_and(|b| b.borrow().verbose)
    }

    /// Records `event` at simulated instant `now`. No-op when off.
    pub fn emit(&self, now: SimTime, event: TraceEvent) {
        if let Some(buf) = &self.buf {
            let mut b = buf.borrow_mut();
            let seq = b.next_seq;
            b.next_seq += 1;
            b.records.push(TraceRecord {
                seq,
                t_secs: now.as_secs(),
                event,
            });
        }
    }

    /// Records an engine-level instant; kept only at verbose level.
    /// The closure defers payload construction so the flow level pays
    /// nothing for verbose-only call sites.
    pub fn emit_verbose(&self, now: SimTime, event: impl FnOnce() -> TraceEvent) {
        if self.is_verbose() {
            self.emit(now, event());
        }
    }

    /// Number of records captured so far (0 when off).
    pub fn len(&self) -> usize {
        self.buf.as_ref().map_or(0, |b| b.borrow().records.len())
    }

    /// True when no records have been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns all captured records (empty when off). The
    /// sequence counter keeps running, so a later drain stays ordered.
    pub fn take(&self) -> Vec<TraceRecord> {
        self.buf
            .as_ref()
            .map_or_else(Vec::new, |b| std::mem::take(&mut b.borrow_mut().records))
    }

    /// Clones out the captured records without draining them.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.buf
            .as_ref()
            .map_or_else(Vec::new, |b| b.borrow().records.clone())
    }
}

// --------------------------------------------------------------------------
// Compact JSONL form
// --------------------------------------------------------------------------

fn push_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Prints `v` as compact JSON with floats in `{:?}` form (shortest round
/// trip: `0.0`, `1e-7`), so written traces parse back bit-identically.
/// `serde_json` prints floats with `Display` (`0`, `0.0000001`) for the
/// figure files, so traces keep this printer of their own.
fn write_json(v: &Value, out: &mut String) {
    use std::fmt::Write as _;
    let _ = match v {
        Value::Null => write!(out, "null"),
        Value::Bool(b) => write!(out, "{b}"),
        Value::Number(Number::U(n)) => write!(out, "{n}"),
        Value::Number(Number::I(n)) => write!(out, "{n}"),
        Value::Number(Number::F(x)) => write!(out, "{x:?}"),
        Value::String(s) => {
            push_escaped(s, out);
            Ok(())
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            write!(out, "]")
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_escaped(k, out);
                out.push(':');
                write_json(item, out);
            }
            write!(out, "}}")
        }
    };
}

fn json_string(v: &Value) -> String {
    let mut out = String::new();
    write_json(v, &mut out);
    out
}

/// The `seq`/`t` head of a JSONL line, read from the same flat object as
/// the event's own fields.
#[derive(Deserialize)]
struct Stamp {
    seq: u64,
    #[serde(rename = "t")]
    t_secs: f64,
}

impl Serialize for TraceRecord {
    fn to_value(&self) -> Value {
        let Value::Object(fields) = self.event.to_value() else {
            unreachable!("a tagged enum serializes as an object")
        };
        let mut line = Vec::with_capacity(fields.len() + 2);
        line.push(("seq".to_owned(), self.seq.to_value()));
        line.push(("t".to_owned(), self.t_secs.to_value()));
        line.extend(fields);
        Value::Object(line)
    }
}

impl Deserialize for TraceRecord {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let Stamp { seq, t_secs } = Stamp::from_value(v)?;
        Ok(TraceRecord {
            seq,
            t_secs,
            event: TraceEvent::from_value(v)?,
        })
    }
}

/// Serializes records to the compact JSONL form: one record per line,
/// stable field order, shortest round-trip floats, trailing newline.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        write_json(&r.to_value(), &mut out);
        out.push('\n');
    }
    out
}

/// Parses the compact JSONL form back into records. Unknown event names are
/// an error, so readers notice vocabulary drift instead of skipping data.
pub fn from_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, raw)| !raw.trim().is_empty())
        .map(|(idx, raw)| serde_json::from_str(raw).map_err(|e| format!("line {}: {e}", idx + 1)))
        .collect()
}

// --------------------------------------------------------------------------
// Chrome trace_event export
// --------------------------------------------------------------------------

/// Stable thread-id registry for the Chrome export: names get dense ids in
/// first-seen order (deterministic because records are ordered).
struct TidMap {
    ids: std::collections::BTreeMap<String, u64>,
}

impl TidMap {
    fn new() -> Self {
        TidMap {
            ids: std::collections::BTreeMap::new(),
        }
    }
    fn get(&mut self, name: &str) -> u64 {
        let next = self.ids.len() as u64;
        *self.ids.entry(name.to_string()).or_insert(next)
    }
}

fn chrome_event(
    out: &mut Vec<String>,
    name: &str,
    ph: &str,
    ts_secs: f64,
    pid: u64,
    tid: u64,
    args: &[(&str, String)],
) {
    let mut e = String::from("{\"name\":");
    push_escaped(name, &mut e);
    use std::fmt::Write as _;
    // Chrome timestamps are microseconds.
    let _ = write!(
        e,
        ",\"ph\":\"{ph}\",\"ts\":{:?},\"pid\":{pid},\"tid\":{tid}",
        ts_secs * 1e6
    );
    if ph == "i" {
        e.push_str(",\"s\":\"t\"");
    }
    if !args.is_empty() {
        e.push_str(",\"args\":{");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                e.push(',');
            }
            push_escaped(k, &mut e);
            e.push(':');
            e.push_str(v);
        }
        e.push('}');
    }
    e.push('}');
    out.push(e);
}

/// Converts records into Chrome `trace_event` JSON (load in
/// `chrome://tracing` or <https://ui.perfetto.dev>). Tasks, VM components,
/// and function invocations become duration pairs on per-lane threads;
/// everything else becomes instant markers.
pub fn to_chrome_trace(records: &[TraceRecord]) -> String {
    let mut events = Vec::new();
    let mut task_tids = TidMap::new();
    for r in records {
        match &r.event {
            TraceEvent::TaskStart { task, platform, .. } => {
                let tid = task_tids.get(task);
                chrome_event(
                    &mut events,
                    task,
                    "B",
                    r.t_secs,
                    1,
                    tid,
                    &[("platform", format!("{platform:?}"))],
                );
            }
            TraceEvent::TaskEnd { task } => {
                let tid = task_tids.get(task);
                chrome_event(&mut events, task, "E", r.t_secs, 1, tid, &[]);
            }
            TraceEvent::VmCompStart {
                task,
                sub,
                node,
                factor,
                ..
            } => {
                let tid = (*sub as u64) * 1000 + *node as u64;
                chrome_event(
                    &mut events,
                    task,
                    "B",
                    r.t_secs,
                    2,
                    tid,
                    &[("factor", format!("{factor:?}"))],
                );
            }
            TraceEvent::VmCompEnd { task, sub, node } => {
                let tid = (*sub as u64) * 1000 + *node as u64;
                chrome_event(&mut events, task, "E", r.t_secs, 2, tid, &[]);
            }
            TraceEvent::FnStart { id, code, cold, .. } => {
                chrome_event(
                    &mut events,
                    code,
                    "B",
                    r.t_secs,
                    3,
                    id % 64,
                    &[("cold", cold.to_string()), ("inv", id.to_string())],
                );
            }
            TraceEvent::FnEnd { id, .. } => {
                chrome_event(&mut events, "fn", "E", r.t_secs, 3, id % 64, &[]);
            }
            TraceEvent::FnKill { id, reason, .. } => {
                chrome_event(
                    &mut events,
                    "fn",
                    "E",
                    r.t_secs,
                    3,
                    id % 64,
                    &[("kill", json_string(&reason.to_value()))],
                );
            }
            _ => {
                // Everything else is an instant marker named after the
                // serialized event tag.
                let line = r.to_value();
                chrome_event(
                    &mut events,
                    line["ev"].as_str().unwrap_or_default(),
                    "i",
                    r.t_secs,
                    0,
                    0,
                    &[("record", format!("{:?}", json_string(&line)))],
                );
            }
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        let t = Tracer::new();
        t.emit(
            SimTime::from_secs(0.0),
            TraceEvent::TaskStart {
                task: "a".into(),
                phase: 0,
                platform: "serverless".into(),
                components: 2,
            },
        );
        t.emit(
            SimTime::from_secs(0.5),
            TraceEvent::FnStart {
                id: 1,
                code: "a".into(),
                cold: true,
                latency_secs: 1.25,
                ready_secs: 1.75,
                deadline_secs: 901.75,
            },
        );
        t.emit(
            SimTime::from_secs(2.0),
            TraceEvent::Checkpoint {
                task: "a".into(),
                chain: 0,
                inv: 1,
                bytes: 1e6,
                remaining_secs: 33.333333333333336,
            },
        );
        t.emit(
            SimTime::from_secs(3.0),
            TraceEvent::FnKill {
                id: 1,
                reason: KillReason::Injected,
                billed_secs: 2.5,
            },
        );
        t.emit(
            SimTime::from_secs(9.0),
            TraceEvent::TaskEnd { task: "a".into() },
        );
        t.take()
    }

    #[test]
    fn off_tracer_records_nothing_and_is_cheap_to_clone() {
        let t = Tracer::off();
        assert!(!t.is_on());
        t.emit(
            SimTime::from_secs(1.0),
            TraceEvent::TaskEnd { task: "x".into() },
        );
        assert!(t.is_empty());
        assert_eq!(t.clone().take(), Vec::new());
        assert!(!Tracer::default().is_on());
    }

    #[test]
    fn clones_share_one_buffer_and_seq_is_monotone() {
        let a = Tracer::new();
        let b = a.clone();
        a.emit(
            SimTime::from_secs(1.0),
            TraceEvent::TaskEnd { task: "x".into() },
        );
        b.emit(
            SimTime::from_secs(1.0),
            TraceEvent::TaskEnd { task: "y".into() },
        );
        let records = a.take();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        // Seq keeps counting across a drain.
        b.emit(
            SimTime::from_secs(2.0),
            TraceEvent::TaskEnd { task: "z".into() },
        );
        assert_eq!(b.take()[0].seq, 2);
    }

    #[test]
    fn verbose_instants_are_dropped_at_flow_level() {
        let flow = Tracer::new();
        flow.emit_verbose(SimTime::ZERO, || TraceEvent::Dispatch { events: 1 });
        assert!(flow.is_empty());
        let verbose = Tracer::verbose();
        verbose.emit_verbose(SimTime::ZERO, || TraceEvent::Dispatch { events: 1 });
        assert_eq!(verbose.len(), 1);
    }

    #[test]
    fn jsonl_round_trips_bit_for_bit() {
        let records = sample_records();
        let text = to_jsonl(&records);
        let parsed = from_jsonl(&text).expect("parse");
        assert_eq!(parsed, records);
        // Re-serializing the parsed records reproduces the bytes.
        assert_eq!(to_jsonl(&parsed), text);
    }

    #[test]
    fn jsonl_lines_are_flat_stable_objects() {
        let text = to_jsonl(&sample_records());
        let first = text.lines().next().expect("non-empty");
        assert!(first.starts_with("{\"seq\":0,\"t\":0.0,\"ev\":\"TaskStart\""));
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn parser_rejects_unknown_events_and_bad_fields() {
        assert!(from_jsonl("{\"seq\":0,\"t\":0.0,\"ev\":\"Nope\"}").is_err());
        assert!(from_jsonl("{\"seq\":0,\"t\":0.0}").is_err());
        assert!(from_jsonl("{\"seq\":0,\"t\":0.0,\"ev\":\"TaskEnd\"}").is_err());
        assert!(from_jsonl("not json").is_err());
        assert_eq!(from_jsonl("\n\n").expect("blank ok"), Vec::new());
    }

    #[test]
    fn chaos_events_round_trip_bit_for_bit() {
        let t = Tracer::new();
        t.emit(
            SimTime::from_secs(1.0),
            TraceEvent::FaultInjected {
                id: 3,
                kind: "storage-error".into(),
                until_secs: 42.5,
                magnitude: 0.25,
            },
        );
        t.emit(
            SimTime::from_secs(2.0),
            TraceEvent::SpotPreempt {
                id: 0,
                sub: 1,
                node: 2,
            },
        );
        t.emit(
            SimTime::from_secs(2.5),
            TraceEvent::FaultRetry {
                id: 3,
                op: "get".into(),
            },
        );
        t.emit(
            SimTime::from_secs(3.0),
            TraceEvent::CompRetry {
                id: 0,
                task: "wide".into(),
                sub: 1,
                node: 0,
            },
        );
        t.emit(
            SimTime::from_secs(4.0),
            TraceEvent::Replan {
                phase: 2,
                reason: "preemption".into(),
                nodes_before: 4,
                nodes_after: 3,
                moved: 5,
            },
        );
        t.emit(
            SimTime::from_secs(9.0),
            TraceEvent::SpotBill {
                sub: 0,
                node: 1,
                node_seconds: 7.25,
                dollars: 0.000241666666666,
            },
        );
        let records = t.take();
        let text = to_jsonl(&records);
        let parsed = from_jsonl(&text).expect("parse");
        assert_eq!(parsed, records);
        assert_eq!(to_jsonl(&parsed), text);
        // Chaos records export as instant markers in the Chrome form.
        let chrome = to_chrome_trace(&records);
        assert!(chrome.contains("SpotPreempt"));
        assert!(chrome.contains("Replan"));
    }

    #[test]
    fn string_escaping_survives_round_trip() {
        let records = vec![TraceRecord {
            seq: 0,
            t_secs: 1.5,
            event: TraceEvent::ObjectPut {
                key: "out:\"weird\\name\"\twith\nnewline".into(),
                bytes: 7.0,
            },
        }];
        let text = to_jsonl(&records);
        assert_eq!(from_jsonl(&text).expect("parse"), records);
    }

    #[test]
    fn chrome_export_pairs_tasks_and_marks_instants() {
        let chrome = to_chrome_trace(&sample_records());
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"B\""));
        assert!(chrome.contains("\"ph\":\"E\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"ts\":500000.0"), "{chrome}");
    }
}
