//! Offline causal-trace reconstruction for MPF trace rings.
//!
//! The protocol engine (behind `mpf::Mpf` and `mpf::IpcMpf` alike)
//! stamps a 64-bit trace id into every message descriptor at send time and
//! appends fixed-size records to per-process crash-persistent trace rings
//! (`mpf_shm::tracering`).  This crate consumes those records — live or
//! post-mortem, via [`mpf::inspect::RegionInspector`] or directly from a
//! facility handle — and rebuilds three views:
//!
//! - **causal chains**: all events sharing a trace id, ordered by hop, so a
//!   request that bounced through three processes reads as one story;
//! - **per-LNVC streams**: every traced send and delivery on a conversation,
//!   in global stamp order;
//! - **a conformance report**: the paper's §3 delivery contract checked
//!   offline (FCFS order per receiver, exactly-once FCFS delivery, broadcast
//!   completeness against the population fixed at send, no receive without a
//!   matching send, no reclaim before the obligations were met).
//!
//! ## Truncation horizon
//!
//! Trace rings are bounded: once a writer wraps, the oldest records are gone.
//! The checker is careful never to report a violation that a lost record
//! could explain — if *any* contributing ring has overwritten records, rules
//! that depend on seeing the whole history (missing send, missing delivery)
//! are suppressed and the report notes the horizon instead.  Order rules
//! (FCFS monotonicity, duplicate delivery, broadcast over-delivery) need only
//! the surviving records and stay active.
//!
//! Everything here is read-only and lock-free: safe to point at the region of
//! a SIGKILLed process.

pub mod render;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use mpf_shm::faultplane::FaultSite;
use mpf_shm::tracering::{
    trace_event_name, TraceEvent, TR_CLOSE_RECV, TR_FAULT, TR_POISON, TR_RECLAIM, TR_RECV,
    TR_RECV_B, TR_SEND,
};

const NIL: u32 = u32::MAX;

/// One process's contribution to a trace log.
#[derive(Debug, Clone)]
pub struct PidEvents {
    /// MPF process id that owns the ring.
    pub pid: u32,
    /// True when the ring wrapped and records were lost.
    pub truncated: bool,
    /// Chains never recorded because sampling skipped them.
    pub sampled_out: u64,
    /// Surviving records in ring (seq) order.
    pub events: Vec<TraceEvent>,
}

/// An event paired with the MPF pid whose ring recorded it.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub pid: u32,
    pub ev: TraceEvent,
}

/// A causal chain: every recorded event sharing one trace id, across all
/// rings, ordered by hop then time.
#[derive(Debug, Clone)]
pub struct Chain {
    pub id: u64,
    pub events: Vec<Rec>,
}

impl Chain {
    /// Number of send hops observed in the chain.
    pub fn hops(&self) -> u32 {
        self.events
            .iter()
            .filter(|r| r.ev.kind == TR_SEND)
            .map(|r| r.ev.hop + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Per-LNVC send/receive history in global stamp order.
#[derive(Debug, Clone)]
pub struct LnvcStream {
    pub lnvc: u32,
    pub sends: Vec<Rec>,
    pub recvs: Vec<Rec>,
}

/// Conformance rules checked by [`TraceLog::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A receiver's FCFS deliveries from one LNVC went backwards in stamp
    /// order (paper §3: FCFS messages are consumed first-come-first-served).
    FcfsOrder,
    /// The same FCFS message was delivered twice.
    DoubleFcfsDelivery,
    /// The same broadcast copy was delivered twice to one receiver.
    DoubleBcastDelivery,
    /// A delivery was recorded for a message no surviving ring ever sent.
    RecvWithoutSend,
    /// More distinct receivers saw a broadcast than were registered when it
    /// was sent.
    BcastOverDelivery,
    /// A reclaimed broadcast reached fewer receivers than its population,
    /// with no poison/close event to explain the shortfall.
    BcastUnderDelivery,
    /// A message owing an FCFS delivery was reclaimed undelivered, with no
    /// poison/close event to explain it.
    ReclaimBeforeDelivery,
    /// An error-class fault injection (pool-exhaust, peer-died) recorded no
    /// surfaced status: the fault plane claims the caller was told, but the
    /// record carries `arg2 == 0`.  Delay-class faults (notify-drop,
    /// lock-stall) legitimately surface nothing and are exempt.
    SilentErrorFault,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::FcfsOrder => "fcfs-order",
            Rule::DoubleFcfsDelivery => "double-fcfs-delivery",
            Rule::DoubleBcastDelivery => "double-bcast-delivery",
            Rule::RecvWithoutSend => "recv-without-send",
            Rule::BcastOverDelivery => "bcast-over-delivery",
            Rule::BcastUnderDelivery => "bcast-under-delivery",
            Rule::ReclaimBeforeDelivery => "reclaim-before-delivery",
            Rule::SilentErrorFault => "silent-error-fault",
        };
        f.write_str(s)
    }
}

/// One conformance violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: Rule,
    pub trace: u64,
    pub stamp: u64,
    pub lnvc: u32,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] trace {:#x} stamp {} lnvc {}: {}",
            self.rule,
            self.trace,
            self.stamp,
            if self.lnvc == NIL {
                -1
            } else {
                self.lnvc as i64
            },
            self.detail
        )
    }
}

/// Conformance report: violations found plus horizon bookkeeping.
#[derive(Debug, Clone)]
pub struct Report {
    pub violations: Vec<Violation>,
    /// True when a ring wrapped: completeness rules were suppressed.
    pub truncated: bool,
    /// Messages (send records) examined.
    pub messages: usize,
    /// Deliveries examined.
    pub deliveries: usize,
    /// Injected-fault records examined.
    pub faults: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A merged, immutable trace log assembled from per-process rings.
#[derive(Debug, Clone)]
pub struct TraceLog {
    rings: Vec<PidEvents>,
}

impl TraceLog {
    /// Builds a log from raw per-process ring snapshots.
    pub fn new(rings: Vec<PidEvents>) -> Self {
        TraceLog { rings }
    }

    /// Snapshots every trace ring of a shared region (live or post-mortem).
    pub fn from_inspector(ins: &mpf::inspect::RegionInspector) -> Self {
        let infos = ins.trace_rings();
        let rings = infos
            .iter()
            .map(|info| PidEvents {
                pid: info.pid,
                truncated: info.overwritten > 0,
                sampled_out: info.sampled_out,
                events: ins.trace_events(info.pid),
            })
            .collect();
        TraceLog { rings }
    }

    /// Snapshots every trace ring of the region behind an engine handle.
    pub fn from_ipc(ipc: &mpf::IpcMpf) -> Self {
        let n = ipc.max_processes();
        let mut rings = Vec::with_capacity(n as usize);
        for pid in 0..n {
            let (head, skipped) = ipc.trace_ring_stats(pid).unwrap_or((0, 0));
            rings.push(PidEvents {
                pid,
                truncated: head > mpf_shm::tracering::TRACE_RING_SLOTS as u64,
                sampled_out: skipped,
                events: ipc.trace_events(pid),
            });
        }
        TraceLog { rings }
    }

    /// Per-process ring snapshots, in pid order.
    pub fn rings(&self) -> &[PidEvents] {
        &self.rings
    }

    /// Total surviving records.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.events.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when any contributing ring lost records to wrap-around.
    pub fn truncated(&self) -> bool {
        self.rings.iter().any(|r| r.truncated)
    }

    fn recs(&self) -> impl Iterator<Item = Rec> + '_ {
        self.rings
            .iter()
            .flat_map(|r| r.events.iter().map(move |&ev| Rec { pid: r.pid, ev }))
    }

    /// Groups traced events into causal chains, ordered by first stamp.
    pub fn chains(&self) -> Vec<Chain> {
        let mut by_id: BTreeMap<u64, Vec<Rec>> = BTreeMap::new();
        for rec in self.recs() {
            if rec.ev.trace != 0 {
                by_id.entry(rec.ev.trace).or_default().push(rec);
            }
        }
        let mut chains: Vec<Chain> = by_id
            .into_iter()
            .map(|(id, mut events)| {
                events.sort_by_key(|r| (r.ev.hop, r.ev.stamp, kind_rank(r.ev.kind), r.ev.tstamp));
                Chain { id, events }
            })
            .collect();
        chains.sort_by_key(|c| c.events.first().map(|r| r.ev.stamp).unwrap_or(u64::MAX));
        chains
    }

    /// Per-LNVC send/receive streams in stamp order.
    pub fn streams(&self) -> Vec<LnvcStream> {
        let mut by_lnvc: BTreeMap<u32, LnvcStream> = BTreeMap::new();
        for rec in self.recs() {
            if rec.ev.lnvc == NIL {
                continue;
            }
            let s = by_lnvc.entry(rec.ev.lnvc).or_insert_with(|| LnvcStream {
                lnvc: rec.ev.lnvc,
                sends: Vec::new(),
                recvs: Vec::new(),
            });
            match rec.ev.kind {
                TR_SEND => s.sends.push(rec),
                TR_RECV | TR_RECV_B => s.recvs.push(rec),
                _ => {}
            }
        }
        let mut streams: Vec<LnvcStream> = by_lnvc.into_values().collect();
        for s in &mut streams {
            s.sends.sort_by_key(|r| r.ev.stamp);
            s.recvs.sort_by_key(|r| r.ev.stamp);
        }
        streams
    }

    /// Runs the offline conformance checker (see module docs and DESIGN.md).
    pub fn check(&self) -> Report {
        let truncated = self.truncated();

        // Per-message views keyed by (trace, stamp): the stamp is globally
        // unique per message, the trace id ties hops of one chain together.
        #[derive(Default)]
        struct Msg {
            send: Option<Rec>,
            fcfs: Vec<Rec>,
            bcast: Vec<Rec>,
            reclaimed: bool,
        }
        let mut msgs: BTreeMap<(u64, u64), Msg> = BTreeMap::new();
        // LNVCs with lifecycle markers that legitimately void obligations.
        let mut poisoned: BTreeSet<u32> = BTreeSet::new();
        let mut closed: BTreeSet<u32> = BTreeSet::new();
        let mut global_poison = false;
        let mut fault_recs: Vec<Rec> = Vec::new();

        for rec in self.recs() {
            match rec.ev.kind {
                TR_SEND => {
                    msgs.entry((rec.ev.trace, rec.ev.stamp)).or_default().send = Some(rec);
                }
                TR_RECV => msgs
                    .entry((rec.ev.trace, rec.ev.stamp))
                    .or_default()
                    .fcfs
                    .push(rec),
                TR_RECV_B => msgs
                    .entry((rec.ev.trace, rec.ev.stamp))
                    .or_default()
                    .bcast
                    .push(rec),
                TR_RECLAIM => {
                    msgs.entry((rec.ev.trace, rec.ev.stamp))
                        .or_default()
                        .reclaimed = true;
                }
                TR_POISON => {
                    if rec.ev.lnvc == NIL {
                        global_poison = true;
                    } else {
                        poisoned.insert(rec.ev.lnvc);
                    }
                }
                TR_CLOSE_RECV => {
                    closed.insert(rec.ev.lnvc);
                }
                TR_FAULT => {
                    // An injected peer-death on a conversation voids its
                    // delivery obligations exactly like a real poison.
                    if rec.ev.arg == FaultSite::PeerDied.code() && rec.ev.lnvc != NIL {
                        poisoned.insert(rec.ev.lnvc);
                    }
                    fault_recs.push(rec);
                }
                _ => {}
            }
        }

        let excused = |lnvc: u32| -> bool {
            truncated || global_poison || poisoned.contains(&lnvc) || closed.contains(&lnvc)
        };

        let mut violations = Vec::new();
        let mut deliveries = 0usize;
        let mut messages = 0usize;

        // Rule: error-class fault injections must carry the status they
        // surfaced (`arg2` = magnitude of the typed error code).  A zero
        // here means the plane injected pool-exhaust or peer-died but the
        // caller was never told — a silently swallowed failure.
        for rec in &fault_recs {
            let site = FaultSite::from_code(rec.ev.arg);
            if site.is_some_and(|s| s.is_error_fault()) && rec.ev.arg2 == 0 {
                violations.push(Violation {
                    rule: Rule::SilentErrorFault,
                    trace: rec.ev.trace,
                    stamp: rec.ev.stamp,
                    lnvc: rec.ev.lnvc,
                    detail: format!(
                        "pid {} injected {} but recorded no surfaced status",
                        rec.pid,
                        site.map_or("?", |s| s.name())
                    ),
                });
            }
        }

        for (&(trace, stamp), msg) in &msgs {
            deliveries += msg.fcfs.len() + msg.bcast.len();
            if msg.send.is_some() {
                messages += 1;
            }

            // Rule: exactly-once FCFS delivery.
            if msg.fcfs.len() > 1 {
                violations.push(Violation {
                    rule: Rule::DoubleFcfsDelivery,
                    trace,
                    stamp,
                    lnvc: msg.fcfs[0].ev.lnvc,
                    detail: format!(
                        "delivered {} times (pids {:?})",
                        msg.fcfs.len(),
                        msg.fcfs.iter().map(|r| r.pid).collect::<Vec<_>>()
                    ),
                });
            }

            // Rule: one broadcast copy per receiver.
            let mut seen_pids = BTreeSet::new();
            for r in &msg.bcast {
                if !seen_pids.insert(r.pid) {
                    violations.push(Violation {
                        rule: Rule::DoubleBcastDelivery,
                        trace,
                        stamp,
                        lnvc: r.ev.lnvc,
                        detail: format!("pid {} received the same broadcast twice", r.pid),
                    });
                }
            }

            match msg.send {
                None => {
                    // Rule: every delivery needs a sender — unless the send
                    // record fell past the truncation horizon.
                    if (!msg.fcfs.is_empty() || !msg.bcast.is_empty()) && !truncated {
                        let r = msg.fcfs.first().or(msg.bcast.first()).unwrap();
                        violations.push(Violation {
                            rule: Rule::RecvWithoutSend,
                            trace,
                            stamp,
                            lnvc: r.ev.lnvc,
                            detail: format!(
                                "{} recorded by pid {} but no ring holds the send",
                                trace_event_name(r.ev.kind),
                                r.pid
                            ),
                        });
                    }
                }
                Some(send) => {
                    // Obligations fixed at send: arg2 = (needs_fcfs << 16) | n_bcast.
                    let needs_fcfs = (send.ev.arg2 >> 16) & 1 == 1;
                    let n_bcast = send.ev.arg2 & 0xffff;
                    let lnvc = send.ev.lnvc;

                    if seen_pids.len() as u32 > n_bcast {
                        violations.push(Violation {
                            rule: Rule::BcastOverDelivery,
                            trace,
                            stamp,
                            lnvc,
                            detail: format!(
                                "{} receivers saw it, population at send was {}",
                                seen_pids.len(),
                                n_bcast
                            ),
                        });
                    }
                    if msg.reclaimed {
                        // Once reclaimed the delivery set is final.
                        if (seen_pids.len() as u32) < n_bcast && !excused(lnvc) {
                            violations.push(Violation {
                                rule: Rule::BcastUnderDelivery,
                                trace,
                                stamp,
                                lnvc,
                                detail: format!(
                                    "reclaimed after {}/{} broadcast deliveries",
                                    seen_pids.len(),
                                    n_bcast
                                ),
                            });
                        }
                        if needs_fcfs && msg.fcfs.is_empty() && !excused(lnvc) {
                            violations.push(Violation {
                                rule: Rule::ReclaimBeforeDelivery,
                                trace,
                                stamp,
                                lnvc,
                                detail: "reclaimed before its FCFS delivery".to_string(),
                            });
                        }
                    }
                }
            }
        }

        // Rule: FCFS deliveries to one receiver from one LNVC arrive in
        // stamp (enqueue) order.  Checked per ring in record order; sampling
        // only thins the sequence, which preserves monotonicity.
        for ring in &self.rings {
            let mut last: BTreeMap<u32, u64> = BTreeMap::new();
            for ev in &ring.events {
                if ev.kind != TR_RECV {
                    continue;
                }
                if let Some(&prev) = last.get(&ev.lnvc) {
                    if ev.stamp <= prev {
                        violations.push(Violation {
                            rule: Rule::FcfsOrder,
                            trace: ev.trace,
                            stamp: ev.stamp,
                            lnvc: ev.lnvc,
                            detail: format!(
                                "pid {} received stamp {} after stamp {}",
                                ring.pid, ev.stamp, prev
                            ),
                        });
                    }
                }
                last.insert(ev.lnvc, ev.stamp);
            }
        }

        violations.sort_by_key(|v| (v.stamp, v.trace));
        Report {
            violations,
            truncated,
            messages,
            deliveries,
            faults: fault_recs.len(),
        }
    }

    /// Renders the log as Chrome `trace_event` JSON (Perfetto-loadable).
    ///
    /// Every record becomes a 1 µs complete slice on track
    /// `pid = MPF pid`, `tid = LNVC`; each send→receive pair additionally
    /// emits a flow arrow keyed by the message stamp, so causal chains draw
    /// as connected arcs across process tracks.  An undated record sits at
    /// a neighbour's date in its ring (see [`placed`]) with `"dated":false`
    /// in its args.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, ev: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&ev);
        };

        for ring in &self.rings {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"mpf pid {}\"}}}}",
                    ring.pid, ring.pid
                ),
            );
        }

        // Collect send/recv pairs for flow arrows, each with where it was
        // placed, while emitting slices.
        let mut sends: BTreeMap<u64, (Rec, u64)> = BTreeMap::new();
        let mut recvs: Vec<(Rec, u64)> = Vec::new();
        let earliest = self.recs().map(|r| r.ev.tstamp).filter(|&t| t != 0).min();

        for ring in &self.rings {
            let at = placed(&ring.events, earliest.unwrap_or(0));
            for (&ev, at) in ring.events.iter().zip(at) {
                let rec = Rec { pid: ring.pid, ev };
                let tid: i64 = if ev.lnvc == NIL { -1 } else { ev.lnvc as i64 };
                let undated = if ev.tstamp == 0 {
                    ",\"dated\":false"
                } else {
                    ""
                };
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"mpf\",\"ph\":\"X\",\"ts\":{},\"dur\":1,\
                         \"pid\":{},\"tid\":{},\"args\":{{\"trace\":\"{:#x}\",\"stamp\":{},\
                         \"hop\":{},\"arg\":{},\"arg2\":{},\"seq\":{}{}}}}}",
                        trace_event_name(ev.kind),
                        micros(at),
                        rec.pid,
                        tid,
                        ev.trace,
                        ev.stamp,
                        ev.hop,
                        ev.arg,
                        ev.arg2,
                        ev.seq,
                        undated,
                    ),
                );
                match ev.kind {
                    TR_SEND => {
                        sends.insert(ev.stamp, (rec, at));
                    }
                    TR_RECV | TR_RECV_B => recvs.push((rec, at)),
                    _ => {}
                }
            }
        }

        for (r, r_at) in recvs {
            if let Some(&(s, s_at)) = sends.get(&r.ev.stamp) {
                let flow = r.ev.stamp;
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"msg\",\"cat\":\"mpf\",\"ph\":\"s\",\"id\":{},\"ts\":{},\
                         \"pid\":{},\"tid\":{}}}",
                        flow,
                        micros(s_at),
                        s.pid,
                        s.ev.lnvc
                    ),
                );
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"msg\",\"cat\":\"mpf\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\
                         \"ts\":{},\"pid\":{},\"tid\":{}}}",
                        flow,
                        micros(r_at),
                        r.pid,
                        r.ev.lnvc
                    ),
                );
            }
        }

        out.push_str("]}");
        out
    }

    /// Human-readable chain rendering for the CLI.
    pub fn render_chains(&self) -> String {
        let mut out = String::new();
        for chain in self.chains() {
            out.push_str(&format!(
                "chain {:#018x} ({} events, {} hops)\n",
                chain.id,
                chain.events.len(),
                chain.hops()
            ));
            for r in &chain.events {
                out.push_str(&format!(
                    "  hop {} pid {:<3} {:<10} lnvc {:<5} stamp {:<8} arg {:<8} t {}\n",
                    r.ev.hop,
                    r.pid,
                    trace_event_name(r.ev.kind),
                    if r.ev.lnvc == NIL {
                        "-".to_string()
                    } else {
                        r.ev.lnvc.to_string()
                    },
                    r.ev.stamp,
                    r.ev.arg,
                    date(r.ev.tstamp)
                ));
            }
        }
        out
    }
}

/// A record's date for the text views: its `tstamp`, or `-` when it is
/// undated (0: written by a call that handled no timed message).
pub(crate) fn date(tstamp: u64) -> String {
    match tstamp {
        0 => "-".into(),
        t => t.to_string(),
    }
}

/// Where the Chrome export places each record of `events` (one ring, in
/// ring order): at its own date, or, undated, at the date of the nearest
/// dated record before it in the ring — after it when none precedes, and
/// `fallback` (the log's earliest date) in a ring with no dated record.
fn placed(events: &[TraceEvent], fallback: u64) -> Vec<u64> {
    let mut at: Vec<u64> = events
        .iter()
        .scan(0, |last, e| {
            *last = if e.tstamp != 0 { e.tstamp } else { *last };
            Some(*last)
        })
        .collect();
    let first = events.iter().map(|e| e.tstamp).find(|&t| t != 0);
    for t in at.iter_mut().take_while(|t| **t == 0) {
        *t = first.unwrap_or(fallback);
    }
    at
}

/// Microsecond timestamp with sub-µs precision, as Chrome expects.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1000, nanos % 1000)
}

/// Sort deliveries after the send that produced them when hops tie.
fn kind_rank(kind: u32) -> u32 {
    match kind {
        TR_SEND => 0,
        TR_RECV | TR_RECV_B => 1,
        TR_RECLAIM => 3,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpf_shm::tracering::{TR_ENQUEUE, TR_WAKEUP};

    fn ev(
        kind: u32,
        trace: u64,
        stamp: u64,
        hop: u32,
        lnvc: u32,
        arg: u32,
        arg2: u32,
    ) -> TraceEvent {
        TraceEvent {
            seq: 0,
            tstamp: stamp * 1000,
            trace,
            stamp,
            arg,
            kind,
            hop,
            lnvc,
            arg2,
        }
    }

    fn log(rings: Vec<(u32, Vec<TraceEvent>)>) -> TraceLog {
        TraceLog::new(
            rings
                .into_iter()
                .map(|(pid, events)| PidEvents {
                    pid,
                    truncated: false,
                    sampled_out: 0,
                    events,
                })
                .collect(),
        )
    }

    #[test]
    fn clean_fcfs_round_trip_passes() {
        let l = log(vec![
            (
                0,
                vec![
                    ev(TR_SEND, 0x10, 1, 0, 3, 64, 1 << 16),
                    ev(TR_SEND, 0x20, 2, 0, 3, 64, 1 << 16),
                ],
            ),
            (
                1,
                vec![
                    ev(TR_RECV, 0x10, 1, 0, 3, 64, 0),
                    ev(TR_RECV, 0x20, 2, 0, 3, 64, 0),
                    ev(TR_RECLAIM, 0x10, 1, 0, NIL, 7, 0),
                    ev(TR_RECLAIM, 0x20, 2, 0, NIL, 8, 0),
                ],
            ),
        ]);
        let report = l.check();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.messages, 2);
        assert_eq!(report.deliveries, 2);
        assert_eq!(l.chains().len(), 2);
    }

    #[test]
    fn fcfs_order_violation_detected() {
        let l = log(vec![
            (
                0,
                vec![
                    ev(TR_SEND, 0x10, 1, 0, 3, 64, 1 << 16),
                    ev(TR_SEND, 0x20, 2, 0, 3, 64, 1 << 16),
                ],
            ),
            (
                1,
                vec![
                    ev(TR_RECV, 0x20, 2, 0, 3, 64, 0),
                    ev(TR_RECV, 0x10, 1, 0, 3, 64, 0),
                ],
            ),
        ]);
        let report = l.check();
        assert!(report.violations.iter().any(|v| v.rule == Rule::FcfsOrder));
    }

    #[test]
    fn double_fcfs_delivery_detected() {
        let l = log(vec![
            (0, vec![ev(TR_SEND, 0x10, 1, 0, 3, 64, 1 << 16)]),
            (1, vec![ev(TR_RECV, 0x10, 1, 0, 3, 64, 0)]),
            (2, vec![ev(TR_RECV, 0x10, 1, 0, 3, 64, 0)]),
        ]);
        let report = l.check();
        assert!(report
            .violations
            .iter()
            .any(|v| v.rule == Rule::DoubleFcfsDelivery));
    }

    #[test]
    fn recv_without_send_needs_full_history() {
        let orphan = vec![(1u32, vec![ev(TR_RECV, 0x10, 5, 0, 3, 64, 0)])];
        let report = log(orphan.clone()).check();
        assert!(report
            .violations
            .iter()
            .any(|v| v.rule == Rule::RecvWithoutSend));

        // Same log, but the sender's ring wrapped: suppressed.
        let mut rings: Vec<PidEvents> = orphan
            .into_iter()
            .map(|(pid, events)| PidEvents {
                pid,
                truncated: false,
                sampled_out: 0,
                events,
            })
            .collect();
        rings.push(PidEvents {
            pid: 0,
            truncated: true,
            sampled_out: 0,
            events: vec![],
        });
        let report = TraceLog::new(rings).check();
        assert!(report.truncated);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn bcast_under_delivery_detected_and_poison_excuses() {
        // Population 2 at send, one delivery, then reclaimed.
        let base = vec![
            (0u32, vec![ev(TR_SEND, 0x10, 1, 0, 3, 64, 2)]),
            (
                1u32,
                vec![
                    ev(TR_RECV_B, 0x10, 1, 0, 3, 64, 0),
                    ev(TR_RECLAIM, 0x10, 1, 0, NIL, 7, 0),
                ],
            ),
        ];
        let report = log(base.clone()).check();
        assert!(report
            .violations
            .iter()
            .any(|v| v.rule == Rule::BcastUnderDelivery));

        // A poison marker on the LNVC voids the missing receiver's claim.
        let mut with_poison = base;
        with_poison
            .get_mut(1)
            .unwrap()
            .1
            .push(ev(TR_POISON, 0, 0, 0, 3, 99, 0));
        let report = log(with_poison).check();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn bcast_over_delivery_detected() {
        let l = log(vec![
            (0, vec![ev(TR_SEND, 0x10, 1, 0, 3, 64, 1)]),
            (1, vec![ev(TR_RECV_B, 0x10, 1, 0, 3, 64, 0)]),
            (2, vec![ev(TR_RECV_B, 0x10, 1, 0, 3, 64, 0)]),
        ]);
        let report = l.check();
        assert!(report
            .violations
            .iter()
            .any(|v| v.rule == Rule::BcastOverDelivery));
    }

    #[test]
    fn reclaim_before_fcfs_delivery_detected_and_close_excuses() {
        let base = vec![(
            0u32,
            vec![
                ev(TR_SEND, 0x10, 1, 0, 3, 64, 1 << 16),
                ev(TR_RECLAIM, 0x10, 1, 0, NIL, 7, 0),
            ],
        )];
        let report = log(base.clone()).check();
        assert!(report
            .violations
            .iter()
            .any(|v| v.rule == Rule::ReclaimBeforeDelivery));

        let mut with_close = base;
        with_close
            .get_mut(0)
            .unwrap()
            .1
            .push(ev(TR_CLOSE_RECV, 0, 0, 0, 3, 1, 0));
        let report = log(with_close).check();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn silent_error_fault_detected_and_delay_faults_exempt() {
        // A pool-exhaust injection (site 3) with no surfaced status.
        let l = log(vec![(0, vec![ev(TR_FAULT, 0, 0, 0, NIL, 3, 0)])]);
        let report = l.check();
        assert_eq!(report.faults, 1);
        assert!(report
            .violations
            .iter()
            .any(|v| v.rule == Rule::SilentErrorFault));

        // The same injection carrying |PoolsExhausted| is conformant, and
        // delay-class faults (notify-drop, lock-stall) never need one.
        let l = log(vec![(
            0,
            vec![
                ev(TR_FAULT, 0, 0, 0, NIL, 3, 9),
                ev(TR_FAULT, 0, 0, 0, 3, 1, 0),
                ev(TR_FAULT, 0, 0, 0, 3, 2, 0),
            ],
        )]);
        let report = l.check();
        assert_eq!(report.faults, 3);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn injected_peer_death_excuses_obligations_like_poison() {
        // Population 2 at send, one delivery, reclaimed — normally an
        // under-delivery, but a peer-died injection on the LNVC voids it.
        let l = log(vec![
            (0, vec![ev(TR_SEND, 0x10, 1, 0, 3, 64, 2)]),
            (
                1,
                vec![
                    ev(TR_RECV_B, 0x10, 1, 0, 3, 64, 0),
                    ev(TR_RECLAIM, 0x10, 1, 0, NIL, 7, 0),
                    ev(TR_FAULT, 0, 0, 0, 3, 4, 18),
                ],
            ),
        ]);
        let report = l.check();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn chains_order_by_hop_and_streams_split_by_lnvc() {
        let l = log(vec![
            (
                0,
                vec![
                    ev(TR_SEND, 0x10, 1, 0, 3, 64, 1 << 16),
                    ev(TR_ENQUEUE, 0x30, 9, 0, 4, 32, 0),
                ],
            ),
            (
                1,
                vec![
                    ev(TR_RECV, 0x10, 1, 0, 3, 64, 0),
                    ev(TR_SEND, 0x10, 2, 1, 4, 16, 1 << 16),
                    ev(TR_WAKEUP, 0x10, 0, 0, 3, 64, 0),
                ],
            ),
            (2, vec![ev(TR_RECV, 0x10, 2, 1, 4, 16, 0)]),
        ]);
        let chains = l.chains();
        assert_eq!(chains.len(), 2);
        let chain = chains.iter().find(|c| c.id == 0x10).unwrap();
        assert_eq!(chain.hops(), 2);
        let hops: Vec<u32> = chain.events.iter().map(|r| r.ev.hop).collect();
        let mut sorted = hops.clone();
        sorted.sort_unstable();
        assert_eq!(hops, sorted);

        let streams = l.streams();
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].lnvc, 3);
        assert_eq!(streams[0].sends.len(), 1);
        assert_eq!(streams[0].recvs.len(), 1);
        assert_eq!(streams[1].lnvc, 4);
    }

    #[test]
    fn undated_records_take_a_neighbours_date() {
        let at = |dates: &[u64]| {
            let evs: Vec<_> = dates
                .iter()
                .map(|&t| TraceEvent {
                    tstamp: t,
                    ..ev(TR_SEND, 0x10, 1, 0, 3, 64, 0)
                })
                .collect();
            placed(&evs, 99)
        };
        assert_eq!(at(&[0, 0, 5, 0, 7, 0]), [5, 5, 5, 5, 7, 7]);
        assert_eq!(at(&[0, 0]), [99, 99], "no date in the ring");
        assert_eq!(date(0), "-");
        assert_eq!(date(42), "42");
    }

    #[test]
    fn chrome_json_is_balanced_and_has_flows() {
        let l = log(vec![
            (0, vec![ev(TR_SEND, 0x10, 1, 0, 3, 64, 1 << 16)]),
            (1, vec![ev(TR_RECV, 0x10, 1, 0, 3, 64, 0)]),
        ]);
        let json = l.chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"process_name\""));
    }
}
