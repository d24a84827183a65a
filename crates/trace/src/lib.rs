//! Offline causal-trace reconstruction for MPF trace rings.
//!
//! The protocol engine (behind `mpf::Mpf` and `mpf::IpcMpf` alike)
//! stamps a 64-bit trace id into every message descriptor at send time and
//! appends fixed-size records to per-process crash-persistent trace rings
//! (`mpf_shm::tracering`).  This crate consumes those records — live or
//! post-mortem, via [`mpf::inspect::RegionInspector`] or directly from a
//! facility handle — and rebuilds two views:
//!
//! - **causal chains**: all events sharing a trace id, ordered by hop, so a
//!   request that bounced through three processes reads as one story;
//! - **a conformance report**: the log replayed through the paper's §3
//!   delivery contract as [`mpf::spec`] states it (FIFO per receiver,
//!   exactly-once FCFS delivery, one broadcast copy per receiver connected
//!   at send, no receive without a send, no reclaim before the obligations
//!   were met, each send's recorded obligations equal to the population's).
//!
//! ## Truncation horizon
//!
//! Trace rings are bounded: once a writer wraps, the oldest records are gone.
//! The checker never reports a violation that a lost record could explain:
//! if *any* contributing ring has overwritten records, the rules that need
//! the whole history ([`Rule::needs_full_history`]: a lost send, a lost
//! open or close, a lost delivery) are suppressed and the report notes the
//! horizon instead.  Order and double-delivery rules need only the
//! surviving records and stay active.
//!
//! Everything here is read-only and lock-free: safe to point at the region of
//! a SIGKILLed process.

pub mod render;

use std::collections::BTreeMap;
use std::fmt;

use mpf::spec::Spec;
use mpf::Protocol;
use mpf_shm::faultplane::FaultSite;
use mpf_shm::tracering::{
    trace_event_name, TraceEvent, TR_CLOSE_RECV, TR_CLOSE_SEND, TR_FAULT, TR_OPEN_RECV,
    TR_OPEN_SEND, TR_POISON, TR_RECLAIM, TR_RECV, TR_RECV_B, TR_SEND,
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

/// Conformance rules: the §3 spec's, under their CLI names.
pub use mpf::spec::Rule;

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

    /// Runs the offline conformance checker: replays the log through the
    /// §3 spec, [`mpf::spec`], in `replay_order` (see the module
    /// docs and DESIGN.md "Causal tracing").
    pub fn check(&self) -> Report {
        // A lost record could explain any breach of a rule that needs the
        // whole history.
        let truncated = self.truncated();
        let mut spec = Spec::default();
        let (mut violations, mut sent_on) = (Vec::new(), BTreeMap::new());
        for Rec { pid, ev } in self.replay_order() {
            // A reclaim record names no conversation; its send's does.
            let conv = match ev.kind {
                TR_RECLAIM => sent_on.get(&ev.stamp).copied().unwrap_or(ev.lnvc),
                _ => ev.lnvc,
            };
            let protocol = |bcast| [Protocol::Fcfs, Protocol::Broadcast][usize::from(bcast)];
            // A population record no engine writes (a close with no open,
            // a second open) is refused, and breaks no rule by itself.
            let _ = match ev.kind {
                TR_OPEN_SEND => spec.open_send(conv, pid),
                TR_OPEN_RECV => {
                    let bcast = ev.arg == Protocol::Broadcast.code();
                    spec.open_receive(conv, pid, protocol(bcast))
                }
                TR_CLOSE_SEND => spec.close_send(conv, pid),
                TR_CLOSE_RECV => spec.close_receive(conv, pid),
                _ => Ok(()),
            };
            let breach = match ev.kind {
                TR_POISON => {
                    spec.poison(conv, Some(ev.arg));
                    None
                }
                TR_FAULT => {
                    let site = FaultSite::from_code(ev.arg);
                    // An injected peer death on a conversation voids its
                    // obligations from there on, like a real poison.
                    if site == Some(FaultSite::PeerDied) {
                        spec.poison(conv, None);
                    }
                    let silent = site.is_some_and(|s| s.is_error_fault()) && ev.arg2 == 0;
                    silent.then_some(Rule::SilentErrorFault)
                }
                TR_SEND => {
                    sent_on.insert(ev.stamp, conv);
                    // Packed as the engine packs them: needs_fcfs << 16 | n_bcast.
                    let owed = spec.send(conv, pid, ev.stamp);
                    let owed = owed.map(|o| u32::from(o.needs_fcfs) << 16 | o.n_bcast);
                    (owed != Ok(ev.arg2)).then_some(Rule::ObligationMismatch)
                }
                TR_RECV | TR_RECV_B => {
                    spec.deliver(conv, pid, ev.stamp, protocol(ev.kind == TR_RECV_B))
                }
                TR_RECLAIM => spec.reclaim(ev.stamp),
                _ => None,
            };
            if let Some(rule) = breach.filter(|r| !(truncated && r.needs_full_history())) {
                let name = trace_event_name(ev.kind);
                violations.push(Violation {
                    rule,
                    trace: ev.trace,
                    stamp: ev.stamp,
                    lnvc: conv,
                    detail: format!("{name} by pid {pid}, arg2 {:#x}", ev.arg2),
                });
            }
        }
        violations.sort_by_key(|v| (v.stamp, v.trace));
        let count = |kinds: &[u32]| self.recs().filter(|r| kinds.contains(&r.ev.kind)).count();
        Report {
            violations,
            truncated,
            messages: count(&[TR_SEND]),
            deliveries: count(&[TR_RECV, TR_RECV_B]),
            faults: count(&[TR_FAULT]),
        }
    }

    /// The log in the order [`Self::check`] replays it: sends and
    /// population records by stamp (one sequence, taken under the
    /// conversation's lock); a delivery as early as it can have happened,
    /// after its send and what precedes it in its ring; anything else as
    /// late, just before its ring's next stamped record.  So whatever met
    /// an obligation before a reclaim is replayed before it.
    fn replay_order(&self) -> Vec<Rec> {
        let kinds = [
            TR_SEND,
            TR_OPEN_SEND,
            TR_OPEN_RECV,
            TR_CLOSE_SEND,
            TR_CLOSE_RECV,
            TR_POISON,
        ];
        let stamped = |e: &TraceEvent| kinds.contains(&e.kind);
        let mut keyed = Vec::with_capacity(self.len());
        for ring in &self.rings {
            let mut floor = 0;
            for (pos, &ev) in ring.events.iter().enumerate() {
                let at = match ev.kind {
                    _ if stamped(&ev) => (ev.stamp, 1),
                    TR_RECV | TR_RECV_B => (floor.max(ev.stamp), 2),
                    _ => {
                        let next = ring.events[pos..].iter().find(|e| stamped(e));
                        (next.map_or(u64::MAX, |e| e.stamp), 0)
                    }
                };
                floor = if at.1 == 0 { floor } else { floor.max(at.0) };
                keyed.push((at, ring.pid, pos, Rec { pid: ring.pid, ev }));
            }
        }
        keyed.sort_by_key(|&(at, pid, pos, _)| (at, pid, pos));
        keyed.into_iter().map(|(.., rec)| rec).collect()
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
    use mpf_shm::tracering::TR_WAKEUP;
    use std::collections::BTreeSet;

    const FCFS: u32 = 1;
    const BCAST: u32 = 2;

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

    /// A population record on conversation 3, stamped from the send
    /// sequence as the engine stamps it.
    fn pop(kind: u32, stamp: u64, arg: u32) -> TraceEvent {
        ev(kind, 0, stamp, 0, 3, arg, 0)
    }

    /// A send, delivery or reclaim of message `stamp` on conversation 3.
    fn msg(kind: u32, stamp: u64, arg2: u32) -> TraceEvent {
        let lnvc = if kind == TR_RECLAIM { NIL } else { 3 };
        ev(kind, 0x10 + stamp, stamp, 0, lnvc, 64, arg2)
    }

    /// A log of `(pid, record)` pairs, each ring in the order given.
    fn log(recs: &[(u32, TraceEvent)]) -> TraceLog {
        let pids: BTreeSet<u32> = recs.iter().map(|r| r.0).collect();
        let ring = |pid| PidEvents {
            pid,
            truncated: false,
            sampled_out: 0,
            events: recs.iter().filter(|r| r.0 == pid).map(|r| r.1).collect(),
        };
        TraceLog::new(pids.into_iter().map(ring).collect())
    }

    fn rules(recs: &[(u32, TraceEvent)]) -> Vec<Rule> {
        let report = log(recs).check();
        report.violations.iter().map(|v| v.rule).collect()
    }

    /// Sender 0 and FCFS receiver 1 open, then two messages go out.
    fn fcfs_pair(then: &[(u32, TraceEvent)]) -> Vec<(u32, TraceEvent)> {
        let opened = [
            (0, pop(TR_OPEN_SEND, 0, 0)),
            (1, pop(TR_OPEN_RECV, 1, FCFS)),
            (0, msg(TR_SEND, 2, 1 << 16)),
            (0, msg(TR_SEND, 3, 1 << 16)),
        ];
        [&opened, then].concat()
    }

    /// Sender 0 and BROADCAST receivers 1 and 2 open, one message goes out,
    /// receiver 1 reads it, and then `then` happens in receiver 1's ring.
    fn bcast_pair(then: &[TraceEvent]) -> Vec<(u32, TraceEvent)> {
        let read = [
            (0, pop(TR_OPEN_SEND, 0, 0)),
            (1, pop(TR_OPEN_RECV, 1, BCAST)),
            (2, pop(TR_OPEN_RECV, 2, BCAST)),
            (0, msg(TR_SEND, 3, 2)),
            (1, msg(TR_RECV_B, 3, 0)),
        ];
        [&read[..], &then.iter().map(|&e| (1, e)).collect::<Vec<_>>()].concat()
    }

    #[test]
    fn clean_fcfs_round_trip_passes() {
        let l = log(&fcfs_pair(&[
            (1, msg(TR_RECV, 2, 0)),
            (1, msg(TR_RECV, 3, 0)),
            (1, msg(TR_RECLAIM, 2, 0)),
            (1, msg(TR_RECLAIM, 3, 0)),
        ]));
        let report = l.check();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!((report.messages, report.deliveries), (2, 2));
        assert_eq!(l.chains().len(), 2);
    }

    #[test]
    fn fcfs_order_violation_detected() {
        let backwards = fcfs_pair(&[(1, msg(TR_RECV, 3, 0)), (1, msg(TR_RECV, 2, 0))]);
        assert_eq!(rules(&backwards), [Rule::FcfsOrder]);
    }

    #[test]
    fn double_fcfs_delivery_detected() {
        let twice = fcfs_pair(&[
            (2, pop(TR_OPEN_RECV, 4, FCFS)),
            (1, msg(TR_RECV, 2, 0)),
            (2, msg(TR_RECV, 2, 0)),
        ]);
        assert_eq!(rules(&twice), [Rule::DoubleFcfsDelivery]);
    }

    #[test]
    fn recv_without_send_needs_full_history() {
        let orphan = [(1, msg(TR_RECV, 5, 0))];
        assert_eq!(rules(&orphan), [Rule::RecvWithoutSend]);

        // Same log, but the sender's ring wrapped: suppressed.
        let mut rings = log(&orphan).rings;
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
        let reclaim = msg(TR_RECLAIM, 3, 0);
        assert_eq!(rules(&bcast_pair(&[reclaim])), [Rule::BcastUnderDelivery]);
        // Receiver 2 died: the sweep poisons the conversation before it
        // drops the queue, voiding the missing receiver's claim.
        let swept = bcast_pair(&[pop(TR_POISON, 4, 2), reclaim]);
        assert_eq!(rules(&swept), []);
    }

    /// A lock broken on conversation 5 says nothing about conversation 3,
    /// where receiver 2's BROADCAST copy is missing at the reclaim.
    #[test]
    fn broken_lock_beside_an_unrelated_shortfall_detected() {
        let mut l = bcast_pair(&[msg(TR_RECLAIM, 3, 0)]);
        l.extend([
            (3, ev(TR_OPEN_SEND, 0, 4, 0, 5, 0, 0)),
            (3, ev(TR_POISON, 0, 5, 0, 5, 4, 0)),
        ]);
        assert_eq!(rules(&l), [Rule::BcastUnderDelivery]);
    }

    #[test]
    fn injected_peer_death_excuses_obligations_like_poison() {
        // A peer-died injection on the conversation (site 4, surfaced as
        // status 18) before the reclaim voids the shortfall like a poison.
        let injected = bcast_pair(&[ev(TR_FAULT, 0, 0, 0, 3, 4, 18), msg(TR_RECLAIM, 3, 0)]);
        assert_eq!(rules(&injected), []);
    }

    #[test]
    fn bcast_over_delivery_detected() {
        // Receiver 3 joined after the send, so it is owed nothing.
        let late = bcast_pair(&[]);
        let late = [
            &late[..],
            &[(3, pop(TR_OPEN_RECV, 4, BCAST)), (3, msg(TR_RECV_B, 3, 0))],
        ];
        assert_eq!(rules(&late.concat()), [Rule::BcastOverDelivery]);
    }

    /// FCFS receiver 1 and BROADCAST receiver 2 are owed message 3; only 2
    /// reads it, and it is reclaimed.
    fn fcfs_beside_bcast(then: &[(u32, TraceEvent)]) -> Vec<(u32, TraceEvent)> {
        let read = [
            (0, pop(TR_OPEN_SEND, 0, 0)),
            (1, pop(TR_OPEN_RECV, 1, FCFS)),
            (2, pop(TR_OPEN_RECV, 2, BCAST)),
            (0, msg(TR_SEND, 3, (1 << 16) | 1)),
            (2, msg(TR_RECV_B, 3, 0)),
        ];
        [&read, then].concat()
    }

    #[test]
    fn reclaim_before_fcfs_delivery_detected_and_close_excuses() {
        let reclaimed = fcfs_beside_bcast(&[(2, msg(TR_RECLAIM, 3, 0))]);
        assert_eq!(rules(&reclaimed), [Rule::ReclaimBeforeDelivery]);
        // The last FCFS receiver leaves while a BROADCAST receiver stays:
        // the obligation goes with it, and its close reclaims the message.
        let closed = [(1, pop(TR_CLOSE_RECV, 4, FCFS)), (1, msg(TR_RECLAIM, 3, 0))];
        assert_eq!(rules(&fcfs_beside_bcast(&closed)), []);
    }

    /// An FCFS message is reclaimed undelivered while FCFS receiver 1 stays
    /// connected; the BROADCAST receiver read it and closed.
    #[test]
    fn fcfs_shortfall_beside_an_unrelated_close_detected() {
        let closed = [
            (2, pop(TR_CLOSE_RECV, 4, BCAST)),
            (2, msg(TR_RECLAIM, 3, 0)),
        ];
        let report = log(&fcfs_beside_bcast(&closed)).check();
        let v = &report.violations[..];
        assert_eq!(
            (v.len(), v[0].rule, v[0].lnvc),
            (1, Rule::ReclaimBeforeDelivery, 3)
        );
    }

    /// A BROADCAST copy is missing for receiver 2, which stayed connected;
    /// receiver 3 read its copy and closed, and its close reclaimed the
    /// message.
    #[test]
    fn bcast_shortfall_beside_an_unrelated_close_detected() {
        let l = [
            (0, pop(TR_OPEN_SEND, 0, 0)),
            (1, pop(TR_OPEN_RECV, 1, BCAST)),
            (2, pop(TR_OPEN_RECV, 2, BCAST)),
            (3, pop(TR_OPEN_RECV, 3, BCAST)),
            (0, msg(TR_SEND, 4, 3)),
            (1, msg(TR_RECV_B, 4, 0)),
            (3, msg(TR_RECV_B, 4, 0)),
            (3, pop(TR_CLOSE_RECV, 5, BCAST)),
            (3, msg(TR_RECLAIM, 4, 0)),
        ];
        assert_eq!(rules(&l), [Rule::BcastUnderDelivery]);
    }

    /// The engine and the spec check each other: a send recording two
    /// BROADCAST receivers where the population holds one is reported.
    #[test]
    fn send_disagreeing_with_the_population_detected() {
        let l = [
            (0, pop(TR_OPEN_SEND, 0, 0)),
            (1, pop(TR_OPEN_RECV, 1, BCAST)),
            (0, msg(TR_SEND, 2, 2)),
            (1, msg(TR_RECV_B, 2, 0)),
        ];
        assert_eq!(rules(&l), [Rule::ObligationMismatch]);
    }

    #[test]
    fn silent_error_fault_detected_and_delay_faults_exempt() {
        // A pool-exhaust injection (site 3) with no surfaced status.
        let report = log(&[(0, ev(TR_FAULT, 0, 0, 0, NIL, 3, 0))]).check();
        assert_eq!(report.faults, 1);
        assert_eq!(report.violations[0].rule, Rule::SilentErrorFault);

        // The same injection carrying |PoolsExhausted| is conformant, and
        // delay-class faults (notify-drop, lock-stall) never need one.
        let report = log(&[
            (0, ev(TR_FAULT, 0, 0, 0, NIL, 3, 9)),
            (0, ev(TR_FAULT, 0, 0, 0, 3, 1, 0)),
            (0, ev(TR_FAULT, 0, 0, 0, 3, 2, 0)),
        ])
        .check();
        assert_eq!(report.faults, 3);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn chains_order_by_hop() {
        let l = log(&[
            (0, ev(TR_SEND, 0x10, 1, 0, 3, 64, 1 << 16)),
            (0, ev(TR_RECLAIM, 0x30, 9, 0, NIL, 64, 0)),
            (1, ev(TR_RECV, 0x10, 1, 0, 3, 64, 0)),
            (1, ev(TR_SEND, 0x10, 2, 1, 4, 16, 1 << 16)),
            (1, ev(TR_WAKEUP, 0x10, 0, 0, 3, 64, 0)),
            (2, ev(TR_RECV, 0x10, 2, 1, 4, 16, 0)),
        ]);
        let chains = l.chains();
        assert_eq!(chains.len(), 2);
        let chain = chains.iter().find(|c| c.id == 0x10).unwrap();
        assert_eq!(chain.hops(), 2);
        let hops: Vec<u32> = chain.events.iter().map(|r| r.ev.hop).collect();
        assert!(hops.is_sorted(), "{hops:?}");
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
        let json = log(&fcfs_pair(&[(1, msg(TR_RECV, 2, 0))])).chrome_json();
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
