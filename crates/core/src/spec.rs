//! The paper's §3 delivery contract, stated once, as a pure state machine.
//!
//! The model test, `mpf-trace --check` and the simulator replay events here
//! instead of writing the rules again.  No atomics and no region: plain
//! values under the caller's keys.  The rules (DESIGN.md "MPF semantics"):
//!
//! - a message owes one FCFS delivery iff an FCFS receiver, or nobody, was
//!   connected when it was sent, and one BROADCAST copy to each BROADCAST
//!   receiver then connected;
//! - each receiver gets a conversation's messages in send order (so ids
//!   increase in send order, as the engine's send stamps do);
//! - obligation re-evaluation: when the last FCFS receiver leaves while
//!   BROADCAST receivers stay, or the first receiver to join is BROADCAST,
//!   untaken FCFS obligations are dropped; a departing BROADCAST receiver
//!   releases its claims;
//! - closing the last connection deletes the conversation with its queue;
//! - a message is reclaimed only once fully delivered, unless its
//!   conversation was deleted or poisoned with it queued.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::{MpfError, Protocol, Result};

/// A conversation key (in a trace, the engine's LNVC index).
pub type Conv = u32;
/// A process id.
pub type Pid = u32;
/// A message's identity, increasing in send order (the engine's stamp).
pub type MsgId = u64;

/// What a send owes, fixed at the instant it is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Owed {
    pub needs_fcfs: bool,
    /// BROADCAST receivers owed a copy.
    pub n_bcast: u32,
}

/// A breach of the contract, as the conformance checker names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A receiver's deliveries from one conversation went backwards in
    /// send order.
    FcfsOrder,
    /// The same FCFS message was delivered twice.
    DoubleFcfsDelivery,
    /// The same broadcast copy was delivered twice to one receiver.
    DoubleBcastDelivery,
    /// A delivery of a message no record shows sent.
    RecvWithoutSend,
    /// A broadcast copy reached a receiver not connected at send.
    BcastOverDelivery,
    /// A broadcast was reclaimed while a receiver connected at send still
    /// held its claim.
    BcastUnderDelivery,
    /// A message was reclaimed while it still owed its FCFS delivery.
    ReclaimBeforeDelivery,
    /// A send's recorded obligations differ from what the population owed.
    ObligationMismatch,
    /// An error-class fault injection (pool-exhaust, peer-died) recorded no
    /// surfaced status (`arg2 == 0`); delay-class faults are exempt.
    SilentErrorFault,
}

impl Rule {
    /// Whether a lost record could explain the breach, so that it is
    /// judged only on a complete record.
    pub fn needs_full_history(self) -> bool {
        use Rule::*;
        let completeness = [RecvWithoutSend, BcastOverDelivery, BcastUnderDelivery];
        completeness.contains(&self) || [ReclaimBeforeDelivery, ObligationMismatch].contains(&self)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rule::FcfsOrder => "fcfs-order",
            Rule::DoubleFcfsDelivery => "double-fcfs-delivery",
            Rule::DoubleBcastDelivery => "double-bcast-delivery",
            Rule::RecvWithoutSend => "recv-without-send",
            Rule::BcastOverDelivery => "bcast-over-delivery",
            Rule::BcastUnderDelivery => "bcast-under-delivery",
            Rule::ReclaimBeforeDelivery => "reclaim-before-delivery",
            Rule::ObligationMismatch => "obligation-mismatch",
            Rule::SilentErrorFault => "silent-error-fault",
        })
    }
}

#[derive(Debug, Default)]
struct Conversation {
    senders: BTreeSet<Pid>,
    receivers: BTreeMap<Pid, Protocol>,
    /// Sent and not yet reclaimed, in send order.
    queue: VecDeque<MsgId>,
    /// The dead process that poisoned it.
    poisoned: Option<Pid>,
}

impl Conversation {
    fn usable(&self) -> Result<()> {
        self.poisoned
            .map_or(Ok(()), |pid| Err(MpfError::PeerDied { pid }))
    }

    fn bcast(&self) -> impl Iterator<Item = Pid> + '_ {
        let bcast = self
            .receivers
            .iter()
            .filter(|(_, &p)| p == Protocol::Broadcast);
        bcast.map(|(&pid, _)| pid)
    }

    fn owed(&self) -> Owed {
        let n_bcast = self.bcast().count();
        let n_fcfs = self.receivers.len() - n_bcast;
        Owed {
            needs_fcfs: n_fcfs > 0 || n_bcast == 0,
            n_bcast: n_bcast as u32,
        }
    }
}

#[derive(Debug, Default)]
struct Message {
    conv: Conv,
    /// False for a message first named by a delivery.
    sent: bool,
    needs_fcfs: bool,
    fcfs_taken: bool,
    /// Each BROADCAST copy's receiver, and whether it was delivered.
    copies: Vec<(Pid, bool)>,
    /// Its conversation was deleted or poisoned with it queued.
    void: bool,
}

impl Message {
    fn owes(&self, pid: Pid, protocol: Protocol) -> bool {
        match protocol {
            Protocol::Fcfs => self.needs_fcfs && !self.fcfs_taken,
            Protocol::Broadcast => self.copies.contains(&(pid, false)),
        }
    }

    fn fully_delivered(&self) -> bool {
        !self.owes(0, Protocol::Fcfs) && self.copies.iter().all(|&(_, got)| got)
    }
}

/// The §3 state of every conversation and every unreclaimed message.
#[derive(Debug, Default)]
pub struct Spec {
    convs: BTreeMap<Conv, Conversation>,
    msgs: BTreeMap<MsgId, Message>,
    /// Each receiver's last delivery per conversation.
    last: BTreeMap<(Pid, Conv), MsgId>,
}

impl Spec {
    /// What a send on `conv` would owe now; `None` when it is not alive.
    pub fn obligations(&self, conv: Conv) -> Option<Owed> {
        self.convs.get(&conv).map(Conversation::owed)
    }

    /// `open_LNVC_send`: joins (or creates) `conv` as a sender.
    pub fn open_send(&mut self, conv: Conv, pid: Pid) -> Result<()> {
        let c = self.convs.entry(conv).or_default();
        c.usable()?;
        let fresh = c.senders.insert(pid);
        fresh.then_some(()).ok_or(MpfError::AlreadyConnected)
    }

    /// `open_LNVC_receive`: joins (or creates) `conv` as a receiver.
    pub fn open_receive(&mut self, conv: Conv, pid: Pid, protocol: Protocol) -> Result<()> {
        let c = self.convs.entry(conv).or_default();
        c.usable()?;
        if let Some(have) = c.receivers.insert(pid, protocol) {
            c.receivers.insert(pid, have);
            return Err(if have == protocol {
                MpfError::AlreadyConnected
            } else {
                MpfError::ProtocolConflict
            });
        }
        self.reevaluate(conv);
        Ok(())
    }

    /// `close_LNVC_send`.
    pub fn close_send(&mut self, conv: Conv, pid: Pid) -> Result<()> {
        let c = self.convs.get_mut(&conv).ok_or(MpfError::UnknownLnvc)?;
        let was = c.senders.remove(&pid);
        was.then_some(()).ok_or(MpfError::NotConnected)?;
        self.delete_if_empty(conv);
        Ok(())
    }

    /// `close_LNVC_receive`.
    pub fn close_receive(&mut self, conv: Conv, pid: Pid) -> Result<()> {
        let c = self.convs.get_mut(&conv).ok_or(MpfError::UnknownLnvc)?;
        c.receivers.remove(&pid).ok_or(MpfError::NotConnected)?;
        self.retire(conv, pid);
        Ok(())
    }

    /// The dead-peer sweep: `dead`'s connections go as if closed (`None`
    /// when only the poison is known), and the conversation is deleted if
    /// that left none, else poisoned; either way its queue is dropped.
    pub fn poison(&mut self, conv: Conv, dead: Option<Pid>) {
        let Some(c) = self.convs.get_mut(&conv) else {
            return;
        };
        c.poisoned = Some(dead.unwrap_or(0));
        for id in c.queue.drain(..) {
            self.msgs.entry(id).and_modify(|m| m.void = true);
        }
        if let Some(dead) = dead {
            c.senders.remove(&dead);
            c.receivers.remove(&dead);
            self.retire(conv, dead);
        }
    }

    /// `message_send` of message `id` by `pid`; returns what it owes.
    pub fn send(&mut self, conv: Conv, pid: Pid, id: MsgId) -> Result<Owed> {
        let c = self.convs.get_mut(&conv).ok_or(MpfError::UnknownLnvc)?;
        c.usable()?;
        if !c.senders.contains(&pid) {
            return Err(MpfError::NotConnected);
        }
        let (owed, copies) = (c.owed(), c.bcast().map(|r| (r, false)).collect());
        c.queue.push_back(id);
        let m = Message {
            conv,
            sent: true,
            needs_fcfs: owed.needs_fcfs,
            copies,
            ..Message::default()
        };
        self.msgs.insert(id, m);
        Ok(owed)
    }

    /// The message a receive by `pid` on `conv` must return now, if any,
    /// with the protocol `pid` receives it by.
    pub fn next_for(&self, conv: Conv, pid: Pid) -> Result<Option<(MsgId, Protocol)>> {
        let c = self.convs.get(&conv).ok_or(MpfError::UnknownLnvc)?;
        c.usable()?;
        let &protocol = c.receivers.get(&pid).ok_or(MpfError::NotConnected)?;
        let owes = |id: &&MsgId| self.msgs.get(id).is_some_and(|m| m.owes(pid, protocol));
        Ok(c.queue.iter().find(owes).map(|&id| (id, protocol)))
    }

    /// A delivery of message `id` to `pid` as a `protocol` receiver;
    /// returns the rule it breaks.
    pub fn deliver(&mut self, conv: Conv, pid: Pid, id: MsgId, protocol: Protocol) -> Option<Rule> {
        let backwards = self.last.insert((pid, conv), id) >= Some(id);
        let m = self.msgs.entry(id).or_insert(Message {
            conv,
            ..Message::default()
        });
        let unsent = (!m.sent).then_some(Rule::RecvWithoutSend);
        let breach = match protocol {
            Protocol::Fcfs if m.fcfs_taken => Some(Rule::DoubleFcfsDelivery),
            Protocol::Fcfs => {
                m.fcfs_taken = true;
                unsent
            }
            Protocol::Broadcast => match m.copies.iter_mut().find(|c| c.0 == pid) {
                Some((_, true)) => Some(Rule::DoubleBcastDelivery),
                Some((_, got)) => {
                    *got = true;
                    unsent
                }
                None => {
                    m.copies.push((pid, true));
                    unsent.or(Some(Rule::BcastOverDelivery))
                }
            },
        };
        breach.or(backwards.then_some(Rule::FcfsOrder))
    }

    /// Message `id` leaves its queue; returns the rule that breaks.
    pub fn reclaim(&mut self, id: MsgId) -> Option<Rule> {
        let m = self.msgs.remove(&id)?;
        if let Some(c) = self.convs.get_mut(&m.conv) {
            c.queue.retain(|&q| q != id);
        }
        if m.void || !m.sent || m.fully_delivered() {
            None
        } else if m.copies.iter().any(|&(_, got)| !got) {
            Some(Rule::BcastUnderDelivery)
        } else {
            Some(Rule::ReclaimBeforeDelivery)
        }
    }

    /// Reclaims the fully delivered prefix of `conv`'s queue, as a receive
    /// does; returns how many messages left it.
    pub fn reclaim_delivered(&mut self, conv: Conv) -> usize {
        let Some(c) = self.convs.get_mut(&conv) else {
            return 0;
        };
        let done = |id: &&MsgId| self.msgs.get(id).is_some_and(Message::fully_delivered);
        let n = c.queue.iter().take_while(done).count();
        for id in c.queue.drain(..n) {
            self.msgs.remove(&id);
        }
        n
    }

    /// Receiver `pid` left `conv`: its BROADCAST claims go, obligations
    /// are re-evaluated, and the conversation goes with its queue if
    /// nobody is left.
    fn retire(&mut self, conv: Conv, pid: Pid) {
        for id in &self.convs[&conv].queue {
            let release = |m: &mut Message| m.copies.retain(|&(r, got)| r != pid || got);
            self.msgs.entry(*id).and_modify(release);
        }
        self.reevaluate(conv);
        self.delete_if_empty(conv);
    }

    fn delete_if_empty(&mut self, conv: Conv) {
        let c = &self.convs[&conv];
        if c.senders.is_empty() && c.receivers.is_empty() {
            for id in self.convs.remove(&conv).into_iter().flat_map(|c| c.queue) {
                self.msgs.entry(id).and_modify(|m| m.void = true);
            }
        }
    }

    /// Obligation re-evaluation: with no FCFS receiver left to take them
    /// and BROADCAST receivers connected, untaken FCFS obligations go.
    fn reevaluate(&mut self, conv: Conv) {
        if self.convs[&conv].owed().needs_fcfs {
            return;
        }
        for id in &self.convs[&conv].queue {
            let waive = |m: &mut Message| m.needs_fcfs &= m.fcfs_taken;
            self.msgs.entry(*id).and_modify(waive);
        }
    }
}
