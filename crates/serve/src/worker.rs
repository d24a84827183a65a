//! The worker loop: pull from the shared FCFS request queue, reply on
//! per-client queues, obey the BROADCAST control plane, and survive
//! epoch changes.
//!
//! One call to [`run_worker`] is one worker lifetime: it joins the
//! highest live epoch ([`crate::server::discover_epoch`]), announces
//! itself with `K_HELLO`, and serves until `K_SHUTDOWN` (normal return)
//! or an unrecoverable error.  `PeerDied`/`UnknownLnvc` on any epoch
//! conversation is **recoverable**: the worker best-effort reports
//! `K_FAULT`, closes everything it holds, and rejoins at a strictly
//! higher epoch — the server's supervise loop is re-anchoring
//! concurrently.
//!
//! Replies are sent over a fresh `open_send`/`send`/`close_send` per
//! request rather than a cached connection: caching would leave the
//! worker connected to queues of departed clients, turning their
//! FCFS-owed messages into a leak and their deaths into spurious worker
//! faults.  A reply that cannot be delivered (dead client, reply
//! deadline under pool pressure) is **dropped and counted** — the
//! protocol is at-least-once with client-side de-duplication, so a live
//! client simply retries.
//!
//! After each idle tick the worker runs a dead-peer sweep and reports
//! what it found ([`WorkerStats::sweeps`]); the engine waits it blocks in
//! sweep at the same cadence, so a region whose only parked receivers are
//! workers still notices a corpse within one tick.

use std::time::{Duration, Instant};

use mpf::{MpfError, Protocol, Result};

use crate::server::{discover_epoch, scan_epoch};
use crate::transport::{is_failover, Transport};
use crate::wire::{
    ack_name, ctl_name, decode_ctl, decode_req, encode_ack, encode_req, pres_name, q_name,
    reply_name, validate_svc, Ctl, K_ACK, K_BYE, K_DRAIN, K_EPOCH, K_FAULT, K_HELLO, K_PAUSE,
    K_REP, K_REQ, K_RESUME, K_SHUTDOWN,
};

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerCfg {
    pub svc: String,
    /// Worker id, unique per service (appears in acks and reports).
    pub wid: u32,
    /// Idle-tick interval: how long one `recv_any` waits before the
    /// worker sweeps for dead peers.  `None` = deterministic mode —
    /// block indefinitely, never read the clock (mpf-check scenarios).
    pub idle: Option<Duration>,
    /// Extra requests drained per wakeup via the batched receive path.
    pub batch: usize,
    /// Per-reply send deadline under pool pressure (`None` = block).
    pub reply_timeout: Option<Duration>,
    /// Bound on the initial epoch discovery (`None` = wait forever).
    pub join_timeout: Option<Duration>,
}

impl WorkerCfg {
    pub fn new(svc: &str, wid: u32) -> Self {
        assert!(validate_svc(svc), "bad service name {svc:?}");
        WorkerCfg {
            svc: svc.to_string(),
            wid,
            idle: Some(Duration::from_millis(50)),
            batch: 16,
            reply_timeout: Some(Duration::from_millis(250)),
            join_timeout: Some(Duration::from_secs(10)),
        }
    }

    /// Timeout-free variant for `mpf-check` schedule exploration.
    pub fn deterministic(svc: &str, wid: u32) -> Self {
        WorkerCfg {
            idle: None,
            reply_timeout: None,
            join_timeout: None,
            ..Self::new(svc, wid)
        }
    }
}

/// Worker-side counters, returned when the loop exits.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Requests served (handler invocations).
    pub served: u64,
    /// Wakeups that drained more than one request.
    pub batches: u64,
    /// Replies dropped (dead client or reply deadline).
    pub reply_failures: u64,
    /// Epoch rejoins after a fault.
    pub rejoins: u64,
    /// Dead peers found by idle-tick sweeps.
    pub sweeps: u32,
    /// Control commands applied.
    pub ctl_applied: u64,
}

enum Tick {
    Shutdown,
    Rejoin { floor: u32 },
}

/// Runs a worker until `K_SHUTDOWN` (or until epoch discovery times
/// out, which also returns the stats gathered so far).  `handler` maps
/// a request payload to a reply payload.
pub fn run_worker<T: Transport>(
    t: &T,
    cfg: &WorkerCfg,
    mut handler: impl FnMut(&[u8]) -> Vec<u8>,
) -> Result<WorkerStats> {
    let mut stats = WorkerStats::default();
    let mut floor = 1u32;
    loop {
        let join_deadline = cfg.join_timeout.map(|d| Instant::now() + d);
        let Some(epoch) = discover_epoch(t, &cfg.svc, floor, join_deadline) else {
            return Ok(stats);
        };
        match serve_epoch(t, cfg, epoch, &mut stats, &mut handler) {
            Ok(Tick::Shutdown) => return Ok(stats),
            Ok(Tick::Rejoin { floor: f }) => {
                stats.rejoins += 1;
                floor = f.max(epoch + 1);
            }
            Err(e) => return Err(e),
        }
    }
}

/// One epoch's serve loop.  Returns how it ended; all conversations
/// opened here are closed on every exit path.
fn serve_epoch<T: Transport>(
    t: &T,
    cfg: &WorkerCfg,
    epoch: u32,
    stats: &mut WorkerStats,
    handler: &mut impl FnMut(&[u8]) -> Vec<u8>,
) -> Result<Tick> {
    // Join: the order matters — the control plane before HELLO, so a
    // command broadcast in reaction to our HELLO cannot be missed
    // (BROADCAST only delivers what is sent after the join).
    let q_rx = t.open_receive(&q_name(&cfg.svc, epoch), Protocol::Fcfs)?;
    let ctl_rx = match t.open_receive(&ctl_name(&cfg.svc, epoch), Protocol::Broadcast) {
        Ok(id) => id,
        Err(e) => {
            let _ = t.close_receive(q_rx);
            return bubble(e);
        }
    };
    let ack_tx = match t.open_send(&ack_name(&cfg.svc, epoch)) {
        Ok(id) => id,
        Err(e) => {
            let _ = t.close_receive(q_rx);
            let _ = t.close_receive(ctl_rx);
            return bubble(e);
        }
    };

    let mut paused = false;
    let mut last_ctl = 0u32;
    // Consecutive idle ticks with the presence marker missing.  One miss
    // can be the microsecond window inside an epoch bump (old marker
    // closed, new one not yet open); several in a row mean the server
    // really moved on — or died.
    let mut gone_ticks = 0u32;
    let ack = |t: &T, kind: u8, ctl_seq: u32, served: u64| {
        let frame = encode_ack(kind, cfg.wid, epoch, ctl_seq, served);
        let dl = cfg.reply_timeout.map(|d| Instant::now() + d);
        let _ = t.send_deadline(ack_tx, &frame, dl);
    };
    ack(t, K_HELLO, 0, stats.served);

    let out = 'serve: loop {
        let idle_deadline = cfg.idle.map(|d| Instant::now() + d);
        let tick = if paused {
            t.recv_deadline(ctl_rx, idle_deadline)
                .map(|o| o.map(|m| (ctl_rx, m)))
        } else {
            t.recv_any_deadline(&[q_rx, ctl_rx], idle_deadline)
        };
        match tick {
            Ok(Some((id, msg))) if id == ctl_rx => {
                let Some(c) = decode_ctl(&msg) else { continue };
                // Replay-idempotence: a command owed to us from before we
                // joined (zero-receiver BROADCAST becomes owed-FCFS) or
                // re-seen after a flush carries a serial we already
                // passed.  K_EPOCH is exempt — it acts on its argument.
                if c.ctl_seq <= last_ctl && c.kind != K_EPOCH {
                    continue;
                }
                last_ctl = c.ctl_seq;
                stats.ctl_applied += 1;
                match apply_ctl(t, cfg, &c, q_rx, stats, handler, &ack)? {
                    CtlOutcome::Continue => {}
                    CtlOutcome::Pause => paused = true,
                    CtlOutcome::Resume => paused = false,
                    CtlOutcome::Shutdown => break 'serve Tick::Shutdown,
                    CtlOutcome::Rejoin { floor } => break 'serve Tick::Rejoin { floor },
                }
            }
            Ok(Some((_, msg))) => {
                serve_one(t, cfg, &msg, stats, handler);
                // Amortize the wakeup: drain a batch under one lock hold.
                // A queue poisoned since the wake is left to the next
                // wait, which reports it on the failover path below.
                let extra = match t.try_recv_batch(q_rx, cfg.batch) {
                    Err(e) if is_failover(&e) => Vec::new(),
                    other => other?,
                };
                if !extra.is_empty() {
                    stats.batches += 1;
                    for m in &extra {
                        serve_one(t, cfg, m, stats, handler);
                    }
                }
            }
            Ok(None) => {
                // Idle tick: look for corpses (see the module doc), then
                // check the server's presence marker — we sustain every
                // conversation we hold ourselves, so only `sp.*` can tell
                // us the server abandoned this epoch (e.g. we missed a
                // K_EPOCH that drowned in request traffic).
                stats.sweeps += t.sweep_dead();
                if t.lnvc_exists(&pres_name(&cfg.svc, epoch)) {
                    gone_ticks = 0;
                } else {
                    gone_ticks += 1;
                    if gone_ticks >= 3 {
                        break 'serve match scan_epoch(t, &cfg.svc, epoch + 1) {
                            Some(higher) => {
                                ack(t, K_FAULT, last_ctl, stats.served);
                                Tick::Rejoin { floor: higher }
                            }
                            // No epoch anywhere above us: the server is
                            // gone for good; exit as if shut down.
                            None => Tick::Shutdown,
                        };
                    }
                }
            }
            Err(e) if is_failover(&e) => {
                ack(t, K_FAULT, last_ctl, stats.served);
                break 'serve Tick::Rejoin { floor: epoch + 1 };
            }
            Err(e) => {
                let _ = t.close_receive(q_rx);
                let _ = t.close_receive(ctl_rx);
                let _ = t.close_send(ack_tx);
                return Err(e);
            }
        }
    };

    let _ = t.close_receive(q_rx);
    let _ = t.close_receive(ctl_rx);
    let _ = t.close_send(ack_tx);
    Ok(out)
}

enum CtlOutcome {
    Continue,
    Pause,
    Resume,
    Shutdown,
    Rejoin { floor: u32 },
}

fn apply_ctl<T: Transport>(
    t: &T,
    cfg: &WorkerCfg,
    c: &Ctl,
    q_rx: T::Id,
    stats: &mut WorkerStats,
    handler: &mut impl FnMut(&[u8]) -> Vec<u8>,
    ack: &impl Fn(&T, u8, u32, u64),
) -> Result<CtlOutcome> {
    Ok(match c.kind {
        K_PAUSE => CtlOutcome::Pause,
        K_RESUME => CtlOutcome::Resume,
        K_DRAIN => {
            flush(t, cfg, q_rx, stats, handler)?;
            ack(t, K_ACK, c.ctl_seq, stats.served);
            CtlOutcome::Pause
        }
        K_SHUTDOWN => {
            flush(t, cfg, q_rx, stats, handler)?;
            ack(t, K_BYE, c.ctl_seq, stats.served);
            CtlOutcome::Shutdown
        }
        K_EPOCH => CtlOutcome::Rejoin {
            floor: u32::try_from(c.arg).unwrap_or(c.epoch + 1),
        },
        _ => CtlOutcome::Continue,
    })
}

/// Serves everything currently in the request queue.
fn flush<T: Transport>(
    t: &T,
    cfg: &WorkerCfg,
    q_rx: T::Id,
    stats: &mut WorkerStats,
    handler: &mut impl FnMut(&[u8]) -> Vec<u8>,
) -> Result<()> {
    loop {
        let batch = match t.try_recv_batch(q_rx, cfg.batch.max(1)) {
            Ok(b) => b,
            // A poisoned queue has no drainable backlog (the sweep freed
            // it); the fault surfaces on the next serve tick.
            Err(e) if is_failover(&e) => return Ok(()),
            Err(e) => return Err(e),
        };
        if batch.is_empty() {
            return Ok(());
        }
        for m in &batch {
            serve_one(t, cfg, m, stats, handler);
        }
    }
}

/// Serves one request: decode, handle, reply on the client's private
/// queue.  Reply failures are counted, never fatal (module doc).
fn serve_one<T: Transport>(
    t: &T,
    cfg: &WorkerCfg,
    msg: &[u8],
    stats: &mut WorkerStats,
    handler: &mut impl FnMut(&[u8]) -> Vec<u8>,
) {
    let Some(req) = decode_req(msg) else { return };
    if req.kind != K_REQ {
        return;
    }
    let reply_payload = handler(&req.payload);
    stats.served += 1;
    let frame = encode_req(
        K_REP,
        req.cid,
        req.gen,
        req.seq,
        req.sent_ns,
        &reply_payload,
    );
    let name = reply_name(&cfg.svc, req.cid, req.gen);
    let delivered = t.open_send(&name).and_then(|rtx| {
        let dl = cfg.reply_timeout.map(|d| Instant::now() + d);
        let sent = t.send_deadline(rtx, &frame, dl);
        // Whatever the send said: a failed reply must not leave this
        // worker connected to a departed client's queue (module doc).
        let _ = t.close_send(rtx);
        sent
    });
    if !matches!(delivered, Ok(true)) {
        stats.reply_failures += 1;
    }
}

/// Classifies a join-time error: failover-class errors mean the epoch
/// died under us mid-join — rejoin higher; anything else is fatal.
fn bubble(e: MpfError) -> Result<Tick> {
    if is_failover(&e) {
        Ok(Tick::Rejoin { floor: 0 }) // caller maxes with epoch + 1
    } else {
        Err(e)
    }
}
