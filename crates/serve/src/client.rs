//! The client: at-least-once calls with timeout/retry, de-duplication,
//! and `PeerDied`-aware failover.
//!
//! A client owns a private FCFS reply queue named by `(cid, gen)` and a
//! send connection on the current epoch's request queue.  One
//! [`Client::call`] is one logical request: it is retried (same `seq`)
//! until a reply with that `seq` arrives or the retry budget runs out,
//! so a worker that served the request but died before replying — or a
//! retry that raced the original — can produce **duplicate** service of
//! the same `seq`.  The handler side must therefore be idempotent or
//! the payload self-identifying; the client's contribution is to never
//! *surface* a duplicate: stale `seq`s read from the reply queue are
//! counted and dropped.
//!
//! Failover is two-tiered, mirroring which conversation went bad:
//!
//! * Request queue `PeerDied`/`UnknownLnvc` → the epoch is dead.
//!   Rediscover (floor = failed epoch + 1), reopen, resend.
//! * Reply queue `PeerDied` → some worker that had our queue open was
//!   killed; poison is sticky, so bump `gen` and open a **fresh** queue
//!   name.  Pending replies addressed to the old `gen` are lost —
//!   the normal retry path re-serves them.

use std::time::{Duration, Instant};

use mpf::Protocol;
use mpf_shm::telemetry::{bucket_index, now_nanos, HistSnapshot, HISTOGRAM_BUCKETS};

use crate::server::{discover_epoch, scan_epoch};
use crate::transport::{is_failover, Transport};
use crate::wire::{decode_req, encode_req, q_name, reply_name, validate_svc, K_REP, K_REQ};
use crate::{ServeError, ServeResult};

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientCfg {
    pub svc: String,
    /// Client id: must be unique among live clients of the service
    /// (it names the private reply queue).
    pub cid: u32,
    /// Per-attempt budget: send + wait-for-reply before retrying.
    pub attempt: Duration,
    /// Attempts per call (1 = no retry).
    pub max_attempts: u32,
    /// Bound on epoch discovery during connect/failover.
    pub discover: Duration,
    /// Total wall-clock budget for one [`Client::call`], covering every
    /// retry, failover, and rediscovery it performs.  The attempt loop
    /// alone is bounded by `max_attempts`, but each attempt can also
    /// spend up to `discover` rediscovering an epoch — this is the cap
    /// that holds regardless of how those compose.  Expiry surfaces as
    /// [`crate::ServeError::DeadlineExceeded`].
    pub call_budget: Duration,
}

impl ClientCfg {
    pub fn new(svc: &str, cid: u32) -> Self {
        assert!(validate_svc(svc), "bad service name {svc:?}");
        ClientCfg {
            svc: svc.to_string(),
            cid,
            attempt: Duration::from_millis(500),
            max_attempts: 8,
            discover: Duration::from_secs(10),
            // Generous by default: 8 attempts × (500 ms + a failover's
            // rediscovery) fits, but a pathological failover loop no
            // longer runs open-ended.
            call_budget: Duration::from_secs(30),
        }
    }
}

/// Client-side counters and the send→reply latency histogram.
#[derive(Debug, Clone)]
pub struct ClientStats {
    /// Calls that returned a reply.
    pub ok: u64,
    /// Calls that exhausted their retry budget.
    pub timeouts: u64,
    /// Extra attempts beyond the first, across all calls.
    pub retries: u64,
    /// Epoch rediscoveries (request-queue failovers).
    pub epoch_failovers: u64,
    /// Calls that ran out of total wall-clock budget
    /// ([`ClientCfg::call_budget`]) before running out of attempts.
    pub deadline_exceeded: u64,
    /// Reply-queue generation bumps.
    pub gen_bumps: u64,
    /// Stale replies dropped by the de-duplication filter.
    pub dup_replies: u64,
    lat_count: u64,
    lat_sum: u64,
    lat_max: u64,
    lat_buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for ClientStats {
    fn default() -> Self {
        ClientStats {
            ok: 0,
            timeouts: 0,
            retries: 0,
            epoch_failovers: 0,
            deadline_exceeded: 0,
            gen_bumps: 0,
            dup_replies: 0,
            lat_count: 0,
            lat_sum: 0,
            lat_max: 0,
            lat_buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl ClientStats {
    fn record_latency(&mut self, ns: u64) {
        self.lat_count += 1;
        self.lat_sum += ns;
        self.lat_max = self.lat_max.max(ns);
        self.lat_buckets[bucket_index(ns)] += 1;
    }

    /// The send→reply latency distribution, in the same shape the
    /// in-region telemetry uses (so `percentile`/`absorb` compose).
    pub fn latency(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.lat_count,
            sum: self.lat_sum,
            max: self.lat_max,
            buckets: self.lat_buckets,
        }
    }
}

/// One service client.  Not `Sync`: a client is one logical caller.
pub struct Client<T: Transport> {
    t: std::sync::Arc<T>,
    cfg: ClientCfg,
    epoch: u32,
    gen: u32,
    seq: u64,
    q_tx: T::Id,
    reply_rx: T::Id,
    pub stats: ClientStats,
}

impl<T: Transport> Client<T> {
    /// Connects: finds the live epoch and opens the request-queue send
    /// side plus this client's private reply queue.
    pub fn connect(t: std::sync::Arc<T>, cfg: ClientCfg) -> ServeResult<Self> {
        let deadline = Instant::now() + cfg.discover;
        let Some(epoch) = discover_epoch(t.as_ref(), &cfg.svc, 1, Some(deadline)) else {
            return Err(ServeError::Unavailable);
        };
        let q_tx = t.open_send(&q_name(&cfg.svc, epoch))?;
        let gen = 0;
        let reply_rx = match t.open_receive(&reply_name(&cfg.svc, cfg.cid, gen), Protocol::Fcfs) {
            Ok(id) => id,
            Err(e) => {
                let _ = t.close_send(q_tx);
                return Err(e.into());
            }
        };
        Ok(Client {
            t,
            cfg,
            epoch,
            gen,
            seq: 0,
            q_tx,
            reply_rx,
            stats: ClientStats::default(),
        })
    }

    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    pub fn gen(&self) -> u32 {
        self.gen
    }

    /// One request-reply exchange.  Retries internally; errors are
    /// [`ServeError::TimedOut`] after the attempt budget,
    /// [`ServeError::DeadlineExceeded`] once the call's total
    /// wall-clock budget runs out (whichever bound trips first), or a
    /// non-recoverable facility error.
    pub fn call(&mut self, payload: &[u8]) -> ServeResult<Vec<u8>> {
        self.seq += 1;
        let seq = self.seq;
        // The overall bound: every per-attempt and per-discovery
        // deadline below is clamped to it, so no combination of
        // retries and failovers outlives it.
        let overall = Instant::now() + self.cfg.call_budget;
        for attempt in 0..self.cfg.max_attempts {
            if attempt > 0 {
                self.stats.retries += 1;
            }
            if Instant::now() >= overall {
                self.stats.deadline_exceeded += 1;
                return Err(ServeError::DeadlineExceeded);
            }
            let deadline = (Instant::now() + self.cfg.attempt).min(overall);
            match self.attempt_once(seq, payload, deadline, overall) {
                Ok(Some(reply)) => {
                    self.stats.ok += 1;
                    return Ok(reply);
                }
                Ok(None) => {
                    // Attempt deadline.  Before resending, check whether
                    // the server moved to a higher epoch without our send
                    // connection ever erroring — possible when our open
                    // re-created an already-retired queue name, where
                    // sends succeed as owed messages nobody will serve.
                    if let Some(higher) = scan_epoch(self.t.as_ref(), &self.cfg.svc, self.epoch + 1)
                    {
                        let _ = self.t.close_send(self.q_tx);
                        self.q_tx = self.t.open_send(&q_name(&self.cfg.svc, higher))?;
                        self.epoch = higher;
                        self.stats.epoch_failovers += 1;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        self.stats.timeouts += 1;
        Err(ServeError::TimedOut)
    }

    /// One attempt: send the frame, then wait for a reply bearing `seq`
    /// until `deadline`.  `Ok(None)` = deadline, retry is safe.
    /// `overall` is the call's total wall-clock bound; any failover this
    /// attempt triggers clamps its rediscovery to it.
    fn attempt_once(
        &mut self,
        seq: u64,
        payload: &[u8],
        deadline: Instant,
        overall: Instant,
    ) -> ServeResult<Option<Vec<u8>>> {
        let sent_ns = now_nanos();
        let frame = encode_req(K_REQ, self.cfg.cid, self.gen, seq, sent_ns, payload);
        match self.t.send_deadline(self.q_tx, &frame, Some(deadline)) {
            Ok(true) => {}
            Ok(false) => return Ok(None), // pool pressure held us past the deadline
            Err(e) if is_failover(&e) => {
                self.failover_request_queue(overall)?;
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        }
        loop {
            match self.t.recv_deadline(self.reply_rx, Some(deadline)) {
                Ok(Some(buf)) => {
                    let Some(rep) = decode_req(&buf) else {
                        continue;
                    };
                    if rep.kind != K_REP || rep.seq != seq {
                        self.stats.dup_replies += 1;
                        continue;
                    }
                    self.stats
                        .record_latency(now_nanos().saturating_sub(rep.sent_ns));
                    return Ok(Some(rep.payload));
                }
                Ok(None) => return Ok(None),
                Err(e) if is_failover(&e) => {
                    self.failover_reply_queue()?;
                    return Ok(None);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The epoch died: rediscover above it and reopen the request queue.
    /// Discovery is bounded by the smaller of the discovery budget and
    /// the calling request's `overall` deadline.
    fn failover_request_queue(&mut self, overall: Instant) -> ServeResult<()> {
        let _ = self.t.close_send(self.q_tx);
        let deadline = (Instant::now() + self.cfg.discover).min(overall);
        let floor = self.epoch + 1;
        let Some(epoch) = discover_epoch(self.t.as_ref(), &self.cfg.svc, floor, Some(deadline))
        else {
            // Distinguish "service gone" from "the call's budget clipped
            // the search": the latter is retryable with a fresh call.
            return Err(if Instant::now() >= overall {
                self.stats.deadline_exceeded += 1;
                ServeError::DeadlineExceeded
            } else {
                ServeError::Unavailable
            });
        };
        self.q_tx = self.t.open_send(&q_name(&self.cfg.svc, epoch))?;
        self.epoch = epoch;
        self.stats.epoch_failovers += 1;
        Ok(())
    }

    /// The reply queue was poisoned by a dead worker: abandon it (the
    /// sweep reclaims its storage) and open a fresh generation.
    fn failover_reply_queue(&mut self) -> ServeResult<()> {
        let _ = self.t.close_receive(self.reply_rx);
        self.gen += 1;
        self.stats.gen_bumps += 1;
        self.reply_rx = self.t.open_receive(
            &reply_name(&self.cfg.svc, self.cfg.cid, self.gen),
            Protocol::Fcfs,
        )?;
        Ok(())
    }

    /// Disconnects, closing both conversations (the private reply queue
    /// is deleted here — the client is its only connection).
    pub fn close(self) {
        let _ = self.t.close_send(self.q_tx);
        let _ = self.t.close_receive(self.reply_rx);
    }
}
