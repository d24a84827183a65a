//! The five workloads.  Each is set up once per backend and then driven
//! one **round** at a time from the harness's main thread; a round ends
//! only when every payload it moved has been verified.
//!
//! Why these five (each states the layer that does the work, so that an
//! optimisation has one workload that exercises it and one that bypasses
//! it):
//!
//! * `loop_small` — 16-byte messages, alternating send/receive on one FCFS
//!   LNVC: the paper's `base`, Figure 3's leftmost point.  Fixed
//!   per-message protocol cost and observability stamping do all the work,
//!   copying none.
//! * `loop_bulk` — the same loop at 16 KiB over 256-byte blocks: copy-in,
//!   copy-out and the 64-block chain do the work; fixed cost is a small
//!   share.  What a zero-copy path must move and an SPSC bypass must not.
//! * `loop_batch` — 64-byte messages, `send_batch` of 32 then `recv_batch`
//!   of 32: the same conversation layer through the SQ/CQ rings, one lock
//!   hold and one notify per 32.
//! * `bcast_loop` — 256-byte messages, one send then one receive on each
//!   of 4 BROADCAST receivers: per-receiver links and once-per-receiver
//!   reclaim (Figure 5's shape).
//! * `serve_call` — closed loop, one client calling `Client::call` with 64
//!   bytes against one `run_worker` echo thread, server idle in
//!   `poll_acks`.  The only workload that blocks: every call crosses four
//!   queues, two wakes and the reactor.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mpf::{MpfConfig, Protocol};
use mpf_serve::{run_worker, Client, ClientCfg, Server, WorkerCfg, WorkerStats};
use mpf_shm::clock::now_nanos;
use mpf_shm::SmallRng;

use crate::backend::{Backend, Names, Peer};
use crate::span::{Span, Tracer, NO_PARENT};

pub const BATCH: usize = 32;
pub const BCAST_RECEIVERS: usize = 4;
const SVC: &str = "bench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LoopSmall,
    LoopBulk,
    LoopBatch,
    BcastLoop,
    ServeCall,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::LoopSmall,
        Workload::LoopBulk,
        Workload::LoopBatch,
        Workload::BcastLoop,
        Workload::ServeCall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LoopSmall => "loop_small",
            Workload::LoopBulk => "loop_bulk",
            Workload::LoopBatch => "loop_batch",
            Workload::BcastLoop => "bcast_loop",
            Workload::ServeCall => "serve_call",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fixed message length in bytes.
    pub fn msg_len(self) -> usize {
        match self {
            Workload::LoopSmall => 16,
            Workload::LoopBulk => 16 * 1024,
            Workload::LoopBatch | Workload::ServeCall => 64,
            Workload::BcastLoop => 256,
        }
    }

    /// Verified deliveries per round: a call for `serve_call`, one
    /// receiver's copy for `bcast_loop`.
    pub fn deliveries(self) -> u64 {
        match self {
            Workload::LoopBatch => BATCH as u64,
            Workload::BcastLoop => BCAST_RECEIVERS as u64,
            _ => 1,
        }
    }

    /// Participants the workload needs.
    pub fn peers(self) -> usize {
        match self {
            Workload::BcastLoop => 1 + BCAST_RECEIVERS,
            Workload::ServeCall => 3,
            _ => 1,
        }
    }

    /// Spans one traced round records (sizes the span buffer).
    pub fn spans_per_round(self) -> usize {
        match self {
            Workload::BcastLoop => 2 + BCAST_RECEIVERS,
            _ => 3,
        }
    }
}

/// What a workload hands back when it is closed, beyond pass/fail.
#[derive(Debug, Default, Clone, Copy)]
pub struct Extras {
    pub retries: u64,
    pub dup_replies: u64,
    pub served: u64,
    pub batches: u64,
}

/// A set-up workload on one backend.
pub trait Rounds {
    /// One round: the workload's operation, verified.
    fn round(&mut self, op: u64, tr: &mut Tracer) -> Result<(), String>;
    /// Spans recorded off the main thread since the last call.
    fn foreign_spans(&mut self) -> Vec<Span> {
        Vec::new()
    }
    /// Closes every connection (and stops every thread) the set-up made.
    fn close(self: Box<Self>) -> Result<Extras, String>;
}

/// Sets `w` up on a fresh facility; the time this takes is `setup_s`.
pub fn setup<B: Backend>(w: Workload, cfg: &MpfConfig, seed: u64) -> (B, Box<dyn Rounds>) {
    let (world, peers) = B::build(cfg, w.peers());
    let rounds = setup_on::<B>(w, &peers, seed);
    (world, rounds)
}

/// Sets `w` up on the first [`Workload::peers`] of `peers`.
pub fn setup_on<B: Backend>(w: Workload, peers: &[Arc<B::P>], seed: u64) -> Box<dyn Rounds> {
    let mut rng = SmallRng::seed_from_u64(seed ^ w.msg_len() as u64);
    let stamp0 = rng.next_u64();
    let payload = seeded(&mut rng, w.msg_len());
    let peers = &peers[..w.peers()];
    match w {
        Workload::LoopSmall | Workload::LoopBulk => Box::new(LoopRt::new(
            Arc::clone(&peers[0]),
            &B::NAMES,
            w.name(),
            stamp0,
            payload,
        )),
        Workload::LoopBatch => Box::new(BatchRt::new(
            Arc::clone(&peers[0]),
            &B::NAMES,
            stamp0,
            &payload,
        )),
        Workload::BcastLoop => Box::new(BcastRt::new(peers, &B::NAMES, stamp0, payload)),
        Workload::ServeCall => Box::new(ServeRt::<B>::new(peers, stamp0, payload)),
    }
}

/// `len` seeded bytes: the library sees only generated buffers.
pub fn seeded(rng: &mut SmallRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Writes operation `op`'s stamp over the first eight payload bytes, so a
/// stale or misrouted buffer can never verify.
#[inline]
fn stamp(payload: &mut [u8], stamp0: u64, op: u64) {
    payload[..8].copy_from_slice(&stamp0.wrapping_add(op).to_le_bytes());
}

#[inline]
fn verify(got: &[u8], want: &[u8], op: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "payload mismatch at op {op}: got {} bytes, want {}",
            got.len(),
            want.len()
        ))
    }
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

// ----------------------------------------------------------------------
// loop_small / loop_bulk
// ----------------------------------------------------------------------

/// Alternating `message_send` / `message_receive` on one FCFS LNVC.
pub struct LoopRt<P: Peer> {
    peer: Arc<P>,
    names: &'static Names,
    root: &'static str,
    tx: P::Id,
    rx: P::Id,
    stamp0: u64,
    payload: Vec<u8>,
    buf: Vec<u8>,
}

impl<P: Peer> LoopRt<P> {
    pub fn new(
        peer: Arc<P>,
        names: &'static Names,
        root: &'static str,
        stamp0: u64,
        payload: Vec<u8>,
    ) -> Self {
        let tx = peer.open_send("loop").expect("open_send");
        let rx = peer
            .open_receive("loop", Protocol::Fcfs)
            .expect("open_receive");
        LoopRt {
            peer,
            names,
            root,
            tx,
            rx,
            stamp0,
            buf: vec![0; payload.len()],
            payload,
        }
    }
}

impl<P: Peer> Rounds for LoopRt<P> {
    #[inline]
    fn round(&mut self, op: u64, tr: &mut Tracer) -> Result<(), String> {
        tr.span(self.root, op, |tr| {
            stamp(&mut self.payload, self.stamp0, op);
            tr.span(self.names.send, op, |_| {
                self.peer.send(self.tx, &self.payload)
            })
            .map_err(|e| err("message_send", e))?;
            let n = tr
                .span(self.names.recv, op, |_| {
                    self.peer.recv(self.rx, &mut self.buf)
                })
                .map_err(|e| err("message_receive", e))?;
            verify(&self.buf[..n], &self.payload, op)
        })
    }

    fn close(self: Box<Self>) -> Result<Extras, String> {
        self.peer
            .close_send(self.tx)
            .and_then(|()| self.peer.close_receive(self.rx))
            .map_err(|e| err("close", e))?;
        Ok(Extras::default())
    }
}

// ----------------------------------------------------------------------
// loop_batch
// ----------------------------------------------------------------------

/// `send_batch` of 32 then `recv_batch` of 32.
struct BatchRt<P: Peer> {
    peer: Arc<P>,
    names: &'static Names,
    tx: P::Id,
    rx: P::Id,
    stamp0: u64,
    payloads: Vec<Vec<u8>>,
}

impl<P: Peer> BatchRt<P> {
    fn new(peer: Arc<P>, names: &'static Names, stamp0: u64, payload: &[u8]) -> Self {
        let tx = peer.open_send("batch").expect("open_send");
        let rx = peer
            .open_receive("batch", Protocol::Fcfs)
            .expect("open_receive");
        BatchRt {
            peer,
            names,
            tx,
            rx,
            stamp0,
            payloads: vec![payload.to_vec(); BATCH],
        }
    }
}

impl<P: Peer> Rounds for BatchRt<P> {
    fn round(&mut self, op: u64, tr: &mut Tracer) -> Result<(), String> {
        tr.span("loop_batch", op, |tr| {
            for (i, p) in self.payloads.iter_mut().enumerate() {
                stamp(p, self.stamp0, op * BATCH as u64 + i as u64);
            }
            let refs: [&[u8]; BATCH] = std::array::from_fn(|i| self.payloads[i].as_slice());
            let done = tr
                .span(self.names.send_batch, op, |_| {
                    self.peer.send_batch(self.tx, &refs)
                })
                .map_err(|e| err("send_batch", e))?;
            if done.len() != BATCH || !done.iter().all(|c| c.ok()) {
                return Err(format!(
                    "send_batch at op {op}: {} completions, {} ok",
                    done.len(),
                    done.iter().filter(|c| c.ok()).count()
                ));
            }
            let mut got = 0;
            while got < BATCH {
                let msgs = tr
                    .span(self.names.recv_batch, op, |_| {
                        self.peer.recv_batch(self.rx, BATCH - got)
                    })
                    .map_err(|e| err("recv_batch", e))?;
                for m in &msgs {
                    verify(m, refs[got], op)?;
                    got += 1;
                }
            }
            Ok(())
        })
    }

    fn close(self: Box<Self>) -> Result<Extras, String> {
        self.peer
            .close_send(self.tx)
            .and_then(|()| self.peer.close_receive(self.rx))
            .map_err(|e| err("close", e))?;
        Ok(Extras::default())
    }
}

// ----------------------------------------------------------------------
// bcast_loop
// ----------------------------------------------------------------------

/// One send, then one `message_receive` on each of 4 BROADCAST receivers.
struct BcastRt<P: Peer> {
    sender: Arc<P>,
    names: &'static Names,
    tx: P::Id,
    receivers: Vec<(Arc<P>, P::Id)>,
    stamp0: u64,
    payload: Vec<u8>,
    buf: Vec<u8>,
}

impl<P: Peer> BcastRt<P> {
    fn new(peers: &[Arc<P>], names: &'static Names, stamp0: u64, payload: Vec<u8>) -> Self {
        // Receivers join first: a BROADCAST joiner starts at the tail.
        let receivers = peers[1..]
            .iter()
            .map(|p| {
                let rx = p
                    .open_receive("bcast", Protocol::Broadcast)
                    .expect("open_receive");
                (Arc::clone(p), rx)
            })
            .collect();
        let tx = peers[0].open_send("bcast").expect("open_send");
        BcastRt {
            sender: Arc::clone(&peers[0]),
            names,
            tx,
            receivers,
            stamp0,
            buf: vec![0; payload.len()],
            payload,
        }
    }
}

impl<P: Peer> Rounds for BcastRt<P> {
    fn round(&mut self, op: u64, tr: &mut Tracer) -> Result<(), String> {
        tr.span("bcast_loop", op, |tr| {
            stamp(&mut self.payload, self.stamp0, op);
            tr.span(self.names.send, op, |_| {
                self.sender.send(self.tx, &self.payload)
            })
            .map_err(|e| err("message_send", e))?;
            for (peer, rx) in &self.receivers {
                let n = tr
                    .span(self.names.recv, op, |_| peer.recv(*rx, &mut self.buf))
                    .map_err(|e| err("message_receive", e))?;
                verify(&self.buf[..n], &self.payload, op)?;
            }
            Ok(())
        })
    }

    fn close(self: Box<Self>) -> Result<Extras, String> {
        self.sender
            .close_send(self.tx)
            .map_err(|e| err("close_send", e))?;
        for (peer, rx) in &self.receivers {
            peer.close_receive(*rx)
                .map_err(|e| err("close_receive", e))?;
        }
        Ok(Extras::default())
    }
}

// ----------------------------------------------------------------------
// serve_call
// ----------------------------------------------------------------------

/// One client in a closed loop against one `run_worker` echo thread, the
/// server idle in `poll_acks` on a third thread.
struct ServeRt<B: Backend> {
    client: Client<B::T>,
    call: &'static str,
    stamp0: u64,
    payload: Vec<u8>,
    stop: Arc<AtomicBool>,
    server: JoinHandle<Result<(), String>>,
    worker: JoinHandle<Result<WorkerStats, String>>,
    handler_on: Arc<AtomicBool>,
    handler_spans: Arc<Mutex<Vec<Span>>>,
}

impl<B: Backend> ServeRt<B> {
    fn new(peers: &[Arc<B::P>], stamp0: u64, payload: Vec<u8>) -> Self {
        let (ts, tw, tc) = (
            B::transport(&peers[0]),
            B::transport(&peers[1]),
            B::transport(&peers[2]),
        );
        let stop = Arc::new(AtomicBool::new(false));
        // The server thread reports twice: anchored, then first HELLO.
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), String>>();
        let server = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> Result<(), String> {
                let mut srv = match Server::new(ts, SVC) {
                    Ok(s) => s,
                    Err(e) => {
                        let why = err("Server::new", e);
                        let _ = ready_tx.send(Err(why.clone()));
                        return Err(why);
                    }
                };
                let _ = ready_tx.send(Ok(()));
                let mut announced = false;
                while !stop.load(Ordering::Acquire) {
                    srv.poll_acks(Some(Instant::now() + Duration::from_millis(20)))
                        .map_err(|e| err("poll_acks", e))?;
                    if !announced && srv.worker_count() == 1 {
                        announced = true;
                        let _ = ready_tx.send(Ok(()));
                    }
                }
                let rep = srv
                    .shutdown(Some(Duration::from_secs(5)))
                    .map_err(|e| err("shutdown", e))?;
                if rep.stragglers.is_empty() {
                    Ok(())
                } else {
                    Err(format!("shutdown stragglers {:?}", rep.stragglers))
                }
            })
        };
        let wait_ready = |what: &str| {
            ready_rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| Err(e.to_string()))
                .unwrap_or_else(|e| panic!("serve_call set-up, {what}: {e}"))
        };
        wait_ready("anchor");

        let handler_on = Arc::new(AtomicBool::new(false));
        let handler_spans = Arc::new(Mutex::new(Vec::new()));
        let worker = {
            let (on, spans) = (Arc::clone(&handler_on), Arc::clone(&handler_spans));
            std::thread::spawn(move || {
                let handler = move |req: &[u8]| -> Vec<u8> {
                    if !on.load(Ordering::Relaxed) {
                        return req.to_vec();
                    }
                    let start_ns = now_nanos();
                    let reply = req.to_vec();
                    let end_ns = now_nanos();
                    let stamped = req.get(..8).map_or(0, |b| {
                        u64::from_le_bytes(b.try_into().expect("eight bytes"))
                    });
                    spans
                        .lock()
                        .expect("handler span buffer poisoned")
                        .push(Span {
                            name: "serve.handler",
                            op: stamped.wrapping_sub(stamp0),
                            parent: NO_PARENT,
                            start_ns,
                            end_ns,
                        });
                    reply
                };
                run_worker(tw.as_ref(), &WorkerCfg::new(SVC, 1), handler)
                    .map_err(|e| err("run_worker", e))
            })
        };
        wait_ready("worker HELLO");

        let client = Client::connect(tc, ClientCfg::new(SVC, 1))
            .unwrap_or_else(|e| panic!("serve_call set-up, Client::connect: {e}"));
        ServeRt {
            client,
            call: B::NAMES.call,
            stamp0,
            payload,
            stop,
            server,
            worker,
            handler_on,
            handler_spans,
        }
    }
}

impl<B: Backend> Rounds for ServeRt<B> {
    fn round(&mut self, op: u64, tr: &mut Tracer) -> Result<(), String> {
        self.handler_on.store(tr.on, Ordering::Relaxed);
        tr.span("serve_call", op, |tr| {
            stamp(&mut self.payload, self.stamp0, op);
            let reply = tr
                .span(self.call, op, |_| self.client.call(&self.payload))
                .map_err(|e| err("Client::call", e))?;
            verify(&reply, &self.payload, op)
        })
    }

    fn foreign_spans(&mut self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .handler_spans
                .lock()
                .expect("handler span buffer poisoned"),
        )
    }

    fn close(self: Box<Self>) -> Result<Extras, String> {
        let me = *self;
        let (retries, dup_replies) = (me.client.stats.retries, me.client.stats.dup_replies);
        me.client.close();
        me.stop.store(true, Ordering::Release);
        let served = me.server.join().map_err(|_| "server thread panicked")?;
        let stats = me.worker.join().map_err(|_| "worker thread panicked")??;
        served?;
        Ok(Extras {
            retries,
            dup_replies,
            served: stats.served,
            batches: stats.batches,
        })
    }
}
