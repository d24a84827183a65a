//! The traced run: per-layer numbers.
//!
//! For the chosen workload, on each backend, it (1) drives the workload
//! with harness-side spans around every library call and writes the spans
//! to `out/trace-<workload>.json`, (2) diffs the facility's own telemetry
//! counters over that window, (3) repeats the workload with observability
//! off, and (4) runs one probe per layer — `mpf-shm` primitives, protocol
//! calls, the aio ring stages, the serve path — so that a change in an
//! end-to-end number can be traced to the layer that moved.  Nothing here
//! is gated: per-layer metrics carry no bound.  Rates are taken at the
//! nominal host speed like the end-to-end ones; span times and probe
//! costs are raw wall-clock readings.
//!
//! Every per-call cost is a **median**: of per-batch means for the
//! sub-microsecond primitives, of span self times for library calls.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpf::Protocol;
use mpf_serve::wire::{decode_req, encode_req, K_REQ};
use mpf_serve::{Client, ClientCfg, Transport};
use mpf_shm::clock::now_nanos;
use mpf_shm::lock::LockKind;
use mpf_shm::waitq::WaitStrategy;
use mpf_shm::{AioRing, FutexSeq, IpcLock, Pool, RingEntry, ShmLock, SmallRng, WaitQueue};

use crate::backend::{config, config_obs_off, Backend, IpcWorld, Peer, ThreadWorld};
use crate::host::HostSpeed;
use crate::run::{at_nominal, drive, drive_timed, finish, rate, scaled, warm_up, Tally};
use crate::span::{self_by_name, write_json, Span, Tracer, NO_PARENT};
use crate::stats::{median, ratio_with_base, sig, Samples};
use crate::workloads::{seeded, setup, setup_on, Extras, LoopRt, Rounds, Workload, BATCH};
use crate::Metric;

/// Spans a traced segment may hold per backend (≈ 48 bytes each).
const SPAN_BUDGET: usize = 60_000;

/// Collects the metrics and prints each as it is made.
struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: &str) {
        let name = name.into();
        println!("{name:<34} {:>14} {unit:<6} {note}", sig(value));
        self.0.push(Metric::new(name, value, unit));
    }
}

/// What every probe works with: the run's parameters, the host-speed
/// reference, the failure tally and where the metrics go.
struct Cx<'a> {
    w: Workload,
    seed: u64,
    /// One fortieth of the run; the phases add up to roughly forty.
    unit: Duration,
    host: &'a mut HostSpeed,
    tally: &'a mut Tally,
    out: &'a mut Out,
}

fn med(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    median(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>())
}

fn p50(ns: Vec<u32>) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    Samples::new(ns).quantile(0.5)
}

/// Cost of one call of `f` in ns: the median over batches of `batch`
/// calls, run until `budget` has passed (five batches at least).
fn per_call_ns(budget: Duration, batch: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut means = Vec::new();
    while means.len() < 5 || t0.elapsed() < budget {
        let b0 = now_nanos();
        for _ in 0..batch {
            f();
        }
        means.push((now_nanos() - b0) as f64 / f64::from(batch));
    }
    median(&means)
}

/// Per-layer run of `w`; returns every `per_layer` metric of
/// `BENCHMARK.json`.
pub fn traced_run(
    w: Workload,
    seed: u64,
    seconds: f64,
    calibrate_s: f64,
    tally: &mut Tally,
) -> Vec<Metric> {
    let unit = Duration::from_secs_f64(seconds / 40.0);
    let mut host = HostSpeed::new();
    let mut out = Out(Vec::new());
    let mut spans_json = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"spans\":[",
        w.name()
    );
    let mut overheads = Vec::new();
    let mut span_base = 0;

    out.put(
        "setup.clock_calibrate_s",
        calibrate_s,
        "s",
        "one-time clock::calibrate(), not part of setup_s",
    );
    shm_layer(unit, &mut out);
    let mut doorbells = (0u64, 0u64);
    let mut on_backend = |b: BackendLayers| {
        write_json(&mut spans_json, b.tag, span_base, &b.spans);
        span_base += b.spans.len();
        overheads.push(b.trace_overhead_pct);
        doorbells.0 += b.doorbells.0;
        doorbells.1 += b.doorbells.1;
    };
    let mut cx = Cx {
        w,
        seed,
        unit,
        host: &mut host,
        tally,
        out: &mut out,
    };
    on_backend(backend_layers::<ThreadWorld>(&mut cx));
    on_backend(backend_layers::<IpcWorld>(&mut cx));
    out.put(
        "aio.doorbells_per_msg",
        doorbells.0 as f64 / doorbells.1.max(1) as f64,
        "count",
        &format!(
            "{} SQ+CQ doorbells / {} messages at batch {BATCH}, both backends",
            doorbells.0, doorbells.1
        ),
    );
    out.put(
        "serve.wire_ns",
        {
            let payload = [0x5Au8; 64];
            per_call_ns(unit / 4, 256, || {
                let frame = encode_req(K_REQ, 1, 0, 7, 9, black_box(&payload));
                black_box(decode_req(&frame));
            })
        },
        "ns",
        "encode_req + decode_req, 64 B",
    );
    out.put(
        "trace_overhead_pct",
        median(&overheads),
        "%",
        "untraced vs traced msgs_per_s of this workload, mean of both backends",
    );

    spans_json.push_str("\n]}\n");
    let dir = out_dir();
    let path = dir.join(format!("trace-{}.json", w.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &spans_json));
    match written {
        Ok(()) => println!("# {span_base} spans written to {}", path.display()),
        Err(e) => {
            tally.fail(format!("cannot write {}: {e}", path.display()));
        }
    }
    out.0
}

/// `out/` next to the package when it is still where it was built, else
/// `benchmark/out` under the current directory.
fn out_dir() -> std::path::PathBuf {
    let built = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    if built.is_dir() {
        built.join("out")
    } else {
        std::path::PathBuf::from("benchmark/out")
    }
}

// ----------------------------------------------------------------------
// mpf-shm
// ----------------------------------------------------------------------

fn shm_layer(unit: Duration, out: &mut Out) {
    let b = unit / 4;
    out.put(
        "shm.clock_now_ns",
        per_call_ns(b, 4096, || {
            black_box(now_nanos());
        }),
        "ns",
        "clock::now_nanos()",
    );
    let lock = ShmLock::new(LockKind::Spin);
    out.put(
        "shm.lock_pair_ns",
        per_call_ns(b, 4096, || drop(black_box(lock.lock()))),
        "ns",
        "ShmLock(Spin) lock + unlock, uncontended",
    );
    let ipc_lock = IpcLock::new();
    out.put(
        "shm.ipclock_pair_ns",
        per_call_ns(b, 4096, || {
            black_box(ipc_lock.lock(1, |_| true));
            ipc_lock.unlock();
        }),
        "ns",
        "IpcLock lock + unlock, uncontended",
    );
    let pool: Pool<u64> = Pool::new(64);
    out.put(
        "shm.pool_alloc_free_ns",
        per_call_ns(b, 4096, || {
            let i = pool.alloc().expect("pool of 64 never runs dry here");
            pool.free(black_box(i));
        }),
        "ns",
        "Pool::alloc + free",
    );
    let ring = AioRing::new();
    out.put(
        "shm.ring_push_pop_ns",
        per_call_ns(b, 4096, || {
            black_box(ring.try_push(RingEntry::default()));
            black_box(ring.try_pop());
        }),
        "ns",
        "AioRing::try_push + try_pop",
    );
    let waitq = Arc::new(WaitQueue::new());
    out.put(
        "shm.waitq_wake_ns",
        {
            let (w, n) = (Arc::clone(&waitq), Arc::clone(&waitq));
            let t = Arc::clone(&waitq);
            wake_latency(
                unit,
                move || t.ticket(),
                move |ticket| w.wait(ticket, WaitStrategy::Park),
                move || n.notify_all(),
            )
        },
        "ns",
        "WaitQueue(Park): notify_all -> waiter running, two threads",
    );
    let futex = Arc::new(FutexSeq::new());
    out.put(
        "shm.futex_wake_ns",
        {
            let (w, n) = (Arc::clone(&futex), Arc::clone(&futex));
            let t = Arc::clone(&futex);
            wake_latency(
                unit,
                move || t.ticket(),
                move |ticket| {
                    w.wait(ticket, Some(Duration::from_millis(100)));
                },
                move || n.notify_all(),
            )
        },
        "ns",
        "FutexSeq: notify_all -> waiter running, two threads",
    );
}

/// Median time from `notify()` to the waiter thread running again.  The
/// waiter raises `armed` between taking its ticket and waiting on it, so
/// the notifier never fires before the ticket is taken.
fn wake_latency(
    budget: Duration,
    ticket: impl Fn() -> u32 + Send + 'static,
    wait: impl Fn(u32) + Send + 'static,
    notify: impl Fn(),
) -> f64 {
    let armed = Arc::new(AtomicBool::new(false));
    let woke_at = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let main = std::thread::current();
    let waiter = {
        let (armed, woke_at, stop) = (Arc::clone(&armed), Arc::clone(&woke_at), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let t = ticket();
                armed.store(true, Ordering::Release);
                wait(t);
                woke_at.store(now_nanos(), Ordering::Release);
                main.unpark();
            }
        })
    };
    let t0 = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < 20 || t0.elapsed() < budget {
        while !armed.swap(false, Ordering::AcqRel) {
            std::thread::yield_now();
        }
        // Let the waiter get from `armed` into its wait.
        std::thread::yield_now();
        woke_at.store(0, Ordering::Release);
        let fired = now_nanos();
        notify();
        let woke = loop {
            match woke_at.load(Ordering::Acquire) {
                0 => std::thread::park_timeout(Duration::from_millis(5)),
                at => break at,
            }
        };
        ns.push(woke.saturating_sub(fired));
    }
    stop.store(true, Ordering::Release);
    // The waiter is armed again by now; release it so that it sees `stop`.
    while !waiter.is_finished() {
        notify();
        std::thread::yield_now();
    }
    waiter.join().expect("wake-latency waiter panicked");
    med(&ns)
}

// ----------------------------------------------------------------------
// one backend: protocol, aio, serve
// ----------------------------------------------------------------------

struct BackendLayers {
    tag: &'static str,
    spans: Vec<Span>,
    trace_overhead_pct: f64,
    /// (doorbells rung, messages moved) by the aio stage probe.
    doorbells: (u64, u64),
}

/// A traced stretch of a workload.
struct Traced {
    spans: Vec<Span>,
    rate: f64,
}

fn traced_rounds<B: Backend>(
    r: &mut dyn Rounds,
    w: Workload,
    n: u64,
    op: &mut u64,
    host: &mut HostSpeed,
    tally: &mut Tally,
) -> Traced {
    let n = n.min((SPAN_BUDGET / w.spans_per_round()) as u64).max(1);
    let mut tr = Tracer::with_capacity(n as usize * w.spans_per_round() + 64);
    let ((), s) = host.timed(|| drive(r, n, op, &mut tr, tally));
    tr.adopt(B::NAMES.call, r.foreign_spans());
    Traced {
        spans: tr.spans,
        rate: rate(w, n, s.nominal_ns()),
    }
}

/// Deliveries per second of `n` untraced rounds, at the nominal host speed.
fn untraced_rate(
    r: &mut dyn Rounds,
    w: Workload,
    n: u64,
    op: &mut u64,
    host: &mut HostSpeed,
    tally: &mut Tally,
) -> f64 {
    let ((), s) = host.timed(|| drive(r, n, op, &mut Tracer::off(), tally));
    rate(w, n, s.nominal_ns())
}

fn backend_layers<B: Backend>(cx: &mut Cx) -> BackendLayers {
    let (tag, layer) = (B::TAG, B::LAYER);
    println!("# --- {tag} backend ({layer}) ---");

    // (1) + (2): the workload itself, untraced then traced, with the
    // facility's counters read at the same boundaries.
    let mut op = 0u64;
    let (world, mut rounds) = setup::<B>(cx.w, &config(), cx.seed);
    let sized = warm_up(rounds.as_mut(), cx.unit, &mut op, cx.tally);
    let n = scaled(sized, cx.unit, 2 * cx.unit);
    let before = world.telemetry();
    let rate_on = untraced_rate(rounds.as_mut(), cx.w, n, &mut op, cx.host, cx.tally);
    let mut ns = Vec::with_capacity(n as usize);
    let ((), s) = cx
        .host
        .timed(|| drive_timed(rounds.as_mut(), n, &mut op, cx.tally, &mut ns));
    let lat = Samples::new(at_nominal(&ns, &s));
    // The traced stretch sits between two untraced ones of its own length,
    // so that a rate that drifts with the facility's age does not pass for
    // tracing overhead.
    let m = (n / 2).clamp(1, (SPAN_BUDGET / cx.w.spans_per_round()) as u64);
    let around = untraced_rate(rounds.as_mut(), cx.w, m, &mut op, cx.host, cx.tally);
    let traced = traced_rounds::<B>(rounds.as_mut(), cx.w, m, &mut op, cx.host, cx.tally);
    let around =
        (around + untraced_rate(rounds.as_mut(), cx.w, m, &mut op, cx.host, cx.tally)) / 2.0;
    let after = world.telemetry();
    let extras = finish::<B>(world, rounds, cx.tally);

    let by_name = self_by_name(&traced.spans);
    let covered: u64 = traced
        .spans
        .iter()
        .zip(crate::span::self_times(&traced.spans))
        .filter(|(s, _)| s.parent != NO_PARENT)
        .map(|(_, t)| t)
        .sum();
    let wall: u64 = traced
        .spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    println!(
        "# {tag}: traced {} msgs/s vs untraced {} msgs/s around it; library-call self time \
         covers {} of the traced rounds' wall time",
        sig(traced.rate),
        sig(around),
        ratio_with_base(covered as f64, wall as f64, "ns"),
    );
    let trace_overhead_pct = (around - traced.rate) / around * 100.0;
    // Gated end to end is the upper quartile; the median and the tail
    // each sit on a mode boundary of some workload (see the README).
    for (name, q) in [("lat_p50_ns", 0.5), ("lat_p99_ns", 0.99)] {
        cx.out.put(
            format!("{tag}.{name}"),
            if lat.len() == 0 { 0.0 } else { lat.quantile(q) },
            "ns",
            &format!(
                "one round of this workload, entry to verified result, exact over {} samples",
                lat.len()
            ),
        );
    }

    let sends = (after.sends - before.sends).max(1) as f64;
    for (name, diff, note) in [
        (
            "recv_waits",
            after.recv_waits - before.recv_waits,
            "receives that had to block",
        ),
        (
            "send_waits",
            after.send_waits - before.send_waits,
            "sends that met a full pool",
        ),
        (
            "lock_contended",
            after.lock_contended - before.lock_contended,
            "descriptor-lock acquisitions that found it held",
        ),
    ] {
        cx.out.put(
            format!("{layer}.{name}"),
            diff as f64,
            "count",
            &format!("{note}, over {sends} sends of this workload"),
        );
    }
    cx.out.put(
        format!("{layer}.reclaims_per_msg"),
        (after.reclaims - before.reclaims) as f64 / sends,
        "count",
        "telemetry reclaims / sends over the same window",
    );

    // (3): the same workload with telemetry and causal tracing off.
    let (world, mut rounds) = setup::<B>(cx.w, &config_obs_off(), cx.seed);
    warm_up(rounds.as_mut(), cx.unit, &mut op, cx.tally);
    let rate_off = untraced_rate(rounds.as_mut(), cx.w, n, &mut op, cx.host, cx.tally);
    finish::<B>(world, rounds, cx.tally);
    cx.out.put(
        format!("obs.{tag}.on_off_ratio"),
        rate_on / rate_off,
        "ratio",
        &format!(
            "msgs_per_s default observability / off = {}",
            ratio_with_base(rate_on, rate_off, "1/s")
        ),
    );

    // (4): the layer probes.
    let (send_ns, recv_ns) = match (by_name.get(B::NAMES.send), by_name.get(B::NAMES.recv)) {
        (Some(s), Some(r)) => (med(s), med(r)),
        _ => loop_spans::<B>(cx.w.msg_len(), cx),
    };
    let at = format!("span self time at this workload's {} B", cx.w.msg_len());
    cx.out.put(format!("{layer}.send_ns"), send_ns, "ns", &at);
    cx.out.put(format!("{layer}.recv_ns"), recv_ns, "ns", &at);
    let small = loop_spans::<B>(Workload::LoopSmall.msg_len(), cx);
    let bulk = loop_spans::<B>(Workload::LoopBulk.msg_len(), cx);
    cx.out.put(
        format!("{layer}.copy_share"),
        1.0 - (small.0 + small.1) / (bulk.0 + bulk.1),
        "ratio",
        &format!(
            "1 - (send+recv at 16 B) / (send+recv at 16 KiB) = 1 - {}",
            ratio_with_base(small.0 + small.1, bulk.0 + bulk.1, "ns")
        ),
    );
    protocol_probes::<B>(cx);
    let doorbells = aio_probes::<B>(cx);
    serve_probes::<B>(&traced.spans, extras, cx);

    BackendLayers {
        tag,
        spans: traced.spans,
        trace_overhead_pct,
        doorbells,
    }
}

/// Median self time of `send` and `recv` in a traced plain loop at `len`.
fn loop_spans<B: Backend>(len: usize, cx: &mut Cx) -> (f64, f64) {
    let (world, peers) = B::build(&config(), 1);
    let mut rng = SmallRng::seed_from_u64(cx.seed ^ len as u64);
    let mut rounds: Box<dyn Rounds> = Box::new(LoopRt::new(
        Arc::clone(&peers[0]),
        &B::NAMES,
        "loop_probe",
        rng.next_u64(),
        seeded(&mut rng, len),
    ));
    let mut op = 0;
    let sized = warm_up(rounds.as_mut(), cx.unit / 4, &mut op, cx.tally);
    let t = traced_rounds::<B>(
        rounds.as_mut(),
        Workload::LoopSmall,
        sized,
        &mut op,
        cx.host,
        cx.tally,
    );
    finish::<B>(world, rounds, cx.tally);
    let by = self_by_name(&t.spans);
    (med(&by[B::NAMES.send]), med(&by[B::NAMES.recv]))
}

/// Registry, poll and wake costs of the protocol layer.
fn protocol_probes<B: Backend>(cx: &mut Cx) {
    let layer = B::LAYER;
    let (world, peers) = B::build(&config(), 2);
    let (a, b) = (&peers[0], &peers[1]);

    let open_close = per_call_ns(cx.unit / 2, 16, || {
        let tx = a.open_send("oc").expect("open_send");
        let rx = a.open_receive("oc", Protocol::Fcfs).expect("open_receive");
        a.close_send(tx).expect("close_send");
        a.close_receive(rx).expect("close_receive");
    });
    cx.out.put(
        format!("{layer}.open_close_ns"),
        open_close,
        "ns",
        "open_send + open_receive + close_send + close_receive, creating and deleting the LNVC",
    );

    let rx = a
        .open_receive("poll", Protocol::Fcfs)
        .expect("open_receive");
    let check = per_call_ns(cx.unit / 4, 1024, || {
        black_box(a.check_receive(rx).expect("check_receive"));
    });
    a.close_receive(rx).expect("close_receive");
    cx.out.put(
        format!("{layer}.check_receive_ns"),
        check,
        "ns",
        "check_receive on an empty queue",
    );

    // Bare two-thread ping-pong on blocking message_receive, 64 bytes.
    let ping_tx = a.open_send("ping").expect("open_send");
    let pong_rx = a
        .open_receive("pong", Protocol::Fcfs)
        .expect("open_receive");
    let ping_rx = b
        .open_receive("ping", Protocol::Fcfs)
        .expect("open_receive");
    let pong_tx = b.open_send("pong").expect("open_send");
    let echo = {
        let b = Arc::clone(b);
        std::thread::spawn(move || -> Result<(), String> {
            let mut buf = [0u8; 64];
            loop {
                let n = b.recv(ping_rx, &mut buf).map_err(|e| e.to_string())?;
                if n == 1 {
                    return Ok(());
                }
                b.send(pong_tx, &buf[..n]).map_err(|e| e.to_string())?;
            }
        })
    };
    let (payload, mut buf) = ([0xC3u8; 64], [0u8; 64]);
    let mut rtt = Vec::new();
    let t0 = Instant::now();
    while rtt.len() < 50 || t0.elapsed() < cx.unit {
        let s = now_nanos();
        let r = a
            .send(ping_tx, &payload)
            .and_then(|()| a.recv(pong_rx, &mut buf));
        let ns = now_nanos() - s;
        match cx.tally.note(r.map_err(|e| format!("ping-pong: {e}"))) {
            Some(64) if buf == payload => rtt.push(u32::try_from(ns).unwrap_or(u32::MAX)),
            Some(_) => {
                cx.tally.fail("ping-pong: payload mismatch");
            }
            None => break,
        }
    }
    let n = rtt.len();
    cx.tally.note(
        a.send(ping_tx, &[0])
            .map_err(|e| format!("ping-pong stop: {e}")),
    );
    cx.tally.note(
        echo.join()
            .unwrap_or_else(|_| Err("echo thread panicked".into())),
    );
    for r in [
        a.close_send(ping_tx),
        a.close_receive(pong_rx),
        b.close_receive(ping_rx),
        b.close_send(pong_tx),
    ] {
        cx.tally
            .note(r.map_err(|e| format!("ping-pong close: {e}")));
    }
    cx.out.put(
        format!("{layer}.wake_rtt_ns"),
        p50(rtt),
        "ns",
        &format!("p50 of {n} two-thread 64 B ping-pongs on blocking message_receive"),
    );
    cx.tally.note(world.conservation());
}

/// The ring stages one at a time, the future round trip, and the
/// back-pressured stream.  Returns (doorbells, messages) of the stages.
fn aio_probes<B: Backend>(cx: &mut Cx) -> (u64, u64) {
    let tag = B::TAG;
    let names = &B::NAMES;
    let mut rng = SmallRng::seed_from_u64(cx.seed);
    let payload = seeded(&mut rng, 64);
    let refs: [&[u8]; BATCH] = [payload.as_slice(); BATCH];

    // submit / drain / reap / recv_batch, each under its own span.
    let (world, peers) = B::build(&config(), 1);
    let p = &peers[0];
    let tx = p.open_send("aio").expect("open_send");
    let rx = p.open_receive("aio", Protocol::Fcfs).expect("open_receive");
    let before = p.aio_stats().expect("aio_stats");
    let rounds = SPAN_BUDGET / 16;
    let mut tr = Tracer::with_capacity(rounds * 5);
    let mut done = Vec::with_capacity(BATCH);
    let t0 = Instant::now();
    let mut batches = 0u64;
    while batches < 64 || (t0.elapsed() < cx.unit && (batches as usize) < rounds) {
        let r = (|| -> mpf::Result<bool> {
            let staged = tr.span(names.submit, batches, |_| p.submit_sends(tx, &refs))?;
            tr.span(names.drain, batches, |_| p.drain_sends())?;
            done.clear();
            tr.span(names.reap, batches, |_| p.reap_completions(&mut done))?;
            let mut got = 0;
            while got < staged {
                let msgs = tr.span(names.recv_batch, batches, |_| {
                    p.recv_batch(rx, staged - got)
                })?;
                got += msgs.len();
                if msgs.iter().any(|m| m != &payload) {
                    return Ok(false);
                }
            }
            Ok(staged == BATCH && done.len() == BATCH && done.iter().all(|c| c.ok()))
        })();
        batches += 1;
        match cx.tally.note(r.map_err(|e| format!("aio stages: {e}"))) {
            Some(true) => {}
            Some(false) => {
                cx.tally.fail("aio stages: short batch or payload mismatch");
            }
            None => break,
        }
    }
    let after = p.aio_stats().expect("aio_stats");
    cx.tally.note(
        p.close_send(tx)
            .and_then(|()| p.close_receive(rx))
            .map_err(|e| format!("aio close: {e}")),
    );
    cx.tally.note(world.conservation());
    let by = self_by_name(&tr.spans);
    for (name, what) in [
        (names.submit, "submit_sends"),
        (names.drain, "drain_sends"),
        (names.reap, "reap_completions"),
        (names.recv_batch, "recv_batch"),
    ] {
        cx.out.put(
            format!("{name}_ns_per_msg"),
            by.get(name).map_or(0.0, |v| med(v)) / BATCH as f64,
            "ns",
            &format!("{what} span / {BATCH}, 64 B messages"),
        );
    }
    let doorbells =
        (after.sq_doorbells - before.sq_doorbells) + (after.cq_doorbells - before.cq_doorbells);

    // send().await + recv().await, loop-back, each driven by block_on.
    let (world, peers) = B::build(&config(), 1);
    let t = B::transport(&peers[0]);
    let rtt = (|| -> mpf::Result<f64> {
        let tx = t.open_send("fut")?;
        let rx = t.open_receive("fut", Protocol::Fcfs)?;
        let mut failed = None;
        let ns = per_call_ns(cx.unit / 2, 64, || {
            let r = t
                .send_deadline(tx, &payload, None)
                .and_then(|_| t.recv_deadline(rx, None));
            if !matches!(&r, Ok(Some(m)) if m == &payload) {
                failed = Some(r.err());
            }
        });
        t.close_send(tx)?;
        t.close_receive(rx)?;
        match failed {
            None => Ok(ns),
            Some(Some(e)) => Err(e),
            Some(None) => Err(mpf::MpfError::TimedOut),
        }
    })();
    drop(t);
    cx.out.put(
        format!("aio.{tag}.future_rtt_ns"),
        cx.tally
            .note(rtt.map_err(|e| format!("future rtt: {e}")))
            .unwrap_or(0.0),
        "ns",
        "send().await + recv().await loop-back under block_on, 64 B",
    );
    cx.tally.note(world.conservation());

    // One-way stream into a 256-message pool: the sender meets
    // send_batch_deadline back-pressure whenever it gets ahead.
    let (world, peers) = B::build(&config().with_max_messages(256), 2);
    let (prod, cons) = (Arc::clone(&peers[0]), &peers[1]);
    let rx = cons
        .open_receive("stream", Protocol::Fcfs)
        .expect("open_receive");
    let total = 2048 * BATCH;
    let started = Instant::now();
    let producer = {
        let payload = payload.clone();
        std::thread::spawn(move || -> Result<(), String> {
            let tx = prod.open_send("stream").map_err(|e| e.to_string())?;
            let refs: [&[u8]; BATCH] = [payload.as_slice(); BATCH];
            let mut sent = 0;
            while sent < total {
                let want = (total - sent).min(BATCH);
                let deadline = Instant::now() + Duration::from_secs(10);
                let done = prod
                    .send_batch_deadline(tx, &refs[..want], deadline)
                    .map_err(|e| e.to_string())?;
                sent += done.iter().filter(|c| c.ok()).count();
                if done.iter().any(|c| !c.ok()) {
                    return Err("stream: a staged send failed".into());
                }
            }
            prod.close_send(tx).map_err(|e| e.to_string())
        })
    };
    let mut got = 0;
    while got < total {
        match cx.tally.note(
            cons.recv_batch(rx, BATCH)
                .map_err(|e| format!("stream recv_batch: {e}")),
        ) {
            Some(msgs) => {
                if msgs.iter().any(|m| m != &payload) {
                    cx.tally.fail("stream: payload mismatch");
                }
                got += msgs.len();
            }
            None => break,
        }
    }
    let secs = started.elapsed().as_secs_f64();
    cx.tally.note(
        producer
            .join()
            .unwrap_or_else(|_| Err("producer panicked".into())),
    );
    cx.tally.note(
        cons.close_receive(rx)
            .map_err(|e| format!("stream close: {e}")),
    );
    cx.tally.note(world.conservation());
    cx.out.put(
        format!("aio.{tag}.stream_msgs_per_s"),
        got as f64 / secs,
        "1/s",
        &format!("{got} x 64 B one-way, batch {BATCH}, 256-message pool, two threads"),
    );
    (doorbells, batches * BATCH as u64)
}

/// Connect, reply path, bare round trip, and the call itself.
fn serve_probes<B: Backend>(w_spans: &[Span], w_extras: Extras, cx: &mut Cx) {
    let tag = B::TAG;
    // A running service with one spare participant for the probes.
    let serve = Workload::ServeCall;
    let (world, peers) = B::build(&config(), serve.peers() + 2);
    let mut rounds = setup_on::<B>(serve, &peers, cx.seed);
    let (ta, tb) = (
        B::transport(&peers[serve.peers()]),
        B::transport(&peers[serve.peers() + 1]),
    );

    // The call: this run's own spans when the workload is serve_call, a
    // short traced run of it otherwise.
    let mut op = 0;
    let (spans, extras) = if cx.w == serve {
        (w_spans.to_vec(), Some(w_extras))
    } else {
        let sized = warm_up(rounds.as_mut(), cx.unit / 2, &mut op, cx.tally);
        let t = traced_rounds::<B>(
            rounds.as_mut(),
            serve,
            2 * sized,
            &mut op,
            cx.host,
            cx.tally,
        );
        (t.spans, None)
    };

    let mut connects = Vec::new();
    let t0 = Instant::now();
    while connects.len() < 10 || t0.elapsed() < cx.unit / 2 {
        let cfg = ClientCfg::new("bench", 100 + connects.len() as u32);
        let s = now_nanos();
        let c = Client::connect(Arc::clone(&ta), cfg);
        connects.push(now_nanos() - s);
        match cx
            .tally
            .note(c.map_err(|e| format!("Client::connect: {e}")))
        {
            Some(c) => c.close(),
            None => break,
        }
    }
    cx.out.put(
        format!("serve.{tag}.connect_ns"),
        med(&connects),
        "ns",
        &format!("Client::connect, median of {}", connects.len()),
    );

    // The worker's per-reply cost: open_send + send + close_send.
    let frame = encode_req(K_REQ, 1, 0, 1, 0, &[0x7Eu8; 64]);
    let reply_path = (|| -> mpf::Result<f64> {
        let rx = ta.open_receive("rpath", Protocol::Fcfs)?;
        let mut ns = Vec::new();
        let t0 = Instant::now();
        while ns.len() < 20 || t0.elapsed() < cx.unit / 2 {
            let s = now_nanos();
            let tx = ta.open_send("rpath")?;
            ta.send_deadline(tx, &frame, None)?;
            ta.close_send(tx)?;
            ns.push(now_nanos() - s);
            // Drained outside the timed stretch, so the queue stays short.
            ta.try_recv(rx)?;
        }
        ta.close_receive(rx)?;
        Ok(med(&ns))
    })();
    cx.out.put(
        format!("serve.{tag}.reply_path_ns"),
        cx.tally
            .note(reply_path.map_err(|e| format!("reply path: {e}")))
            .unwrap_or(0.0),
        "ns",
        "open_send + send + close_send on the Transport, 64 B frame",
    );

    // Same payload, same Transport, two queues, a bare echo thread.
    let bare = bare_rtt(&ta, tb, cx.unit, cx.tally);
    let n_bare = bare.len();
    let bare_p50 = p50(bare);
    cx.out.put(
        format!("serve.{tag}.bare_rtt_ns"),
        bare_p50,
        "ns",
        &format!("p50 of {n_bare} request-queue + reply-queue round trips, bare echo thread"),
    );
    drop(ta);

    let probe_extras = cx.tally.note(rounds.close()).unwrap_or_default();
    let extras = extras.unwrap_or(probe_extras);
    cx.tally.note(world.conservation());
    let calls: Vec<u32> = spans
        .iter()
        .filter(|s| s.name == B::NAMES.call)
        .map(|s| u32::try_from(s.end_ns - s.start_ns).unwrap_or(u32::MAX))
        .collect();
    let n_calls = calls.len();
    let call_p50 = p50(calls);
    cx.out.put(
        format!("serve.{tag}.overhead_ns"),
        call_p50 - bare_p50,
        "ns",
        &format!(
            "call p50 - bare rtt p50 = {} - {} ns ({n_calls} traced calls)",
            sig(call_p50),
            sig(bare_p50)
        ),
    );
    if tag == ThreadWorld::TAG {
        // One figure each; the thread backend's is the one reported.
        let by = self_by_name(&spans);
        cx.out.put(
            "serve.handler_ns",
            by.get("serve.handler").map_or(0.0, |v| med(v)),
            "ns",
            "span inside the harness's echo handler (thread backend)",
        );
        cx.out.put(
            "serve.retries",
            extras.retries as f64,
            "count",
            "ClientStats.retries",
        );
        cx.out.put(
            "serve.dup_replies",
            extras.dup_replies as f64,
            "count",
            "ClientStats.dup_replies",
        );
        cx.out.put(
            "serve.reqs_per_batch",
            if extras.batches == 0 {
                1.0
            } else {
                extras.served as f64 / extras.batches as f64
            },
            "count",
            &format!(
                "WorkerStats served {} / batches {} (1 when no wakeup drained more than one)",
                extras.served, extras.batches
            ),
        );
    }
}

fn bare_rtt<T: Transport>(ta: &Arc<T>, tb: Arc<T>, unit: Duration, tally: &mut Tally) -> Vec<u32> {
    let opened = (|| -> mpf::Result<_> {
        Ok((
            ta.open_receive("brep", Protocol::Fcfs)?,
            tb.open_receive("breq", Protocol::Fcfs)?,
            ta.open_send("breq")?,
            tb.open_send("brep")?,
        ))
    })();
    let Some((rep_rx, req_rx, req_tx, rep_tx)) =
        tally.note(opened.map_err(|e| format!("bare rtt open: {e}")))
    else {
        return Vec::new();
    };
    let echo = std::thread::spawn(move || -> Result<(), String> {
        loop {
            let dl = Instant::now() + Duration::from_millis(200);
            match tb
                .recv_deadline(req_rx, Some(dl))
                .map_err(|e| e.to_string())?
            {
                Some(m) if m.len() == 1 => break,
                Some(m) => {
                    tb.send_deadline(rep_tx, &m, None)
                        .map_err(|e| e.to_string())?;
                }
                None => {}
            }
        }
        tb.close_receive(req_rx)
            .and_then(|()| tb.close_send(rep_tx))
            .map_err(|e| e.to_string())
    });
    let payload = encode_req(K_REQ, 1, 0, 1, 0, &[0x7Eu8; 64]);
    let mut rtt = Vec::new();
    let t0 = Instant::now();
    while rtt.len() < 30 || t0.elapsed() < 2 * unit {
        let s = now_nanos();
        let r = ta
            .send_deadline(req_tx, &payload, None)
            .and_then(|_| ta.recv_deadline(rep_rx, Some(Instant::now() + Duration::from_secs(2))));
        let ns = now_nanos() - s;
        match tally.note(r.map_err(|e| format!("bare rtt: {e}"))) {
            Some(Some(m)) if m == payload => rtt.push(u32::try_from(ns).unwrap_or(u32::MAX)),
            Some(_) => {
                tally.fail("bare rtt: no echo or a wrong one");
            }
            None => break,
        }
    }
    tally.note(
        ta.send_deadline(req_tx, &[0], None)
            .map(|_| ())
            .map_err(|e| format!("bare rtt stop: {e}")),
    );
    tally.note(
        echo.join()
            .unwrap_or_else(|_| Err("bare echo thread panicked".into())),
    );
    tally.note(
        ta.close_send(req_tx)
            .and_then(|()| ta.close_receive(rep_rx))
            .map_err(|e| format!("bare rtt close: {e}")),
    );
    rtt
}
