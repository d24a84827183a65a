//! `mpf-soak` — soak/chaos driver for the mpf-serve service layer.
//!
//! ```text
//! mpf-soak [--requests N] [--workers N] [--clients N] [--payload BYTES]
//!          [--kill-workers N] [--kill-clients N] [--no-churn]
//!          [--json PATH] [--debug]
//! ```
//!
//! Drives millions of request-reply calls through a real [`Server`] /
//! worker-pool / [`Client`] deployment while injecting the faults the
//! service layer claims to survive, and **gates** on the result:
//!
//! * every request body is stamped and every reply byte-verified — a
//!   lost, duplicated, cross-wired, or corrupted reply fails the run;
//! * workers and clients are SIGKILLed mid-traffic; the
//!   surviving clients must still complete their full quota through the
//!   epoch-failover machinery;
//! * after shutdown the region must conserve: zero live conversations,
//!   every payload block back on the free list, nothing reclaimable.
//!
//! Phases (`ramp` → `churn` → `kill_worker` → `pressure` →
//! `fault_plane` → `runout` → drain/shutdown) each account their own
//! SLO: p50/p99/p999 send→reply latency plus error/retry counters,
//! written to `BENCH_soak.json` (override with `--json`).  The
//! `fault_plane` phase exports `MPF_FAULTS` to its clients, arming the
//! seeded in-region fault plane inside every client process.
//!
//! Exit codes: 0 ok, 2 region-conservation violation, 4 SLO-structure
//! violation, 5 lost/duplicated/corrupt replies or child failure,
//! 6 usage error.
//!
//! Child roles (`--role worker|client`) are this same binary re-exec'd;
//! they report over **stdout** text lines (see [`mpf_serve::soak`]) so a
//! SIGKILLed child cannot poison the reporting channel.  `--debug`
//! additionally spawns `mpf-trace --follow` against the region for a
//! live causal-event tail.

use std::collections::BTreeMap;
use std::io::Read as _;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpf::MpfConfig;
use mpf_aio::AsyncIpc;
use mpf_bench::report::{json_str, JsonReport};
use mpf_bench::Series;
use mpf_ipc::IpcMpf;
use mpf_serve::soak::{
    encode_final, encode_hist, make_payload, parse_final, transform, verify_reply, PhaseSlo,
    FINAL_PREFIX,
};
use mpf_serve::{
    run_worker, Client, ClientCfg, ClientStats, IpcTransport, ServeError, Server, ServerStats,
    WorkerCfg,
};

const REGION_ENV: &str = "MPF_SOAK_REGION";
const SVC_ENV: &str = "MPF_SOAK_SVC";
const SVC: &str = "soak";

/// Per-wave watchdog floor; scaled up with the wave's quota so a slow
/// machine fails loudly instead of hanging CI.
const WAVE_GRACE: Duration = Duration::from_secs(120);

fn usage() -> ! {
    eprintln!(
        "usage: mpf-soak [--requests N] [--workers N] [--clients N] [--payload BYTES]\n\
         \u{20}               [--kill-workers N] [--kill-clients N] [--no-churn]\n\
         \u{20}               [--json PATH] [--debug]"
    );
    std::process::exit(6);
}

#[derive(Clone)]
struct Args {
    requests: u64,
    workers: u32,
    clients: u32,
    payload: usize,
    kill_workers: u32,
    kill_clients: u32,
    churn: bool,
    json: String,
    debug: bool,
}

impl Args {
    fn parse() -> (Option<(String, u32)>, Args) {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut a = Args {
            requests: 1_000_000,
            workers: 4,
            clients: 8,
            payload: 64,
            kill_workers: 1,
            kill_clients: 1,
            churn: true,
            json: "BENCH_soak.json".to_string(),
            debug: false,
        };
        let mut role: Option<(String, u32)> = None;
        let num = |argv: &[String], i: &mut usize| -> u64 {
            *i += 1;
            argv.get(*i)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--requests" => a.requests = num(&argv, &mut i),
                "--workers" => a.workers = num(&argv, &mut i) as u32,
                "--clients" => a.clients = num(&argv, &mut i) as u32,
                "--payload" => a.payload = num(&argv, &mut i) as usize,
                "--kill-workers" => a.kill_workers = num(&argv, &mut i) as u32,
                "--kill-clients" => a.kill_clients = num(&argv, &mut i) as u32,
                "--no-churn" => a.churn = false,
                "--json" => {
                    i += 1;
                    a.json = argv.get(i).cloned().unwrap_or_else(|| usage());
                }
                "--debug" => a.debug = true,
                "--role" => {
                    i += 1;
                    role = Some((argv.get(i).cloned().unwrap_or_else(|| usage()), 0));
                }
                "--id" => {
                    let id = num(&argv, &mut i) as u32;
                    if let Some(r) = role.as_mut() {
                        r.1 = id;
                    }
                }
                "--quota" => a.requests = num(&argv, &mut i),
                "--help" | "-h" => usage(),
                other => {
                    eprintln!("mpf-soak: unknown argument `{other}`");
                    usage()
                }
            }
            i += 1;
        }
        // Children legitimately carry `--quota 0` (workers); only the
        // driver invocation validates the traffic shape.
        if role.is_none() && (a.workers == 0 || a.clients == 0 || a.requests == 0) {
            usage();
        }
        (role, a)
    }
}

fn main() {
    let (role, args) = Args::parse();
    let code = match role {
        Some((r, id)) => match r.as_str() {
            "worker" => worker_child(id),
            "client" => client_child(id, args.requests, args.payload),
            other => {
                eprintln!("mpf-soak: unknown role `{other}`");
                6
            }
        },
        None => driver(&args),
    };
    // All facility handles dropped above; exiting here cannot skip a
    // region detach (a skipped detach would read as a dead peer).
    std::process::exit(code);
}

// ----------------------------------------------------------------------
// Child roles
// ----------------------------------------------------------------------

fn attach_transport() -> Option<IpcTransport> {
    let region = std::env::var(REGION_ENV).ok()?;
    let ipc = IpcMpf::attach(&region).ok()?;
    Some(IpcTransport(AsyncIpc::new(Arc::new(ipc))))
}

fn worker_child(wid: u32) -> i32 {
    let Some(t) = attach_transport() else {
        eprintln!("mpf-soak worker {wid}: cannot attach region");
        return 1;
    };
    let svc = std::env::var(SVC_ENV).unwrap_or_else(|_| SVC.to_string());
    let cfg = WorkerCfg::new(&svc, wid);
    match run_worker(&t, &cfg, transform) {
        Ok(st) => {
            println!(
                "{}",
                encode_final(&[
                    ("role", "worker".into()),
                    ("wid", wid.to_string()),
                    ("served", st.served.to_string()),
                    ("batches", st.batches.to_string()),
                    ("reply_failures", st.reply_failures.to_string()),
                    ("rejoins", st.rejoins.to_string()),
                    ("sweeps", st.sweeps.to_string()),
                    ("ctl_applied", st.ctl_applied.to_string()),
                ])
            );
            0
        }
        Err(e) => {
            eprintln!("mpf-soak worker {wid}: fatal {e}");
            1
        }
    }
}

fn client_child(cid: u32, quota: u64, payload: usize) -> i32 {
    // Arms the deterministic fault plane when the driver exported
    // `MPF_FAULTS` (the `fault_plane` phase); a no-op otherwise.  The
    // guard must outlive the work loop, not the attach.
    let _faults = mpf_shm::faultplane::install_from_env();
    let Some(t) = attach_transport() else {
        eprintln!("mpf-soak client {cid}: cannot attach region");
        return 1;
    };
    let svc = std::env::var(SVC_ENV).unwrap_or_else(|_| SVC.to_string());
    let (kvs, failed) = run_client(Arc::new(t), &svc, cid, quota, payload);
    println!("{}", encode_final(&kvs));
    i32::from(failed)
}

/// The client work loop.
fn run_client(
    t: Arc<IpcTransport>,
    svc: &str,
    cid: u32,
    quota: u64,
    payload: usize,
) -> (Vec<(&'static str, String)>, bool) {
    let mut fatal = String::new();
    let mut corrupt = 0u64;
    let mut consec_timeouts = 0u32;
    let stats: Option<ClientStats> = match Client::connect(t, ClientCfg::new(svc, cid)) {
        Err(e) => {
            fatal = format!("connect:{e}");
            None
        }
        Ok(mut client) => {
            for seq in 0..quota {
                let req = make_payload(cid, seq, payload);
                match client.call(&req) {
                    Ok(reply) => {
                        consec_timeouts = 0;
                        if !verify_reply(cid, seq, payload, &reply) {
                            corrupt += 1;
                        }
                    }
                    Err(ServeError::TimedOut) => {
                        // Counted in stats.timeouts; several in a row
                        // means the service is gone — stop burning the
                        // full retry budget per request.
                        consec_timeouts += 1;
                        if consec_timeouts >= 3 {
                            fatal = "service unresponsive".to_string();
                            break;
                        }
                    }
                    Err(e) => {
                        fatal = format!("call:{e}");
                        break;
                    }
                }
            }
            let stats = client.stats.clone();
            client.close();
            Some(stats)
        }
    };
    let st = stats.unwrap_or_default();
    let failed = !fatal.is_empty() || corrupt > 0 || st.ok != quota;
    if !fatal.is_empty() {
        eprintln!("mpf-soak client {cid}: {fatal}");
    }
    (
        vec![
            ("role", "client".into()),
            ("cid", cid.to_string()),
            ("quota", quota.to_string()),
            ("ok", st.ok.to_string()),
            ("timeouts", st.timeouts.to_string()),
            ("retries", st.retries.to_string()),
            ("epoch_failovers", st.epoch_failovers.to_string()),
            ("gen_bumps", st.gen_bumps.to_string()),
            ("dup_replies", st.dup_replies.to_string()),
            ("corrupt", corrupt.to_string()),
            ("fatal", u64::from(!fatal.is_empty()).to_string()),
            ("lat", encode_hist(&st.latency())),
        ],
        failed,
    )
}

// ----------------------------------------------------------------------
// Driver
// ----------------------------------------------------------------------

fn region_config(debug: bool) -> MpfConfig {
    MpfConfig::new(64, 48)
        .with_block_payload(128)
        .with_total_blocks(256)
        .with_max_messages(64)
        .with_max_connections(96)
        .with_telemetry(true)
        .trace_sample_rate(u32::from(debug))
}

struct ClientProc {
    child: Child,
    cid: u32,
    quota: u64,
}

struct WorkerProc {
    child: Child,
    wid: u32,
}

/// A chaos action due at an offset from its wave's start.
enum ChaosAt {
    KillClients(Duration, u32),
    KillWorker(Duration),
}

/// Process bookkeeping for the driver (the [`Server`] itself stays a
/// local so `shutdown(self)` can consume it).
struct Driver {
    exe: std::path::PathBuf,
    region: String,
    workers: Vec<WorkerProc>,
    next_cid: u32,
    next_wid: u32,
    /// Verified-ok calls accumulated across phases.
    done: u64,
    /// First hard failure (exit code, description).
    failure: Option<(i32, String)>,
    /// `MPF_FAULTS` spec exported to clients spawned while set (the
    /// `fault_plane` phase); workers never inherit it.
    fault_spec: Option<String>,
}

impl Driver {
    fn spawn_child(
        &self,
        role: &str,
        id: u32,
        quota: u64,
        payload: usize,
    ) -> std::io::Result<Child> {
        let mut cmd = Command::new(&self.exe);
        cmd.args([
            "--role",
            role,
            "--id",
            &id.to_string(),
            "--quota",
            &quota.to_string(),
            "--payload",
            &payload.to_string(),
        ])
        .env(REGION_ENV, &self.region)
        .env(SVC_ENV, SVC)
        // Never inherited: a driver launched with MPF_FAULTS set (the
        // CI seed matrix) must not leak it into every phase's children.
        .env_remove("MPF_FAULTS")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
        if role == "client" {
            if let Some(spec) = &self.fault_spec {
                cmd.env("MPF_FAULTS", spec);
            }
        }
        cmd.spawn()
    }

    fn spawn_worker(&mut self) {
        let wid = self.next_wid;
        self.next_wid += 1;
        match self.spawn_child("worker", wid, 0, 0) {
            Ok(child) => self.workers.push(WorkerProc { child, wid }),
            Err(e) => self.fail(5, format!("spawn worker {wid}: {e}")),
        }
    }

    fn spawn_clients(&mut self, n: u32, quota_each: u64, payload: usize) -> Vec<ClientProc> {
        let mut out = Vec::new();
        for _ in 0..n {
            let cid = self.next_cid;
            self.next_cid += 1;
            match self.spawn_child("client", cid, quota_each, payload) {
                Ok(child) => out.push(ClientProc {
                    child,
                    cid,
                    quota: quota_each,
                }),
                Err(e) => self.fail(5, format!("spawn client {cid}: {e}")),
            }
        }
        out
    }

    fn fail(&mut self, code: i32, what: String) {
        eprintln!("mpf-soak: FAIL {what}");
        if self.failure.is_none() {
            self.failure = Some((code, what));
        }
    }

    /// Pumps the server (acks + supervision) until every client in the
    /// wave exits, running the chaos schedule along the way.  Absorbs
    /// surviving clients' reports into `phase`.
    fn pump_wave(
        &mut self,
        server: &mut Server<IpcTransport>,
        mut wave: Vec<ClientProc>,
        mut chaos: Vec<ChaosAt>,
        phase: &mut PhaseSlo,
    ) {
        let started = Instant::now();
        let quota_total: u64 = wave.iter().map(|c| c.quota).sum();
        let deadline = started + WAVE_GRACE + Duration::from_millis(quota_total);
        // Runs until the chaos schedule fired too: a fast wave must not
        // skip its kills (workers are long-lived, so killing one after
        // its wave still injects the fault the next phase must absorb).
        while !wave.is_empty() || !chaos.is_empty() {
            let _ = server.poll_acks(Some(Instant::now() + Duration::from_millis(20)));
            match server.supervise() {
                Ok(true) => eprintln!(
                    "mpf-soak: epoch bump -> {} ({}s in)",
                    server.epoch(),
                    started.elapsed().as_secs()
                ),
                Ok(false) => {}
                Err(e) => self.fail(5, format!("supervise: {e}")),
            }
            // Chaos schedule: collect what is due, then act (two steps so
            // the retain closure does not also need `self`/`wave`).
            let elapsed = started.elapsed();
            let mut due = Vec::new();
            chaos.retain_mut(|c| {
                let is_due = matches!(
                    c,
                    ChaosAt::KillClients(at, _) | ChaosAt::KillWorker(at) if elapsed >= *at
                );
                if is_due {
                    due.push(match c {
                        ChaosAt::KillClients(at, n) => ChaosAt::KillClients(*at, *n),
                        ChaosAt::KillWorker(at) => ChaosAt::KillWorker(*at),
                    });
                }
                !is_due
            });
            for act in due {
                match act {
                    ChaosAt::KillClients(_, n) => {
                        for victim in wave.iter_mut().take(n as usize) {
                            eprintln!("mpf-soak: SIGKILL client {}", victim.cid);
                            let _ = victim.child.kill();
                            let _ = victim.child.wait();
                            victim.quota = u64::MAX; // marks "killed" for reaping
                        }
                    }
                    ChaosAt::KillWorker(_) => {
                        if let Some(mut w) = self.workers.pop() {
                            eprintln!("mpf-soak: SIGKILL worker {}", w.wid);
                            let _ = w.child.kill();
                            let _ = w.child.wait();
                        }
                        self.spawn_worker();
                        // Settle: the kill must surface as an epoch bump
                        // even when the wave has already drained (no more
                        // loop iterations would run supervise otherwise).
                        let until = Instant::now() + Duration::from_secs(5);
                        loop {
                            match server.supervise() {
                                Ok(true) => {
                                    eprintln!("mpf-soak: epoch bump -> {}", server.epoch());
                                    break;
                                }
                                Ok(false) => {}
                                Err(e) => {
                                    self.fail(5, format!("supervise: {e}"));
                                    break;
                                }
                            }
                            if Instant::now() >= until {
                                break;
                            }
                            let _ =
                                server.poll_acks(Some(Instant::now() + Duration::from_millis(20)));
                        }
                    }
                }
            }
            // Reap exits.
            let mut keep = Vec::new();
            for mut c in wave {
                match c.child.try_wait() {
                    Ok(Some(status)) => {
                        if c.quota == u64::MAX {
                            continue; // the client we killed on purpose
                        }
                        self.collect_client(&mut c, status.success(), phase);
                    }
                    Ok(None) => keep.push(c),
                    Err(e) => self.fail(5, format!("wait client {}: {e}", c.cid)),
                }
            }
            wave = keep;
            if Instant::now() >= deadline {
                self.fail(5, format!("wave watchdog after {:?}", started.elapsed()));
                for mut c in wave.drain(..) {
                    let _ = c.child.kill();
                    let _ = c.child.wait();
                }
            }
        }
    }

    fn collect_client(&mut self, c: &mut ClientProc, exited_ok: bool, phase: &mut PhaseSlo) {
        let mut out = String::new();
        if let Some(mut stdout) = c.child.stdout.take() {
            let _ = stdout.read_to_string(&mut out);
        }
        let Some(kv) = out
            .lines()
            .find(|l| l.contains(FINAL_PREFIX))
            .and_then(parse_final)
        else {
            self.fail(5, format!("client {} exited without a report", c.cid));
            return;
        };
        let ok = kv
            .get("ok")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        let corrupt = kv
            .get("corrupt")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        if corrupt > 0 {
            self.fail(5, format!("client {}: {corrupt} corrupt replies", c.cid));
        }
        if !exited_ok || ok != c.quota {
            self.fail(
                5,
                format!("client {}: {ok}/{} verified replies", c.cid, c.quota),
            );
        }
        self.done += ok;
        phase.absorb(&kv);
    }
}

fn driver(args: &Args) -> i32 {
    let region = format!("soak-{}", std::process::id());
    let cfg = region_config(args.debug);
    let ipc = match IpcMpf::create(&region, &cfg) {
        Ok(m) => Arc::new(m),
        Err(e) => {
            eprintln!("mpf-soak: cannot create region `{region}`: {e}");
            return 1;
        }
    };
    let t = Arc::new(IpcTransport(AsyncIpc::new(Arc::clone(&ipc))));
    let mut server = match Server::new(Arc::clone(&t), SVC) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mpf-soak: cannot anchor service: {e}");
            return 1;
        }
    };
    let exe = std::env::current_exe().expect("current_exe");
    let mut follower = if args.debug {
        spawn_follower(&exe, &region)
    } else {
        None
    };
    let mut d = Driver {
        exe,
        region,
        workers: Vec::new(),
        next_cid: 1,
        next_wid: 1,
        done: 0,
        failure: None,
        fault_spec: None,
    };
    for _ in 0..args.workers {
        d.spawn_worker();
    }
    // Wait for the pool to register before traffic.
    let join_by = Instant::now() + Duration::from_secs(15);
    while server.worker_count() < args.workers as usize && Instant::now() < join_by {
        let _ = server.poll_acks(Some(Instant::now() + Duration::from_millis(50)));
    }
    if server.worker_count() < args.workers as usize {
        d.fail(5, "worker pool did not register".to_string());
    }

    let mut phases: Vec<PhaseSlo> = Vec::new();
    let n = args.requests;
    let c = u64::from(args.clients);

    // -- ramp: plain traffic, full pool --------------------------------
    let mut phase = PhaseSlo::new("ramp");
    let wave = d.spawn_clients(args.clients, (n / 10).max(c) / c, args.payload);
    d.pump_wave(&mut server, wave, Vec::new(), &mut phase);
    phases.push(phase);

    // -- churn: client turnover, optional client SIGKILL ----------------
    if args.churn {
        let mut phase = PhaseSlo::new("churn");
        for round in 0..2 {
            let wave = d.spawn_clients(args.clients, (n / 4).max(c) / (2 * c), args.payload);
            let chaos = if round == 0 && args.kill_clients > 0 {
                vec![ChaosAt::KillClients(
                    Duration::from_millis(300),
                    args.kill_clients,
                )]
            } else {
                Vec::new()
            };
            d.pump_wave(&mut server, wave, chaos, &mut phase);
        }
        phases.push(phase);
    }

    // -- kill_worker: lose pool members mid-traffic ---------------------
    if args.kill_workers > 0 {
        let mut phase = PhaseSlo::new("kill_worker");
        let wave = d.spawn_clients(args.clients, (n * 15 / 100).max(c) / c, args.payload);
        let chaos: Vec<ChaosAt> = (0..args.kill_workers)
            .map(|k| ChaosAt::KillWorker(Duration::from_millis(300 + 400 * u64::from(k))))
            .collect();
        d.pump_wave(&mut server, wave, chaos, &mut phase);
        phases.push(phase);
    }

    // -- pressure: payloads sized to exhaust the block pool -------------
    let mut phase = PhaseSlo::new("pressure");
    let big = args.payload.max(1024);
    let wave = d.spawn_clients(args.clients, (n / 10).max(c) / c, big);
    d.pump_wave(&mut server, wave, Vec::new(), &mut phase);
    phases.push(phase);

    // -- fault_plane: clients run under deterministic injected faults ---
    // Delay-class sites (dropped notifies, lock stalls) plus absorbed
    // pool exhaustion: the facility's bounded naps and `send_deadline`
    // retry loops must hide every injection — the SLO gate still
    // requires each call verified.  Peer-death injection stays out of
    // the soak (a lied-about server death triggers a real 10 s epoch
    // discovery); mpf-check's modeled death covers that plane.
    // The driver's own MPF_FAULTS (if any) overrides the default spec —
    // this is how the CI matrix sweeps seeds.
    let mut phase = PhaseSlo::new("fault_plane");
    d.fault_spec = Some(
        std::env::var("MPF_FAULTS")
            .unwrap_or_else(|_| "seed=64151,notify=0.02,lock=0.01,pool=0.01".to_string()),
    );
    let wave = d.spawn_clients(args.clients, (n / 10).max(c) / c, args.payload);
    d.pump_wave(&mut server, wave, Vec::new(), &mut phase);
    d.fault_spec = None;
    phases.push(phase);

    // -- runout: whatever is left of the request target -----------------
    let mut phase = PhaseSlo::new("runout");
    while d.done < n && d.failure.is_none() {
        let remaining = n - d.done;
        let quota_each = (remaining / c).clamp(1, 200_000);
        let wave = d.spawn_clients(args.clients, quota_each, args.payload);
        d.pump_wave(&mut server, wave, Vec::new(), &mut phase);
    }
    phases.push(phase);

    // -- drain: quiesce the pool, expect full acks and an empty queue ---
    match server.drain(Some(Duration::from_secs(20))) {
        Ok(r) => {
            eprintln!(
                "mpf-soak: drain acked={:?} timed_out={:?} residual={} served_total={}",
                r.acked, r.timed_out, r.residual, r.served_total
            );
            if !r.timed_out.is_empty() || r.residual != 0 {
                d.fail(5, format!("drain incomplete: {r:?}"));
            }
        }
        Err(e) => d.fail(5, format!("drain: {e}")),
    }
    if let Err(e) = server.resume() {
        d.fail(5, format!("resume: {e}"));
    }

    // -- shutdown -------------------------------------------------------
    let mut server_stats = server.stats;
    let epoch_final = server.epoch();
    let workers_reg = server.worker_count();
    match server.shutdown(Some(Duration::from_secs(20))) {
        Ok(r) => {
            eprintln!(
                "mpf-soak: shutdown byes={:?} stragglers={:?}",
                r.byes, r.stragglers
            );
            server_stats.byes += r.byes.len() as u64;
            if !r.stragglers.is_empty() {
                d.fail(5, format!("shutdown stragglers: {:?}", r.stragglers));
            }
        }
        Err(e) => d.fail(5, format!("shutdown: {e}")),
    }
    let mut worker_reports = Vec::new();
    let reap_by = Instant::now() + Duration::from_secs(20);
    for mut w in std::mem::take(&mut d.workers) {
        let status = loop {
            match w.child.try_wait() {
                Ok(Some(s)) => break Some(s),
                Ok(None) if Instant::now() < reap_by => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => break None,
            }
        };
        let mut out = String::new();
        if let Some(mut stdout) = w.child.stdout.take() {
            let _ = stdout.read_to_string(&mut out);
        }
        match status {
            Some(s) if s.success() => {
                if let Some(kv) = out
                    .lines()
                    .find(|l| l.contains(FINAL_PREFIX))
                    .and_then(parse_final)
                {
                    worker_reports.push(kv);
                }
            }
            other => {
                let _ = w.child.kill();
                let _ = w.child.wait();
                d.fail(
                    5,
                    format!("worker {} did not exit cleanly ({other:?})", w.wid),
                );
            }
        }
    }

    // -- conservation ---------------------------------------------------
    let conservation = check_conservation(&ipc, cfg.total_blocks);
    if let Err(why) = &conservation {
        d.fail(2, format!("conservation: {why}"));
    }

    // -- SLO structure --------------------------------------------------
    for p in &phases {
        if p.ok > 0 && !p.slo_structure_ok() {
            d.fail(
                4,
                format!(
                    "phase {}: latency structure broken (count={} ok={})",
                    p.name, p.latency.count, p.ok
                ),
            );
        }
    }
    if args.kill_workers + args.kill_clients > 0 && server_stats.epoch_bumps == 0 {
        d.fail(5, "kills requested but no epoch bump observed".to_string());
    }

    if let Some(mut f) = follower.take() {
        let _ = f.kill();
        let _ = f.wait();
    }
    write_report(
        args,
        &phases,
        &server_stats,
        epoch_final,
        workers_reg,
        &worker_reports,
        &conservation,
        d.done,
    );
    summarize(&phases, d.done, server_stats.epoch_bumps);
    match &d.failure {
        Some((code, _)) => *code,
        None => {
            println!("mpf-soak: PASS ({} verified requests)", d.done);
            0
        }
    }
}

fn spawn_follower(exe: &std::path::Path, region: &str) -> Option<Child> {
    let trace = exe.parent()?.join("mpf-trace");
    match Command::new(&trace)
        .args([region, "--follow", "--interval-ms", "250"])
        .spawn()
    {
        Ok(c) => Some(c),
        Err(e) => {
            eprintln!(
                "mpf-soak: cannot spawn {} ({e}); --debug follower disabled",
                trace.display()
            );
            None
        }
    }
}

/// Region accounting after everything detached: no conversations, every
/// block free, nothing reclaimable, every structural invariant intact.
/// Re-sweeps and retries briefly — children were reaped only a moment ago.
fn check_conservation(ipc: &IpcMpf, total_blocks: u32) -> Result<(usize, u32), String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        ipc.sweep_dead_peers();
        let live = ipc.live_lnvcs();
        let free = ipc.free_blocks();
        let rec = ipc.reclaimable();
        let audit = ipc.check_invariants();
        if live == 0
            && free == total_blocks
            && rec.messages == 0
            && rec.blocks == 0
            && audit.is_ok()
        {
            return Ok((live, free));
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "live_lnvcs={live} free_blocks={free}/{total_blocks} \
                 reclaimable={{messages:{},blocks:{}}} invariants={audit:?}",
                rec.messages, rec.blocks
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

// ----------------------------------------------------------------------
// Reporting
// ----------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn write_report(
    args: &Args,
    phases: &[PhaseSlo],
    server: &ServerStats,
    epoch_final: u32,
    workers_registered: usize,
    worker_reports: &[BTreeMap<String, String>],
    conservation: &Result<(usize, u32), String>,
    done: u64,
) {
    let mut r = JsonReport::at(&args.json);
    let series: Vec<Series> = [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)]
        .iter()
        .map(|(label, q)| Series {
            label: (*label).to_string(),
            points: phases
                .iter()
                .enumerate()
                .map(|(i, p)| (i as f64, p.latency.percentile(*q) as f64))
                .collect(),
        })
        .collect();
    r.add(
        "soak: send-to-reply latency percentiles by phase (ns)",
        &series,
    );
    r.add_extra(
        "soak_config",
        format!(
            "{{\"requests\":{},\"workers\":{},\"clients\":{},\"payload\":{},\
             \"kill_workers\":{},\"kill_clients\":{},\"churn\":{}}}",
            args.requests,
            args.workers,
            args.clients,
            args.payload,
            args.kill_workers,
            args.kill_clients,
            args.churn
        ),
    );
    let phase_objs = phases
        .iter()
        .map(PhaseSlo::to_json)
        .collect::<Vec<_>>()
        .join(",");
    r.add_extra("phases", format!("[{phase_objs}]"));
    r.add_extra(
        "server",
        format!(
            "{{\"hellos\":{},\"byes\":{},\"faults\":{},\"epoch_bumps\":{},\"final_epoch\":{},\
             \"workers_registered\":{workers_registered}}}",
            server.hellos, server.byes, server.faults, server.epoch_bumps, epoch_final
        ),
    );
    let workers_json = worker_reports
        .iter()
        .map(|kv| {
            let fields = kv
                .iter()
                .filter(|(k, _)| *k != "role" && *k != "lat")
                .map(|(k, v)| format!("{}:{}", json_str(k), v.parse::<u64>().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join(",");
            format!("{{{fields}}}")
        })
        .collect::<Vec<_>>()
        .join(",");
    r.add_extra("workers", format!("[{workers_json}]"));
    r.add_extra(
        "conservation",
        match conservation {
            Ok((live, free)) => {
                format!("{{\"ok\":true,\"live_lnvcs\":{live},\"free_blocks\":{free}}}")
            }
            Err(why) => format!("{{\"ok\":false,\"detail\":{}}}", json_str(why)),
        },
    );
    r.add_extra("verified_requests", done.to_string());
    match r.write() {
        Ok(p) => eprintln!("mpf-soak: wrote {}", p.display()),
        Err(e) => eprintln!("mpf-soak: cannot write {}: {e}", args.json),
    }
}

fn summarize(phases: &[PhaseSlo], done: u64, epoch_bumps: u32) {
    println!("# soak summary: {done} verified requests, {epoch_bumps} epoch bump(s)");
    println!(
        "{:<12}{:>10}{:>10}{:>9}{:>9}{:>12}{:>12}{:>12}",
        "phase", "ok", "timeouts", "retries", "dups", "p50_ns", "p99_ns", "p999_ns"
    );
    for p in phases {
        println!(
            "{:<12}{:>10}{:>10}{:>9}{:>9}{:>12}{:>12}{:>12}",
            p.name,
            p.ok,
            p.timeouts,
            p.retries,
            p.dup_replies,
            p.latency.percentile(0.50),
            p.latency.percentile(0.99),
            p.latency.percentile(0.999)
        );
    }
}
