//! The conversation model in full: participants join and leave a named
//! LNVC at will; FCFS receivers share the work, BROADCAST receivers audit
//! everything (paper §1, Figure 1).
//!
//! A dispatcher posts jobs into the "jobs" conversation.  Two FCFS workers
//! split them (each job delivered exactly once); one BROADCAST auditor
//! sees every job.  Halfway through, a third worker joins — demonstrating
//! dynamic membership — and poison messages let everyone leave cleanly.
//!
//! ```sh
//! cargo run --example conversation
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

use mpf::{Mpf, MpfConfig, ProcessId, Protocol, Receiver};

const JOBS: usize = 12;
const WORKERS: usize = 3;

fn main() {
    let mpf = &*Box::leak(Box::new(Mpf::init(MpfConfig::new(8, 8)).expect("init")));
    let done = &*Box::leak(Box::new(AtomicUsize::new(0)));

    // The auditor joins before any job can be posted: broadcast receivers
    // only see messages sent after they join, and its open connection also
    // keeps the conversation alive however the threads are scheduled
    // (paper §3.2).
    let auditor_rx = mpf
        .receiver(ProcessId::from_index(5), "jobs", Protocol::Broadcast)
        .expect("auditor joins");

    std::thread::scope(|s| {
        // Auditor: BROADCAST — sees every message in time order.
        let rx = auditor_rx;
        s.spawn(move || {
            let mut seen = 0;
            loop {
                let msg = rx.recv_vec().expect("audit");
                if msg.is_empty() {
                    break;
                }
                seen += 1;
            }
            println!("auditor observed {seen} jobs (every one of them)");
            assert_eq!(seen, JOBS);
        });

        // Workers 0 and 1: FCFS — each job goes to exactly one of them.
        // Like the auditor they join before their threads start: a job
        // posted while only BROADCAST receivers are connected is owed to
        // no FCFS receiver at all.
        for w in 0..2 {
            let rx = join(mpf, w);
            s.spawn(move || worker(rx, w, done));
        }

        // Dispatcher.
        s.spawn(|| {
            let me = ProcessId::from_index(4);
            let tx = mpf.sender(me, "jobs").expect("dispatcher joins");
            for job in 0..JOBS {
                if job == JOBS / 2 {
                    // Mid-stream, a late worker joins the conversation —
                    // before its poison can be posted, or the departure
                    // of the others would leave that poison owed to nobody.
                    let rx = join(mpf, 2);
                    s.spawn(move || worker(rx, 2, done));
                }
                tx.send(format!("job #{job}").as_bytes()).expect("post");
            }
            // One poison per worker (zero-length), then one for the
            // auditor's broadcast stream.
            for _ in 0..WORKERS {
                tx.send(&[]).expect("poison");
            }
        });
    });

    assert_eq!(done.load(Ordering::Relaxed), JOBS);
    println!("all {JOBS} jobs done exactly once");
}

fn join(mpf: &Mpf, idx: usize) -> Receiver<'_> {
    mpf.receiver(ProcessId::from_index(idx), "jobs", Protocol::Fcfs)
        .expect("worker joins")
}

fn worker(rx: Receiver<'_>, idx: usize, done: &AtomicUsize) {
    let mut handled = 0;
    loop {
        let msg = rx.recv_vec().expect("take job");
        if msg.is_empty() {
            break; // poison: leave the conversation
        }
        handled += 1;
        done.fetch_add(1, Ordering::Relaxed);
    }
    println!("worker {idx} handled {handled} jobs");
}
