//! Schedule-exploration scenarios for the paper's §5 synchronous
//! [`Rendezvous`] exchange.  It skips the general LNVC machinery, so it
//! gets its own conservation check: every rendezvous pairs exactly one
//! sender with one receiver under every explored interleaving.

use std::sync::{Arc, Mutex};

use mpf::sync_channel::Rendezvous;
use mpf_check::{explore_dfs, explore_random, Case, ExploreOpts};

type Proc = Box<dyn FnOnce() + Send>;

/// One sender offers two messages through a rendezvous while two
/// receivers race for them: each message must be copied exactly once,
/// each receiver gets exactly one, and no offer is left dangling.
fn rendezvous_case() -> Case {
    let r = Arc::new(Rendezvous::default());
    let got: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let sender = {
        let r = Arc::clone(&r);
        Box::new(move || {
            r.send(b"alpha");
            r.send(b"beta");
        }) as Proc
    };
    let receiver = || {
        let (r, got) = (Arc::clone(&r), Arc::clone(&got));
        Box::new(move || {
            let mut buf = [0u8; 16];
            let n = r.recv(&mut buf).expect("rendezvous recv");
            got.lock().unwrap().push(buf[..n].to_vec());
        }) as Proc
    };
    let procs = vec![sender, receiver(), receiver()];
    let (r, got) = (Arc::clone(&r), Arc::clone(&got));
    Case {
        procs,
        death: None,
        check: Box::new(move || {
            if r.check() {
                return Err("offer left dangling after both receives".into());
            }
            let mut seen = got.lock().unwrap().clone();
            seen.sort();
            if seen != vec![b"alpha".to_vec(), b"beta".to_vec()] {
                return Err(format!("rendezvous duplicated or lost a message: {seen:?}"));
            }
            Ok(())
        }),
    }
}

#[test]
fn rendezvous_pairs_each_offer_exactly_once_dfs() {
    let opts = ExploreOpts::new("rendezvous-exactly-once").max_schedules(300);
    explore_dfs(&opts, rendezvous_case).assert_ok();
}

#[test]
fn rendezvous_pairs_each_offer_exactly_once_random() {
    let opts = ExploreOpts::new("rendezvous-exactly-once-pct").max_schedules(300);
    explore_random(&opts, 0x5EC5, rendezvous_case).assert_ok();
}
