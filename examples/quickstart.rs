//! Quickstart: two processes, one conversation.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use mpf::{Mpf, MpfConfig, ProcessId, Protocol};

fn main() {
    // The paper's init(maxLNVC's, max_processes).
    let mpf = Mpf::init(MpfConfig::new(8, 4)).expect("facility init");
    println!(
        "shared region: ~{} KiB estimated",
        mpf.config().estimated_shared_bytes() / 1024
    );

    let alice = ProcessId::from_index(0);
    let bob = ProcessId::from_index(1);

    // Bob joins the conversation before Alice can possibly leave it.
    // (Paper §3.2: if the last participant closes, the conversation — and
    // any unread messages — are discarded.  Joining first makes the
    // rendezvous safe no matter how the threads are scheduled.)
    let rx = mpf
        .receiver(bob, "hallway", Protocol::Fcfs)
        .expect("open_receive");

    std::thread::scope(|s| {
        s.spawn(|| {
            // open_send creates the conversation if it does not exist.
            let tx = mpf.sender(alice, "hallway").expect("open_send");
            tx.send(b"hello bob, meet me at the bus").expect("send");
            tx.send(b"(the 80 MB/s one)").expect("send");
            // Sender leaves; the conversation lives while Bob is joined.
        });
        s.spawn(|| {
            for _ in 0..2 {
                let msg = rx.recv_vec().expect("message_receive");
                println!("bob got: {}", String::from_utf8_lossy(&msg));
            }
        });
    });
    drop(rx);

    let stats = mpf.telemetry_snapshot();
    println!(
        "sends={} receives={} bytes_in={} bytes_out={}",
        stats.sends, stats.receives, stats.bytes_in, stats.bytes_out
    );
    assert_eq!(mpf.live_lnvcs(), 0, "all connections closed on drop");
}
