//! Hybrid parallel programming — the paper's §5: "A particularly
//! interesting benefit of a message passing facility for shared memory
//! machines is the ability to develop a program using a hybrid parallel
//! programming paradigm."
//!
//! A pipeline where each stage picks the paradigm that fits it:
//!
//! 1. two producers share a work counter through *shared memory* (an
//!    atomic — no messages needed for one word),
//! 2. items flow to the transformer over the *general LNVC* (FCFS, so the
//!    producers never coordinate),
//! 3. the transformer streams squares to the sink over a *one-to-one* LNVC
//!    (one sender, one FCFS receiver: the conversation runs on its ring,
//!    and neither end takes its lock — §5's "all locking associated with
//!    message handling is removed"),
//! 4. the sink *broadcasts* the final checksum on a control LNVC, and both
//!    producers (who kept a broadcast ear on it) verify it.
//!
//! ```sh
//! cargo run --example hybrid
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use mpf::{Mpf, MpfConfig, ProcessId, Protocol};

const ITEMS: u64 = 64;

fn main() {
    let mpf_owned = Mpf::init(MpfConfig::new(8, 8)).expect("init");
    let mpf = &mpf_owned;
    let next_item = AtomicU64::new(0); // shared-memory paradigm
    let expected: u64 = (0..ITEMS).map(|v| v * v).sum();

    // The transformer's ear joins "transform" before any producer thread
    // exists, so a producer finishing (and leaving) first can never delete
    // the conversation out from under the stream (paper §3.2).
    let transform_rx = mpf
        .receiver(ProcessId::from_index(2), "transform", Protocol::Fcfs)
        .expect("transform rx");
    // Likewise the sink's ear on the one-to-one stream.
    let squares_rx = mpf
        .receiver(ProcessId::from_index(3), "squares", Protocol::Fcfs)
        .expect("squares rx");

    std::thread::scope(|s| {
        // Producers: shared counter in, FCFS LNVC out, broadcast ear on
        // the control conversation.
        for i in 0..2 {
            let next_item = &next_item;
            s.spawn(move || {
                let me = ProcessId::from_index(i);
                // Join the control conversation *before* producing so the
                // final broadcast cannot be missed (late joiners start at
                // the tail).
                let control = mpf
                    .receiver(me, "control", Protocol::Broadcast)
                    .expect("control rx");
                let tx = mpf.sender(me, "transform").expect("producer");
                let mut produced = 0;
                loop {
                    let item = next_item.fetch_add(1, Ordering::Relaxed);
                    if item >= ITEMS {
                        break;
                    }
                    produced += 1;
                    tx.send(&item.to_le_bytes()).expect("send item");
                }
                tx.send(&[]).expect("poison");
                // Shared memory handed out work; message passing reports
                // the global outcome back.
                let checksum = control.recv_vec().expect("checksum");
                let sum = u64::from_le_bytes(checksum.as_slice().try_into().expect("8 bytes"));
                println!("producer {i}: produced {produced}, verified checksum {sum}");
                assert_eq!(sum, expected);
            });
        }

        // Transformer: general LNVC in, one-to-one LNVC out.  Stops after
        // both producers' poisons.
        let rx = transform_rx;
        s.spawn(move || {
            let squares_tx = mpf
                .sender(ProcessId::from_index(2), "squares")
                .expect("squares tx");
            let mut poisons = 0;
            while poisons < 2 {
                let msg = rx.recv_vec().expect("recv");
                if msg.is_empty() {
                    poisons += 1;
                    continue;
                }
                let v = u64::from_le_bytes(msg.as_slice().try_into().expect("8 bytes"));
                squares_tx.send(&(v * v).to_le_bytes()).expect("forward");
            }
            squares_tx.send(&[]).expect("eof");
        });

        // Sink: consumes the one-to-one stream, broadcasts the checksum.
        let rx = squares_rx;
        s.spawn(move || {
            let me = ProcessId::from_index(3);
            let control = mpf.sender(me, "control").expect("control tx");
            let mut buf = [0u8; 8];
            let mut sum = 0u64;
            let mut count = 0u64;
            loop {
                let n = rx.recv(&mut buf).expect("sink recv");
                if n == 0 {
                    break;
                }
                sum += u64::from_le_bytes(buf);
                count += 1;
            }
            println!("sink: {count} squares, sum = {sum}");
            assert_eq!(count, ITEMS);
            control
                .send(&sum.to_le_bytes())
                .expect("broadcast checksum");
        });
    });
    println!("hybrid pipeline finished: shared memory + LNVC + one-to-one LNVC in one program");
}
