//! Property tests for the §5 synchronous rendezvous and the LNVC's block
//! scatter/gather: both must deliver arbitrary message sequences
//! byte-exactly and in order.  Cases are
//! generated from fixed seeds (deterministic; the case index is in every
//! assertion message for replay).

use mpf::sync_channel::Rendezvous;
use mpf_shm::SmallRng;

fn random_msg(rng: &mut SmallRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Rendezvous: a cross-thread stream of arbitrary messages arrives
/// complete, in order, byte-exact — synchronous semantics make the
/// interleaving deterministic per message.
#[test]
fn rendezvous_stream_roundtrip() {
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0x5E4D_0000 + case);
        let n_msgs = rng.gen_range(1..20usize);
        let msgs: Vec<Vec<u8>> = (0..n_msgs).map(|_| random_msg(&mut rng, 64)).collect();

        let r = Rendezvous::default();
        let sent = msgs.clone();
        std::thread::scope(|s| {
            s.spawn(|| {
                for m in &sent {
                    r.send(m);
                }
            });
            let mut buf = [0u8; 64];
            for m in &msgs {
                let n = r.recv(&mut buf).expect("recv");
                assert_eq!(&buf[..n], &m[..], "case {case}");
            }
        });
    }
}

/// The facility's scatter/gather across 10-byte blocks is identity for
/// arbitrary payloads (full-stack: send through a real conversation).
#[test]
fn lnvc_payload_roundtrip() {
    use mpf::{Mpf, MpfConfig, ProcessId, Protocol};
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0x14C_0000 + case);
        let payload = random_msg(&mut rng, 600);
        let mpf = Mpf::init(
            MpfConfig::new(2, 2)
                .with_block_payload(10)
                .with_total_blocks(256),
        )
        .expect("init");
        let p0 = ProcessId::from_index(0);
        let tx = mpf.sender(p0, "prop").expect("tx");
        let rx = mpf.receiver(p0, "prop", Protocol::Fcfs).expect("rx");
        tx.send(&payload).expect("send");
        let got = rx.recv_vec().expect("recv");
        assert_eq!(got, payload, "case {case}");
        assert_eq!(mpf.free_blocks(), 256, "case {case}");
    }
}
