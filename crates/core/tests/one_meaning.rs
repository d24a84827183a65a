//! One meaning per name: every name `Mpf` spells is its view's method of
//! the same name.  Each row drives one name twice from the same state —
//! `mpf.<name>(pid, ..)` on one facility, `mpf.view(pid)?.<name>(..)` on a
//! second one built identically — and the two must return the same result
//! and leave the same books: queue depth, free blocks and ring counters.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use mpf::{LnvcId, Mpf, MpfConfig, MpfError, ProcessId, Protocol};
use mpf_shm::ring::AIO_RING_SLOTS;
use mpf_shm::telemetry::TelSnapshot;

fn p(i: usize) -> ProcessId {
    ProcessId::from_index(i)
}

/// A facility in one of the states under test.  Process 0 sends and
/// process 1 receives on `id`, the handle every row uses; `live` is the
/// conversation whose queue the books watch.
struct World {
    mpf: Mpf,
    id: LnvcId,
    live: LnvcId,
}

impl World {
    /// What a row may have changed, as the region reports it.
    fn books(&self) -> String {
        let st = self.mpf.aio_stats(p(0)).unwrap();
        format!(
            "depth {:?}, free blocks {}, sq {} cq {}, submitted {} drained {}",
            self.mpf.view(p(0)).unwrap().queue_depth(self.live),
            self.mpf.free_blocks(),
            st.sq_depth,
            st.cq_depth,
            st.submitted,
            st.drained
        )
    }
}

const PAYLOAD: &[u8] = &[7; 10];

/// One conversation, "twin": process 0 sends, process 1 receives FCFS.
fn conversation(cfg: MpfConfig) -> World {
    let mpf = Mpf::init(cfg).unwrap();
    let id = mpf.open_send(p(0), "twin").unwrap();
    assert_eq!(mpf.open_receive(p(1), "twin", Protocol::Fcfs), Ok(id));
    World { mpf, id, live: id }
}

fn tiny() -> MpfConfig {
    MpfConfig::new(2, 2).with_block_payload(10)
}

/// Every block held: one 40-byte message over four 10-byte blocks.
fn blocks_exhausted() -> World {
    let w = conversation(tiny().with_total_blocks(4).with_max_messages(4));
    w.mpf.message_send(p(0), w.id, &[1; 40]).unwrap();
    w
}

/// Blocks to spare, but the one message header is held.
fn headers_exhausted() -> World {
    let w = conversation(tiny().with_total_blocks(16).with_max_messages(1));
    w.mpf.message_send(p(0), w.id, &[1; 10]).unwrap();
    w
}

/// One message queued, then 64 sends submitted and not drained.
fn sq_full() -> World {
    let w = conversation(tiny().with_total_blocks(256).with_max_messages(128));
    w.mpf.message_send(p(0), w.id, &[1; 10]).unwrap();
    let ring = [PAYLOAD; AIO_RING_SLOTS];
    assert_eq!(w.mpf.submit_sends(p(0), w.id, &ring), Ok(AIO_RING_SLOTS));
    w
}

/// The conversation's last connections closed: the id names nothing.
fn closed() -> World {
    let w = conversation(tiny().with_total_blocks(64));
    w.mpf.close_send(p(0), w.id).unwrap();
    w.mpf.close_receive(p(1), w.id).unwrap();
    w
}

/// The id's descriptor recycled for another conversation (one slot), with
/// a message queued there that the stale id must not reach.
fn stale() -> World {
    let mpf = Mpf::init(MpfConfig::new(1, 2).with_total_blocks(64)).unwrap();
    let id = mpf.open_send(p(0), "first").unwrap();
    mpf.close_send(p(0), id).unwrap();
    let live = mpf.open_send(p(0), "second").unwrap();
    mpf.open_receive(p(1), "second", Protocol::Fcfs).unwrap();
    mpf.message_send(p(0), live, &[1; 10]).unwrap();
    assert_eq!(id.index(), live.index(), "the same descriptor");
    World { mpf, id, live }
}

/// A 100-byte message queued for a receiver with a 4-byte buffer.
fn too_small() -> World {
    let w = conversation(tiny().with_total_blocks(64));
    w.mpf.message_send(p(0), w.id, &[1; 100]).unwrap();
    w
}

type Build = fn() -> World;
type Drive = fn(&World) -> String;

fn soon() -> Instant {
    Instant::now() + Duration::from_millis(5)
}

/// `twin!(w => name(pid, args..))`: the row `name`, driven as
/// `w.mpf.name(p(pid), args..)` and as `w.mpf.view(p(pid))?.name(args..)`.
/// `Ok name(..)`: the view's form cannot fail, so its value is wrapped
/// in the `Ok` the facade's pid check adds.  `name()`: a region-wide
/// name, which takes no pid and is any view's.
macro_rules! twin {
    ($w:ident => $name:ident()) => {
        (
            stringify!($name),
            (|$w: &World| format!("{:?}", $w.mpf.$name())) as Drive,
            (|$w: &World| format!("{:?}", $w.mpf.view(p(0)).unwrap().$name())) as Drive,
        )
    };
    ($w:ident => Ok $name:ident($pid:expr $(, $arg:expr)*)) => {
        (
            stringify!($name),
            (|$w: &World| format!("{:?}", $w.mpf.$name(p($pid) $(, $arg)*))) as Drive,
            (|$w: &World| {
                let view = $w.mpf.view(p($pid)).unwrap();
                format!("{:?}", Ok::<_, MpfError>(view.$name($($arg),*)))
            }) as Drive,
        )
    };
    ($w:ident => $name:ident($pid:expr $(, $arg:expr)*)) => {
        (
            stringify!($name),
            (|$w: &World| format!("{:?}", $w.mpf.$name(p($pid) $(, $arg)*))) as Drive,
            (|$w: &World| format!("{:?}", $w.mpf.view(p($pid)).unwrap().$name($($arg),*)))
                as Drive,
        )
    };
}

/// The counters of a telemetry snapshot (its latency histogram holds
/// clock readings, which two facilities never share).
fn counts(t: TelSnapshot) -> String {
    format!(
        "sends {} receives {} bytes {}/{} created {} deleted {}",
        t.sends, t.receives, t.bytes_in, t.bytes_out, t.lnvcs_created, t.lnvcs_deleted
    )
}

#[test]
fn every_name_means_what_the_view_means() {
    let rows: [(&str, Drive, Drive); 19] = [
        twin!(w => open_send(0, "twin")),
        twin!(w => open_receive(1, "twin", Protocol::Fcfs)),
        twin!(w => message_send(0, w.id, PAYLOAD)),
        twin!(w => send_batch(0, w.id, &[PAYLOAD])),
        twin!(w => send_batch_deadline(0, w.id, &[PAYLOAD], Some(soon()))),
        twin!(w => submit_sends(0, w.id, &[PAYLOAD])),
        twin!(w => Ok drain_sends(0)),
        twin!(w => Ok reap_completions(0, &mut Vec::new())),
        twin!(w => Ok aio_stats(0)),
        twin!(w => message_receive(1, w.id, &mut [0; 4])),
        twin!(w => recv_batch(1, w.id, 1)),
        twin!(w => check_receive(1, w.id)),
        twin!(w => close_send(0, w.id)),
        twin!(w => close_receive(1, w.id)),
        twin!(w => reclaimable()),
        twin!(w => live_lnvcs()),
        twin!(w => free_blocks()),
        twin!(w => check_invariants()),
        (
            "telemetry_snapshot",
            |w| counts(w.mpf.telemetry_snapshot()),
            |w| counts(w.mpf.view(p(0)).unwrap().telemetry_snapshot()),
        ),
    ];
    let states: [(&str, Build); 6] = [
        ("blocks exhausted", blocks_exhausted),
        ("headers exhausted", headers_exhausted),
        ("full SQ", sq_full),
        ("closed id", closed),
        ("stale id", stale),
        ("buffer too small", too_small),
    ];
    // (state, row) -> (result, books after); plus each state's books before.
    let mut seen = HashMap::new();
    let mut before = HashMap::new();
    for (state, build) in states {
        before.insert(state, build().books());
        for (name, facade, view) in rows {
            let (a, b) = (build(), build());
            let through_mpf = (facade(&a), a.books());
            let through_view = (view(&b), b.books());
            assert_eq!(through_mpf, through_view, "{state}: {name}");
            seen.insert((state, name), through_mpf);
        }
    }

    // What each state is about: a typed error, with nothing enqueued and
    // nothing consumed.
    let typed = |state: &str, name: &str, want: &str| {
        let (got, books) = &seen[&(state, name)];
        assert_eq!(got, want, "{state}: {name}");
        assert_eq!(books, &before[state], "{state}: {name} left a trace");
    };
    for name in ["message_send", "send_batch"] {
        typed("blocks exhausted", name, "Err(BlocksExhausted)");
        typed("headers exhausted", name, "Err(MessagesExhausted)");
    }
    // A submit allocates nothing: the pools' shortage is the drain's, and
    // the payload waits for it.
    for state in ["blocks exhausted", "headers exhausted"] {
        let (got, books) = &seen[&(state, "submit_sends")];
        assert_eq!(got, "Ok(1)", "{state}");
        assert!(
            books.ends_with("sq 1 cq 0, submitted 1 drained 0"),
            "{books}"
        );
    }
    typed("blocks exhausted", "send_batch_deadline", "Err(TimedOut)");
    typed("full SQ", "submit_sends", "Err(WouldBlock)");
    // A batch is a run: it waits behind no submitted send, so it is sent
    // (one more queued, one block fewer) and the 64 stay submitted.
    let (got, books) = &seen[&("full SQ", "send_batch")];
    assert!(
        got.starts_with("Ok([AioCompletion { user_data: 0, "),
        "{got}"
    );
    assert!(got.ends_with(", len: 10, status: 0 }])"), "{got}");
    assert_eq!(
        (books.as_str(), before["full SQ"].as_str()),
        (
            "depth Ok(2), free blocks 254, sq 64 cq 0, submitted 64 drained 0",
            "depth Ok(1), free blocks 255, sq 64 cq 0, submitted 64 drained 0"
        )
    );
    for state in ["closed id", "stale id"] {
        for (name, _, _) in rows {
            let takes_id = [
                "message_send",
                "send_batch",
                "send_batch_deadline",
                "submit_sends",
                "message_receive",
                "recv_batch",
                "check_receive",
                "close_send",
                "close_receive",
            ];
            if takes_id.contains(&name) {
                typed(state, name, "Err(UnknownLnvc)");
            }
        }
    }
    typed(
        "buffer too small",
        "message_receive",
        "Err(BufferTooSmall { needed: 100 })",
    );
}
