#!/usr/bin/env bash
# The `lint` CI job, every step of it: `scripts/lint.sh` from the repository
# root (CI runs exactly this).  Each step runs as a workflow `run:` step
# does, its body under `bash -e`, so `! grep` still fails only as a step's
# last command; the script runs them all and fails if any failed.
cd "$(dirname "$0")/.." || exit 1
failed=()
step() {
    printf '== %s\n' "$1"
    bash -e -c "$(cat)" || failed+=("$1")
}

step 'rustfmt' <<'STEP'
cargo fmt --all --check
STEP

step 'clippy' <<'STEP'
cargo clippy --workspace --all-targets -- -D warnings
STEP

step 'No timers as wake mechanisms (the nap constants and their plumbing stay deleted)' <<'STEP'

! grep -rnE 'IPC_NAP|MULTI_NAP|SEND_RETRY_NAP|BATCH_RETRY_NAP|send_nap_us|has_mem_signal|wait_recv_signal' crates/*/src
STEP

step 'One engine (the thread backend'\''s protocol types and knobs stay deleted)' <<'STEP'

! grep -rnE 'LnvcSlot|MsgSlot|BlockPool|ThreadBackend|with_lock_kind' crates/*/src
STEP

# rustfmt puts the method on the line after `.block_free`, hence -A1.
step 'One CAS per chain (the engine touches the block pool a chain at a time)' <<'STEP'

! grep -nE -A1 'block_free' crates/core/src/engine.rs | grep -E '\.(pop|push)\('
STEP

# Per-message quantities are counted per conversation, under its
# lock; facility totals are derived at snapshot time.
step 'Count once (per-message facility counters stay off the message path)' <<'STEP'

! grep -nE '\.(sends|receives)\.inc\(|\.(bytes_in|bytes_out)\.add\(|size_hist\.record\(|latency_hist\.record\(' crates/core/src/engine.rs
STEP

# -z: the whole file is one record, so `\s*` spans the line break
# rustfmt may put before the method.
step 'Write once (lock-serialised queue words and the heartbeat take no RMW)' <<'STEP'

! grep -Pzoq '\b(next_seq|msg_count|bcast_pending|flags|heartbeat)\s*\.(fetch_\w+|swap|compare_exchange\w*)\(' crates/core/src/engine.rs
STEP

# The paired paths, the policy knob and the second ABI stay
# deleted; in the engine exactly one call site claims a delivery,
# one publishes a message, and the one futex sleep is
# `doorbell_nap`'s: no conversation wait word, one routine that
# rings watchers (DESIGN.md "One way in, one way out", "The
# process doorbell and the wait/notify map").
step 'Written once (one way in, one way out, one wait loop, one C ABI, no exhaustion fork)' <<'STEP'

E=crates/core/src/engine.rs
# `! grep` would not stop a `bash -e` step unless it came last.
absent() { if grep "$@"; then exit 1; fi; }
absent -rnE 'fn receive_locked|fn recv_many_locked|fn receive_blocking|ExhaustPolicy|with_exhaust_policy|capi_ffi|mpf_ipc_' crates/*/src
test "$(grep -c 'claim_delivery(' $E)" -eq 2  # the definition + its one call
test "$(grep -c 'self\.publish(' $E)" -eq 1
absent -n 'waitq' $E crates/core/src/shmem.rs
test "$(grep -c '\.wait(' $E)" -eq 1
test "$(sed -n '/fn doorbell_nap/,/^    }/p' $E | grep -c '\.wait(')" -eq 1
absent -rn 'fn ring_watchers' crates/*/src
STEP

# Staging pops each pool once per run (`alloc_run`), freeing pushes
# each once per run (`push_free`, under `free_run`); the
# per-message forms stay deleted; `deliver_locked` reads `q_head`
# once and resumes its scan behind each delivery; no record kind
# marks a send staged apart from its publish (`TR_ENQUEUE` stays
# deleted); the SPSC ring counters are load + store.  `tr -cd '('`
# counts the matches of a pattern that ends in one.
step 'A run moves whole (one free-list CAS per pool per run each way, one queue scan per batch)' <<'STEP'

E=crates/core/src/engine.rs
# `! grep` would not stop a `bash -e` step unless it came last.
absent() { if grep "$@"; then exit 1; fi; }
absent -n 'fetch_add' crates/shm/src/ring.rs
for site in 'msg_free\s*\.pop_chain\(' 'msg_free\s*\.push_chain\(' 'block_free\s*\.pop_chain\(' 'block_free\s*\.push_chain\('; do
  test "$(grep -Pzo "$site" $E | tr -cd '(' | wc -c)" -eq 1
done
absent -Pzoq 'msg_free\s*\.(pop|push)\(' $E
absent -nE 'fn (stage_message|alloc_blocks|free_message|free_message_at|free_block_chain|gather|reclaim_prefix|reclaim_consumed)\(' $E
test "$(sed -n '/fn deliver_locked/,/fn claim_delivery/p' $E | grep -c 'q_head')" -eq 1
absent -rn 'TR_ENQUEUE' crates/
STEP

# `send_batch` stages on the stack and publishes, as `message_send`
# does a run of one: from it to `recv_batch` nothing calls a deferral
# shim, and `send_batch_deadline` waits for pool memory through
# `retry_when_pool_frees` — the only registrant for the pool signal
# besides the explorer's `debug_pool_wait`.  The shims defer sends in
# the view and drain them through `send_batch`: the region carves no
# submission or completion ring, and the engine pushes to and pops
# from no `AioRing`.
step 'A batch is a run (send_batch publishes what it staged; deferred sends hold no region memory)' <<'STEP'

E=crates/core/src/engine.rs
absent() { if grep "$@"; then exit 1; fi; }
sed -n '/pub fn send_batch(/,/pub fn recv_batch(/p' $E | absent -nE 'submit_sends|drain_sends|reap_completions'
absent -rnE 'aio_sq|aio_cq|reclaim_aio_of|AioRingInfo|aio_rings|from_rings|HookedMutex|aio [sc]q rings' crates/
absent -rnE 'AioRing|\.try_(push|pop)\(' crates/core/src
test "$(grep -c 'self\.pool_wait(true)' $E)" -eq 2
for f in retry_when_pool_frees debug_pool_wait; do
  test "$(sed -n "/fn $f[<(]/,/^    }$/p" $E | grep -c 'self\.pool_wait(true)')" -eq 1
done
STEP

# The link table is one slice (`Tables::links`, bounds-checked
# once), not a call into the mapping per link, and every chain
# walk steps by index through the one `stretch` routine.
step 'A chain is walked by index over one slice' <<'STEP'

absent() { if grep "$@"; then exit 1; fi; }
absent -rn 'block_link' crates/
test "$(grep -c 'fn links(' crates/core/src/engine.rs)" -eq 1
test "$(grep -rc 'fn stretch(' crates/*/src | awk -F: '{s+=$2} END {print s}')" -eq 1
STEP

# `mpf-shm` implements each protocol the engine runs on once;
# `Pool` and `WaitQueue` are shims over the engine's `FreeHead` and
# `FutexSeq`.  The second free list, the second futex mutex and the
# thread-parking registry stay deleted.
# The ring's receive end is the one lock beside `IpcLock` (DESIGN.md
# "Why the receive end is not an IpcLock"): `ring_end` takes and
# releases it, `ring_wait` is its one wait loop.
step 'One of each primitive (one free list, one futex mutex, one wait word, one ring-end lock)' <<'STEP'

absent() { if grep "$@"; then exit 1; fi; }
absent -rnE 'IndexStack|idxstack|FutexLock|LockKind::Os|park_timeout' crates/ examples/ src/ tests/
test "$(grep -rc 'fn pop_chain(' crates/*/src | awk -F: '{s+=$2} END {print s}')" -eq 1
test "$(grep -rc 'fn push_chain(' crates/*/src | awk -F: '{s+=$2} END {print s}')" -eq 1
test "$(grep -rcE 'fn ring_(end|wait)\(' crates/*/src | awk -F: '{s+=$2} END {print s}')" -eq 2
absent -rnE 'c_lock\s*\.\s*(compare_exchange|swap|store|fetch_)' crates/*/src
STEP

# A conversation of one sender and one FCFS receiver runs on its ring;
# the separate lock-free channel type stays deleted.
step 'One-to-one is a state of a conversation (the second channel type stays deleted)' <<'STEP'
! grep -rnE 'one2one|O2OSender|O2OReceiver' crates/ examples/ src/ tests/
STEP

# The service layer waits in the engine's deadline-bounded calls
# on the caller's own thread: no future driven to completion, no
# deadline-free fake for the explorer, no in-process copy of the
# soak driver, no TimedOut -> WouldBlock mapping.
step 'Blocking is the engine'\''s job (one Transport, one soak driver, one timeout contract)' <<'STEP'

! grep -rnE 'SyncTransport|driver_threads|message_receive_timeout' crates/serve/src crates/core/src
test "$(grep -c '^impl Transport for' crates/serve/src/transport.rs)" -eq 1
STEP

# The criterion look-alike, the per-figure bins and the per-mapping
# twin loops stay deleted; `measure.rs` is the only file that picks an
# iteration count or computes a median.
step 'One of each (one timer, one printer, one catalog, one --json parser, three bins)' <<'STEP'

absent() { if grep "$@"; then exit 1; fi; }
absent -rnE 'crit::|criterion_group!|criterion_main!' crates
test "$(ls crates/bench/src/bin | tr '\n' ' ')" = "fig3_ipc.rs figures.rs replay_trace.rs "
test "$(ls crates/bench/benches | tr '\n' ' ')" = "ablations.rs "
test "$(grep -rn '"--json"' crates/bench/src | wc -l)" -eq 1
test "$(grep -rnE 'fn (median|choose_iters)|\bmedian: at\(' crates/bench/src crates/bench/benches | wc -l)" -eq 2
absent -rnE 'fn (base|ipc_loopback|thread_batched|ipc_batched)_throughput' crates/bench
absent -rn 'Instant::now' crates/bench/src/catalog.rs crates/bench/src/report.rs crates/bench/benches
STEP

# Every `Mpf` method is `self.view(pid)?.<same name>(..)`: the
# forwarders the view already spells, the 15-bit id with its
# per-call read-back and the waiting submit stay deleted.
step 'Mpf is a table of views (one handle type, 22 names, each the view'\''s)' <<'STEP'

absent() { if grep "$@"; then exit 1; fi; }
test "$(grep -c 'pub fn' crates/core/src/facility.rs)" -eq 22
test "$(grep -rE 'pub struct (Ipc)?LnvcId' crates | wc -l)" -eq 1
absent -rnE 'fn on\(|ipc_id|matches_generation|from_parts|submit_sends_deadline' crates
STEP

# Every wait is the engine's own, on the caller's thread.  What is
# left of mpf-aio is the two view wrappers the repo benchmark names.
step 'Waiting has one home (no reactor, no futures, no executor, no reactor-only engine API)' <<'STEP'

absent() { if grep "$@"; then exit 1; fi; }
absent -rnE 'wait_signals|recv_signal_ticket|mem_signal_ticket|pool_wait_begin|try_message_send|Reactor|block_on|Executor|SelectAny|RecvFuture|SendFuture|mpf-aio-reactor' crates/ examples/ src/ tests/
test "$(ls crates/aio/src | tr '\n' ' ')" = "lib.rs "
STEP

# `mpf-trace` is the only program over `RegionInspector`, with one
# attach and one JSON string escaper.  The first pattern is
# bracketed so this step does not match itself.
step 'One tool reads a region file (one attach, one escaper, no second binary)' <<'STEP'

absent() { if grep "$@"; then exit 1; fi; }
absent -rnE 'mpf[s]tat|fn j[s]tr\b' crates/*/src .github
test "$(ls crates/ipc/src | tr '\n' ' ')" = "ffi.rs lib.rs "
test "$(grep -rn 'RegionInspector::attach(' crates/trace/src | wc -l)" -eq 1
test "$(grep -rnE 'fn [a-z_]*(json_str|escape)[a-z_]*\(' crates/trace/src | wc -l)" -eq 1
absent -rn "replace('\"'" crates/trace/src
STEP

# Only a timed message (its conversation seq a multiple of the
# period) reads the clock on the message path: the per-view
# sampling counter stays deleted and the default period stays 32.
step 'Timing follows the latency sample' <<'STEP'

absent() { if grep "$@"; then exit 1; fi; }
absent -rnE 'latency_tick|fn sample_latency' crates/
grep -q 'latency_sample_every: 32,' crates/core/src/config.rs
STEP

# The delivery contract is stated once, in `crates/core/src/spec.rs`:
# the private models stay deleted and the checker keeps no excuse
# list of its own.
step 'One §3 spec (the model test, the trace checker and the simulator replay mpf::spec)' <<'STEP'

absent() { if grep "$@"; then exit 1; fi; }
absent -rnE 'struct (ModelLnvc|ModelMsg|SimMsg)\b|(fn|let) excused\b' crates/ examples/ src/ tests/
test "$(grep -rn '^pub mod spec;' crates/*/src | wc -l)" -eq 1
STEP

step 'Source-size ratchet (crates/*/src may not outgrow ROADMAP'\''s Net-state line)' <<'STEP'
test "$(find crates -path '*/src/*' -name '*.rs' | xargs cat | wc -l)" -le "$(grep -oE '[0-9]+ lines under .crates/\*/src' ROADMAP.md | grep -oE '^[0-9]+')"
STEP

if [ ${#failed[@]} -ne 0 ]; then
    printf 'FAILED: %s\n' "${failed[@]}"
    exit 1
fi
echo "lint: all steps passed"
