//! The `mpf_*` C ABI: the paper's §2 interface with C linkage, the one
//! exported by the workspace (this crate builds the `cdylib`).
//!
//! "The message passing primitives for this model are implemented as a
//! portable library of C function calls."  A handle *is* a process: where
//! the paper's functions take `process_id`, these take the opaque handle
//! `mpf_create`, `mpf_attach` or `mpf_attach_view` returned, and otherwise
//! keep the paper's argument order.  A named region is joined by any
//! process on the machine knowing only its name; `mpf_create(NULL, …)`
//! makes an anonymous one for the threads of one program, each holding
//! its own `mpf_attach_view` of it:
//!
//! ```c
//! void *h = mpf_attach("jobname");
//! long long id = mpf_open_receive(h, "results", 0 /* FCFS */);
//! long n = mpf_message_receive(h, id, buf, sizeof buf);
//! mpf_close_receive(h, id);
//! mpf_detach(h);
//! ```
//!
//! Failures are [`MpfError::status_code`] values (negative) — NULL where
//! a handle is returned; conversation ids are the raw [`LnvcId`],
//! always positive and returned in a `long long` so the sign still
//! carries errors.

use std::ffi::CStr;
use std::os::raw::{c_char, c_int, c_long, c_longlong, c_void};

use mpf::engine::{AttachError, IpcMpf};
use mpf::types::MAX_LNVC_INDEX;
use mpf::{LnvcId, MpfConfig, MpfError, Protocol};

/// Converts a C string, mapping NULL/invalid UTF-8 to
/// [`MpfError::InvalidName`].
///
/// # Safety
/// `name` must be NULL or a valid NUL-terminated string.
unsafe fn name_arg<'a>(name: *const c_char) -> mpf::Result<&'a str> {
    let bad = MpfError::InvalidName { len: 0, max: 0 };
    if name.is_null() {
        return Err(bad);
    }
    // SAFETY: non-NULL, so NUL-terminated by the caller's contract.
    unsafe { CStr::from_ptr(name) }.to_str().map_err(|_| bad)
}

/// The process behind `h`; a NULL handle is [`MpfError::BadInit`].
///
/// # Safety
/// `h` must be NULL or a live handle.
unsafe fn process<'a>(h: *mut c_void) -> mpf::Result<&'a IpcMpf> {
    // SAFETY: a live handle points at the `IpcMpf` `into_handle` boxed.
    unsafe { (h as *const IpcMpf).as_ref() }.ok_or(MpfError::BadInit)
}

/// Runs `f` on the process behind `h`; an error — `f`'s, or a NULL
/// handle's — comes back as its status code.
///
/// # Safety
/// `h` must be NULL or a live handle.
unsafe fn call(h: *mut c_void, f: impl FnOnce(&IpcMpf) -> mpf::Result<i64>) -> i64 {
    // SAFETY: the caller's contract.
    let result = unsafe { process(h) }.and_then(f);
    result.unwrap_or_else(|e| i64::from(e.status_code()))
}

fn into_handle(made: Result<IpcMpf, AttachError>) -> *mut c_void {
    made.map_or(std::ptr::null_mut(), |m| Box::into_raw(Box::new(m)).cast())
}

fn lnvc(lnvc_id: c_longlong) -> LnvcId {
    LnvcId::from_raw(lnvc_id as u64)
}

/// The paper's `init(maxLNVC's, max_processes)`: creates and carves a
/// region — named `region_name`, or anonymous when that is NULL — and
/// returns the handle of its first process, or NULL.
///
/// # Safety
/// `region_name` must be NULL or a valid NUL-terminated string.
#[no_mangle]
pub unsafe extern "C" fn mpf_create(
    region_name: *const c_char,
    max_lnvcs: c_int,
    max_processes: c_int,
) -> *mut c_void {
    let (Ok(lnvcs), Ok(processes)) = (u32::try_from(max_lnvcs), u32::try_from(max_processes))
    else {
        return std::ptr::null_mut();
    };
    if !(1..=MAX_LNVC_INDEX + 1).contains(&lnvcs) || processes == 0 {
        return std::ptr::null_mut();
    }
    let cfg = MpfConfig::new(lnvcs, processes);
    if region_name.is_null() {
        return into_handle(IpcMpf::anon(&cfg));
    }
    // SAFETY: the caller's contract.
    match unsafe { name_arg(region_name) } {
        Ok(name) => into_handle(IpcMpf::create(name, &cfg)),
        Err(_) => std::ptr::null_mut(),
    }
}

/// Attaches an existing region by name; returns a new process's handle or
/// NULL (region missing, layout mismatch, or no free process slot).
///
/// # Safety
/// `region_name` must be NULL or a valid NUL-terminated string.
#[no_mangle]
pub unsafe extern "C" fn mpf_attach(region_name: *const c_char) -> *mut c_void {
    // SAFETY: the caller's contract.
    match unsafe { name_arg(region_name) } {
        Ok(name) => into_handle(IpcMpf::attach(name)),
        Err(_) => std::ptr::null_mut(),
    }
}

/// A further process on `h`'s region, in this program: how the threads of
/// one program each get their own `process_id`.  NULL when `h` is NULL or
/// every process slot is taken.
///
/// # Safety
/// `h` must be NULL or a live handle.
#[no_mangle]
pub unsafe extern "C" fn mpf_attach_view(h: *mut c_void) -> *mut c_void {
    // SAFETY: the caller's contract.
    unsafe { process(h) }.map_or(std::ptr::null_mut(), |m| into_handle(m.attach_view()))
}

/// Releases the handle: closes the connections it still holds and frees
/// its process slot.  NULL is a no-op.
///
/// # Safety
/// `h` must be NULL or a live handle, not used after this call.
#[no_mangle]
pub unsafe extern "C" fn mpf_detach(h: *mut c_void) {
    if !h.is_null() {
        // SAFETY: a live handle is the `Box` `into_handle` leaked.
        drop(unsafe { Box::from_raw(h as *mut IpcMpf) });
    }
}

/// The handle's MPF process id (its process-slot index).
///
/// # Safety
/// `h` must be NULL or a live handle.
#[no_mangle]
pub unsafe extern "C" fn mpf_pid(h: *mut c_void) -> c_int {
    // SAFETY: the caller's contract.
    unsafe { call(h, |m| Ok(i64::from(m.pid()))) as c_int }
}

/// Runs a liveness sweep; returns the number of newly-found dead peers.
///
/// # Safety
/// `h` must be NULL or a live handle.
#[no_mangle]
pub unsafe extern "C" fn mpf_sweep(h: *mut c_void) -> c_int {
    // SAFETY: the caller's contract.
    unsafe { call(h, |m| Ok(i64::from(m.sweep_dead_peers()))) as c_int }
}

/// `open_send(process_id, lnvc_name)`: the conversation id (≥ 0).
///
/// # Safety
/// `h` must be NULL or a live handle; `lnvc_name` NULL or a valid
/// NUL-terminated string.
#[no_mangle]
pub unsafe extern "C" fn mpf_open_send(h: *mut c_void, lnvc_name: *const c_char) -> c_longlong {
    // SAFETY: the caller's contract, for both.
    unsafe { call(h, |m| Ok(m.open_send(name_arg(lnvc_name)?)?.raw() as i64)) }
}

/// `open_receive(process_id, lnvc_name, protocol)`, `protocol` 0 = FCFS,
/// 1 = BROADCAST: the conversation id (≥ 0).
///
/// # Safety
/// As [`mpf_open_send`].
#[no_mangle]
pub unsafe extern "C" fn mpf_open_receive(
    h: *mut c_void,
    lnvc_name: *const c_char,
    protocol: c_int,
) -> c_longlong {
    // SAFETY: the caller's contract, for both.
    unsafe {
        call(h, |m| {
            let protocol = u8::try_from(protocol)
                .ok()
                .and_then(Protocol::from_raw)
                .ok_or(MpfError::ProtocolConflict)?;
            Ok(m.open_receive(name_arg(lnvc_name)?, protocol)?.raw() as i64)
        })
    }
}

/// `close_send(process_id, lnvc_id)`: 0.
///
/// # Safety
/// `h` must be NULL or a live handle.
#[no_mangle]
pub unsafe extern "C" fn mpf_close_send(h: *mut c_void, lnvc_id: c_longlong) -> c_int {
    // SAFETY: the caller's contract.
    unsafe { call(h, |m| m.close_send(lnvc(lnvc_id)).map(|()| 0)) as c_int }
}

/// `close_receive(process_id, lnvc_id)`: 0.
///
/// # Safety
/// `h` must be NULL or a live handle.
#[no_mangle]
pub unsafe extern "C" fn mpf_close_receive(h: *mut c_void, lnvc_id: c_longlong) -> c_int {
    // SAFETY: the caller's contract.
    unsafe { call(h, |m| m.close_receive(lnvc(lnvc_id)).map(|()| 0)) as c_int }
}

/// `message_send(process_id, lnvc_id, send_buffer, buffer_length)`: 0.
/// Asynchronous; a full region is [`MpfError::MessagesExhausted`] or
/// [`MpfError::BlocksExhausted`], for the caller to retry.
///
/// # Safety
/// `h` must be NULL or a live handle; `send_buffer` must point to
/// `buffer_length` readable bytes (NULL allowed only with length 0).
#[no_mangle]
pub unsafe extern "C" fn mpf_message_send(
    h: *mut c_void,
    lnvc_id: c_longlong,
    send_buffer: *const u8,
    buffer_length: c_long,
) -> c_int {
    // SAFETY: the caller's contract.
    let sent = unsafe {
        call(h, |m| {
            let payload = match usize::try_from(buffer_length) {
                Ok(0) => &[][..],
                // SAFETY: non-NULL, so `len` readable bytes by contract.
                Ok(len) if !send_buffer.is_null() => std::slice::from_raw_parts(send_buffer, len),
                _ => return Err(MpfError::MessageTooLarge { len: 0, max: 0 }),
            };
            m.message_send(lnvc(lnvc_id), payload).map(|()| 0)
        })
    };
    sent as c_int
}

/// `message_receive(process_id, lnvc_id, receive_buffer, buffer_length)`:
/// blocks for the next message and returns the bytes transferred (≥ 0).
/// A buffer shorter than the message is [`MpfError::BufferTooSmall`] and
/// leaves the message queued.
///
/// # Safety
/// `h` must be NULL or a live handle; `receive_buffer` must point to
/// `buffer_length` writable bytes (NULL allowed only with length 0).
#[no_mangle]
pub unsafe extern "C" fn mpf_message_receive(
    h: *mut c_void,
    lnvc_id: c_longlong,
    receive_buffer: *mut u8,
    buffer_length: c_long,
) -> c_long {
    // SAFETY: the caller's contract.
    let received = unsafe {
        call(h, |m| {
            let out = match usize::try_from(buffer_length) {
                Ok(0) => &mut [][..],
                // SAFETY: non-NULL, so `cap` writable bytes by contract.
                Ok(cap) if !receive_buffer.is_null() => {
                    std::slice::from_raw_parts_mut(receive_buffer, cap)
                }
                _ => return Err(MpfError::BufferTooSmall { needed: 0 }),
            };
            m.message_receive(lnvc(lnvc_id), out).map(|n| n as i64)
        })
    };
    received as c_long
}

/// `check_receive(process_id, lnvc_id)`: non-zero when a message is
/// waiting for this process (advisory for FCFS), 0 when not.
///
/// # Safety
/// `h` must be NULL or a live handle.
#[no_mangle]
pub unsafe extern "C" fn mpf_check_receive(h: *mut c_void, lnvc_id: c_longlong) -> c_int {
    // SAFETY: the caller's contract.
    unsafe { call(h, |m| m.check_receive(lnvc(lnvc_id)).map(i64::from)) as c_int }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NULL: *mut c_void = std::ptr::null_mut();

    fn code(e: MpfError) -> c_int {
        e.status_code()
    }

    /// The eight primitives between two processes of `creator`'s region;
    /// `peer` is a second handle on it.
    unsafe fn conversation(creator: *mut c_void, peer: *mut c_void) {
        unsafe {
            assert_eq!((mpf_pid(creator), mpf_pid(peer)), (0, 1));
            let name = c"ffi:pipe";
            let tx = mpf_open_send(creator, name.as_ptr());
            let rx = mpf_open_receive(peer, name.as_ptr(), 0);
            assert!(tx >= 0, "open_send -> {tx}");
            assert_eq!(tx, rx, "same conversation, same id");
            assert_eq!(mpf_check_receive(peer, rx), 0);
            let payload = b"over the C ABI";
            assert_eq!(
                mpf_message_send(creator, tx, payload.as_ptr(), payload.len() as c_long),
                0
            );
            assert_eq!(mpf_check_receive(peer, rx), 1);

            // A short buffer names the typed error and consumes nothing.
            let mut buf = [0u8; 64];
            assert_eq!(
                mpf_message_receive(peer, rx, buf.as_mut_ptr(), 4),
                c_long::from(code(MpfError::BufferTooSmall { needed: 14 }))
            );
            let n = mpf_message_receive(peer, rx, buf.as_mut_ptr(), buf.len() as c_long);
            assert_eq!(&buf[..n as usize], payload);

            // NULL buffers are legal exactly when the length is zero.
            assert!(mpf_message_send(creator, tx, std::ptr::null(), 4) < 0);
            assert!(mpf_message_receive(peer, rx, std::ptr::null_mut(), 4) < 0);
            assert!(mpf_message_send(creator, tx, payload.as_ptr(), -1) < 0);
            assert_eq!(mpf_message_send(creator, tx, std::ptr::null(), 0), 0);
            assert_eq!(mpf_message_receive(peer, rx, std::ptr::null_mut(), 0), 0);

            // Bad protocol code; a process that is not connected.
            assert_eq!(
                mpf_open_receive(creator, name.as_ptr(), 7),
                c_longlong::from(code(MpfError::ProtocolConflict))
            );
            assert_eq!(
                mpf_message_send(peer, tx, payload.as_ptr(), 1),
                code(MpfError::NotConnected)
            );

            assert_eq!(mpf_close_send(creator, tx), 0);
            assert_eq!(mpf_close_receive(peer, rx), 0);
            // The conversation is deleted; its id is stale now.
            assert_eq!(mpf_close_send(creator, tx), code(MpfError::UnknownLnvc));
            assert_eq!(mpf_sweep(creator), 0);
        }
    }

    #[test]
    fn primitives_between_two_handles_of_a_named_region() {
        unsafe {
            let region = c"ffi-roundtrip";
            let h = mpf_create(region.as_ptr(), 4, 4);
            assert!(!h.is_null());
            let peer = mpf_attach(region.as_ptr());
            assert!(!peer.is_null());
            conversation(h, peer);
            mpf_detach(peer);
            mpf_detach(h);
            assert!(
                mpf_attach(region.as_ptr()).is_null(),
                "unlinked with its creator"
            );
        }
    }

    #[test]
    fn primitives_between_two_views_of_an_anonymous_region() {
        unsafe {
            let h = mpf_create(std::ptr::null(), 8, 2);
            assert!(!h.is_null());
            let peer = mpf_attach_view(h);
            assert!(!peer.is_null());
            assert!(mpf_attach_view(h).is_null(), "both process slots taken");
            conversation(h, peer);
            // A view outlives the handle it was made from.
            mpf_detach(h);
            assert_eq!(mpf_pid(peer), 1);
            mpf_detach(peer);
        }
    }

    #[test]
    fn nulls_bad_names_and_bad_ids_are_typed_errors() {
        unsafe {
            assert!(mpf_attach(std::ptr::null()).is_null());
            assert!(mpf_attach_view(NULL).is_null());
            assert!(mpf_create(std::ptr::null(), 0, 4).is_null());
            assert!(mpf_create(std::ptr::null(), 4, -1).is_null());
            assert!(mpf_create(std::ptr::null(), 1 << 20, 4).is_null());
            let not_utf8 = [0xFFu8, 0xFE, 0];
            assert!(mpf_create(not_utf8.as_ptr().cast(), 4, 4).is_null());
            mpf_detach(NULL);

            let bad_handle = code(MpfError::BadInit);
            assert_eq!(mpf_pid(NULL), bad_handle);
            assert_eq!(mpf_sweep(NULL), bad_handle);
            assert_eq!(mpf_check_receive(NULL, 0), bad_handle);
            assert_eq!(
                mpf_open_send(NULL, c"x".as_ptr()),
                c_longlong::from(bad_handle)
            );

            let h = mpf_create(std::ptr::null(), 2, 2);
            let bad_name = c_longlong::from(code(MpfError::InvalidName { len: 0, max: 0 }));
            assert_eq!(mpf_open_send(h, std::ptr::null()), bad_name);
            assert_eq!(mpf_open_receive(h, not_utf8.as_ptr().cast(), 0), bad_name);
            let bogus = LnvcId::from_raw(7 << 32 | 1).raw() as c_longlong;
            assert_eq!(mpf_close_send(h, bogus), code(MpfError::UnknownLnvc));
            assert_eq!(mpf_check_receive(h, -1), code(MpfError::UnknownLnvc));
            mpf_detach(h);
        }
    }
}
