//! `extern "C"` bindings for the multi-process backend.
//!
//! Unlike `mpf::capi_ffi` (one global facility per process), these
//! functions are handle-based: `mpf_ipc_create`/`mpf_ipc_attach` return
//! an opaque handle a separately compiled binary uses for every further
//! call, so one process can hold several regions.  The intended C usage:
//!
//! ```c
//! void *h = mpf_ipc_attach("jobname");
//! long long id = mpf_ipc_open_receive(h, "results", 0 /* FCFS */);
//! long n = mpf_ipc_message_receive(h, id, buf, sizeof buf);
//! mpf_ipc_close_receive(h, id);
//! mpf_ipc_detach(h);
//! ```
//!
//! Status codes are [`MpfError::status_code`] values (negative);
//! conversation ids are the raw [`IpcLnvcId`] `u64`, always positive and
//! returned in an `int64_t` so the sign still carries errors.

use std::ffi::CStr;
use std::os::raw::{c_char, c_int, c_long, c_longlong, c_void};

use mpf::{MpfConfig, MpfError, Protocol};

use mpf::engine::{IpcLnvcId, IpcMpf};

/// Status returned when a handle or required pointer is NULL.
fn bad_handle() -> c_int {
    MpfError::BadInit.status_code() as c_int
}

/// Converts a C string, mapping NULL/invalid UTF-8 to the invalid-name
/// status code.
///
/// # Safety
/// `name` must be NULL or a valid NUL-terminated string.
unsafe fn name_arg<'a>(name: *const c_char) -> Result<&'a str, c_int> {
    if name.is_null() {
        return Err(MpfError::InvalidName { len: 0, max: 0 }.status_code());
    }
    CStr::from_ptr(name)
        .to_str()
        .map_err(|_| MpfError::InvalidName { len: 0, max: 0 }.status_code())
}

unsafe fn handle<'a>(h: *mut c_void) -> Result<&'a IpcMpf, c_int> {
    if h.is_null() {
        return Err(bad_handle());
    }
    Ok(&*(h as *const IpcMpf))
}

fn status(r: mpf::Result<()>) -> c_int {
    match r {
        Ok(()) => 0,
        Err(e) => e.status_code(),
    }
}

/// Creates and carves a named region; returns an opaque handle or NULL.
/// `max_lnvcs`/`max_processes` mirror the paper's `init` parameters.
///
/// # Safety
/// `region_name` must be a valid NUL-terminated string.
#[no_mangle]
pub unsafe extern "C" fn mpf_ipc_create(
    region_name: *const c_char,
    max_lnvcs: c_int,
    max_processes: c_int,
) -> *mut c_void {
    let Ok(name) = name_arg(region_name) else {
        return std::ptr::null_mut();
    };
    if max_lnvcs <= 0 || max_processes <= 0 {
        return std::ptr::null_mut();
    }
    let cfg = MpfConfig::new(max_lnvcs as u32, max_processes as u32);
    match IpcMpf::create(name, &cfg) {
        Ok(m) => Box::into_raw(Box::new(m)) as *mut c_void,
        Err(_) => std::ptr::null_mut(),
    }
}

/// Attaches an existing region by name; returns an opaque handle or NULL
/// (region missing, layout mismatch, or no free process slot).
///
/// # Safety
/// `region_name` must be a valid NUL-terminated string.
#[no_mangle]
pub unsafe extern "C" fn mpf_ipc_attach(region_name: *const c_char) -> *mut c_void {
    let Ok(name) = name_arg(region_name) else {
        return std::ptr::null_mut();
    };
    match IpcMpf::attach(name) {
        Ok(m) => Box::into_raw(Box::new(m)) as *mut c_void,
        Err(_) => std::ptr::null_mut(),
    }
}

/// Releases the handle (and its process slot).  NULL is a no-op.
///
/// # Safety
/// `h` must be NULL or a handle from `mpf_ipc_create`/`mpf_ipc_attach`,
/// not used after this call.
#[no_mangle]
pub unsafe extern "C" fn mpf_ipc_detach(h: *mut c_void) {
    if !h.is_null() {
        drop(Box::from_raw(h as *mut IpcMpf));
    }
}

/// This process's MPF pid (its heartbeat-slot index), or a negative
/// status.
///
/// # Safety
/// `h` must be a valid handle.
#[no_mangle]
pub unsafe extern "C" fn mpf_ipc_pid(h: *mut c_void) -> c_int {
    match handle(h) {
        Ok(m) => m.pid() as c_int,
        Err(code) => code,
    }
}

/// `open_LNVC_send`; returns the conversation id (≥ 0) or a negative
/// status.
///
/// # Safety
/// `h` must be a valid handle; `lnvc_name` a valid NUL-terminated string.
#[no_mangle]
pub unsafe extern "C" fn mpf_ipc_open_send(h: *mut c_void, lnvc_name: *const c_char) -> c_longlong {
    let m = match handle(h) {
        Ok(m) => m,
        Err(code) => return code as c_longlong,
    };
    let name = match name_arg(lnvc_name) {
        Ok(n) => n,
        Err(code) => return code as c_longlong,
    };
    match m.open_send(name) {
        Ok(id) => id.raw() as c_longlong,
        Err(e) => e.status_code() as c_longlong,
    }
}

/// `open_LNVC_receive` with `protocol` 0 = FCFS, 1 = BROADCAST.
///
/// # Safety
/// `h` must be a valid handle; `lnvc_name` a valid NUL-terminated string.
#[no_mangle]
pub unsafe extern "C" fn mpf_ipc_open_receive(
    h: *mut c_void,
    lnvc_name: *const c_char,
    protocol: c_int,
) -> c_longlong {
    let m = match handle(h) {
        Ok(m) => m,
        Err(code) => return code as c_longlong,
    };
    let name = match name_arg(lnvc_name) {
        Ok(n) => n,
        Err(code) => return code as c_longlong,
    };
    let protocol = match protocol {
        0 => Protocol::Fcfs,
        1 => Protocol::Broadcast,
        _ => return MpfError::ProtocolConflict.status_code() as c_longlong,
    };
    match m.open_receive(name, protocol) {
        Ok(id) => id.raw() as c_longlong,
        Err(e) => e.status_code() as c_longlong,
    }
}

/// `close_LNVC_send`.
///
/// # Safety
/// `h` must be a valid handle.
#[no_mangle]
pub unsafe extern "C" fn mpf_ipc_close_send(h: *mut c_void, lnvc_id: c_longlong) -> c_int {
    match handle(h) {
        Ok(m) => status(m.close_send(IpcLnvcId::from_raw(lnvc_id as u64))),
        Err(code) => code,
    }
}

/// `close_LNVC_receive`.
///
/// # Safety
/// `h` must be a valid handle.
#[no_mangle]
pub unsafe extern "C" fn mpf_ipc_close_receive(h: *mut c_void, lnvc_id: c_longlong) -> c_int {
    match handle(h) {
        Ok(m) => status(m.close_receive(IpcLnvcId::from_raw(lnvc_id as u64))),
        Err(code) => code,
    }
}

/// `message_send`.
///
/// # Safety
/// `h` must be a valid handle; `buf` must point to `len` readable bytes
/// (NULL allowed only when `len == 0`).
#[no_mangle]
pub unsafe extern "C" fn mpf_ipc_message_send(
    h: *mut c_void,
    lnvc_id: c_longlong,
    buf: *const u8,
    len: c_long,
) -> c_int {
    let m = match handle(h) {
        Ok(m) => m,
        Err(code) => return code,
    };
    if len < 0 || (buf.is_null() && len != 0) {
        return MpfError::MessageTooLarge { len: 0, max: 0 }.status_code();
    }
    let payload = if len == 0 {
        &[][..]
    } else {
        std::slice::from_raw_parts(buf, len as usize)
    };
    status(m.message_send(IpcLnvcId::from_raw(lnvc_id as u64), payload))
}

/// Blocking `message_receive`; returns the delivered byte count (≥ 0) or
/// a negative status.
///
/// # Safety
/// `h` must be a valid handle; `buf` must point to `cap` writable bytes.
#[no_mangle]
pub unsafe extern "C" fn mpf_ipc_message_receive(
    h: *mut c_void,
    lnvc_id: c_longlong,
    buf: *mut u8,
    cap: c_long,
) -> c_long {
    let m = match handle(h) {
        Ok(m) => m,
        Err(code) => return code as c_long,
    };
    if cap < 0 || (buf.is_null() && cap != 0) {
        return MpfError::BufferTooSmall { needed: 0 }.status_code() as c_long;
    }
    let out = if cap == 0 {
        &mut [][..]
    } else {
        std::slice::from_raw_parts_mut(buf, cap as usize)
    };
    match m.message_receive(IpcLnvcId::from_raw(lnvc_id as u64), out) {
        Ok(n) => n as c_long,
        Err(e) => e.status_code() as c_long,
    }
}

/// `check_receive`: 1 when a message is deliverable, 0 when not, or a
/// negative status.
///
/// # Safety
/// `h` must be a valid handle.
#[no_mangle]
pub unsafe extern "C" fn mpf_ipc_check_receive(h: *mut c_void, lnvc_id: c_longlong) -> c_int {
    match handle(h) {
        Ok(m) => match m.check_receive(IpcLnvcId::from_raw(lnvc_id as u64)) {
            Ok(ready) => ready as c_int,
            Err(e) => e.status_code(),
        },
        Err(code) => code,
    }
}

/// Runs a liveness sweep; returns the number of newly-found dead peers
/// or a negative status.
///
/// # Safety
/// `h` must be a valid handle.
#[no_mangle]
pub unsafe extern "C" fn mpf_ipc_sweep(h: *mut c_void) -> c_int {
    match handle(h) {
        Ok(m) => m.sweep_dead_peers() as c_int,
        Err(code) => code,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> std::ffi::CString {
        std::ffi::CString::new(s).unwrap()
    }

    #[test]
    fn ffi_roundtrip_over_a_real_region() {
        let region = c("ffi-roundtrip");
        unsafe {
            let h = mpf_ipc_create(region.as_ptr(), 4, 4);
            assert!(!h.is_null());
            assert_eq!(mpf_ipc_pid(h), 0);
            let name = c("ffi:pipe");
            let tx = mpf_ipc_open_send(h, name.as_ptr());
            assert!(tx >= 0, "open_send -> {tx}");
            let rx = mpf_ipc_open_receive(h, name.as_ptr(), 0);
            assert!(rx >= 0, "open_receive -> {rx}");
            assert_eq!(mpf_ipc_check_receive(h, rx), 0);
            let payload = b"over the C ABI";
            assert_eq!(
                mpf_ipc_message_send(h, tx, payload.as_ptr(), payload.len() as c_long),
                0
            );
            assert_eq!(mpf_ipc_check_receive(h, rx), 1);
            let mut buf = [0u8; 64];
            let n = mpf_ipc_message_receive(h, rx, buf.as_mut_ptr(), buf.len() as c_long);
            assert_eq!(n as usize, payload.len());
            assert_eq!(&buf[..n as usize], payload);
            assert_eq!(mpf_ipc_close_send(h, tx), 0);
            assert_eq!(mpf_ipc_close_receive(h, rx), 0);
            mpf_ipc_detach(h);
        }
    }

    #[test]
    fn ffi_rejects_nulls_and_bad_ids() {
        unsafe {
            assert!(mpf_ipc_attach(std::ptr::null()).is_null());
            assert_eq!(mpf_ipc_pid(std::ptr::null_mut()), bad_handle());
            let region = c("ffi-badid");
            let h = mpf_ipc_create(region.as_ptr(), 2, 2);
            assert!(!h.is_null());
            let bogus = IpcLnvcId::from_raw(7 << 32 | 1).raw() as c_longlong;
            assert_eq!(
                mpf_ipc_close_send(h, bogus),
                MpfError::UnknownLnvc.status_code()
            );
            mpf_ipc_detach(h);
        }
    }
}
