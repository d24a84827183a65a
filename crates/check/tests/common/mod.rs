//! What every scenario's final check shares.

use mpf::IpcMpf;
use mpf_trace::{Report, TraceLog};

/// Replays the trace rings of `ipc`'s region through the §3 spec
/// (`mpf::spec`).  It runs after the schedule, so it adds no preemption
/// point: the explorer enumerates the same schedules with it as without.
pub fn conforms(ipc: &IpcMpf) -> Result<Report, String> {
    let report = TraceLog::from_ipc(ipc).check();
    let dirty = format!("conformance violations: {:?}", report.violations);
    report.is_clean().then_some(report).ok_or(dirty)
}
