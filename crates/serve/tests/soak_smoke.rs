//! Cross-process smoke run of the soak harness: a scaled-down version
//! of the CI job — real forked workers and clients of one named
//! region, one SIGKILLed worker, and the full gate stack (stamp
//! verification, conservation, SLO structure) enforced by the binary's
//! exit code.  The test then re-checks the headline claims from the
//! emitted `BENCH_soak.json` rather than trusting stdout alone.

use std::process::Command;

#[test]
fn soak_smoke_ipc_with_worker_kill() {
    let json = std::env::temp_dir().join(format!("soak-smoke-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&json);

    let out = Command::new(env!("CARGO_BIN_EXE_mpf-soak"))
        .args([
            "--requests",
            "3000",
            "--workers",
            "2",
            "--clients",
            "4",
            "--kill-workers",
            "1",
            "--kill-clients",
            "1",
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("spawn mpf-soak");

    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "mpf-soak exited {:?}\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}",
        out.status.code()
    );
    assert!(
        stdout.contains("mpf-soak: PASS"),
        "no PASS line\n--- stdout ---\n{stdout}"
    );

    let report = std::fs::read_to_string(&json).expect("BENCH json written");
    let _ = std::fs::remove_file(&json);

    // Conservation gate recorded as clean.
    assert!(
        report.contains("\"ok\":true"),
        "conservation not clean in report: {report}"
    );
    // The killed worker (and killed client) must have forced at least
    // one epoch failover.
    let bumps = report
        .split("\"epoch_bumps\":")
        .nth(1)
        .and_then(|rest| {
            rest.chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse::<u32>()
                .ok()
        })
        .expect("epoch_bumps in report");
    assert!(
        bumps >= 1,
        "no epoch bump despite a SIGKILLed worker: {report}"
    );
    // Latency percentiles made it into the report.
    for key in ["\"p50_ns\"", "\"p99_ns\"", "\"p999_ns\""] {
        assert!(report.contains(key), "missing {key} in report");
    }
}
