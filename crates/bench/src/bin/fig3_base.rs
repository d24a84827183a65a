//! Figure 3 — `base` benchmark: throughput vs message length.
//!
//! Paper: one process, loop-back LNVC, alternating send/receive of
//! fixed-length messages; "throughput increases with increasing message
//! length [and] approaches an asymptote … message copying costs dominate;
//! memory bandwidth is the performance limiting factor."
//!
//! Usage: `fig3_base [--sim | --native | --both] [--json <path>]`
//! (default `--sim`).

use mpf_bench::report::{print_series, JsonReport, Mode};
use mpf_bench::{native, Series};
use mpf_sim::{figures, CostModel, MachineConfig};

fn main() {
    let mode = Mode::from_args();
    let mut json = JsonReport::from_args();
    if mode.sim {
        let machine = MachineConfig::balance21000();
        let costs = CostModel::calibrated(&machine);
        let series = figures::fig3_base(&machine, &costs);
        let title =
            "Figure 3 (base): throughput (bytes/s) vs message length [simulated Balance 21000]";
        print_series(title, std::slice::from_ref(&series));
        if let Some(j) = json.as_mut() {
            j.add(title, &[series]);
        }
    }
    if mode.native {
        let lengths = [16usize, 64, 128, 256, 512, 1024, 1536, 2048];
        let series = Series {
            label: "base loop-back".to_string(),
            points: lengths
                .iter()
                .map(|&len| (len as f64, native::base_throughput(len, 2_000, true)))
                .collect(),
        };
        let title = "Figure 3 (base): throughput (bytes/s) vs message length [native host]";
        print_series(title, std::slice::from_ref(&series));
        if let Some(j) = json.as_mut() {
            j.add(title, &[series]);
        }
    }
    if let Some(j) = json {
        let path = j.write().expect("write --json");
        eprintln!("wrote {}", path.display());
    }
}
