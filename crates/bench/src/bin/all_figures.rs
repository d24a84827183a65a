//! Regenerates every figure of the paper's evaluation in one run
//! (simulated Balance 21000 mode; pass `--native` or `--both` to add the
//! host-native measurements, which are slower).
//!
//! This is the binary EXPERIMENTS.md's numbers come from.

use mpf_bench::native;
use mpf_bench::report::{print_series, Mode};
use mpf_bench::Series;
use mpf_sim::{figures, CostModel, MachineConfig};

fn main() {
    let mode = Mode::from_args();
    let machine = MachineConfig::balance21000();
    let costs = CostModel::calibrated(&machine);

    if mode.sim {
        println!(
            "== Simulated Sequent Balance 21000 ({} CPUs @ {} MHz, {} MB/s bus, {} MB) ==\n",
            machine.cpus,
            machine.cpu_hz / 1_000_000,
            machine.bus_bytes_per_sec / 1_000_000,
            machine.mem_bytes >> 20,
        );
        print_series(
            "Figure 3 (base): throughput (bytes/s) vs message length",
            &[figures::fig3_base(&machine, &costs)],
        );
        print_series(
            "Figure 4 (fcfs): throughput (bytes/s) vs receiving processes",
            &figures::fig4_fcfs(&machine, &costs),
        );
        print_series(
            "Figure 5 (broadcast): effective throughput (bytes/s) vs receiving processes",
            &figures::fig5_broadcast(&machine, &costs),
        );
        print_series(
            "Figure 6 (random): throughput (bytes/s) vs processes",
            &figures::fig6_random(&machine, &costs, 0xF16),
        );
        print_series(
            "Figure 7 (Gauss-Jordan): speedup vs processes",
            &figures::fig7_gauss(&costs),
        );
        print_series(
            "Figure 8 (SOR): per-iteration speedup vs dimension N (relative to 2x2)",
            &figures::fig8_sor(&costs),
        );
    }

    if mode.native {
        println!("== Native host ==\n");
        let lengths = [16usize, 128, 1024, 2048];
        print_series(
            "Figure 3 (base) [native]",
            &[Series {
                label: "base loop-back".into(),
                points: lengths
                    .iter()
                    .map(|&len| (len as f64, native::base_throughput(len, 1_000, true)))
                    .collect(),
            }],
        );
        let receivers = [1u32, 4, 8, 16];
        print_series(
            "Figure 4 (fcfs) [native]",
            &[16usize, 1024]
                .iter()
                .map(|&len| Series {
                    label: format!("{len} byte messages"),
                    points: receivers
                        .iter()
                        .map(|&n| (n as f64, native::fcfs_throughput(len, n, 300)))
                        .collect(),
                })
                .collect::<Vec<_>>(),
        );
        print_series(
            "Figure 5 (broadcast) [native]",
            &[16usize, 1024]
                .iter()
                .map(|&len| Series {
                    label: format!("{len} byte messages"),
                    points: receivers
                        .iter()
                        .map(|&n| (n as f64, native::broadcast_throughput(len, n, 200)))
                        .collect(),
                })
                .collect::<Vec<_>>(),
        );
        let procs = [2u32, 8, 16];
        print_series(
            "Figure 6 (random) [native]",
            &[8usize, 1024]
                .iter()
                .map(|&len| Series {
                    label: format!("{len} byte messages"),
                    points: procs
                        .iter()
                        .map(|&p| (p as f64, native::random_throughput(len, p, 100, 0xF16)))
                        .collect(),
                })
                .collect::<Vec<_>>(),
        );
        print_series(
            "Figure 7 (Gauss-Jordan) [native]",
            &[32usize, 96]
                .iter()
                .map(|&n| Series {
                    label: format!("{n}x{n} matrix"),
                    points: [1usize, 2, 4]
                        .iter()
                        .map(|&p| (p as f64, native::gauss_speedup(n, p, 0xF17)))
                        .collect(),
                })
                .collect::<Vec<_>>(),
        );
        print_series(
            "Figure 8 (SOR) [native]",
            &[17usize, 65]
                .iter()
                .map(|&grid| {
                    let baseline = native::sor_iteration_secs(grid, 2, 20);
                    Series {
                        label: format!("{grid} x {grid} problem"),
                        points: [1usize, 2, 3]
                            .iter()
                            .map(|&n| {
                                (n as f64, baseline / native::sor_iteration_secs(grid, n, 20))
                            })
                            .collect(),
                    }
                })
                .collect::<Vec<_>>(),
        );
    }
}
