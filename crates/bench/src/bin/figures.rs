//! Regenerates the paper's figures from the catalog (the ablations are
//! `cargo bench -p mpf-bench`).
//!
//! Usage: `figures [ID…] [--sim | --native | --both] [--quick] [--json PATH]`
//!
//! No id means every entry; the default mode is `--sim`.  `--native`
//! measures on this host: every point is the median of 7 alternated 100 ms
//! runs, `--quick` makes that 3 runs of 4 ms on the same axes.  `--json`
//! records what was printed, with host, revision, run count and quartiles.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    mpf_bench::catalog::cli(mpf_bench::catalog::CATALOG, &args);
}
