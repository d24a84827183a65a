//! The paper's first application study: message-based Gauss-Jordan
//! elimination with partial pivoting (§4, Figure 7).
//!
//! Solves a random diagonally dominant system three ways — sequential,
//! MPF message passing (workers + arbiter over four LNVCs), and the
//! shared-memory baseline — and cross-checks the answers.
//!
//! ```sh
//! cargo run --release --example gauss_jordan [n] [workers]
//! ```

use std::time::Instant;

use mpf_apps::gauss_jordan::{solve_mpf, solve_sequential, solve_shared};
use mpf_apps::linalg::{random_rhs, residual_inf, Matrix};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    println!("solving a {n}x{n} system with {workers} workers + 1 arbiter");
    let a = Matrix::random_diag_dominant(n, 2026);
    let b = random_rhs(n, 2026);

    let t = Instant::now();
    let x_seq = solve_sequential(&a, &b);
    let t_seq = t.elapsed();

    let t = Instant::now();
    let x_mpf = solve_mpf(&a, &b, workers);
    let t_mpf = t.elapsed();

    let t = Instant::now();
    let x_shm = solve_shared(&a, &b, workers);
    let t_shm = t.elapsed();

    for (label, x, took) in [
        ("sequential          ", &x_seq, t_seq),
        ("MPF message passing ", &x_mpf, t_mpf),
        ("shared memory       ", &x_shm, t_shm),
    ] {
        let r = residual_inf(&a, x, &b);
        println!("{label} residual = {r:.3e}   time = {took:?}");
        assert!(r < 1e-6, "{label} residual too large");
    }

    let worst = x_seq
        .iter()
        .zip(&x_mpf)
        .map(|(s, p)| (s - p).abs())
        .fold(0.0f64, f64::max);
    println!("max |x_seq - x_mpf| = {worst:.3e}");
    println!("note: wall-clock speedup requires a multi-core host; on the");
    println!("Balance 21000 model, run: cargo run -p mpf-bench --bin figures -- fig7");
}
