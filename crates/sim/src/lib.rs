//! # mpf-sim — a discrete-event model of the Sequent Balance 21000
//!
//! The paper's evaluation ran on hardware we cannot obtain: a 20-processor
//! Sequent Balance 21000 (10 MHz NS32032 CPUs, one 80 MB/s shared bus,
//! 8 KB write-through caches, 16 MB of memory, Dynix paging).  Several of
//! its figure *shapes* are properties of that machine, not of MPF:
//!
//! * Figure 3's throughput asymptote — per-byte copy cost dominating
//!   per-message overhead ("memory bandwidth is the performance limiting
//!   factor");
//! * Figure 4's decline for small messages as receivers are added —
//!   LNVC lock contention, spinning waiters stealing bus cycles;
//! * Figure 5's sub-linear broadcast scaling — concurrent receiver copies
//!   sharing one bus;
//! * Figure 6's throughput collapse above ~10 processes for 1 KB messages
//!   — virtual-memory paging once message buffers outgrow residency.
//!
//! A 2026 host (often with fewer cores than the Balance had processors!)
//! will not reproduce those shapes natively, so this crate rebuilds the
//! machine as a discrete-event simulation and re-runs the paper's four
//! synthetic benchmarks on it:
//!
//! * [`machine`] — the hardware description
//!   ([`machine::MachineConfig::balance21000`]);
//! * [`costs`] — the MPF cost model, derived from machine parameters with
//!   documented formulas and calibrated against the paper's §4 numbers;
//! * [`bus`] — the single shared bus (an occupancy/queueing resource);
//! * [`paging`] — the virtual-memory overhead model;
//! * [`lnvc`] — a functional model of LNVC queues (delivery bookkeeping
//!   only; the real protocol logic lives in `mpf-core`);
//! * [`engine`] — the event engine executing send/receive operations for
//!   simulated processors;
//! * [`driver`] / [`workloads`] — the paper's `base`, `fcfs`, `broadcast`
//!   and `random` benchmark programs;
//! * [`figures`] — one entry point per paper figure, returning the series
//!   the benchmark harness prints;
//! * [`apps_model`] — analytic Balance-21000 execution-time models for
//!   the Gauss-Jordan and SOR applications (Figures 7 and 8).
//!
//! Everything is deterministic given a seed; the `random` benchmark uses
//! `rand` with a fixed-seed generator.

pub mod apps_model;
pub mod bus;
pub mod cache;
pub mod costs;
pub mod driver;
pub mod engine;
pub mod figures;
pub mod lnvc;
pub mod machine;
pub mod paging;
pub mod replay;
pub mod validate;
pub mod workloads;

pub use costs::CostModel;
pub use engine::{Engine, EngineReport};
pub use machine::MachineConfig;
