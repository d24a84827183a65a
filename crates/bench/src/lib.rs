//! # mpf-bench — the figure-regeneration harness
//!
//! Every figure of the paper's evaluation (§4) is an entry of one
//! [`catalog`], regenerated by one binary, `figures`; its §5 variants and
//! the DESIGN.md ablations are entries of the same type for the same
//! driver, in the one bench target.  An entry runs in up to two modes:
//!
//! * **sim** — on the `mpf-sim` Balance 21000 model, which reproduces the
//!   paper's curve *shapes* (contention declines, broadcast scaling,
//!   paging cliff) and magnitudes, deterministically;
//! * **native** — the real `mpf` engine on the host.  These numbers depend
//!   on the host's core count; they validate functionality and relative
//!   ordering, not the paper's absolute values.
//!
//! [`native`] holds the workloads, [`measure`] the one routine that times
//! them (median and quartiles of alternated runs), [`report`] the one
//! printer and the one `BENCH_*.json` schema.  `fig3_ipc` adds the series
//! that needs a second OS process; [`replay`] re-prices a native trace on
//! the model.

pub mod catalog;
pub mod measure;
pub mod native;
pub mod replay;
pub mod report;

pub use mpf_sim::figures::Series;
