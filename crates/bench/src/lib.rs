#![forbid(unsafe_code)]
//! Experiment harness regenerating every quantitative figure and table of
//! the Flashmark paper.
//!
//! Each experiment is a library function (so integration tests can run
//! scaled-down versions) and a step of the [`suite`], which writes it to
//! `results/<step>.json`:
//!
//! | paper artifact | function | step |
//! |---|---|---|
//! | Fig. 4 — cells vs `tPE` per stress level | [`experiments::fig04`] | `fig04` |
//! | Fig. 5 — fresh/50 K discrimination | [`experiments::fig05`] | `fig05` |
//! | Fig. 9 — single-copy BER vs `tPE` | [`experiments::fig09`] | `fig09` |
//! | Fig. 10 — 7-replica majority recovery | [`experiments::fig10`] | `fig10` |
//! | Fig. 11 — replication sweep | [`experiments::fig11`] | `fig11` |
//! | §V timing | [`experiments::table1`] | `table1` |
//! | §V imprint-effort trade-off | [`experiments::npe_sweep`] | `npe_sweep` |
//! | ECC-vs-replication ablation | [`experiments::ecc_ablation`] | `ecc_ablation` |
//! | die temperature vs window | [`experiments::temperature_sweep`] | `temperature_sweep` |
//! | recycled-detector baselines | [`experiments::detector_comparison`] | `detector_comparison` |
//! | Flashmark on NAND | [`experiments::nand_demo`] | `nand_demo` |
//! | no reject→accept flip under faults (§III) | [`fault_campaign::fault_campaign`] | `fault_campaign` (also `obs_report.json`) |
//! | 10 k-request verification service | [`service_campaign::run_service_campaign`] | `service_campaign_smoke` |
//! | NOR / NAND / ReRAM backends | [`backend_campaign::run_backend_campaign`] | `backend_campaign` |
//!
//! `run_all` is the one regeneration command: it runs every step and
//! emits a Markdown report comparing paper numbers with measured ones (the
//! basis of `EXPERIMENTS.md`). Run it in release mode; the cell-level
//! simulation is hot:
//!
//! ```text
//! cargo run --release -p flashmark-bench --bin run_all
//! ```
//!
//! The one artifact too slow for the suite, the million-request
//! `service_campaign.json`, has its own bin, `service_campaign`.

pub mod backend_campaign;
pub mod experiments;
pub mod fault_campaign;
pub mod harness;
pub mod json;
pub mod microbench;
pub mod observability;
pub mod output;
pub mod paper;
pub mod service_campaign;
pub mod suite;
pub mod trend;
