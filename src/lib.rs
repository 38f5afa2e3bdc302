//! # cfr-sim
//!
//! A reproduction of *"Generating Physical Addresses Directly for Saving
//! Instruction TLB Energy"* (Kadayif et al., MICRO 2002).
//!
//! The paper keeps the current instruction page's translation in a single
//! **Current Frame Register (CFR)** and avoids instruction-TLB lookups until
//! execution leaves that page. This workspace implements the whole system
//! from scratch:
//!
//! - [`types`] — address/page newtypes shared by every crate,
//! - [`energy`] — an analytical CACTI-like energy model,
//! - [`mem`] — caches, TLBs (mono + two-level), page table, DRAM,
//! - [`workload`] — a synthetic SPEC2000-like program generator,
//! - [`cpu`] — a cycle-level out-of-order core (fetch queue, RUU, LSQ,
//!   bimodal predictor, BTB),
//! - [`core`] — the paper's contribution: the CFR, the Base/OPT/HoA/SoCA/
//!   SoLA/IA fetch-translation strategies, the compiler passes, and the
//!   experiment harness.
//!
//! # Quickstart
//!
//! Experiments run through the parallel, deduplicating engine: declare
//! the runs you need as `RunKey`s and the engine simulates each unique
//! key exactly once, on all cores.
//!
//! ```
//! use cfr_sim::core::{Engine, ExperimentScale, RunKey, StrategyKind};
//! use cfr_sim::mem::AddressingMode;
//!
//! let engine = Engine::new();
//! let scale = ExperimentScale { max_commits: 50_000, seed: 0x5EED }; // keep the doctest fast
//! let key = RunKey::new("177.mesa", &scale, StrategyKind::Ia, AddressingMode::ViPt);
//! let report = engine.run(key);
//! assert!(report.itlb.accesses < report.committed);
//! ```
//!
//! The per-table/per-figure reproduction binaries live in the `cfr-bench`
//! crate; see the README at the repository root.

pub use cfr_core as core;
pub use cfr_cpu as cpu;
pub use cfr_energy as energy;
pub use cfr_mem as mem;
pub use cfr_types as types;
pub use cfr_workload as workload;
