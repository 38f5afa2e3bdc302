//! # cfr-workload
//!
//! Synthetic SPEC2000-like programs for `cfr-sim`.
//!
//! The paper evaluated six SPEC2000 binaries (177.mesa, 186.crafty,
//! 191.fma3d, 252.eon, 254.gap, 255.vortex) under SimpleScalar. Those
//! binaries and their inputs are not available here, so this crate builds
//! the closest synthetic equivalent: a **program generator** that emits a
//! real control-flow graph — functions, basic blocks, loops, calls,
//! indirect jumps — laid out over 4 KB pages, plus a deterministic
//! [`Walker`] that executes it.
//!
//! What makes the substitution faithful is that every statistic the paper's
//! mechanisms are sensitive to is a *calibration target* of the per-benchmark
//! [`profiles`]: dynamic branch fraction, statically-analyzable branch
//! fraction, in-page-target fraction, BOUNDARY/BRANCH page-crossing mix,
//! iL1 miss rate, and branch-predictor accuracy (paper Tables 2, 4 and 5).
//! The [`measure`] module checks generated programs against those targets.
//!
//! ```
//! use cfr_workload::{profiles, LaidProgram, Walker};
//! use cfr_types::PageGeometry;
//!
//! let profile = profiles::mesa();
//! let program = profile.generate();
//! let laid = LaidProgram::lay_out(&program, PageGeometry::default_4k(), false);
//! let mut walker = Walker::new(&laid, 42);
//! let step = walker.step();
//! assert_eq!(step.slot, 0, "execution starts at the entry slot");
//! ```

pub mod codec;
mod compile;
mod generate;
mod isa;
mod layout;
pub mod measure;
pub mod profiles;
mod program;
mod rng;
mod walk;

pub use codec::{params_fingerprint, walk_store_key};
pub use compile::{compile_trace, CompiledTrace, DecodedInstr, TraceOp, TraceWalker};
pub use generate::{generate, GeneratorParams};
pub use isa::{BranchKind, BranchSpec, BranchTarget, DataRegion, Instruction, OpClass, RegId};
pub use layout::{LaidProgram, Slot};
pub use measure::{
    measure_walk, static_branch_stats, FunctionalStats, StaticBranchStats, WalkMeasurement,
};
pub use profiles::BenchmarkProfile;
pub use program::{Block, BlockId, Function, FunctionId, Program};
pub use rng::SplitMix64;
pub use walk::{BranchExec, StepInfo, Walker};
