//! # cfr-cpu
//!
//! A cycle-level, trace-driven out-of-order processor core in the
//! SimpleScalar `sim-outorder` mold — the substrate the paper ran its
//! evaluation on (its Table 1 is this crate's
//! [`CpuConfig::default_config`]).
//!
//! The core models: a fetch engine with an 8-entry fetch queue that breaks
//! on predicted-taken branches and stalls on iL1 misses; bimodal + BTB + RAS
//! branch prediction with wrong-path fetch until branch resolution; a
//! 64-entry RUU and 32-entry LSQ with 4-wide out-of-order issue over the
//! paper's functional-unit mix; and 4-wide in-order commit.
//!
//! The *translation path* of the fetch engine is abstracted behind the
//! [`FetchTranslator`] trait: each of the paper's strategies (Base, OPT,
//! HoA, SoCA, SoLA, IA — implemented in `cfr-core`) plugs in there and
//! decides, per fetch, whether the iTLB is accessed, what it costs in
//! energy, and whether serial latency is added (PI-PT's critical path,
//! VI-VT's miss path).
//!
//! ```
//! use cfr_cpu::{CpuConfig, NullTranslator, Pipeline};
//! use cfr_types::PageGeometry;
//! use cfr_workload::{GeneratorParams, LaidProgram};
//!
//! let prog = cfr_workload::generate(&GeneratorParams::small_test());
//! let laid = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), false);
//! let mut pipe = Pipeline::new(&laid, CpuConfig::default_config(), 7);
//! let mut xlate = NullTranslator::default();
//! pipe.run(&mut xlate, 10_000);
//! assert_eq!(pipe.stats().committed, 10_000);
//! assert!(pipe.stats().cycles > 2_500, "IPC can't exceed the 4-wide core");
//! ```

mod backend;
mod bpred;
mod config;
mod pipeline;
mod ring;
mod stats;
mod translate;

pub use backend::{CompiledBackend, ExecutionBackend, InterpBackend};
pub use bpred::{BranchPredictor, Btb, Prediction, PredictorConfig, ReturnAddressStack};
pub use config::CpuConfig;
pub use pipeline::{Pipeline, SliceEnd};
pub use stats::CpuStats;
pub use translate::{
    Consumed, FetchEvent, FetchKind, FetchTranslator, Mismatch, NullTranslator, Recorder,
    TranslationLog, TranslationOutcome,
};
