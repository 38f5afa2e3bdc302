//! Persistent-store codecs for workload artifacts.
//!
//! The sharded artifact store (`cfr_types::store`) moves opaque record
//! strings; this module supplies the typed codecs that let the two
//! expensive workload layers live in it:
//!
//! - **generated programs** ([`Program`] and everything inside it —
//!   blocks, functions, instructions, branch specs), under the
//!   [`cfr_types::NS_PROGRAMS`] namespace, and
//! - **functional walk measurements** ([`WalkMeasurement`], i.e.
//!   [`FunctionalStats`] + [`StaticBranchStats`]), under
//!   [`cfr_types::NS_WALKS`].
//!
//! Store keys embed a FNV-1a fingerprint of the profile's full
//! [`GeneratorParams`], so recalibrating a profile invalidates its cached
//! program and walks instead of serving stale artifacts. Floats (branch
//! taken biases, measured fractions) are stored as exact IEEE-754 bits,
//! so a loaded program is `==` to a freshly generated one and warm walk
//! output is byte-identical.

use cfr_types::{fnv1a64, PageGeometry, RecordError, RecordReader, RecordWriter};

use crate::generate::GeneratorParams;
use crate::isa::{BranchKind, BranchSpec, BranchTarget, DataRegion, Instruction, OpClass, RegId};
use crate::measure::{FunctionalStats, StaticBranchStats, WalkMeasurement};
use crate::profiles::BenchmarkProfile;
use crate::program::{Block, BlockId, Function, Program};

// ------------------------------------------------------------- store keys

/// FNV-1a fingerprint over every generator knob: two profiles produce the
/// same fingerprint iff their parameters are identical, so the store key
/// of a program (or a walk over it) changes whenever calibration does.
#[must_use]
pub fn params_fingerprint(params: &GeneratorParams) -> u64 {
    let mut w = RecordWriter::new();
    params.to_record(&mut w);
    fnv1a64(&w.finish())
}

/// The artifact-store key of `profile`'s generated program.
#[must_use]
pub fn program_store_key(profile: &BenchmarkProfile) -> String {
    format!(
        "program {} {:016x}",
        profile.name,
        params_fingerprint(&profile.params)
    )
}

/// The artifact-store key of a functional walk of `profile`'s program:
/// the program identity (name + params fingerprint) plus everything the
/// walk's outcome depends on — page geometry, layout instrumentation,
/// walk length, and walker seed.
#[must_use]
pub fn walk_store_key(
    profile: &BenchmarkProfile,
    geom: PageGeometry,
    instrumented: bool,
    commits: u64,
    seed: u64,
) -> String {
    format!(
        "walk {} {:016x} {} {} {commits} {seed}",
        profile.name,
        params_fingerprint(&profile.params),
        geom.page_bytes(),
        if instrumented { "instr" } else { "plain" },
    )
}

/// The artifact-store key of a compiled trace of `profile`'s program:
/// the program identity (name + params fingerprint) plus everything the
/// trace depends on — page geometry and layout instrumentation. Every
/// instrumented layout also carries SoLA's in-page marks, and its key
/// says `marked`, so no trace of an unmarked layout can serve it.
#[must_use]
pub fn trace_store_key(
    profile: &BenchmarkProfile,
    geom: PageGeometry,
    instrumented: bool,
) -> String {
    format!(
        "trace {} {:016x} {} {}",
        profile.name,
        params_fingerprint(&profile.params),
        geom.page_bytes(),
        if instrumented {
            "instr marked"
        } else {
            "plain unmarked"
        },
    )
}

// ------------------------------------------------------ GeneratorParams

impl GeneratorParams {
    /// Serializes every knob in declaration order (fingerprint input and
    /// diagnostics; params are never parsed back — the profile registry
    /// is the source of truth).
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("genparams");
        w.u64(self.seed);
        for v in [self.functions, self.hot_functions] {
            w.u64(u64::from(v));
        }
        for (lo, hi) in [
            self.blocks_per_function,
            self.block_len,
            self.loop_len,
            self.leaf_blocks,
        ] {
            w.u64(u64::from(lo));
            w.u64(u64::from(hi));
        }
        for v in [
            self.loop_prob,
            self.loop_bias,
            self.outer_loop_prob,
            self.outer_bias,
            self.loop_call,
            self.loop_icall,
            self.plain_fallthrough,
            self.w_cond,
            self.w_jump,
            self.w_call,
            self.w_indirect,
            self.indirect_local,
            self.fwd_bias,
            self.weak_fraction,
            self.weak_bias,
            self.call_hot_locality,
            self.leaf_fraction,
            self.call_leaf,
            self.load_frac,
            self.store_frac,
            self.fp_frac,
            self.mul_frac,
            self.region_stack,
            self.region_global,
        ] {
            w.f64(v);
        }
        for v in [self.global_pages, self.heap_arrays, self.heap_array_pages] {
            w.u64(u64::from(v));
        }
    }
}

// -------------------------------------------------------------- Program

pub(crate) fn opt_reg_to_record(reg: Option<RegId>, w: &mut RecordWriter) {
    match reg {
        Some(r) => w.u64(u64::from(r.0)),
        None => w.token("-"),
    }
}

pub(crate) fn opt_reg_from_record(r: &mut RecordReader<'_>) -> Result<Option<RegId>, RecordError> {
    let token = r.token()?;
    if token == "-" {
        return Ok(None);
    }
    let raw: u8 = token
        .parse()
        .ok()
        .filter(|v| (*v as usize) < RegId::COUNT)
        .ok_or_else(|| RecordError::new(format!("bad register token {token:?}")))?;
    Ok(Some(RegId(raw)))
}

impl DataRegion {
    /// Serializes as `stack`, `g <idx>`, or `h <idx>`.
    pub fn to_record(&self, w: &mut RecordWriter) {
        match self {
            DataRegion::Stack => w.token("stack"),
            DataRegion::Global(i) => {
                w.token("g");
                w.u64(u64::from(*i));
            }
            DataRegion::Heap(i) => {
                w.token("h");
                w.u64(u64::from(*i));
            }
        }
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        let index = |r: &mut RecordReader<'_>| -> Result<u16, RecordError> {
            let v = r.u64()?;
            u16::try_from(v).map_err(|_| RecordError::new(format!("region index {v} exceeds u16")))
        };
        match r.token()? {
            "stack" => Ok(DataRegion::Stack),
            "g" => Ok(DataRegion::Global(index(r)?)),
            "h" => Ok(DataRegion::Heap(index(r)?)),
            other => Err(RecordError::new(format!("unknown data region {other:?}"))),
        }
    }
}

impl BranchSpec {
    /// Serializes as `<kind> <target> <in_page_hint> <boundary>`.
    pub fn to_record(&self, w: &mut RecordWriter) {
        match self.kind {
            BranchKind::Conditional { taken_bias } => {
                w.token("cond");
                w.f64(taken_bias);
            }
            BranchKind::Jump => w.token("jump"),
            BranchKind::Call => w.token("call"),
            BranchKind::Return => w.token("ret"),
            BranchKind::IndirectJump => w.token("ijump"),
            BranchKind::IndirectCall => w.token("icall"),
        }
        match &self.target {
            BranchTarget::Block(b) => {
                w.token("blk");
                w.u64(u64::from(b.0));
            }
            BranchTarget::NextSlot => w.token("next"),
            BranchTarget::CallerReturn => w.token("caller"),
            BranchTarget::Indirect(targets) => {
                w.token("ind");
                w.u64(targets.len() as u64);
                for t in targets {
                    w.u64(u64::from(t.0));
                }
            }
        }
        w.u64(u64::from(self.in_page_hint));
        w.u64(u64::from(self.boundary));
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        let kind = match r.token()? {
            "cond" => BranchKind::Conditional {
                taken_bias: r.f64()?,
            },
            "jump" => BranchKind::Jump,
            "call" => BranchKind::Call,
            "ret" => BranchKind::Return,
            "ijump" => BranchKind::IndirectJump,
            "icall" => BranchKind::IndirectCall,
            other => return Err(RecordError::new(format!("unknown branch kind {other:?}"))),
        };
        let block_id =
            |r: &mut RecordReader<'_>| -> Result<BlockId, RecordError> { Ok(BlockId(r.u32()?)) };
        let target = match r.token()? {
            "blk" => BranchTarget::Block(block_id(r)?),
            "next" => BranchTarget::NextSlot,
            "caller" => BranchTarget::CallerReturn,
            "ind" => {
                let n = r.usize()?;
                if n == 0 {
                    return Err(RecordError::new("indirect target set is empty"));
                }
                let mut targets = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    targets.push(block_id(r)?);
                }
                BranchTarget::Indirect(targets)
            }
            other => return Err(RecordError::new(format!("unknown branch target {other:?}"))),
        };
        Ok(Self {
            kind,
            target,
            in_page_hint: record_bool(r)?,
            boundary: record_bool(r)?,
        })
    }
}

pub(crate) fn record_bool(r: &mut RecordReader<'_>) -> Result<bool, RecordError> {
    match r.u64()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(RecordError::new(format!("bad boolean token {other}"))),
    }
}

impl Instruction {
    /// Serializes as `<class> [payload] <src0> <src1> <dst>`.
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token(match self.class {
            OpClass::IntAlu => "ialu",
            OpClass::IntMul => "imul",
            OpClass::FpAlu => "falu",
            OpClass::FpMul => "fmul",
            OpClass::Load => "ld",
            OpClass::Store => "st",
            OpClass::Branch => "br",
        });
        if let Some(region) = &self.region {
            region.to_record(w);
        }
        if let Some(spec) = &self.branch {
            spec.to_record(w);
        }
        opt_reg_to_record(self.srcs[0], w);
        opt_reg_to_record(self.srcs[1], w);
        opt_reg_to_record(self.dst, w);
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream, including a memory class without a
    /// region or a branch class without a spec.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        let class = match r.token()? {
            "ialu" => OpClass::IntAlu,
            "imul" => OpClass::IntMul,
            "falu" => OpClass::FpAlu,
            "fmul" => OpClass::FpMul,
            "ld" => OpClass::Load,
            "st" => OpClass::Store,
            "br" => OpClass::Branch,
            other => return Err(RecordError::new(format!("unknown op class {other:?}"))),
        };
        let region = matches!(class, OpClass::Load | OpClass::Store)
            .then(|| DataRegion::from_record(r))
            .transpose()?;
        let branch = (class == OpClass::Branch)
            .then(|| BranchSpec::from_record(r))
            .transpose()?;
        Ok(Self {
            class,
            srcs: [opt_reg_from_record(r)?, opt_reg_from_record(r)?],
            dst: opt_reg_from_record(r)?,
            branch,
            region,
        })
    }
}

impl Program {
    /// Serializes the whole program — data-footprint scalars, the
    /// function table, then every block's instructions (persistent
    /// artifact store codec).
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("program");
        w.u64(u64::from(self.global_pages));
        w.u64(u64::from(self.heap_arrays));
        w.u64(u64::from(self.heap_array_pages));
        w.token("functions");
        w.u64(self.functions.len() as u64);
        for f in &self.functions {
            w.u64(u64::from(f.first_block));
            w.u64(u64::from(f.n_blocks));
        }
        w.token("blocks");
        w.u64(self.blocks.len() as u64);
        for b in &self.blocks {
            w.u64(b.instrs.len() as u64);
            for i in &b.instrs {
                i.to_record(w);
            }
        }
    }

    /// Parses a [`Self::to_record`] stream. Callers loading untrusted
    /// bytes (the engine's program jobs) should additionally run
    /// [`Program::validate`] on the result.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("program")?;
        let scalar = |r: &mut RecordReader<'_>| -> Result<u16, RecordError> {
            let v = r.u64()?;
            u16::try_from(v).map_err(|_| RecordError::new(format!("scalar {v} exceeds u16")))
        };
        let global_pages = scalar(r)?;
        let heap_arrays = scalar(r)?;
        let heap_array_pages = scalar(r)?;
        r.expect("functions")?;
        let n_functions = r.usize()?;
        let mut functions = Vec::with_capacity(n_functions.min(1 << 16));
        for _ in 0..n_functions {
            functions.push(Function {
                first_block: r.u32()?,
                n_blocks: r.u32()?,
            });
        }
        r.expect("blocks")?;
        let n_blocks = r.usize()?;
        let mut blocks = Vec::with_capacity(n_blocks.min(1 << 20));
        for _ in 0..n_blocks {
            let n_instrs = r.usize()?;
            let mut instrs = Vec::with_capacity(n_instrs.min(1 << 16));
            for _ in 0..n_instrs {
                instrs.push(Instruction::from_record(r)?);
            }
            blocks.push(Block { instrs });
        }
        Ok(Self {
            blocks,
            functions,
            global_pages,
            heap_arrays,
            heap_array_pages,
        })
    }
}

// ----------------------------------------------------- walk measurements

impl FunctionalStats {
    /// Serializes every counter in declaration order.
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("fstats");
        for v in [
            self.committed,
            self.branches,
            self.taken,
            self.boundary_branch_execs,
            self.analyzable,
            self.analyzable_in_page,
            self.analyzable_crossing,
            self.crossings_branch,
            self.crossings_boundary,
            self.il1_accesses,
            self.il1_misses,
            self.cond_branches,
            self.cond_predicted,
            self.jumps,
            self.calls,
            self.returns,
            self.indirects,
        ] {
            w.u64(v);
        }
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("fstats")?;
        Ok(Self {
            committed: r.u64()?,
            branches: r.u64()?,
            taken: r.u64()?,
            boundary_branch_execs: r.u64()?,
            analyzable: r.u64()?,
            analyzable_in_page: r.u64()?,
            analyzable_crossing: r.u64()?,
            crossings_branch: r.u64()?,
            crossings_boundary: r.u64()?,
            il1_accesses: r.u64()?,
            il1_misses: r.u64()?,
            cond_branches: r.u64()?,
            cond_predicted: r.u64()?,
            jumps: r.u64()?,
            calls: r.u64()?,
            returns: r.u64()?,
            indirects: r.u64()?,
        })
    }
}

impl StaticBranchStats {
    /// Serializes every counter in declaration order.
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("sbstats");
        for v in [
            self.total,
            self.analyzable,
            self.analyzable_in_page,
            self.analyzable_crossing,
        ] {
            w.u64(v);
        }
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("sbstats")?;
        Ok(Self {
            total: r.u64()?,
            analyzable: r.u64()?,
            analyzable_in_page: r.u64()?,
            analyzable_crossing: r.u64()?,
        })
    }
}

impl WalkMeasurement {
    /// Serializes the dynamic and static halves.
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("walkm");
        self.functional.to_record(w);
        self.static_branches.to_record(w);
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("walkm")?;
        Ok(Self {
            functional: FunctionalStats::from_record(r)?,
            static_branches: StaticBranchStats::from_record(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use crate::layout::LaidProgram;
    use crate::measure::measure_walk;
    use crate::profiles;

    fn round_trip_program(program: &Program) -> Program {
        let mut w = RecordWriter::new();
        program.to_record(&mut w);
        let record = w.finish();
        let mut r = RecordReader::new(&record);
        let back = Program::from_record(&mut r).unwrap();
        r.finish().unwrap();
        back
    }

    #[test]
    fn small_program_round_trips_exactly() {
        let program = generate(&GeneratorParams::small_test());
        let back = round_trip_program(&program);
        assert_eq!(back, program, "loaded program must equal the generated one");
        assert_eq!(back.validate(), Ok(()));
    }

    #[test]
    fn every_profile_program_round_trips() {
        // The full six-profile sweep is what the store actually persists;
        // every branch kind, target shape, and region must survive.
        for p in profiles::all() {
            let program = p.generate();
            assert_eq!(round_trip_program(&program), program, "{}", p.name);
        }
    }

    #[test]
    fn program_record_is_single_line() {
        let program = generate(&GeneratorParams::small_test());
        let mut w = RecordWriter::new();
        program.to_record(&mut w);
        let record = w.finish();
        assert!(
            !record.contains('\n'),
            "store values must be single-line record strings"
        );
    }

    #[test]
    fn corrupt_program_records_are_errors() {
        let program = generate(&GeneratorParams::small_test());
        let mut w = RecordWriter::new();
        program.to_record(&mut w);
        let record = w.finish();
        // Truncation.
        assert!(Program::from_record(&mut RecordReader::new(&record[..record.len() / 2])).is_err());
        // Damaged tag.
        let damaged = record.replacen("program", "programs", 1);
        assert!(Program::from_record(&mut RecordReader::new(&damaged)).is_err());
        // A bogus op class in the middle.
        let bogus = record.replacen(" ialu ", " zalu ", 1);
        assert_ne!(bogus, record);
        assert!(Program::from_record(&mut RecordReader::new(&bogus)).is_err());
    }

    #[test]
    fn walk_measurement_round_trips() {
        let program = generate(&GeneratorParams::small_test());
        let laid = LaidProgram::lay_out(&program, PageGeometry::default_4k(), false);
        let m = measure_walk(&laid, 30_000, 7);
        let mut w = RecordWriter::new();
        m.to_record(&mut w);
        let record = w.finish();
        let mut r = RecordReader::new(&record);
        assert_eq!(WalkMeasurement::from_record(&mut r).unwrap(), m);
        r.finish().unwrap();
        assert!(
            WalkMeasurement::from_record(&mut RecordReader::new(&record[..20])).is_err(),
            "truncation is an error"
        );
    }

    #[test]
    fn fingerprints_track_every_knob() {
        let base = profiles::mesa().params;
        let fp = params_fingerprint(&base);
        assert_eq!(params_fingerprint(&base), fp, "deterministic");
        let mut seeded = base.clone();
        seeded.seed ^= 1;
        assert_ne!(params_fingerprint(&seeded), fp);
        let mut tuned = base.clone();
        tuned.loop_bias += 1e-9;
        assert_ne!(params_fingerprint(&tuned), fp, "float knobs are exact bits");
        let mut shaped = base;
        shaped.heap_array_pages += 1;
        assert_ne!(params_fingerprint(&shaped), fp);
    }

    #[test]
    fn store_keys_identify_the_artifact() {
        let mesa = profiles::mesa();
        let gap = profiles::gap();
        assert_ne!(program_store_key(&mesa), program_store_key(&gap));
        let geom = PageGeometry::default_4k();
        let a = walk_store_key(&mesa, geom, false, 100_000, 1);
        assert_ne!(a, walk_store_key(&mesa, geom, false, 100_000, 2), "seed");
        assert_ne!(a, walk_store_key(&mesa, geom, false, 200_000, 1), "length");
        assert_ne!(a, walk_store_key(&mesa, geom, true, 100_000, 1), "layout");
        let big = PageGeometry::new(16384).unwrap();
        assert_ne!(a, walk_store_key(&mesa, big, false, 100_000, 1), "geometry");
        assert!(!a.contains('\n'));
    }
}
