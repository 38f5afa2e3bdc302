//! Pipeline statistics.

use cfr_mem::{CacheStats, TlbStats};
use cfr_types::{RecordError, RecordReader, RecordWriter};

/// Everything a run reports (Table 2's columns come from here).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions fetched (right path).
    pub fetched: u64,
    /// Instructions fetched on mispredicted (wrong) paths — these still pay
    /// iTLB/iL1 energy, as in sim-outorder.
    pub wrong_path_fetched: u64,
    /// Right-path branches fetched.
    pub branches: u64,
    /// ... of which mispredicted (direction or target).
    pub mispredicts: u64,
    /// Committed boundary branches (SoCA/SoLA/IA instruction overhead).
    pub boundary_branches: u64,
    /// Page crossings caused by taken branches (Table 2 BRANCH).
    pub crossings_branch: u64,
    /// Sequential page crossings (Table 2 BOUNDARY; boundary-branch hops
    /// count here — they are the sequential crossing made explicit).
    pub crossings_boundary: u64,
    /// iL1 counters.
    pub il1: CacheStats,
    /// dL1 counters.
    pub dl1: CacheStats,
    /// Unified L2 counters.
    pub l2: CacheStats,
    /// dTLB counters.
    pub dtlb: TlbStats,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
}

impl CpuStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Branch prediction accuracy (Table 5).
    #[must_use]
    pub fn predictor_accuracy(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            1.0 - self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Total page crossings.
    #[must_use]
    pub fn crossings(&self) -> u64 {
        self.crossings_branch + self.crossings_boundary
    }

    /// Serializes every counter, scalars first, then the nested cache/TLB
    /// stats in declaration order (persistent run store codec).
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("cpustats");
        w.u64(self.cycles);
        w.u64(self.committed);
        w.u64(self.fetched);
        w.u64(self.wrong_path_fetched);
        w.u64(self.branches);
        w.u64(self.mispredicts);
        w.u64(self.boundary_branches);
        w.u64(self.crossings_branch);
        w.u64(self.crossings_boundary);
        self.il1.to_record(w);
        self.dl1.to_record(w);
        self.l2.to_record(w);
        self.dtlb.to_record(w);
        w.u64(self.loads);
        w.u64(self.stores);
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("cpustats")?;
        Ok(Self {
            cycles: r.u64()?,
            committed: r.u64()?,
            fetched: r.u64()?,
            wrong_path_fetched: r.u64()?,
            branches: r.u64()?,
            mispredicts: r.u64()?,
            boundary_branches: r.u64()?,
            crossings_branch: r.u64()?,
            crossings_boundary: r.u64()?,
            il1: CacheStats::from_record(r)?,
            dl1: CacheStats::from_record(r)?,
            l2: CacheStats::from_record(r)?,
            dtlb: TlbStats::from_record(r)?,
            loads: r.u64()?,
            stores: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let mut s = CpuStats::default();
        // Fill every field with a distinct value so transposed fields fail.
        for (counter, field) in (1u64..).zip([
            &mut s.cycles,
            &mut s.committed,
            &mut s.fetched,
            &mut s.wrong_path_fetched,
            &mut s.branches,
            &mut s.mispredicts,
            &mut s.boundary_branches,
            &mut s.crossings_branch,
            &mut s.crossings_boundary,
            &mut s.il1.accesses,
            &mut s.il1.misses,
            &mut s.dl1.hits,
            &mut s.l2.writebacks,
            &mut s.dtlb.accesses,
            &mut s.dtlb.invalidations,
            &mut s.dtlb.protection_faults,
            &mut s.loads,
            &mut s.stores,
        ]) {
            *field = counter;
        }
        let mut w = RecordWriter::new();
        s.to_record(&mut w);
        let record = w.finish();
        let mut r = RecordReader::new(&record);
        assert_eq!(CpuStats::from_record(&mut r).unwrap(), s);
        r.finish().unwrap();
        // Truncation anywhere is an error, not a zero-filled struct.
        let truncated = &record[..record.len() / 2];
        assert!(CpuStats::from_record(&mut RecordReader::new(truncated)).is_err());
    }

    #[test]
    fn derived_ratios() {
        let mut s = CpuStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.predictor_accuracy(), 0.0);
        s.cycles = 100;
        s.committed = 250;
        s.branches = 10;
        s.mispredicts = 1;
        s.crossings_branch = 7;
        s.crossings_boundary = 3;
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.predictor_accuracy() - 0.9).abs() < 1e-12);
        assert_eq!(s.crossings(), 10);
    }
}
