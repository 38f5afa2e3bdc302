//! Core configuration (the paper's Table 1).

use cfr_mem::{CacheConfig, DramConfig, TlbConfig};
use cfr_types::PageGeometry;

use crate::bpred::PredictorConfig;

/// Full processor configuration. [`CpuConfig::default_config`] reproduces
/// the paper's Table 1 exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuConfig {
    /// RUU (register update unit / instruction window) size, instructions.
    pub ruu_size: usize,
    /// Load/store queue size, instructions.
    pub lsq_size: usize,
    /// Fetch queue size, instructions.
    pub fetch_queue: usize,
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions decoded (fetch queue → RUU) per cycle.
    pub decode_width: usize,
    /// Instructions issued per cycle (out of order).
    pub issue_width: usize,
    /// Instructions committed per cycle (in order).
    pub commit_width: usize,
    /// Integer ALUs.
    pub int_alu: u32,
    /// Integer multiply/divide units.
    pub int_mul: u32,
    /// FP ALUs.
    pub fp_alu: u32,
    /// FP multiply/divide units.
    pub fp_mul: u32,
    /// Branch predictor + BTB + RAS configuration.
    pub predictor: PredictorConfig,
    /// Minimum cycles between a mispredicted branch's resolution and the
    /// first corrected fetch (Table 1: 7).
    pub mispredict_penalty: u32,
    /// iL1 configuration.
    pub il1: CacheConfig,
    /// dL1 configuration.
    pub dl1: CacheConfig,
    /// Unified L2 configuration.
    pub l2: CacheConfig,
    /// dTLB configuration.
    pub dtlb: TlbConfig,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Page geometry (Table 1: 4 KB).
    pub geometry: PageGeometry,
    /// Cycles a faulting data access spends trapping to the OS handler
    /// (charged on top of the TLB penalty whenever the dTLB reports a
    /// protection fault). 0 — the default, and the paper's implicit
    /// setting — reproduces the fault-free cost model exactly: faults are
    /// still *counted*, they just cost nothing.
    pub fault_latency: u32,
}

impl CpuConfig {
    /// The paper's default configuration (Table 1).
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            ruu_size: 64,
            lsq_size: 32,
            fetch_queue: 8,
            fetch_width: 4,
            decode_width: 4,
            issue_width: 4,
            commit_width: 4,
            int_alu: 4,
            int_mul: 1,
            fp_alu: 4,
            fp_mul: 1,
            predictor: PredictorConfig::default(),
            mispredict_penalty: 7,
            il1: CacheConfig::default_il1(),
            dl1: CacheConfig::default_dl1(),
            l2: CacheConfig::default_l2(),
            dtlb: TlbConfig::default_dtlb(),
            dram: DramConfig::default(),
            geometry: PageGeometry::default_4k(),
            fault_latency: 0,
        }
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::default_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let c = CpuConfig::default_config();
        assert_eq!(c.ruu_size, 64);
        assert_eq!(c.lsq_size, 32);
        assert_eq!(c.fetch_queue, 8);
        assert_eq!(
            (c.fetch_width, c.decode_width, c.issue_width, c.commit_width),
            (4, 4, 4, 4)
        );
        assert_eq!((c.int_alu, c.int_mul, c.fp_alu, c.fp_mul), (4, 1, 4, 1));
        assert_eq!(c.mispredict_penalty, 7);
        assert_eq!(c.il1.organization.size_bytes, 8 * 1024);
        assert_eq!(c.il1.organization.associativity, 1);
        assert_eq!(c.dl1.organization.associativity, 2);
        assert_eq!(c.l2.organization.size_bytes, 1024 * 1024);
        assert_eq!(c.dtlb.organization.entries, 128);
        assert_eq!(c.geometry.page_bytes(), 4096);
    }
}
