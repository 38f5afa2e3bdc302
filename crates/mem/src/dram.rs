//! DRAM latency model.
//!
//! The paper's Table 1: 128 MB divided into 32 MB banks, 100-cycle access
//! latency. The model keeps per-bank access counters (useful for extension
//! studies) but charges a flat latency — exactly the fidelity sim-outorder's
//! `mem_access_latency` provides.

/// DRAM configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Bank size in bytes.
    pub bank_bytes: u64,
    /// Access latency in cycles.
    pub latency: u32,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 128 * 1024 * 1024,
            bank_bytes: 32 * 1024 * 1024,
            latency: 100,
        }
    }
}

/// The DRAM model.
#[derive(Clone, Debug)]
pub struct Dram {
    cfg: DramConfig,
    bank_accesses: Vec<u64>,
}

impl Dram {
    /// Builds a DRAM from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the bank size is zero or exceeds the capacity.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        assert!(
            cfg.bank_bytes > 0 && cfg.bank_bytes <= cfg.capacity_bytes,
            "bank size must be positive and no larger than capacity"
        );
        let banks = cfg.capacity_bytes.div_ceil(cfg.bank_bytes) as usize;
        Self {
            cfg,
            bank_accesses: vec![0; banks],
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Number of banks.
    #[must_use]
    pub fn banks(&self) -> usize {
        self.bank_accesses.len()
    }

    /// Performs one access, returning its latency in cycles.
    pub fn access(&mut self, addr: u64) -> u32 {
        let bank = (addr / self.cfg.bank_bytes) as usize % self.bank_accesses.len();
        self.bank_accesses[bank] += 1;
        self.cfg.latency
    }

    /// Total accesses across banks.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.bank_accesses.iter().sum()
    }

    /// Accesses to one bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank_accesses(&self, bank: usize) -> u64 {
        self.bank_accesses[bank]
    }
}

impl Default for Dram {
    fn default() -> Self {
        Self::new(DramConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let d = Dram::default();
        assert_eq!(d.banks(), 4);
        assert_eq!(d.config().latency, 100);
    }

    #[test]
    fn access_returns_latency_and_counts() {
        let mut d = Dram::default();
        assert_eq!(d.access(0), 100);
        assert_eq!(d.access(33 * 1024 * 1024), 100);
        assert_eq!(d.total_accesses(), 2);
        assert_eq!(d.bank_accesses(0), 1);
        assert_eq!(d.bank_accesses(1), 1);
    }

    #[test]
    fn addresses_beyond_capacity_wrap() {
        let mut d = Dram::default();
        d.access(u64::MAX);
        assert_eq!(d.total_accesses(), 1);
    }

    #[test]
    #[should_panic(expected = "bank size")]
    fn zero_bank_panics() {
        let _ = Dram::new(DramConfig {
            capacity_bytes: 1024,
            bank_bytes: 0,
            latency: 1,
        });
    }
}
