//! # cfr-mem
//!
//! The memory-hierarchy substrate of `cfr-sim`: set-associative write-back
//! caches, single- and two-level TLBs, a page table, and a DRAM latency
//! model — everything the paper's Table 1 configures.
//!
//! These are *behavioural* models: they answer hit/miss, produce
//! translations, evictions and latencies, and count events. Energy is
//! charged by the caller using `cfr-energy`, keyed off the same
//! [`cfr_types::TlbOrganization`] / [`cfr_types::CacheOrganization`] shapes,
//! so behaviour and energy can never describe different structures.
//!
//! ```
//! use cfr_mem::{Cache, CacheConfig, PageTable, Tlb, TlbConfig};
//! use cfr_types::{Protection, TlbOrganization, Vpn};
//!
//! // The paper's default 32-entry fully-associative iTLB.
//! let mut itlb = Tlb::new(TlbConfig {
//!     organization: TlbOrganization::fully_associative(32),
//!     miss_penalty: 50,
//! });
//! let mut pt = PageTable::new();
//! let first = itlb.lookup(Vpn::new(7), &mut pt, Protection::code());
//! assert!(!first.hit);
//! let again = itlb.lookup(Vpn::new(7), &mut pt, Protection::code());
//! assert!(again.hit);
//! assert_eq!(first.pfn, again.pfn);
//! ```

mod cache;
mod dram;
mod page_table;
#[cfg(test)]
mod proptests;
mod tlb;

pub use cache::{AccessKind, AccessResult, Cache, CacheConfig, CacheStats};
pub use cfr_types::AddressingMode;
pub use dram::{Dram, DramConfig};
pub use page_table::PageTable;
pub use tlb::{Tlb, TlbConfig, TlbLookup, TlbStats, TwoLevelLookup, TwoLevelTlb};
