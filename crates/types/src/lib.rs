//! # cfr-types
//!
//! Address, page, and protection newtypes shared by every crate in the
//! `cfr-sim` workspace (a reproduction of Kadayif et al., *"Generating
//! Physical Addresses Directly for Saving Instruction TLB Energy"*,
//! MICRO 2002).
//!
//! The types here enforce the distinction the paper's whole mechanism rests
//! on: a **virtual address** splits into a *virtual page number* ([`Vpn`])
//! and a *page offset*; translation replaces the [`Vpn`] with a *physical
//! frame number* ([`Pfn`]) while the offset passes through untouched. The
//! Current Frame Register holds exactly one `(Vpn, Pfn, Protection)` triple.
//!
//! ```
//! use cfr_types::{PageGeometry, VirtAddr, Pfn};
//!
//! let geom = PageGeometry::new(4096).unwrap();
//! let va = VirtAddr::new(0x0001_2345);
//! assert_eq!(geom.vpn(va).raw(), 0x12);
//! assert_eq!(geom.offset(va), 0x345);
//! let pa = geom.join(Pfn::new(0x99), geom.offset(va));
//! assert_eq!(pa.raw(), 0x0009_9345);
//! ```

#![forbid(unsafe_code)]

mod addr;
pub mod chaos;
pub mod net;
mod org;
mod page;
mod protection;
pub mod record;
pub mod store;

pub use addr::{Pfn, PhysAddr, VirtAddr, Vpn};
pub use chaos::{
    BackendFault, ChaosBackend, ChaosProxy, FaultPlan, ProxyFault, SplitMix64, CHAOS_PLAN_ENV,
    CHAOS_SEED_ENV,
};
pub use net::{
    claim_lease, store_addr_from_env, HealthReport, LayeredStore, RemoteStore, Request, Response,
    ServerConfig, StoreServer, StoreStats, CLAIM_LEASE_ENV, DEFAULT_DAEMON_ADDR, MAX_FRAME_ENV,
    STORE_ADDR_ENV,
};
pub use org::{AddressingMode, CacheOrganization, TlbOrganization};
pub use page::{PageGeometry, PageGeometryError};
pub use protection::Protection;
pub use record::{fnv1a64, RecordError, RecordReader, RecordWriter};
pub use store::{
    store_dir_from_env, ArtifactStore, ClaimOutcome, FsyncPolicy, GcPolicy, GcReport,
    NamespaceCounts, ShardOccupancy, StoreBackend, StoreLock, DEFAULT_STORE_DIR, LOCK_FILE_NAME,
    NAMESPACES, NS_PROGRAMS, NS_RUNS, NS_SCENARIOS, NS_TRACES, NS_WALKS, SHARD_COUNT,
    STORE_DIR_ENV, STORE_FORMAT_VERSION, STORE_FSYNC_ENV, STORE_MAX_AGE_ENV, STORE_MAX_BYTES_ENV,
};

/// Number of bytes every instruction occupies in the synthetic ISA.
///
/// The paper assumes instructions are aligned so a single instruction never
/// crosses a page boundary; a fixed 4-byte encoding (as in the Alpha ISA that
/// SimpleScalar models) guarantees that for any power-of-two page size ≥ 4.
pub const INSTRUCTION_BYTES: u64 = 4;
