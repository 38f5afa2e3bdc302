//! A warm artifact-store lookup allocates only the value it returns: the
//! index is looked up by borrowed strings, and each record is read into
//! one buffer, which becomes the value.
//!
//! This file is a test binary of its own because it installs a counting
//! global allocator. The allocator counts per thread, and a count covers
//! only the calling thread, so other tests running beside it cannot move
//! it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;

use cfr_sim::types::{ArtifactStore, GcPolicy, NS_RUNS};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting each allocation and reallocation on the calling
/// thread.
struct Counting;

fn count() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments to the same method of
// `System`, so it keeps `GlobalAlloc`'s contract as `System` does.
// Counting touches only a const-initialized thread-local `Cell` without a
// destructor, which neither allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_warm_lookup_allocates_only_its_value() {
    const N: usize = 64;
    let dir = std::env::temp_dir().join(format!("cfr-store-allocs-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let key = |i: usize| format!("runkey {i} scale 60000 1 base vipt");
    let value = |i: usize| format!("report {i} {}", "0x3ff0000000000000 ".repeat(i % 9 + 1));
    let store = ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap();
    for i in 0..N {
        store.save(NS_RUNS, &key(i), value(i).trim_end());
    }
    drop(store);

    let store = ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap();
    let present: Vec<(String, String)> = (0..N).map(|i| (NS_RUNS.into(), key(i))).collect();
    let absent: Vec<(String, String)> = (0..N)
        .map(|i| (NS_RUNS.into(), format!("runkey {i} absent")))
        .collect();
    // The first read of a shard opens its handle by path; open them all.
    let _ = store.load_many(&present);

    let (values, allocs) = allocations(|| store.load_many(&present));
    for (i, got) in values.iter().enumerate() {
        assert_eq!(got.as_deref(), Some(value(i).trim_end()), "key {i}");
    }
    assert!(
        allocs <= N as u64 + 1,
        "{allocs} allocations to load {N} present keys: one per value and the result"
    );

    let (misses, allocs) = allocations(|| store.load_many(&absent));
    assert!(misses.iter().all(Option::is_none));
    assert!(
        allocs <= 1,
        "{allocs} allocations to look {N} absent keys up: only the result"
    );
    let _ = fs::remove_dir_all(&dir);
}
