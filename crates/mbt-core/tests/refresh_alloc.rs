//! Regression test for the satellite fix: `refresh_popularities` and
//! `expire` used to clone the **entire** URI keyspace into a `Vec<Uri>` on
//! every call (and re-insert every popularity key), i.e. ~100k `Arc` bumps
//! plus a multi-megabyte scratch vector per daily refresh on a large server.
//! The sharded server walks each shard's records in place instead.
//!
//! A counting global allocator measures the bytes the calling thread
//! allocates *during* the refresh on a 10⁵-record server (the server is
//! single-threaded, so nothing escapes the per-thread tally). The old
//! implementation allocated at least `100_000 × size_of::<Uri>()` (1.6 MB)
//! for the keyspace clone alone; the rewrite stays within a small fixed
//! budget that only covers the estimator's per-requested-URI scratch —
//! proving URIs are neither cloned wholesale nor re-interned.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dtn_trace::{NodeId, SimTime};
use mbt_core::{Metadata, MetadataServer, Popularity, Uri};

struct CountingAllocator;

thread_local! {
    /// (bytes, allocations) requested by this thread. Per-thread, so tests
    /// running in parallel never count each other's allocations.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: never panic inside the allocator, thread teardown included.
    let _ = ALLOCATED.try_with(|c| {
        let (b, n) = c.get();
        c.set((b + bytes as u64, n + 1));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// tally only touches a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns (bytes, allocations) it performed on this thread.
fn allocation_of<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let (bytes_before, count_before) = ALLOCATED.with(Cell::get);
    let out = f();
    let (bytes_after, count_after) = ALLOCATED.with(Cell::get);
    (bytes_after - bytes_before, count_after - count_before, out)
}

const RECORDS: usize = 100_000;
const REQUESTED: usize = 8;

fn build_server(shards: usize) -> MetadataServer {
    let mut server = MetadataServer::with_shards(20, shards);
    for i in 0..RECORDS {
        let uri = Uri::new(format!("mbt://alloc/file-{i}")).unwrap();
        let meta = Metadata::builder(format!("file {i} news"), "FOX", uri).build();
        server.publish(meta, Popularity::new((i % 100) as f64 / 100.0));
    }
    // A handful of requested URIs: the estimator's only legitimate scratch.
    let t = SimTime::from_secs(1_000);
    for i in 0..REQUESTED {
        let uri = Uri::new(format!("mbt://alloc/file-{i}")).unwrap();
        server.record_request(&uri, NodeId::new(i as u32), t);
        server.record_request(&uri, NodeId::new((i + 1) as u32), t);
    }
    server
}

#[test]
fn refresh_on_a_100k_record_server_does_not_clone_the_keyspace() {
    for shards in [1, 8] {
        let mut server = build_server(shards);
        let now = SimTime::from_secs(2_000);
        // Warm once: BTreeMap node churn from the very first in-place walk
        // settles, matching steady-state daily refreshes.
        server.refresh_popularities(now);

        let (bytes, allocs, ()) = allocation_of(|| {
            server.refresh_popularities(now);
        });

        // The old implementation's keyspace clone alone was
        // RECORDS * size_of::<Uri>() = 1.6 MB before counting the string
        // re-interning it fed. Budget: the estimator's per-requested-URI
        // scratch plus slack — two orders of magnitude below the clone.
        let budget = 16 * 1024;
        assert!(
            bytes < budget,
            "refresh with {shards} shards allocated {bytes} bytes \
             ({allocs} allocations); keyspace is being cloned again"
        );
        // And nothing about the refresh scales with the record count: a
        // second refresh allocates the same small scratch.
        let (bytes_again, _, ()) = allocation_of(|| {
            server.refresh_popularities(now);
        });
        assert!(
            bytes_again < budget,
            "repeat refresh allocated {bytes_again}"
        );

        // The refresh actually did its job.
        let hot = Uri::new("mbt://alloc/file-0").unwrap();
        let cold = Uri::new("mbt://alloc/file-99999").unwrap();
        assert!(server.popularity_of(&hot).value() > 0.0);
        assert_eq!(server.popularity_of(&cold), Popularity::MIN);
    }
}

#[test]
fn expire_with_nothing_expired_allocates_nothing_per_record() {
    // No record carries a TTL, so the expiry pass must be a read-only scan:
    // no expired-URI vector proportional to the keyspace, no shard copies.
    let mut server = build_server(8);
    let (bytes, _, dropped) = allocation_of(|| server.expire(SimTime::from_days(3_650)));
    assert_eq!(dropped, 0);
    assert!(
        bytes < 4 * 1024,
        "no-op expire allocated {bytes} bytes on a {RECORDS}-record server"
    );
    assert_eq!(server.len(), RECORDS);
}
