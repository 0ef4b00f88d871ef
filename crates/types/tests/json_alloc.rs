//! Allocation budget of the upload codec: encoding or decoding one
//! 2,000-record batch allocates for the output buffer's growth, never per
//! record or per field.

mod common;

use pingmesh_types::ProbeRecord;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the current thread's allocations, so the test harness's own
/// threads cannot perturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MAX_ALLOCS: u64 = 64;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_2000_record_batch_encodes_and_decodes_within_64_allocations() {
    let batch = common::batch(2_000, 7);
    let (body, encode) = allocations(|| serde_json::to_vec(&batch).unwrap());
    let (back, decode) = allocations(|| serde_json::from_slice::<Vec<ProbeRecord>>(&body).unwrap());
    assert_eq!(back, batch);
    assert!(encode <= MAX_ALLOCS, "encode took {encode} allocations");
    assert!(decode <= MAX_ALLOCS, "decode took {decode} allocations");
}
