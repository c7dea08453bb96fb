//! Heap allocations per message, counted: a counting global allocator under
//! whole launches, so what a message costs the heap is an exact count,
//! however noisy the wall clock.
//!
//! Each shape runs a short and a long job under `CostModel::zero()` (after
//! a warm-up job that pays every one-time allocation), and the difference
//! divided by the difference in operations is the steady-state count per
//! operation: setup and teardown cancel.  Everything runs in the one test
//! of this binary, one job after another, so nothing else allocates in the
//! process while a job is counted.
//!
//! The ceilings sit a little above what the debug profile (plain `cargo test`)
//! reads: a change that makes a message allocate more fails here, with the
//! size histogram of the extra allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dcgn::{CostModel, DcgnConfig, DevicePtr, Runtime};

/// Every allocation and reallocation, by the bit length of its size.
static BY_SIZE: [AtomicU64; 33] = [const { AtomicU64::new(0) }; 33];

struct Counting;

fn record(size: usize) {
    let bucket = (usize::BITS - size.leading_zeros()).min(32) as usize;
    BY_SIZE[bucket].fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn histogram() -> [u64; 33] {
    std::array::from_fn(|bucket| BY_SIZE[bucket].load(Ordering::Relaxed))
}

/// Allocations by size bucket made while `job(ops)` ran.
fn count(job: fn(usize), ops: usize) -> [u64; 33] {
    let before = histogram();
    job(ops);
    let after = histogram();
    std::array::from_fn(|bucket| after[bucket] - before[bucket])
}

/// A shape's steady-state allocations per operation, and the per-bucket
/// difference between its long and short job.
fn per_op(job: fn(usize)) -> (f64, Vec<(String, i64)>) {
    const SHORT: usize = 100;
    const LONG: usize = 600;
    job(SHORT);
    let short = count(job, SHORT);
    let long = count(job, LONG);
    let extra: Vec<i64> = (0..33).map(|b| long[b] as i64 - short[b] as i64).collect();
    let total: i64 = extra.iter().sum();
    let buckets = extra
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n != 0)
        .map(|(bucket, &n)| {
            let range = match bucket {
                0 => "0 B".to_string(),
                b => format!("{}..{} B", 1u64 << (b - 1), 1u64 << b),
            };
            (range, n)
        })
        .collect();
    (total as f64 / (LONG - SHORT) as f64, buckets)
}

fn zero_cost(nodes: usize, cpus: usize, gpus: usize, slots: usize) -> Runtime {
    Runtime::new(DcgnConfig::homogeneous(nodes, cpus, gpus, slots).with_cost(CostModel::zero()))
        .unwrap()
}

/// 2 nodes × 1 CPU rank bounce a 64 B message `ops` times.
fn cpu_pingpong(ops: usize) {
    zero_cost(2, 1, 0, 0)
        .launch_cpu_only(move |ctx| {
            let msg = [7u8; 64];
            for _ in 0..ops {
                if ctx.rank() == 0 {
                    ctx.send(1, &msg).unwrap();
                    ctx.recv(1).unwrap();
                } else {
                    let (data, _) = ctx.recv(0).unwrap();
                    ctx.send(0, &data).unwrap();
                }
            }
        })
        .unwrap();
}

/// 2 nodes × 1 GPU × 1 slot bounce a 64 B message `ops` times from device
/// memory.
fn gpu_pingpong(ops: usize) {
    zero_cost(2, 0, 1, 1)
        .launch_gpu_only(move |ctx| {
            if ctx.block().block_id() != 0 {
                return;
            }
            let buf = DevicePtr::NULL.add(1 << 20);
            let peer = 1 - ctx.rank(0);
            for _ in 0..ops {
                if ctx.rank(0) == 0 {
                    ctx.send(0, peer, buf, 64);
                    ctx.recv(0, peer, buf, 64);
                } else {
                    ctx.recv(0, peer, buf, 64);
                    ctx.send(0, peer, buf, 64);
                }
            }
        })
        .unwrap();
}

/// 2 nodes × 1 CPU rank: rank 0 sends 32 × 1 KiB under 32 tags and waits
/// for all of them, rank 1 posts the 32 receives, waits for all of them
/// and acks with 0 B; `ops` windows.
fn window(ops: usize) {
    const MSGS: u32 = 32;
    zero_cost(2, 1, 0, 0)
        .launch_cpu_only(move |ctx| {
            let msg = [3u8; 1024];
            for _ in 0..ops {
                if ctx.rank() == 0 {
                    let reqs: Vec<_> = (0..MSGS)
                        .map(|tag| ctx.isend_tagged(1, tag, &msg).unwrap())
                        .collect();
                    ctx.waitall(&reqs).unwrap();
                    ctx.recv_tagged(Some(1), MSGS).unwrap();
                } else {
                    let reqs: Vec<_> = (0..MSGS)
                        .map(|tag| ctx.irecv_tagged(Some(0), tag).unwrap())
                        .collect();
                    ctx.waitall(&reqs).unwrap();
                    ctx.send_tagged(0, MSGS, &[]).unwrap();
                }
            }
        })
        .unwrap();
}

/// A traffic shape: its name, its job of `ops` operations, and its
/// ceiling in allocations per operation.
type Shape = (&'static str, fn(usize), f64);

#[test]
fn a_message_allocates_at_most_a_pinned_count() {
    let shapes: [Shape; 3] = [
        ("CPU ping-pong, 64 B", cpu_pingpong, 5.0),
        ("GPU ping-pong, 64 B", gpu_pingpong, 12.0),
        ("32 x 1 KiB window", window, 84.0),
    ];
    let mut over = Vec::new();
    for (name, job, ceiling) in shapes {
        let (count, buckets) = per_op(job);
        eprintln!("{name}: {count:.1} allocations per op (ceiling {ceiling})");
        if count > ceiling {
            over.push(format!(
                "{name}: {count:.1} allocations per op, ceiling {ceiling}; \
                 extra allocations of the long job by size: {buckets:?}"
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}
