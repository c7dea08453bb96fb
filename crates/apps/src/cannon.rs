//! Cannon's distributed dense matrix multiplication — the paper's
//! "simultaneous communication" application (§4, §5.1).
//!
//! `P` workers are arranged in a `√P × √P` grid.  Each holds one block of
//! `A`, `B` and `C`; after an initial alignment, the algorithm performs `√P`
//! rounds of local multiply-accumulate followed by a simultaneous rotation of
//! the `A` blocks left and the `B` blocks up, implemented with
//! `sendrecv_replace` in both the DCGN and the GAS+MPI variants.

use std::sync::Arc;
use std::time::Duration;

use dcgn::{CostModel, DcgnConfig, DcgnError, NodeConfig, Runtime};
use dcgn_dpm::{Device, DeviceConfig};
use dcgn_rmpi::{MpiWorld, RankPlacement};
use dcgn_simtime::Clock;
use parking_lot::Mutex;

/// Deterministic test matrices: `A[i][j]` and `B[i][j]` as simple functions
/// of the indices, so every worker can generate its own block and the master
/// can verify the product against a sequential reference.
pub fn gen_a(i: usize, j: usize) -> f32 {
    ((i * 7 + j * 3) % 13) as f32 / 13.0
}

/// See [`gen_a`].
pub fn gen_b(i: usize, j: usize) -> f32 {
    ((i * 5 + j * 11) % 17) as f32 / 17.0 - 0.5
}

/// Row-major sequential reference product of the generated matrices.
pub fn matmul_reference(n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; n * n];
    for i in 0..n {
        for k in 0..n {
            let a = gen_a(i, k);
            for j in 0..n {
                c[i * n + j] += a * gen_b(k, j);
            }
        }
    }
    c
}

/// Multiply-accumulate of two `bs × bs` blocks: `c += a × b`.
pub fn block_multiply_accumulate(c: &mut [f32], a: &[f32], b: &[f32], bs: usize) {
    for i in 0..bs {
        for k in 0..bs {
            let av = a[i * bs + k];
            for j in 0..bs {
                c[i * bs + j] += av * b[k * bs + j];
            }
        }
    }
}

/// Generate the block of `A` (after the initial Cannon alignment) owned by
/// grid position `(row, col)` on a `q × q` grid with block size `bs`.
fn aligned_a_block(row: usize, col: usize, q: usize, bs: usize) -> Vec<f32> {
    let src_col = (col + row) % q;
    let mut block = Vec::with_capacity(bs * bs);
    for i in 0..bs {
        for j in 0..bs {
            block.push(gen_a(row * bs + i, src_col * bs + j));
        }
    }
    block
}

/// Generate the block of `B` (after the initial Cannon alignment) owned by
/// grid position `(row, col)`.
fn aligned_b_block(row: usize, col: usize, q: usize, bs: usize) -> Vec<f32> {
    let src_row = (row + col) % q;
    let mut block = Vec::with_capacity(bs * bs);
    for i in 0..bs {
        for j in 0..bs {
            block.push(gen_b(src_row * bs + i, col * bs + j));
        }
    }
    block
}

fn f32s_to_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn bytes_to_f32s(b: &[u8]) -> Vec<f32> {
    b.chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Result of a distributed Cannon run.
#[derive(Debug, Clone)]
pub struct CannonRun {
    /// The full `n × n` product matrix assembled at the master.
    pub c: Vec<f32>,
    /// Wall-clock time of the distributed run.
    pub elapsed: Duration,
    /// Number of workers (`P`, a perfect square).
    pub workers: usize,
    /// Matrix dimension.
    pub n: usize,
}

impl CannonRun {
    /// Maximum absolute difference to the sequential reference product.
    pub fn max_error(&self) -> f32 {
        let reference = matmul_reference(self.n);
        self.c
            .iter()
            .zip(&reference)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }
}

fn grid_side(p: usize) -> usize {
    let q = (p as f64).sqrt().round() as usize;
    assert_eq!(
        q * q,
        p,
        "Cannon needs a perfect-square worker count, got {p}"
    );
    q
}

/// Cannon's algorithm with DCGN: rank 0 is a CPU master collecting the
/// result; ranks `1..=P` are GPU slots holding the blocks in device memory
/// and rotating them with device-side `sendrecv_replace`.
///
/// The grid topology uses genuine row/column communicators (the
/// `MPI_Comm_split` idiom): every worker splits the world twice — by row
/// with the column as key, and by column with the row as key — and reads its
/// rotation neighbours out of the resulting member tables.  The master joins
/// both splits with a sentinel color, landing in singleton groups.
pub fn run_dcgn_gpu(
    n: usize,
    p: usize,
    num_nodes: usize,
    cost: CostModel,
) -> Result<CannonRun, DcgnError> {
    let q = grid_side(p);
    assert!(
        n.is_multiple_of(q),
        "matrix dimension {n} must be divisible by {q}"
    );
    let bs = n / q;
    let block_bytes = bs * bs * 4;

    // Distribute P GPU slots over the nodes: every node gets one GPU with
    // ceil(P / nodes) slots (the last may have fewer via rank count).
    assert!(
        p.is_multiple_of(num_nodes),
        "worker count {p} must be divisible by node count {num_nodes}"
    );
    let slots_per_node = p / num_nodes;
    let mut nodes = Vec::new();
    for node in 0..num_nodes {
        let cpus = if node == 0 { 1 } else { 0 };
        nodes.push(
            NodeConfig::new(cpus, 1, slots_per_node).with_device(
                DeviceConfig::default()
                    .with_multiprocessors(slots_per_node.max(2))
                    .with_memory_bytes((4 * block_bytes * slots_per_node + (1 << 20)).max(8 << 20)),
            ),
        );
    }
    let config = DcgnConfig::heterogeneous(nodes).with_cost(cost);
    let runtime = Runtime::new(config)?;

    let result: Arc<Mutex<Option<Vec<f32>>>> = Arc::new(Mutex::new(None));
    let result_master = Arc::clone(&result);

    let report = runtime.launch_with_gpu_setup(
        // Master: collect the C blocks and assemble the full matrix.
        move |ctx| {
            if ctx.rank() != 0 {
                return;
            }
            // The splits are collective over the world, so the master
            // participates too; its sentinel color gives singleton groups.
            let row_comm = ctx.comm_split(u32::MAX, 0).expect("master row split");
            let col_comm = ctx.comm_split(u32::MAX, 0).expect("master col split");
            assert_eq!((row_comm.size(), col_comm.size()), (1, 1));
            let mut c = vec![0.0f32; n * n];
            for _ in 0..p {
                let (msg, _) = ctx.recv_any().expect("master recv C block");
                let worker = u32::from_le_bytes(msg[0..4].try_into().unwrap()) as usize;
                let block = bytes_to_f32s(&msg[4..]);
                let (row, col) = ((worker - 1) / q, (worker - 1) % q);
                for i in 0..bs {
                    for j in 0..bs {
                        c[(row * bs + i) * n + col * bs + j] = block[i * bs + j];
                    }
                }
            }
            *result_master.lock() = Some(c);
        },
        // Per-GPU setup: stage the aligned A and B blocks, a zero C block
        // and the two communicator tables for every slot on this device.
        move |setup| {
            let dev = setup.device();
            let tbl_len = 16 + 4 * setup.size();
            let mut per_slot = Vec::new();
            for slot in 0..setup.slots() {
                let worker = setup.slot_rank(slot) - 1;
                let (row, col) = (worker / q, worker % q);
                let a = dev.malloc(block_bytes).expect("A block");
                let b = dev.malloc(block_bytes).expect("B block");
                let c = dev.malloc(block_bytes + 4).expect("C block + header");
                let row_tbl = dev.malloc(tbl_len).expect("row comm table");
                let col_tbl = dev.malloc(tbl_len).expect("column comm table");
                dev.memcpy_htod(a, &f32s_to_bytes(&aligned_a_block(row, col, q, bs)))
                    .expect("stage A");
                dev.memcpy_htod(b, &f32s_to_bytes(&aligned_b_block(row, col, q, bs)))
                    .expect("stage B");
                dev.memcpy_htod(c, &vec![0u8; block_bytes + 4])
                    .expect("zero C");
                per_slot.push((a, b, c, row_tbl, col_tbl));
            }
            per_slot
        },
        // Worker kernel: √P rounds of multiply-accumulate + rotation.
        move |ctx, buffers| {
            let slot = ctx.slot_for_block();
            if ctx.block().block_id() >= ctx.slots() {
                return;
            }
            let me = ctx.rank(slot);
            let worker = me - 1;
            let (row, col) = (worker / q, worker % q);
            let (a_ptr, b_ptr, c_ptr, row_tbl, col_tbl) = buffers[slot];
            let block = ctx.block();

            // Row/column communicators: split by row keyed on column (so
            // the row comm's sub-rank IS the column) and vice versa.
            let tbl_len = 16 + 4 * ctx.size();
            let row_comm = ctx.split(slot, row as u32, col as u32, row_tbl, tbl_len);
            let col_comm = ctx.split(slot, col as u32, row as u32, col_tbl, tbl_len);
            assert_eq!((row_comm.rank, row_comm.size), (col, q));
            assert_eq!((col_comm.rank, col_comm.size), (row, q));
            // Align each row before the rounds start: q disjoint
            // communicators synchronising concurrently.
            ctx.barrier_in(slot, &row_comm);

            // Neighbours for the rotation come from the member tables: A
            // goes left along the row, B up along the column (wraparound).
            let left = ctx.comm_member(&row_comm, (col + q - 1) % q);
            let right = ctx.comm_member(&row_comm, (col + 1) % q);
            let up = ctx.comm_member(&col_comm, (row + q - 1) % q);
            let down = ctx.comm_member(&col_comm, (row + 1) % q);

            let mut c_acc = vec![0.0f32; bs * bs];
            for step in 0..q {
                let a = block.read_f32_slice(a_ptr, bs * bs);
                let b = block.read_f32_slice(b_ptr, bs * bs);
                block_multiply_accumulate(&mut c_acc, &a, &b, bs);
                if step + 1 < q {
                    // Simultaneous rotation; sendrecv_replace keeps the
                    // symmetric exchange deadlock-free.
                    ctx.sendrecv_replace(slot, left, right, a_ptr, block_bytes);
                    ctx.sendrecv_replace(slot, up, down, b_ptr, block_bytes);
                }
            }
            // Ship the finished block to the master: [worker u32][block f32s].
            let mut msg = Vec::with_capacity(4 + block_bytes);
            msg.extend_from_slice(&(me as u32).to_le_bytes());
            msg.extend_from_slice(&f32s_to_bytes(&c_acc));
            block.write(c_ptr, &msg);
            ctx.send(slot, 0, c_ptr, msg.len());
        },
        |_setup, _buffers| {},
    )?;
    let elapsed = report.elapsed;
    let c = result
        .lock()
        .take()
        .ok_or_else(|| DcgnError::Internal("master produced no matrix".into()))?;
    Ok(CannonRun {
        c,
        elapsed,
        workers: p,
        n,
    })
}

/// GAS+MPI Cannon baseline: each worker owns a device, launches one
/// multiply kernel per round, and the host performs the rotations with MPI
/// `sendrecv_replace` between kernel invocations.
pub fn run_gas(n: usize, p: usize, num_nodes: usize, cost: CostModel) -> CannonRun {
    let q = grid_side(p);
    assert!(n.is_multiple_of(q));
    let bs = n / q;
    let block_bytes = bs * bs * 4;
    // Rank 0 is the master, ranks 1..=p are workers.
    let placement = RankPlacement::round_robin(num_nodes, p + 1);
    let clock = Clock::from(cost);
    let start = clock.now();
    let results = MpiWorld::run(&placement, cost, move |mut comm| {
        if comm.rank() == 0 {
            let mut c = vec![0.0f32; n * n];
            for _ in 0..p {
                let (msg, status) = comm.recv(None, Some(7)).unwrap();
                let worker = status.source - 1;
                let block = bytes_to_f32s(msg.as_slice());
                let (row, col) = (worker / q, worker % q);
                for i in 0..bs {
                    for j in 0..bs {
                        c[(row * bs + i) * n + col * bs + j] = block[i * bs + j];
                    }
                }
            }
            Some(c)
        } else {
            let worker = comm.rank() - 1;
            let (row, col) = (worker / q, worker % q);
            let left = 1 + row * q + (col + q - 1) % q;
            let right = 1 + row * q + (col + 1) % q;
            let up = 1 + ((row + q - 1) % q) * q + col;
            let down = 1 + ((row + 1) % q) * q + col;

            // GPU-as-slave: blocks live on the device; the host pulls them
            // back for every communication step.
            let device = Device::new(
                comm.rank(),
                DeviceConfig::default().with_memory_bytes((4 * block_bytes).max(8 << 20)),
                cost,
            );
            let a_ptr = device.malloc(block_bytes).unwrap();
            let b_ptr = device.malloc(block_bytes).unwrap();
            device
                .memcpy_htod(a_ptr, &f32s_to_bytes(&aligned_a_block(row, col, q, bs)))
                .unwrap();
            device
                .memcpy_htod(b_ptr, &f32s_to_bytes(&aligned_b_block(row, col, q, bs)))
                .unwrap();
            let c_acc = Arc::new(Mutex::new(vec![0.0f32; bs * bs]));
            for step in 0..q {
                let acc = Arc::clone(&c_acc);
                device
                    .launch_sync(1, 32, move |block| {
                        let a = block.read_f32_slice(a_ptr, bs * bs);
                        let b = block.read_f32_slice(b_ptr, bs * bs);
                        block_multiply_accumulate(&mut acc.lock(), &a, &b, bs);
                    })
                    .unwrap();
                if step + 1 < q {
                    // Host-mediated rotation: device → host → MPI → device.
                    let mut a_host = device.memcpy_dtoh_vec(a_ptr, block_bytes).unwrap();
                    comm.sendrecv_replace(&mut a_host, left, 1, Some(right), Some(1))
                        .unwrap();
                    device.memcpy_htod(a_ptr, &a_host).unwrap();
                    let mut b_host = device.memcpy_dtoh_vec(b_ptr, block_bytes).unwrap();
                    comm.sendrecv_replace(&mut b_host, up, 2, Some(down), Some(2))
                        .unwrap();
                    device.memcpy_htod(b_ptr, &b_host).unwrap();
                }
            }
            let final_c = c_acc.lock().clone();
            comm.send(0, 7, &f32s_to_bytes(&final_c)).unwrap();
            None
        }
    });
    let elapsed = clock.elapsed(start);
    let c = results.into_iter().flatten().next().expect("master result");
    CannonRun {
        c,
        elapsed,
        workers: p,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matmul_is_consistent() {
        // (A·B) computed blockwise equals the reference for a small case.
        let n = 8;
        let reference = matmul_reference(n);
        // Recompute with block_multiply_accumulate over 2x2 blocks of size 4.
        let q = 2;
        let bs = n / q;
        let mut c = vec![0.0f32; n * n];
        for brow in 0..q {
            for bcol in 0..q {
                let mut acc = vec![0.0f32; bs * bs];
                for k in 0..q {
                    let mut a = Vec::new();
                    let mut b = Vec::new();
                    for i in 0..bs {
                        for j in 0..bs {
                            a.push(gen_a(brow * bs + i, k * bs + j));
                            b.push(gen_b(k * bs + i, bcol * bs + j));
                        }
                    }
                    block_multiply_accumulate(&mut acc, &a, &b, bs);
                }
                for i in 0..bs {
                    for j in 0..bs {
                        c[(brow * bs + i) * n + bcol * bs + j] = acc[i * bs + j];
                    }
                }
            }
        }
        for (x, y) in c.iter().zip(&reference) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn aligned_blocks_cover_the_matrices() {
        // The union of aligned blocks is a permutation of the original
        // matrix entries (alignment only shifts whole blocks).
        let q = 2;
        let bs = 3;
        let mut seen_a = Vec::new();
        for row in 0..q {
            for col in 0..q {
                seen_a.extend(aligned_a_block(row, col, q, bs));
            }
        }
        let mut all_a = Vec::new();
        for i in 0..q * bs {
            for j in 0..q * bs {
                all_a.push(gen_a(i, j));
            }
        }
        seen_a.sort_by(f32::total_cmp);
        all_a.sort_by(f32::total_cmp);
        assert_eq!(seen_a, all_a);
    }

    #[test]
    fn dcgn_cannon_matches_reference_2x2() {
        let run = run_dcgn_gpu(16, 4, 1, CostModel::zero()).unwrap();
        assert_eq!(run.workers, 4);
        assert!(run.max_error() < 1e-4, "max error {}", run.max_error());
    }

    #[test]
    fn dcgn_cannon_multi_node() {
        let run = run_dcgn_gpu(16, 4, 2, CostModel::zero()).unwrap();
        assert!(run.max_error() < 1e-4);
    }

    #[test]
    fn gas_cannon_matches_reference() {
        let run = run_gas(16, 4, 2, CostModel::zero());
        assert!(run.max_error() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "perfect-square")]
    fn non_square_worker_count_is_rejected() {
        let _ = grid_side(3);
    }
}
