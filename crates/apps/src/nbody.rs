//! Brute-force N-body simulation — the paper's "one-to-all" application
//! (§4, §5.1).
//!
//! `P` targets each own `N/P` bodies.  Every time step each target
//! accumulates the gravitational force of all `N` bodies on its share,
//! integrates, and then broadcasts its updated bodies to every other target.
//! The DCGN variant runs the force computation in GPU kernels and issues the
//! broadcasts from the device; the GAS variant launches one kernel per step
//! and lets the host broadcast between launches.

use std::sync::Arc;
use std::time::Duration;

use dcgn::{CostModel, DcgnConfig, DcgnError, NodeConfig, Runtime};
use dcgn_dpm::{Device, DeviceConfig};
use dcgn_rmpi::{MpiWorld, RankPlacement};
use dcgn_simtime::Clock;
use parking_lot::Mutex;

/// State of one body: position, velocity and mass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body {
    /// Position.
    pub pos: [f32; 3],
    /// Velocity.
    pub vel: [f32; 3],
    /// Mass.
    pub mass: f32,
}

/// Bytes used to serialise one body (7 × f32).
pub const BODY_BYTES: usize = 28;

/// Softening factor keeping the force finite at small separations.
pub const SOFTENING: f32 = 1e-2;

/// Integration time step.
pub const DT: f32 = 1e-3;

/// Deterministic initial condition: `n` bodies on a spiral with varying mass.
pub fn initial_bodies(n: usize) -> Vec<Body> {
    (0..n)
        .map(|i| {
            let t = i as f32 / n as f32;
            let angle = t * 12.0;
            Body {
                pos: [
                    angle.cos() * (0.1 + t),
                    angle.sin() * (0.1 + t),
                    0.2 * t - 0.1,
                ],
                vel: [-angle.sin() * 0.05, angle.cos() * 0.05, 0.0],
                mass: 0.5 + t,
            }
        })
        .collect()
}

/// Serialise bodies to little-endian bytes.
pub fn bodies_to_bytes(bodies: &[Body]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bodies.len() * BODY_BYTES);
    for b in bodies {
        for v in b
            .pos
            .iter()
            .chain(b.vel.iter())
            .chain(std::iter::once(&b.mass))
        {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Deserialise bodies from little-endian bytes.
pub fn bytes_to_bodies(bytes: &[u8]) -> Vec<Body> {
    assert!(bytes.len().is_multiple_of(BODY_BYTES));
    bytes
        .chunks_exact(BODY_BYTES)
        .map(|c| {
            let f = |i: usize| f32::from_le_bytes(c[i * 4..i * 4 + 4].try_into().unwrap());
            Body {
                pos: [f(0), f(1), f(2)],
                vel: [f(3), f(4), f(5)],
                mass: f(6),
            }
        })
        .collect()
}

/// Advance the bodies in `range` by one step under the gravity of `all`.
pub fn step_range(all: &[Body], range: std::ops::Range<usize>) -> Vec<Body> {
    let mut out = Vec::with_capacity(range.len());
    for i in range {
        let me = all[i];
        let mut acc = [0.0f32; 3];
        for other in all {
            let dx = other.pos[0] - me.pos[0];
            let dy = other.pos[1] - me.pos[1];
            let dz = other.pos[2] - me.pos[2];
            let dist2 = dx * dx + dy * dy + dz * dz + SOFTENING;
            let inv = 1.0 / (dist2 * dist2.sqrt());
            let s = other.mass * inv;
            acc[0] += dx * s;
            acc[1] += dy * s;
            acc[2] += dz * s;
        }
        let mut b = me;
        for (k, a) in acc.iter().enumerate() {
            b.vel[k] += a * DT;
            b.pos[k] += b.vel[k] * DT;
        }
        out.push(b);
    }
    out
}

/// Sequential reference simulation.
pub fn simulate_reference(n: usize, steps: usize) -> Vec<Body> {
    let mut bodies = initial_bodies(n);
    for _ in 0..steps {
        bodies = step_range(&bodies, 0..bodies.len());
    }
    bodies
}

/// Result of a distributed N-body run.
#[derive(Debug, Clone)]
pub struct NbodyRun {
    /// Final body states.
    pub bodies: Vec<Body>,
    /// Wall-clock time of the distributed run.
    pub elapsed: Duration,
    /// Number of workers.
    pub workers: usize,
}

impl NbodyRun {
    /// Maximum absolute position error versus the sequential reference.
    pub fn max_position_error(&self, steps: usize) -> f32 {
        let reference = simulate_reference(self.bodies.len(), steps);
        self.bodies
            .iter()
            .zip(&reference)
            .map(|(a, b)| {
                (0..3)
                    .map(|k| (a.pos[k] - b.pos[k]).abs())
                    .fold(0.0f32, f32::max)
            })
            .fold(0.0, f32::max)
    }
}

fn share(n: usize, p: usize, worker: usize) -> std::ops::Range<usize> {
    let per = n.div_ceil(p);
    let start = (worker * per).min(n);
    let end = ((worker + 1) * per).min(n);
    start..end
}

/// DCGN N-body: every GPU slot owns a share of the bodies; each step it
/// integrates its share on the device and the shares are exchanged with a
/// sequence of broadcasts sourced from the device (§4 "One-to-All").
pub fn run_dcgn_gpu(
    n: usize,
    p: usize,
    num_nodes: usize,
    steps: usize,
    cost: CostModel,
) -> Result<NbodyRun, DcgnError> {
    assert!(
        p.is_multiple_of(num_nodes),
        "workers must divide evenly over nodes"
    );
    let slots_per_node = p / num_nodes;
    let all_bytes = n * BODY_BYTES;
    let mut nodes = Vec::new();
    for node in 0..num_nodes {
        let cpus = if node == 0 { 1 } else { 0 };
        nodes.push(
            NodeConfig::new(cpus, 1, slots_per_node).with_device(
                DeviceConfig::default()
                    .with_multiprocessors(slots_per_node.max(2))
                    .with_memory_bytes((2 * all_bytes * slots_per_node + (1 << 20)).max(8 << 20)),
            ),
        );
    }
    let config = DcgnConfig::heterogeneous(nodes).with_cost(cost);
    let runtime = Runtime::new(config)?;

    let result: Arc<Mutex<Option<Vec<Body>>>> = Arc::new(Mutex::new(None));
    let result_master = Arc::clone(&result);
    let initial = Arc::new(initial_bodies(n));

    let report = runtime.launch_with_gpu_setup(
        // Master (CPU rank 0): participates in every broadcast so it always
        // holds the current state; stores the final result.
        move |ctx| {
            if ctx.rank() != 0 {
                return;
            }
            let mut bodies = (*initial).clone();
            for _ in 0..steps {
                for worker in 0..p {
                    let root = worker + 1;
                    let mut buf = Vec::new();
                    ctx.broadcast(root, &mut buf).expect("master broadcast");
                    let updated = bytes_to_bodies(&buf);
                    let range = share(n, p, worker);
                    bodies[range].copy_from_slice(&updated);
                }
            }
            *result_master.lock() = Some(bodies);
        },
        // Per-GPU setup: stage the full body array per slot.
        move |setup| {
            let dev = setup.device();
            let bodies = initial_bodies(n);
            let mut per_slot = Vec::new();
            for _ in 0..setup.slots() {
                let all = dev.malloc(all_bytes).expect("bodies buffer");
                dev.memcpy_htod(all, &bodies_to_bytes(&bodies))
                    .expect("stage bodies");
                per_slot.push(all);
            }
            per_slot
        },
        // Worker kernel.
        move |ctx, buffers| {
            let slot = ctx.slot_for_block();
            if ctx.block().block_id() >= ctx.slots() {
                return;
            }
            let me = ctx.rank(slot);
            let worker = me - 1;
            let my_range = share(n, p, worker);
            let all_ptr = buffers[slot];
            let block = ctx.block();
            for _ in 0..steps {
                // Integrate this worker's share against all bodies.
                let all_bytes_host = block.read_vec(all_ptr, all_bytes);
                let all = bytes_to_bodies(&all_bytes_host);
                let updated = step_range(&all, my_range.clone());
                let my_ptr = all_ptr.add(my_range.start * BODY_BYTES);
                block.write(my_ptr, &bodies_to_bytes(&updated));
                // Exchange shares: each worker broadcasts its slice in turn.
                for src_worker in 0..p {
                    let root = src_worker + 1;
                    let range = share(n, p, src_worker);
                    let ptr = all_ptr.add(range.start * BODY_BYTES);
                    ctx.broadcast(slot, root, ptr, range.len() * BODY_BYTES);
                }
            }
        },
        |_setup, _buffers| {},
    )?;
    let elapsed = report.elapsed;
    let bodies = result
        .lock()
        .take()
        .ok_or_else(|| DcgnError::Internal("master produced no bodies".into()))?;
    Ok(NbodyRun {
        bodies,
        elapsed,
        workers: p,
    })
}

/// GAS+MPI N-body baseline: one kernel launch per step, host-side
/// broadcasts of each worker's share between launches.
pub fn run_gas(n: usize, p: usize, num_nodes: usize, steps: usize, cost: CostModel) -> NbodyRun {
    let placement = RankPlacement::round_robin(num_nodes, p);
    let clock = Clock::from(cost);
    let start = clock.now();
    let results = MpiWorld::run(&placement, cost, move |mut comm| {
        let worker = comm.rank();
        let my_range = share(n, p, worker);
        let device = Device::new(
            comm.rank(),
            DeviceConfig::default().with_memory_bytes((2 * n * BODY_BYTES).max(8 << 20)),
            cost,
        );
        let all_ptr = device.malloc(n * BODY_BYTES).unwrap();
        device
            .memcpy_htod(all_ptr, &bodies_to_bytes(&initial_bodies(n)))
            .unwrap();
        for _ in 0..steps {
            // One kernel launch computes this worker's share on the device.
            let range = my_range.clone();
            device
                .launch_sync(1, 32, move |block| {
                    let all = bytes_to_bodies(&block.read_vec(all_ptr, n * BODY_BYTES));
                    let updated = step_range(&all, range.clone());
                    block.write(
                        all_ptr.add(range.start * BODY_BYTES),
                        &bodies_to_bytes(&updated),
                    );
                })
                .unwrap();
            // Host-mediated exchange: every worker broadcasts its share.
            for src_worker in 0..p {
                let range = share(n, p, src_worker);
                let mut buf = if src_worker == worker {
                    device
                        .memcpy_dtoh_vec(
                            all_ptr.add(range.start * BODY_BYTES),
                            range.len() * BODY_BYTES,
                        )
                        .unwrap()
                } else {
                    Vec::new()
                };
                comm.bcast(src_worker, &mut buf).unwrap();
                if src_worker != worker {
                    device
                        .memcpy_htod(all_ptr.add(range.start * BODY_BYTES), &buf)
                        .unwrap();
                }
            }
        }
        if worker == 0 {
            Some(bytes_to_bodies(
                &device.memcpy_dtoh_vec(all_ptr, n * BODY_BYTES).unwrap(),
            ))
        } else {
            None
        }
    });
    let elapsed = clock.elapsed(start);
    let bodies = results
        .into_iter()
        .flatten()
        .next()
        .expect("worker 0 result");
    NbodyRun {
        bodies,
        elapsed,
        workers: p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_serialisation_roundtrip() {
        let bodies = initial_bodies(17);
        let back = bytes_to_bodies(&bodies_to_bytes(&bodies));
        assert_eq!(bodies, back);
    }

    #[test]
    fn share_partitions_exactly() {
        let n = 103;
        let p = 8;
        let mut covered = Vec::new();
        for w in 0..p {
            covered.extend(share(n, p, w));
        }
        assert_eq!(covered, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn reference_conserves_body_count_and_moves_bodies() {
        let before = initial_bodies(32);
        let after = simulate_reference(32, 3);
        assert_eq!(after.len(), 32);
        assert_ne!(before[0].pos, after[0].pos);
    }

    #[test]
    fn dcgn_nbody_matches_reference() {
        let run = run_dcgn_gpu(48, 2, 1, 2, CostModel::zero()).unwrap();
        assert_eq!(run.bodies.len(), 48);
        assert!(run.max_position_error(2) < 1e-4);
    }

    #[test]
    fn dcgn_nbody_multi_node() {
        let run = run_dcgn_gpu(48, 2, 2, 2, CostModel::zero()).unwrap();
        assert!(run.max_position_error(2) < 1e-4);
    }

    #[test]
    fn gas_nbody_matches_reference() {
        let run = run_gas(48, 4, 2, 2, CostModel::zero());
        assert!(run.max_position_error(2) < 1e-4);
    }
}
