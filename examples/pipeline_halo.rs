//! Pipeline halo exchange: a 1-D Jacobi diffusion stencil whose halo
//! traffic is hidden behind interior compute with the nonblocking
//! point-to-point API — the irecv-ahead/isend-behind pattern.
//!
//! The domain is strip-decomposed over the CPU ranks.  Each time step a
//! rank:
//!
//! 1. posts `irecv`s for both incoming halo cells *ahead* of everything,
//! 2. `isend`s its own edge cells *behind* them,
//! 3. relaxes its interior cells while the halos fly,
//! 4. `wait`s the halos and relaxes the two edge cells last.
//!
//! The same simulation also runs with blocking `sendrecv`-style halo
//! exchange; both must agree with a sequential reference, and the printed
//! timings show how much of the wire latency the overlap hides.
//!
//! Run with `cargo run --example pipeline_halo --release`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dcgn::{CostModel, DcgnConfig, Runtime};

const NODES: usize = 4;
const RANKS_PER_NODE: usize = 2;
const CELLS_PER_RANK: usize = 64;
const STEPS: usize = 40;
/// Synthetic per-step interior compute (models a heavier stencil), the
/// window the halo flight time can hide inside.
const INTERIOR_COMPUTE: Duration = Duration::from_micros(300);

/// Tag of halo cells moving toward higher ranks / lower ranks.
const TAG_RIGHTWARD: u32 = 0;
const TAG_LEFTWARD: u32 = 1;

fn initial_strip(rank: usize) -> Vec<f64> {
    (0..CELLS_PER_RANK)
        .map(|i| ((rank * CELLS_PER_RANK + i) as f64 * 0.37).sin())
        .collect()
}

/// One Jacobi relaxation of `cells[i]` given its neighbours.
fn relax(left: f64, mid: f64, right: f64) -> f64 {
    0.5 * mid + 0.25 * (left + right)
}

/// Sequential reference over the whole domain (fixed boundaries).
fn reference(total_ranks: usize) -> Vec<f64> {
    let mut domain: Vec<f64> = (0..total_ranks).flat_map(initial_strip).collect();
    for _ in 0..STEPS {
        let prev = domain.clone();
        for i in 1..domain.len() - 1 {
            domain[i] = relax(prev[i - 1], prev[i], prev[i + 1]);
        }
    }
    domain
}

fn encode(v: f64) -> [u8; 8] {
    v.to_le_bytes()
}

fn decode(bytes: &[u8]) -> f64 {
    f64::from_le_bytes(bytes.try_into().expect("8-byte halo"))
}

/// Distributed simulation; returns rank-0-gathered cells and the wall time
/// of the stepping loop (max over ranks).
fn run_distributed(nonblocking: bool) -> (Vec<f64>, Duration) {
    let config =
        DcgnConfig::homogeneous(NODES, RANKS_PER_NODE, 0, 0).with_cost(CostModel::g92_scaled(20.0));
    let runtime = Runtime::new(config).expect("halo config");
    let total = runtime.rank_map().total_ranks();
    let slowest: Arc<Mutex<Duration>> = Arc::new(Mutex::new(Duration::ZERO));
    let gathered: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let (s, g) = (Arc::clone(&slowest), Arc::clone(&gathered));

    runtime
        .launch_cpu_only(move |ctx| {
            let me = ctx.rank();
            let left = me.checked_sub(1);
            let right = (me + 1 < total).then_some(me + 1);
            let mut cells = initial_strip(me);
            ctx.barrier().unwrap();
            let start = Instant::now();

            for _ in 0..STEPS {
                let last = cells.len() - 1;
                if nonblocking {
                    // (1) irecv-ahead: post both halo receives first.
                    let recv_left = left.map(|l| ctx.irecv_tagged(Some(l), TAG_RIGHTWARD).unwrap());
                    let recv_right =
                        right.map(|r| ctx.irecv_tagged(Some(r), TAG_LEFTWARD).unwrap());
                    // (2) isend-behind: ship our edge cells.
                    let send_right = right.map(|r| {
                        ctx.isend_tagged(r, TAG_RIGHTWARD, &encode(cells[last]))
                            .unwrap()
                    });
                    let send_left = left.map(|l| {
                        ctx.isend_tagged(l, TAG_LEFTWARD, &encode(cells[0]))
                            .unwrap()
                    });
                    // (3) interior compute overlaps the halo flight.
                    let prev = cells.clone();
                    for i in 1..last {
                        cells[i] = relax(prev[i - 1], prev[i], prev[i + 1]);
                    }
                    dcgn_busy(INTERIOR_COMPUTE);
                    // (4) halos land; relax the edges.
                    let halo_left =
                        recv_left.map(|h| decode(&ctx.wait(h).unwrap().into_recv().unwrap().0));
                    let halo_right =
                        recv_right.map(|h| decode(&ctx.wait(h).unwrap().into_recv().unwrap().0));
                    if let Some(hl) = halo_left {
                        cells[0] = relax(hl, prev[0], prev[1]);
                    }
                    if let Some(hr) = halo_right {
                        cells[last] = relax(prev[last - 1], prev[last], hr);
                    }
                    for h in [send_left, send_right].into_iter().flatten() {
                        ctx.wait(h).unwrap();
                    }
                } else {
                    // Blocking shape: the halo exchange completes before any
                    // compute starts, so flight time and compute serialise.
                    let send_right = right.map(|r| {
                        ctx.isend_tagged(r, TAG_RIGHTWARD, &encode(cells[last]))
                            .unwrap()
                    });
                    let send_left = left.map(|l| {
                        ctx.isend_tagged(l, TAG_LEFTWARD, &encode(cells[0]))
                            .unwrap()
                    });
                    let halo_left =
                        left.map(|l| decode(&ctx.recv_tagged(Some(l), TAG_RIGHTWARD).unwrap().0));
                    let halo_right =
                        right.map(|r| decode(&ctx.recv_tagged(Some(r), TAG_LEFTWARD).unwrap().0));
                    for h in [send_left, send_right].into_iter().flatten() {
                        ctx.wait(h).unwrap();
                    }
                    let prev = cells.clone();
                    for i in 1..last {
                        cells[i] = relax(prev[i - 1], prev[i], prev[i + 1]);
                    }
                    dcgn_busy(INTERIOR_COMPUTE);
                    if let Some(hl) = halo_left {
                        cells[0] = relax(hl, prev[0], prev[1]);
                    }
                    if let Some(hr) = halo_right {
                        cells[last] = relax(prev[last - 1], prev[last], hr);
                    }
                }
            }

            let elapsed = start.elapsed();
            {
                let mut slowest = s.lock().expect("slowest");
                if elapsed > *slowest {
                    *slowest = elapsed;
                }
            }
            // Gather the final strips at rank 0 for verification.
            let bytes: Vec<u8> = cells.iter().flat_map(|v| v.to_le_bytes()).collect();
            if let Some(strips) = ctx.gather(0, &bytes).unwrap() {
                let mut domain = Vec::with_capacity(total * CELLS_PER_RANK);
                for strip in strips {
                    domain.extend(strip.chunks_exact(8).map(decode));
                }
                *g.lock().expect("gathered") = domain;
            }
        })
        .expect("halo launch");

    let domain = gathered.lock().expect("gathered").clone();
    let elapsed = *slowest.lock().expect("slowest");
    (domain, elapsed)
}

/// Synthetic compute load standing in for a heavier stencil body (a sleep,
/// so single-core hosts can genuinely overlap it with the comm threads —
/// like compute offloaded to an accelerator).
fn dcgn_busy(d: Duration) {
    if !d.is_zero() {
        std::thread::sleep(d);
    }
}

fn main() {
    let total = NODES * RANKS_PER_NODE;
    println!(
        "pipeline_halo: {} cells over {total} ranks on {NODES} nodes, {STEPS} steps",
        total * CELLS_PER_RANK
    );

    let want = reference(total);
    let check = |label: &str, domain: &[f64]| {
        let max_err = domain
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-12, "{label} diverged: max error {max_err}");
        println!("  {label:11} matches the sequential reference (max err {max_err:.2e})");
    };

    let (domain, blocking) = run_distributed(false);
    check("blocking", &domain);
    let (domain, overlapped) = run_distributed(true);
    check("nonblocking", &domain);

    println!("  blocking halo exchange : {blocking:?}");
    println!("  irecv-ahead/isend-behind: {overlapped:?}");
    if overlapped < blocking {
        let saved = blocking - overlapped;
        println!(
            "  overlap hid {saved:?} of wire latency ({:.0}% faster)",
            100.0 * saved.as_secs_f64() / blocking.as_secs_f64()
        );
    } else {
        println!("  (no win this run — flight time below compute on this host)");
    }
}
