//! Mandelbrot fractal generation with a dynamic work queue — the paper's
//! "unpredictable communication" application (§4, Figure 5, §5.1).
//!
//! * `run_dcgn_gpu`: master/worker with DCGN.  Rank 0 is a CPU-kernel thread
//!   acting as the work-queue master; every GPU slot is a worker that asks
//!   the master for an image strip, renders it on the device, sends the
//!   pixels back and asks for more.
//! * `run_gas`: the GPU-as-slave baseline — rows are statically partitioned,
//!   each worker renders its share in one kernel launch and the host ships
//!   the result to the master with plain MPI.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use dcgn::{CostModel, DcgnConfig, DcgnError, NodeConfig, Runtime};
use dcgn_dpm::{Device, DeviceConfig};
use dcgn_rmpi::{MpiWorld, RankPlacement};
use dcgn_simtime::Clock;

/// Shared slot the master rank deposits the rendered image and per-strip
/// ownership table into.
type SharedImageResult = Arc<Mutex<Option<(Vec<u32>, Vec<usize>)>>>;

/// Parameters of a Mandelbrot rendering job.
#[derive(Debug, Clone, Copy)]
pub struct MandelbrotParams {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Maximum escape-time iterations per pixel.
    pub max_iter: u32,
    /// Left edge of the viewport in the complex plane.
    pub x_min: f64,
    /// Right edge of the viewport.
    pub x_max: f64,
    /// Bottom edge of the viewport.
    pub y_min: f64,
    /// Top edge of the viewport.
    pub y_max: f64,
    /// Rows handed out per work-queue request.
    pub strip_rows: usize,
}

impl Default for MandelbrotParams {
    fn default() -> Self {
        MandelbrotParams {
            width: 192,
            height: 192,
            max_iter: 256,
            x_min: -2.2,
            x_max: 1.0,
            y_min: -1.4,
            y_max: 1.4,
            strip_rows: 16,
        }
    }
}

impl MandelbrotParams {
    /// Number of strips the image is divided into.
    pub fn num_strips(&self) -> usize {
        self.height.div_ceil(self.strip_rows)
    }

    /// Number of rows in strip `s` (the last strip may be short).
    pub fn strip_len(&self, s: usize) -> usize {
        let start = s * self.strip_rows;
        self.strip_rows.min(self.height.saturating_sub(start))
    }
}

/// Escape-time iteration count of one pixel.
pub fn pixel_iters(p: &MandelbrotParams, px: usize, py: usize) -> u32 {
    let cx = p.x_min + (p.x_max - p.x_min) * (px as f64 + 0.5) / p.width as f64;
    let cy = p.y_min + (p.y_max - p.y_min) * (py as f64 + 0.5) / p.height as f64;
    let mut x = 0.0f64;
    let mut y = 0.0f64;
    let mut i = 0;
    while i < p.max_iter && x * x + y * y <= 4.0 {
        let nx = x * x - y * y + cx;
        y = 2.0 * x * y + cy;
        x = nx;
        i += 1;
    }
    i
}

/// Render rows `[row0, row0 + nrows)` into a vector of iteration counts.
pub fn render_rows(p: &MandelbrotParams, row0: usize, nrows: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(nrows * p.width);
    for py in row0..row0 + nrows {
        for px in 0..p.width {
            out.push(pixel_iters(p, px, py));
        }
    }
    out
}

/// Sequential reference rendering of the full image.
pub fn render_reference(p: &MandelbrotParams) -> Vec<u32> {
    render_rows(p, 0, p.height)
}

/// Result of a distributed Mandelbrot run.
#[derive(Debug, Clone)]
pub struct MandelbrotRun {
    /// Iteration counts, row-major, `width × height`.
    pub image: Vec<u32>,
    /// Which worker rank rendered each strip (Figure 5's colour coding).
    pub strip_owner: Vec<usize>,
    /// Wall-clock time of the launch.
    pub elapsed: Duration,
    /// Throughput in pixels per second.
    pub pixels_per_sec: f64,
    /// Number of worker ranks that participated.
    pub workers: usize,
}

fn encode_header(row_start: usize, row_count: usize, rank: usize) -> [u8; 12] {
    let mut h = [0u8; 12];
    h[0..4].copy_from_slice(&(row_start as u32).to_le_bytes());
    h[4..8].copy_from_slice(&(row_count as u32).to_le_bytes());
    h[8..12].copy_from_slice(&(rank as u32).to_le_bytes());
    h
}

fn decode_u32(bytes: &[u8], off: usize) -> usize {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize
}

/// Run the DCGN master/worker Mandelbrot generator.
///
/// The job uses one CPU-kernel thread on node 0 as the work-queue master and
/// `gpus_per_node × slots` GPU slots per node as workers.
pub fn run_dcgn_gpu(
    params: MandelbrotParams,
    num_nodes: usize,
    gpus_per_node: usize,
    slots: usize,
    cost: CostModel,
) -> Result<MandelbrotRun, DcgnError> {
    let mut nodes = Vec::new();
    for n in 0..num_nodes {
        let cpus = if n == 0 { 1 } else { 0 };
        nodes.push(
            NodeConfig::new(cpus, gpus_per_node, slots)
                .with_device(DeviceConfig::default().with_multiprocessors(slots.max(2))),
        );
    }
    let config = DcgnConfig::heterogeneous(nodes).with_cost(cost);
    let runtime = Runtime::new(config)?;
    let total_ranks = runtime.rank_map().total_ranks();
    let workers = total_ranks - 1;
    if workers == 0 {
        return Err(DcgnError::InvalidConfig(
            "mandelbrot needs at least one GPU worker".into(),
        ));
    }

    let result: SharedImageResult = Arc::new(Mutex::new(None));
    let result_for_master = Arc::clone(&result);
    let strip_bytes = 12 + params.strip_rows * params.width * 4;

    let report = runtime.launch_with_gpu_setup(
        // ---------------- master (CPU rank 0) ----------------
        move |ctx| {
            if ctx.rank() != 0 {
                return;
            }
            let mut image = vec![0u32; params.width * params.height];
            let mut strip_owner = vec![usize::MAX; params.num_strips()];
            let mut next_strip = 0usize;
            let mut strips_done = 0usize;
            let mut workers_released = 0usize;
            let total_strips = params.num_strips();
            let total_workers = ctx.size() - 1;
            while strips_done < total_strips || workers_released < total_workers {
                let (msg, status) = ctx.recv_any().expect("master recv");
                let row_start = decode_u32(msg.as_slice(), 0);
                let row_count = decode_u32(msg.as_slice(), 4);
                let worker = decode_u32(&msg, 8);
                if row_count > 0 {
                    // A finished strip came back.
                    let pixels: Vec<u32> = msg.as_slice()[12..]
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                        .collect();
                    for (i, v) in pixels.iter().enumerate() {
                        let row = row_start + i / params.width;
                        let col = i % params.width;
                        if row < params.height {
                            image[row * params.width + col] = *v;
                        }
                    }
                    strip_owner[row_start / params.strip_rows] = worker;
                    strips_done += 1;
                }
                // Assign more work or release the worker.
                if next_strip < total_strips {
                    let start = next_strip * params.strip_rows;
                    let count = params.strip_len(next_strip);
                    next_strip += 1;
                    ctx.send(status.source, &encode_header(start, count, 0))
                        .expect("master assign");
                } else {
                    ctx.send(status.source, &encode_header(0, 0, 0))
                        .expect("master release");
                    workers_released += 1;
                }
            }
            *result_for_master.lock().expect("result") = Some((image, strip_owner));
        },
        // ---------------- per-GPU setup ----------------
        move |setup| {
            // One strip-sized exchange buffer per slot.
            let dev = setup.device();
            let mut bufs = Vec::new();
            for _ in 0..setup.slots() {
                bufs.push(dev.malloc(strip_bytes).expect("strip buffer"));
            }
            bufs
        },
        // ---------------- worker kernel (one block per slot) ----------------
        move |ctx, bufs| {
            let slot = ctx.slot_for_block();
            if ctx.block().block_id() >= ctx.slots() {
                return;
            }
            let me = ctx.rank(slot);
            let block = ctx.block();
            let buf = bufs[slot];
            // Initial request: row_count == 0 signals "give me work".
            block.write(buf, &encode_header(0, 0, me));
            ctx.send(slot, 0, buf, 12);
            loop {
                ctx.recv(slot, 0, buf, 12);
                let header = block.read_vec(buf, 8);
                let row_start = decode_u32(&header, 0);
                let row_count = decode_u32(&header, 4);
                if row_count == 0 {
                    break;
                }
                // Render the strip with the block's logical threads, writing
                // pixels straight into device memory after the header.
                let mut pixels = Vec::with_capacity(row_count * params.width);
                block.for_each_thread(|tid| {
                    let range = block.thread_range(tid, row_count * params.width);
                    for idx in range {
                        let row = row_start + idx / params.width;
                        let col = idx % params.width;
                        pixels.push(pixel_iters(&params, col, row));
                    }
                });
                let mut payload = Vec::with_capacity(12 + pixels.len() * 4);
                payload.extend_from_slice(&encode_header(row_start, row_count, me));
                for v in &pixels {
                    payload.extend_from_slice(&v.to_le_bytes());
                }
                block.write(buf, &payload);
                ctx.send(slot, 0, buf, payload.len());
            }
        },
        |_setup, _bufs| {},
    )?;

    let elapsed = report.elapsed;
    let (image, strip_owner) = result
        .lock()
        .expect("result")
        .take()
        .ok_or_else(|| DcgnError::Internal("master produced no image".into()))?;
    let pixels = (params.width * params.height) as f64;
    Ok(MandelbrotRun {
        image,
        strip_owner,
        pixels_per_sec: pixels / elapsed.as_secs_f64(),
        elapsed,
        workers,
    })
}

/// GPU-as-slave + MPI baseline: rows are statically partitioned across
/// workers, each worker renders its share in a single kernel launch and the
/// host forwards the pixels to rank 0 with plain MPI.
pub fn run_gas(
    params: MandelbrotParams,
    num_workers: usize,
    num_nodes: usize,
    cost: CostModel,
) -> MandelbrotRun {
    assert!(num_workers >= 1);
    // Rank 0 is the master; workers are ranks 1..=num_workers.
    let placement = RankPlacement::round_robin(num_nodes, num_workers + 1);
    let params = Arc::new(params);
    let clock = Clock::from(cost);
    let start = clock.now();
    let results = MpiWorld::run(&placement, cost, {
        let params = Arc::clone(&params);
        move |mut comm| {
            let p = *params;
            if comm.rank() == 0 {
                let mut image = vec![0u32; p.width * p.height];
                let mut strip_owner = vec![0usize; p.num_strips()];
                for _ in 0..(comm.size() - 1) {
                    let (msg, status) = comm.recv(None, Some(0)).unwrap();
                    let row_start = decode_u32(msg.as_slice(), 0);
                    let row_count = decode_u32(msg.as_slice(), 4);
                    let pixels: Vec<u32> = msg.as_slice()[12..]
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                        .collect();
                    for (i, v) in pixels.iter().enumerate() {
                        image[row_start * p.width + i] = *v;
                    }
                    for (s, owner) in strip_owner.iter_mut().enumerate() {
                        let row = s * p.strip_rows;
                        if row >= row_start && row < row_start + row_count {
                            *owner = status.source;
                        }
                    }
                }
                Some((image, strip_owner))
            } else {
                // Static partition: worker w of W gets rows [w*share, ...).
                let workers = comm.size() - 1;
                let w = comm.rank() - 1;
                let share = p.height.div_ceil(workers);
                let row_start = (w * share).min(p.height);
                let row_count = share.min(p.height - row_start);
                // GPU-as-slave: render on the device, then pull the pixels
                // back to the host before communicating.
                let device = Device::new(comm.rank(), DeviceConfig::default(), cost);
                let out = device
                    .malloc((row_count.max(1)) * p.width * 4)
                    .expect("device output");
                device
                    .launch_sync(1, 32, move |block| {
                        let mut pixels = Vec::with_capacity(row_count * p.width);
                        block.for_each_thread(|tid| {
                            let range = block.thread_range(tid, row_count * p.width);
                            for idx in range {
                                let row = row_start + idx / p.width;
                                let col = idx % p.width;
                                pixels.push(pixel_iters(&p, col, row));
                            }
                        });
                        let bytes: Vec<u8> = pixels.iter().flat_map(|v| v.to_le_bytes()).collect();
                        block.write(out, &bytes);
                    })
                    .expect("gas kernel");
                let bytes = device
                    .memcpy_dtoh_vec(out, row_count * p.width * 4)
                    .expect("readback");
                let mut msg = Vec::with_capacity(12 + bytes.len());
                msg.extend_from_slice(&encode_header(row_start, row_count, comm.rank()));
                msg.extend_from_slice(&bytes);
                comm.send(0, 0, &msg).unwrap();
                None
            }
        }
    });
    let elapsed = clock.elapsed(start);
    let (image, strip_owner) = results
        .into_iter()
        .flatten()
        .next()
        .expect("master result present");
    let pixels = (params.width * params.height) as f64;
    MandelbrotRun {
        image,
        strip_owner,
        pixels_per_sec: pixels / elapsed.as_secs_f64(),
        elapsed,
        workers: num_workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MandelbrotParams {
        MandelbrotParams {
            width: 32,
            height: 32,
            max_iter: 64,
            strip_rows: 8,
            ..MandelbrotParams::default()
        }
    }

    #[test]
    fn strip_accounting() {
        let p = tiny();
        assert_eq!(p.num_strips(), 4);
        assert_eq!(p.strip_len(0), 8);
        let odd = MandelbrotParams {
            height: 30,
            ..tiny()
        };
        assert_eq!(odd.num_strips(), 4);
        assert_eq!(odd.strip_len(3), 6);
    }

    #[test]
    fn interior_points_hit_max_iter() {
        let p = tiny();
        // The origin is inside the set.
        let px = (p.width as f64 * (0.0 - p.x_min) / (p.x_max - p.x_min)) as usize;
        let py = (p.height as f64 * (0.0 - p.y_min) / (p.y_max - p.y_min)) as usize;
        assert_eq!(pixel_iters(&p, px, py), p.max_iter);
        // A point far outside escapes immediately.
        assert!(pixel_iters(&p, 0, 0) < 4);
    }

    #[test]
    fn render_rows_matches_reference_slice() {
        let p = tiny();
        let reference = render_reference(&p);
        let rows = render_rows(&p, 8, 8);
        assert_eq!(rows, reference[8 * p.width..16 * p.width].to_vec());
    }

    #[test]
    fn dcgn_gpu_run_matches_reference() {
        let p = tiny();
        let run = run_dcgn_gpu(p, 1, 2, 1, CostModel::zero()).unwrap();
        assert_eq!(run.image, render_reference(&p));
        assert_eq!(run.workers, 2);
        // Every strip was rendered by a real worker rank (1 or 2).
        assert!(run.strip_owner.iter().all(|&w| w == 1 || w == 2));
        assert!(run.pixels_per_sec > 0.0);
    }

    #[test]
    fn gas_run_matches_reference() {
        let p = tiny();
        let run = run_gas(p, 2, 1, CostModel::zero());
        assert_eq!(run.image, render_reference(&p));
    }

    #[test]
    fn dcgn_multi_node_run_matches_reference() {
        let p = tiny();
        let run = run_dcgn_gpu(p, 2, 1, 1, CostModel::zero()).unwrap();
        assert_eq!(run.image, render_reference(&p));
        assert_eq!(run.workers, 2);
    }
}
