//! The five closed-loop workloads, written once over a small message-passing
//! trait so that the same traffic runs on DCGN CPU ranks, on DCGN GPU slots
//! and on the raw MPI substrate (the "twin" a DCGN number is compared with).
//!
//! One round = generate inputs from the seed, build the job, warm up, time
//! operations at rank 0 for a fixed window, tell the peers to stop, tear
//! down.  Rank 0 is the only client and sends its next operation only after
//! the previous one completed: ranks of an SPMD job block on replies, so a
//! closed loop with one client is the load a real caller generates.
//!
//! Every message carries a 16-byte header (operation id with a "last" flag,
//! message index) followed by seeded bytes; every receiver checks length,
//! header and a 64-bit hash of the body.  A mismatch or an `Err` counts as a
//! failed operation; nothing here panics on bad data.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dcgn::{
    Completion, CostModel, CpuCtx, DcgnConfig, DevicePtr, GpuCtx, GpuPollStats, MetricsSnapshot,
    NodeConfig, ReduceOp, RequestHandle, Runtime,
};
use dcgn_netsim::Payload;
use dcgn_rmpi::{Communicator, MpiWorld, RankPlacement, Request};

use crate::stats::percentile_us;
use crate::sys::process_cpu_seconds;
use crate::trace::{Span, Tracer};

/// Bytes of a small message (ping, pong).
const SMALL_BYTES: usize = 64;
/// Messages per `window_cpu_1KiB` operation, and their size.
const WINDOW_MSGS: usize = 32;
const WINDOW_BYTES: usize = 1024;
/// Size of the `stream_cpu_4MiB` message.
const STREAM_BYTES: usize = 4 << 20;
/// `collectives_8node`: broadcast size and allreduce vector length.
const BCAST_BYTES: usize = 1024;
const REDUCE_LEN: usize = 256;

const HEADER_BYTES: usize = 16;
const LAST_FLAG: u64 = 1 << 63;

const TAG_DATA: u32 = 7;
const TAG_ACK: u32 = 8;
/// Window message `i` travels under tag `TAG_WINDOW_BASE + i`.
const TAG_WINDOW_BASE: u32 = 100;

/// A request that takes longer than this is an error, not a wait: a peer
/// that stopped after a failure must not hang the run.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

type Res<T> = Result<T, String>;

/// One benchmark workload.  Sizes and layouts are fixed; the seed only
/// changes payload bytes and the window's tag order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2 nodes × 1 CPU rank: 64 B send + 64 B echo.
    PingpongCpu,
    /// 2 nodes × 1 CPU rank: 32 × 1 KiB `isend` in seeded tag order +
    /// `waitall`; the peer posts 32 `irecv` in tag order, `waitall`, 0 B ack.
    WindowCpu,
    /// 2 nodes × 1 CPU rank: 4 MiB send + 0 B ack.
    StreamCpu,
    /// 2 nodes × 1 GPU × 1 slot: device-memory 64 B send + echo.
    PingpongGpu,
    /// 8 nodes × 1 CPU rank: barrier + 1 KiB broadcast + 256-`f64` allreduce.
    Collectives,
    /// Probe layouts, not benchmark workloads (absent from [`Workload::ALL`]):
    /// the 64 B ping-pong inside one node, between its two CPU ranks or its
    /// two single-slot GPUs, so nothing crosses rmpi or the fabric.
    IntraNodeCpu,
    IntraNodeGpu,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PingpongCpu,
        Workload::WindowCpu,
        Workload::StreamCpu,
        Workload::PingpongGpu,
        Workload::Collectives,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongCpu => "pingpong_cpu_64B",
            Workload::WindowCpu => "window_cpu_1KiB",
            Workload::StreamCpu => "stream_cpu_4MiB",
            Workload::PingpongGpu => "pingpong_gpu_64B",
            Workload::Collectives => "collectives_8node",
            Workload::IntraNodeCpu => "intra_node_cpu",
            Workload::IntraNodeGpu => "intra_node_gpu",
        }
    }

    fn is_pingpong(self) -> bool {
        !matches!(
            self,
            Workload::WindowCpu | Workload::StreamCpu | Workload::Collectives
        )
    }

    fn on_gpu(self) -> bool {
        matches!(self, Workload::PingpongGpu | Workload::IntraNodeGpu)
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ranks (= nodes, except in the two one-node probe layouts).
    fn ranks(self) -> usize {
        match self {
            Workload::Collectives => 8,
            _ => 2,
        }
    }

    fn config(self, cost: CostModel) -> DcgnConfig {
        let nodes = match self {
            Workload::IntraNodeCpu => vec![NodeConfig::new(2, 0, 0)],
            Workload::IntraNodeGpu => vec![NodeConfig::new(0, 2, 1)],
            Workload::PingpongGpu => vec![NodeConfig::new(0, 1, 1); 2],
            _ => vec![NodeConfig::new(1, 0, 0); self.ranks()],
        };
        DcgnConfig::heterogeneous(nodes).with_cost(cost)
    }

    /// Untimed operations before the window opens: about a quarter of a
    /// second of them on the 2-core reference box.  A fixed count (not a fixed time)
    /// so that `setup_s`, which includes them, grows when a change moves
    /// work into first use.
    fn warmup_ops(self) -> u64 {
        match self {
            Workload::PingpongCpu => 1200,
            Workload::WindowCpu => 250,
            Workload::StreamCpu => 35,
            Workload::PingpongGpu => 300,
            Workload::Collectives => 300,
            Workload::IntraNodeCpu => 300,
            Workload::IntraNodeGpu => 100,
        }
    }

    /// Payload bytes one operation hands to receivers (for goodput).
    pub fn bytes_per_op(self) -> u64 {
        (match self {
            Workload::WindowCpu => WINDOW_MSGS * WINDOW_BYTES,
            Workload::StreamCpu => STREAM_BYTES,
            Workload::Collectives => 7 * BCAST_BYTES + 8 * REDUCE_LEN * 8,
            _ => 2 * SMALL_BYTES,
        }) as u64
    }

    /// Size of the data message this workload sends.
    fn message_bytes(self) -> usize {
        match self {
            Workload::WindowCpu => WINDOW_BYTES,
            Workload::StreamCpu => STREAM_BYTES,
            Workload::Collectives => BCAST_BYTES,
            _ => SMALL_BYTES,
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded inputs and message verification
// ---------------------------------------------------------------------------

/// SplitMix64: small, seedable, and good enough to fill payloads.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// 64-bit hash of a message body.  Four independent multiply-rotate lanes so
/// that checking a 4 MiB message costs a fraction of sending it.
pub fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x0000_0100_0000_01B3;
    let mut lanes = [
        0xCBF2_9CE4_8422_2325u64,
        0x9E37_79B9_7F4A_7C15,
        0xBF58_476D_1CE4_E5B9,
        0x94D0_49BB_1331_11EB,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            *lane = (*lane ^ word).wrapping_mul(K).rotate_left(29);
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(K).rotate_left(29);
    }
    for &byte in blocks.remainder() {
        h = (h ^ u64::from(byte)).wrapping_mul(K);
    }
    h ^ (h >> 32)
}

/// Everything a round derives from `--seed`.
pub struct Inputs {
    /// The data message: zeroed header + seeded body.
    message: Vec<u8>,
    body_hash: u64,
    /// Send order of the window's message indices (a permutation).
    window_order: Vec<usize>,
}

impl Inputs {
    pub fn generate(seed: u64, workload: Workload) -> Inputs {
        let mut rng = Rng(seed);
        let mut message = vec![0u8; workload.message_bytes()];
        for word in message[HEADER_BYTES..].chunks_mut(8) {
            let bytes = rng.next().to_le_bytes();
            word.copy_from_slice(&bytes[..word.len()]);
        }
        let body_hash = hash64(&message[HEADER_BYTES..]);
        // Fisher-Yates.
        let mut window_order: Vec<usize> = (0..WINDOW_MSGS).collect();
        for i in (1..WINDOW_MSGS).rev() {
            window_order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        Inputs {
            message,
            body_hash,
            window_order,
        }
    }

    /// Is `msg` the data message of operation `op`, index `index`?
    fn verify(&self, msg: &[u8], op: u64, index: u64) -> bool {
        msg.len() == self.message.len()
            && read_header(msg).is_some_and(|h| h.op == op && h.index == index)
            && hash64(&msg[HEADER_BYTES..]) == self.body_hash
    }
}

struct Header {
    op: u64,
    last: bool,
    index: u64,
}

fn stamp(msg: &mut [u8], op: u64, last: bool, index: u64) {
    let word = op | if last { LAST_FLAG } else { 0 };
    msg[..8].copy_from_slice(&word.to_le_bytes());
    msg[8..16].copy_from_slice(&index.to_le_bytes());
}

fn read_header(msg: &[u8]) -> Option<Header> {
    let word = u64::from_le_bytes(msg.get(..8)?.try_into().ok()?);
    let index = u64::from_le_bytes(msg.get(8..16)?.try_into().ok()?);
    Some(Header {
        op: word & !LAST_FLAG,
        last: word & LAST_FLAG != 0,
        index,
    })
}

/// The header of a message that must have one: without it the receiver
/// cannot know whether to go on, so it stops with an error.
fn must_read_header(msg: &[u8]) -> Res<Header> {
    read_header(msg).ok_or_else(|| format!("{}-byte message has no header", msg.len()))
}

// ---------------------------------------------------------------------------
// The message-passing surface the workloads are written against
// ---------------------------------------------------------------------------

/// A received message, whatever buffer type the layer hands out.
pub trait Bytes {
    fn bytes(&self) -> &[u8];
}

impl Bytes for Vec<u8> {
    fn bytes(&self) -> &[u8] {
        self
    }
}

impl Bytes for Payload {
    fn bytes(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Blocking tagged point-to-point: all a ping-pong needs, and all a GPU slot
/// is asked for here.
trait P2p {
    type Msg: Bytes;
    fn send(&mut self, dst: usize, tag: u32, data: &[u8]) -> Res<()>;
    fn recv(&mut self, src: usize, tag: u32) -> Res<Self::Msg>;
}

/// Nonblocking point-to-point and the collectives, for CPU ranks and MPI.
trait Full: P2p {
    type Req: Copy;
    fn isend(&mut self, dst: usize, tag: u32, data: &[u8]) -> Res<Self::Req>;
    fn irecv(&mut self, src: usize, tag: u32) -> Res<Self::Req>;
    /// Completes every request; receives yield their message, in order.
    fn waitall(&mut self, reqs: &[Self::Req]) -> Res<Vec<Option<Self::Msg>>>;
    fn barrier(&mut self) -> Res<()>;
    fn broadcast(&mut self, root: usize, data: &mut Vec<u8>) -> Res<()>;
    fn allreduce_sum(&mut self, data: &[f64]) -> Res<Vec<f64>>;
}

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// A DCGN CPU rank.
struct DcgnCpu<'a>(&'a CpuCtx);

impl P2p for DcgnCpu<'_> {
    type Msg = Vec<u8>;
    fn send(&mut self, dst: usize, tag: u32, data: &[u8]) -> Res<()> {
        self.0.send_tagged(dst, tag, data).map_err(text)
    }
    fn recv(&mut self, src: usize, tag: u32) -> Res<Vec<u8>> {
        let (data, _) = self.0.recv_tagged(Some(src), tag).map_err(text)?;
        Ok(data)
    }
}

impl Full for DcgnCpu<'_> {
    type Req = RequestHandle;
    fn isend(&mut self, dst: usize, tag: u32, data: &[u8]) -> Res<RequestHandle> {
        self.0.isend_tagged(dst, tag, data).map_err(text)
    }
    fn irecv(&mut self, src: usize, tag: u32) -> Res<RequestHandle> {
        self.0.irecv_tagged(Some(src), tag).map_err(text)
    }
    fn waitall(&mut self, reqs: &[RequestHandle]) -> Res<Vec<Option<Vec<u8>>>> {
        let done = self.0.waitall(reqs).map_err(text)?;
        Ok(done
            .into_iter()
            .map(|c: Completion| c.into_recv().map(|(data, _)| data))
            .collect())
    }
    fn barrier(&mut self) -> Res<()> {
        self.0.barrier().map_err(text)
    }
    fn broadcast(&mut self, root: usize, data: &mut Vec<u8>) -> Res<()> {
        self.0.broadcast(root, data).map_err(text)
    }
    fn allreduce_sum(&mut self, data: &[f64]) -> Res<Vec<f64>> {
        self.0.allreduce(data, ReduceOp::Sum).map_err(text)
    }
}

/// A rank of the raw MPI substrate.
struct Mpi(Communicator);

impl P2p for Mpi {
    type Msg = Payload;
    fn send(&mut self, dst: usize, tag: u32, data: &[u8]) -> Res<()> {
        self.0.send(dst, tag, data).map_err(text)
    }
    fn recv(&mut self, src: usize, tag: u32) -> Res<Payload> {
        let (data, _) = self.0.recv(Some(src), Some(tag)).map_err(text)?;
        Ok(data)
    }
}

impl Full for Mpi {
    type Req = Request;
    fn isend(&mut self, dst: usize, tag: u32, data: &[u8]) -> Res<Request> {
        self.0
            .isend(dst, tag, Payload::copy_from_slice(data))
            .map_err(text)
    }
    fn irecv(&mut self, src: usize, tag: u32) -> Res<Request> {
        self.0.irecv(Some(src), Some(tag)).map_err(text)
    }
    fn waitall(&mut self, reqs: &[Request]) -> Res<Vec<Option<Payload>>> {
        self.0.wait_all(reqs).map_err(text)?;
        Ok(reqs
            .iter()
            .map(|&r| self.0.take_recv(r).map(|(data, _)| data))
            .collect())
    }
    fn barrier(&mut self) -> Res<()> {
        self.0.barrier().map_err(text)
    }
    fn broadcast(&mut self, root: usize, data: &mut Vec<u8>) -> Res<()> {
        self.0.bcast(root, data).map_err(text)
    }
    fn allreduce_sum(&mut self, data: &[f64]) -> Res<Vec<f64>> {
        self.0.allreduce_f64(data, ReduceOp::Sum).map_err(text)
    }
}

/// A DCGN GPU slot: payloads live in device memory, so a send writes the
/// bytes there first and a receive reads them back, as a kernel would.
/// The device API reports failure by faulting the kernel, which fails the
/// launch; there is no `Err` to map.
struct DcgnGpu<'c, 'a> {
    ctx: &'c GpuCtx<'a>,
    buf: DevicePtr,
}

const GPU_SLOT: usize = 0;

impl P2p for DcgnGpu<'_, '_> {
    type Msg = Vec<u8>;
    fn send(&mut self, dst: usize, tag: u32, data: &[u8]) -> Res<()> {
        self.ctx.block().write(self.buf, data);
        self.ctx
            .send_tagged(GPU_SLOT, dst, tag, self.buf, data.len());
        Ok(())
    }
    fn recv(&mut self, src: usize, tag: u32) -> Res<Vec<u8>> {
        let status = self
            .ctx
            .recv_tagged(GPU_SLOT, src, tag, self.buf, SMALL_BYTES);
        Ok(self.ctx.block().read_vec(self.buf, status.len))
    }
}

// ---------------------------------------------------------------------------
// One round
// ---------------------------------------------------------------------------

/// How one round runs.
#[derive(Clone, Copy)]
pub struct RoundSpec {
    pub cost: CostModel,
    /// Length of the timed window.
    pub window: Duration,
    /// Record spans around every call (the traced pass).
    pub trace: bool,
}

/// What rank 0 measured in the timed window.
pub struct Recording {
    /// Duration of every timed operation.
    pub samples_ns: Vec<u64>,
    /// Timed operations whose results checked out at rank 0.
    pub verified: u64,
    /// First timed operation's start to the last one's end.
    pub window: Duration,
    /// Global-registry change over the window, summed over nodes and GPUs
    /// (gauges: value and high-water mark at the window's end).
    pub metrics: MetricsSnapshot,
    /// CPU seconds the whole process used during the window.
    pub cpu_seconds: f64,
}

/// State the ranks of one round share.
struct Shared {
    workload: Workload,
    inputs: Inputs,
    window: Duration,
    trace: bool,
    epoch: Instant,
    attempted: AtomicU64,
    failed: AtomicU64,
    recording: Mutex<Option<Recording>>,
    spans: Mutex<Vec<(usize, Vec<Span>, u64)>>,
    errors: Mutex<Vec<String>>,
}

impl Shared {
    fn fail(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record how rank `me` ended.
    fn finish_rank(&self, me: usize, outcome: Res<Option<Recording>>, tracer: Tracer) {
        match outcome {
            Ok(Some(rec)) => *self.recording.lock().expect("recording lock") = Some(rec),
            Ok(None) => {}
            Err(e) => {
                self.fail();
                self.errors
                    .lock()
                    .expect("errors lock")
                    .push(format!("rank {me}: {e}"));
            }
        }
        let (spans, dropped) = tracer.finish();
        if self.trace {
            self.spans
                .lock()
                .expect("spans lock")
                .push((me, spans, dropped));
        }
    }
}

/// The result of one round.
pub struct Round {
    /// `None` when rank 0 stopped on an error.
    pub rec: Option<Recording>,
    /// Operations rank 0 started (warm-up and the closing one included).
    pub attempted: u64,
    /// Operations that returned `Err` or failed a check, on any rank.
    pub failed: u64,
    /// Input generation + job construction + launch, start to finish.
    pub wall: Duration,
    pub gpu_poll: Vec<GpuPollStats>,
    /// Per rank: spans and dropped-span count (traced rounds only).
    pub spans: Vec<(usize, Vec<Span>, u64)>,
    pub errors: Vec<String>,
}

impl Round {
    fn samples(&self) -> &[u64] {
        self.rec.as_ref().map_or(&[], |r| &r.samples_ns)
    }

    pub fn percentile_us(&self, p: f64) -> f64 {
        percentile_us(self.samples(), p)
    }

    /// Verified operations per second of timed window.
    pub fn ops_per_s(&self) -> f64 {
        self.rec.as_ref().map_or(0.0, |r| {
            let secs = r.window.as_secs_f64();
            if secs > 0.0 {
                r.verified as f64 / secs
            } else {
                0.0
            }
        })
    }

    /// Everything the round spent outside its timed window: input
    /// generation, job start-up, warm-up operations, the closing operation
    /// and teardown.
    pub fn setup_s(&self) -> f64 {
        let timed = self.rec.as_ref().map_or(Duration::ZERO, |r| r.window);
        self.wall.saturating_sub(timed).as_secs_f64()
    }
}

/// Run one round of `workload` on DCGN.
pub fn run_dcgn_round(workload: Workload, seed: u64, spec: &RoundSpec) -> Round {
    let started = Instant::now();
    let sh = new_shared(workload, seed, spec, started);
    let report = launch_dcgn(&sh, spec.cost);
    collect(sh, report, started)
}

/// Run one round of `workload`'s traffic pattern straight on the MPI
/// substrate (for the GPU workload: the CPU ping-pong, as in Fig. 6).
pub fn run_mpi_round(workload: Workload, seed: u64, spec: &RoundSpec) -> Round {
    let started = Instant::now();
    let sh = new_shared(workload, seed, spec, started);
    let placement = RankPlacement::block(workload.ranks(), 1);
    let ranks = Arc::clone(&sh);
    MpiWorld::run(&placement, spec.cost, move |mut comm| {
        comm.set_progress_timeout(REQUEST_TIMEOUT);
        let me = comm.rank();
        run_rank(&mut Mpi(comm), me, &ranks);
    });
    collect(sh, Ok(Vec::new()), started)
}

fn new_shared(workload: Workload, seed: u64, spec: &RoundSpec, epoch: Instant) -> Arc<Shared> {
    Arc::new(Shared {
        workload,
        inputs: Inputs::generate(seed, workload),
        window: spec.window,
        trace: spec.trace,
        epoch,
        attempted: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        recording: Mutex::new(None),
        spans: Mutex::new(Vec::new()),
        errors: Mutex::new(Vec::new()),
    })
}

fn launch_dcgn(sh: &Arc<Shared>, cost: CostModel) -> Res<Vec<GpuPollStats>> {
    let mut runtime = Runtime::new(sh.workload.config(cost)).map_err(text)?;
    runtime.set_request_timeout(REQUEST_TIMEOUT);
    let report = if sh.workload.on_gpu() {
        let ranks = Arc::clone(sh);
        runtime.launch_with_gpu_setup(
            |_cpu| {},
            |setup| setup.device().malloc(SMALL_BYTES),
            move |ctx, buf| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                let me = ctx.rank(GPU_SLOT);
                match buf {
                    Ok(buf) => run_pingpong_rank(&mut DcgnGpu { ctx, buf: *buf }, me, &ranks),
                    Err(e) => ranks.finish_rank(me, Err(text(e)), Tracer::new(false, ranks.epoch)),
                }
            },
            |setup, buf| {
                if let Ok(buf) = buf {
                    // Nothing useful to do if the simulated free fails.
                    let _ = setup.device().free(*buf);
                }
            },
        )
    } else {
        let ranks = Arc::clone(sh);
        runtime.launch_cpu_only(move |ctx| run_rank(&mut DcgnCpu(ctx), ctx.rank(), &ranks))
    };
    report.map(|r| r.gpu_poll_stats).map_err(text)
}

fn collect(sh: Arc<Shared>, report: Res<Vec<GpuPollStats>>, started: Instant) -> Round {
    let wall = started.elapsed();
    let mut errors = std::mem::take(&mut *sh.errors.lock().expect("errors lock"));
    let gpu_poll = report.unwrap_or_else(|e| {
        sh.fail();
        errors.push(format!("launch: {e}"));
        Vec::new()
    });
    let mut spans = std::mem::take(&mut *sh.spans.lock().expect("spans lock"));
    spans.sort_by_key(|(rank, _, _)| *rank);
    let attempted = sh.attempted.load(Ordering::Relaxed);
    Round {
        rec: sh.recording.lock().expect("recording lock").take(),
        attempted,
        failed: sh.failed.load(Ordering::Relaxed).min(attempted.max(1)),
        wall,
        gpu_poll,
        spans,
        errors,
    }
}

// ---------------------------------------------------------------------------
// Rank programs
// ---------------------------------------------------------------------------

fn run_rank<P: Full>(p: &mut P, me: usize, sh: &Shared) {
    if sh.workload.is_pingpong() {
        return run_pingpong_rank(p, me, sh);
    }
    let mut tr = Tracer::new(sh.trace, sh.epoch);
    let outcome = match (sh.workload, me) {
        (Workload::WindowCpu, 0) => window_client(p, sh, &mut tr).map(Some),
        (Workload::WindowCpu, _) => window_server(p, sh, &mut tr).map(|()| None),
        (Workload::StreamCpu, 0) => stream_client(p, sh, &mut tr).map(Some),
        (Workload::StreamCpu, _) => stream_server(p, sh, &mut tr).map(|()| None),
        (Workload::Collectives, 0) => collectives_root(p, sh, &mut tr).map(Some),
        (Workload::Collectives, _) => collectives_member(p, sh, &mut tr).map(|()| None),
        _ => unreachable!("ping-pong layouts are handled above"),
    };
    sh.finish_rank(me, outcome, tr);
}

fn run_pingpong_rank<P: P2p>(p: &mut P, me: usize, sh: &Shared) {
    let mut tr = Tracer::new(sh.trace, sh.epoch);
    let outcome = if me == 0 {
        pingpong_client(p, sh, &mut tr).map(Some)
    } else {
        pingpong_server(p, sh, &mut tr).map(|()| None)
    };
    sh.finish_rank(me, outcome, tr);
}

/// Rank 0's closed loop: `warmup_ops` untimed operations, then operations
/// timed one by one until the window has passed, then one operation flagged
/// "last" so the peers leave their loops.  `op(id, last)` runs one operation
/// and says whether its results checked out; an `Err` ends the round.
fn drive(sh: &Shared, mut op: impl FnMut(u64, bool) -> Res<bool>) -> Res<Recording> {
    let mut run = |id: u64, last: bool| -> Res<bool> {
        sh.attempted.fetch_add(1, Ordering::Relaxed);
        let ok = op(id, last)?;
        if !ok {
            sh.fail();
        }
        Ok(ok)
    };
    let mut id = 0;
    while id < sh.workload.warmup_ops() {
        run(id, false)?;
        id += 1;
    }
    let registry = dcgn_metrics::global();
    let before = registry.snapshot();
    let cpu_before = process_cpu_seconds();
    let mut samples_ns = Vec::with_capacity(1 << 16);
    let mut verified = 0;
    let opened = Instant::now();
    let window = loop {
        let start = Instant::now();
        let ok = run(id, false)?;
        let end = Instant::now();
        samples_ns.push((end - start).as_nanos() as u64);
        verified += u64::from(ok);
        id += 1;
        if end - opened >= sh.window {
            break end - opened;
        }
    };
    let cpu_seconds = process_cpu_seconds() - cpu_before;
    let metrics = registry.snapshot().delta_since(&before).aggregated();
    run(id, true)?;
    Ok(Recording {
        samples_ns,
        verified,
        window,
        metrics,
        cpu_seconds,
    })
}

fn pingpong_client<P: P2p>(p: &mut P, sh: &Shared, tr: &mut Tracer) -> Res<Recording> {
    let mut msg = sh.inputs.message.clone();
    drive(sh, |id, last| {
        stamp(&mut msg, id, last, 0);
        let op = tr.begin("op", id);
        tr.span("send", id, || p.send(1, TAG_DATA, &msg))?;
        let echo = tr.span("recv", id, || p.recv(1, TAG_DATA))?;
        let ok = sh.inputs.verify(echo.bytes(), id, 0);
        tr.end(op);
        Ok(ok)
    })
}

fn pingpong_server<P: P2p>(p: &mut P, sh: &Shared, tr: &mut Tracer) -> Res<()> {
    for id in 0.. {
        let op = tr.begin("op", id);
        let ping = tr.span("recv", id, || p.recv(0, TAG_DATA))?;
        if !sh.inputs.verify(ping.bytes(), id, 0) {
            sh.fail();
        }
        tr.span("send", id, || p.send(0, TAG_DATA, ping.bytes()))?;
        tr.end(op);
        if must_read_header(ping.bytes())?.last {
            break;
        }
    }
    Ok(())
}

fn window_client<P: Full>(p: &mut P, sh: &Shared, tr: &mut Tracer) -> Res<Recording> {
    let mut msg = sh.inputs.message.clone();
    drive(sh, |id, last| {
        let op = tr.begin("op", id);
        let reqs = tr.span("send", id, || {
            sh.inputs
                .window_order
                .iter()
                .map(|&index| {
                    stamp(&mut msg, id, last, index as u64);
                    p.isend(1, TAG_WINDOW_BASE + index as u32, &msg)
                })
                .collect::<Res<Vec<_>>>()
        })?;
        tr.span("waitall", id, || p.waitall(&reqs))?;
        let ack = tr.span("recv", id, || p.recv(1, TAG_ACK))?;
        let ok = ack.bytes().is_empty();
        tr.end(op);
        Ok(ok)
    })
}

fn window_server<P: Full>(p: &mut P, sh: &Shared, tr: &mut Tracer) -> Res<()> {
    for id in 0.. {
        let op = tr.begin("op", id);
        let reqs = tr.span("recv", id, || {
            (0..WINDOW_MSGS)
                .map(|index| p.irecv(0, TAG_WINDOW_BASE + index as u32))
                .collect::<Res<Vec<_>>>()
        })?;
        let done = tr.span("waitall", id, || p.waitall(&reqs))?;
        let all_ok = done.iter().enumerate().all(|(index, msg)| {
            msg.as_ref()
                .is_some_and(|m| sh.inputs.verify(m.bytes(), id, index as u64))
        });
        if !all_ok {
            sh.fail();
        }
        tr.span("send", id, || p.send(0, TAG_ACK, &[]))?;
        tr.end(op);
        let first = done.first().and_then(Option::as_ref);
        let first = first.ok_or_else(|| "window receive without a message".to_string())?;
        if must_read_header(first.bytes())?.last {
            break;
        }
    }
    Ok(())
}

fn stream_client<P: P2p>(p: &mut P, sh: &Shared, tr: &mut Tracer) -> Res<Recording> {
    let mut msg = sh.inputs.message.clone();
    drive(sh, |id, last| {
        stamp(&mut msg, id, last, 0);
        let op = tr.begin("op", id);
        tr.span("send", id, || p.send(1, TAG_DATA, &msg))?;
        let ack = tr.span("recv", id, || p.recv(1, TAG_ACK))?;
        let ok = ack.bytes().is_empty();
        tr.end(op);
        Ok(ok)
    })
}

fn stream_server<P: P2p>(p: &mut P, sh: &Shared, tr: &mut Tracer) -> Res<()> {
    for id in 0.. {
        let op = tr.begin("op", id);
        let data = tr.span("recv", id, || p.recv(0, TAG_DATA))?;
        tr.span("send", id, || p.send(0, TAG_ACK, &[]))?;
        // Hash the 4 MiB after the ack has left: the check then overlaps the
        // sender staging its next message instead of stretching this one.
        if !sh.inputs.verify(data.bytes(), id, 0) {
            sh.fail();
        }
        tr.end(op);
        if must_read_header(data.bytes())?.last {
            break;
        }
    }
    Ok(())
}

/// Did an allreduce of one `1.0` per rank give `ranks` everywhere?
fn sum_ok(sum: &[f64], ranks: usize) -> bool {
    sum.len() == REDUCE_LEN && sum.iter().all(|&x| x == ranks as f64)
}

/// The three collectives of one `collectives_8node` operation on one rank:
/// `msg` is the broadcast buffer (the stamped message at the root, empty
/// elsewhere).  Says whether the broadcast bytes and the sum checked out.
fn collectives_op<P: Full>(
    p: &mut P,
    sh: &Shared,
    tr: &mut Tracer,
    id: u64,
    msg: &mut Vec<u8>,
    ones: &[f64],
) -> Res<bool> {
    let op = tr.begin("op", id);
    tr.span("barrier", id, || p.barrier())?;
    tr.span("broadcast", id, || p.broadcast(0, msg))?;
    let sum = tr.span("allreduce", id, || p.allreduce_sum(ones))?;
    let ok = sum_ok(&sum, sh.workload.ranks()) && sh.inputs.verify(msg, id, 0);
    tr.end(op);
    Ok(ok)
}

fn collectives_root<P: Full>(p: &mut P, sh: &Shared, tr: &mut Tracer) -> Res<Recording> {
    let mut msg = sh.inputs.message.clone();
    let ones = vec![1.0f64; REDUCE_LEN];
    drive(sh, |id, last| {
        stamp(&mut msg, id, last, 0);
        collectives_op(p, sh, tr, id, &mut msg, &ones)
    })
}

fn collectives_member<P: Full>(p: &mut P, sh: &Shared, tr: &mut Tracer) -> Res<()> {
    let ones = vec![1.0f64; REDUCE_LEN];
    for id in 0.. {
        let mut msg = Vec::new();
        if !collectives_op(p, sh, tr, id, &mut msg, &ones)? {
            sh.fail();
        }
        if must_read_header(&msg)?.last {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let a = Inputs::generate(5, Workload::WindowCpu);
        let b = Inputs::generate(5, Workload::WindowCpu);
        let c = Inputs::generate(6, Workload::WindowCpu);
        assert_eq!(a.message, b.message);
        assert_eq!(a.window_order, b.window_order);
        assert_ne!(a.message, c.message);
        assert_eq!(a.message.len(), WINDOW_BYTES);
        let mut sorted = a.window_order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..WINDOW_MSGS).collect::<Vec<_>>());
    }

    #[test]
    fn verification_catches_every_kind_of_damage() {
        let inputs = Inputs::generate(1, Workload::PingpongCpu);
        let mut msg = inputs.message.clone();
        stamp(&mut msg, 41, true, 3);
        assert!(inputs.verify(&msg, 41, 3));
        let header = read_header(&msg).unwrap();
        assert!(header.last && header.op == 41 && header.index == 3);
        assert!(!inputs.verify(&msg, 42, 3), "wrong operation");
        assert!(!inputs.verify(&msg, 41, 2), "wrong index");
        assert!(!inputs.verify(&msg[..SMALL_BYTES - 1], 41, 3), "short");
        let mut flipped = msg.clone();
        flipped[SMALL_BYTES - 1] ^= 1;
        assert!(!inputs.verify(&flipped, 41, 3), "flipped body bit");
        assert!(read_header(&msg[..10]).is_none());
    }

    #[test]
    fn hash_depends_on_every_byte_and_the_length() {
        let base: Vec<u8> = (0..100u8).collect();
        let h = hash64(&base);
        for i in 0..base.len() {
            let mut changed = base.clone();
            changed[i] ^= 0x40;
            assert_ne!(hash64(&changed), h, "byte {i}");
        }
        assert_ne!(hash64(&base[..99]), h);
        assert_ne!(hash64(&[0u8; 32]), hash64(&[0u8; 64]));
    }

    #[test]
    fn a_short_round_of_every_workload_verifies_on_both_stacks() {
        let spec = RoundSpec {
            cost: CostModel::zero(),
            window: Duration::from_millis(20),
            trace: true,
        };
        for workload in Workload::ALL {
            for round in [
                run_dcgn_round(workload, 3, &spec),
                run_mpi_round(workload, 3, &spec),
            ] {
                assert!(round.errors.is_empty(), "{workload:?}: {:?}", round.errors);
                assert_eq!(round.failed, 0, "{workload:?}");
                let rec = round.rec.as_ref().expect("rank 0 recorded");
                assert!(!rec.samples_ns.is_empty());
                assert_eq!(rec.verified, rec.samples_ns.len() as u64);
                assert_eq!(
                    round.attempted,
                    workload.warmup_ops() + rec.samples_ns.len() as u64 + 1
                );
                assert_eq!(round.spans.len(), workload.ranks());
                assert!(round.setup_s() > 0.0 && round.ops_per_s() > 0.0);
            }
        }
        for layout in [Workload::IntraNodeCpu, Workload::IntraNodeGpu] {
            let round = run_dcgn_round(layout, 3, &spec);
            assert!(round.errors.is_empty(), "{layout:?}: {:?}", round.errors);
            assert_eq!(round.failed, 0, "{layout:?}");
            assert!(round.percentile_us(50.0) > 0.0);
        }
    }
}
