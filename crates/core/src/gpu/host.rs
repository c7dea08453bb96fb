//! The host side of the mailbox protocol: the GPU-kernel thread that polls
//! device memory, relays harvested requests to the communication thread and
//! writes their completions back, plus the setup context and per-launch
//! statistics it hands to applications.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use dcgn_dpm::{Device, DevicePtr, KernelHandle};
use dcgn_metrics::{Counter, MetricsHandle};
use dcgn_netsim::{Payload, PayloadBuf};
use dcgn_simtime::CostModel;

use super::mailbox::{
    decode_reduce_word, error_code, mailbox_error, mailbox_region_bytes, opcode, record_fields_ptr,
    req_state, req_word, status, Body, GpuLayout, Record, ANY_TAG, MAILBOX_BODY_BYTES, PEER_ANY,
    RESERVED_RECORD,
};
use crate::error::{DcgnError, Result};
use crate::group::CommId;
use crate::message::{CollectiveResult, CommCommand, Inbox, Reply, Request, RequestKind};

/// Host-side context handed to the GPU setup and teardown hooks of
/// [`crate::Runtime::launch_with_gpu_setup`].
///
/// CUDA kernels cannot manage device memory — "this must be handled by the
/// CPU" — so applications allocate buffers and stage input data through this
/// context (which runs on the GPU-kernel thread) before the kernel launches,
/// and read results back after it retires.
pub struct GpuSetupCtx<'a> {
    pub(crate) device: &'a Device,
    pub(crate) layout: &'a GpuLayout,
}

impl GpuSetupCtx<'_> {
    /// The simulated device: allocate with [`Device::malloc`], stage data
    /// with [`Device::memcpy_htod`], read results with
    /// [`Device::memcpy_dtoh_vec`].
    pub fn device(&self) -> &Device {
        self.device
    }

    /// Node hosting this GPU.
    pub fn node(&self) -> usize {
        self.layout.node
    }

    /// Index of the GPU within its node.
    pub fn gpu_index(&self) -> usize {
        self.layout.gpu_index
    }

    /// Number of slots this GPU is virtualised into.
    pub fn slots(&self) -> usize {
        self.layout.slots
    }

    /// DCGN rank of `slot` on this GPU.
    pub fn slot_rank(&self, slot: usize) -> usize {
        self.layout.slot_rank(slot)
    }

    /// Total number of DCGN ranks in the job.
    pub fn size(&self) -> usize {
        self.layout.total_ranks
    }
}

/// Statistics describing one GPU-kernel thread's polling behaviour during a
/// launch — reported in [`crate::LaunchReport`] and read by the
/// polling-interval ablation and the repository benchmark's `core.gpu_*`
/// probes.
#[derive(Debug, Clone)]
pub struct GpuPollStats {
    /// Node the GPU belongs to.
    pub node: usize,
    /// GPU index within the node.
    pub gpu_index: usize,
    /// Number of polling sweeps over the mailbox array.
    pub polls: u64,
    /// Number of communication requests relayed.
    pub requests: u64,
    /// Batched PCI-e reads of the status column (at most one per sweep,
    /// however many slots there are; none while every slot's blocking call
    /// is in flight).
    pub batched_status_reads: u64,
    /// Batched PCI-e fetches of `REQUESTED` bodies (one covers every slot
    /// harvested in the sweep).
    pub batched_entry_reads: u64,
    /// Batched PCI-e writes acknowledging harvested slots back to `EMPTY` —
    /// one covers every slot harvested in the sweep, mirroring the batched
    /// reads.
    pub batched_status_writes: u64,
    /// Wall-clock time spent actively polling/copying (not sleeping).
    pub busy: Duration,
    /// Total wall-clock lifetime of the polling loop.
    pub wall: Duration,
}

impl GpuPollStats {
    /// Fraction of the polling loop's lifetime spent busy (0.0–1.0).
    pub fn busy_fraction(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / self.wall.as_secs_f64()
        }
    }
}

/// One harvested request between its relay to the comm thread and its
/// completion into the record it named.
struct PendingOp {
    /// Replies the comm thread still owes (two for `SENDRECV_REPLACE`, none
    /// for a request that failed to stage, one otherwise) and the replies
    /// already collected.
    awaiting: usize,
    replies: Vec<Reply>,
    /// The record's claim generation, echoed in its `DONE` word.
    gen: u32,
    /// The device buffer a result is written back to and its capacity —
    /// `None` when the device already holds the result bytes (broadcast at
    /// the root), so no PCI-e write-back is needed.
    buffer: Option<(DevicePtr, usize)>,
    /// Per-rank block size for the in-place chunked collectives
    /// (gather/allgather); 0 for other operations.
    unit_len: usize,
}

/// Key of an in-flight request: the slot and the index of its completion
/// record within that slot's column.
type PendingKey = (usize, usize);

/// The host-side driver of one GPU: launches the kernel, polls the mailbox
/// region on a sleep-based interval, relays requests to the communication
/// thread and writes completions back into device memory.
pub(crate) struct GpuKernelThread {
    pub device: Arc<Device>,
    pub layout: GpuLayout,
    pub work_tx: Sender<CommCommand>,
    pub cost: CostModel,
    pub metrics: GpuThreadMetrics,
    /// Where every reply to a relayed request lands, tagged with the
    /// `(slot, record)` the request completes into.
    pub inbox: Inbox,
}

/// The polling loop's counters, registered in the unified metrics registry
/// under `gpu.*.node{N}.gpu{G}` so they show up in [`MetricsSnapshot`]s.
/// The registry accumulates across launches; [`GpuKernelThread::run`]
/// subtracts a baseline taken at entry so each launch's [`GpuPollStats`]
/// keeps per-launch semantics.
///
/// [`MetricsSnapshot`]: dcgn_metrics::MetricsSnapshot
#[derive(Debug, Clone, Default)]
pub(crate) struct GpuThreadMetrics {
    polls: Counter,
    requests: Counter,
    batched_status_reads: Counter,
    batched_entry_reads: Counter,
    batched_status_writes: Counter,
}

impl GpuThreadMetrics {
    /// Resolve the five polling counters for GPU `gpu_index` on `node` in
    /// `metrics`.  A disabled handle falls back to a private registry so the
    /// per-launch [`GpuPollStats`] stay meaningful even when the user opted
    /// out of stack-wide metrics.
    pub fn new(metrics: &MetricsHandle, node: usize, gpu_index: usize) -> Self {
        let local;
        let metrics = if metrics.is_enabled() {
            metrics
        } else {
            local = MetricsHandle::new();
            &local
        };
        let counter =
            |name: &str| metrics.counter(&format!("gpu.{name}.node{node}.gpu{gpu_index}"));
        Self {
            polls: counter("polls"),
            requests: counter("requests"),
            batched_status_reads: counter("batched_status_reads"),
            batched_entry_reads: counter("batched_entry_reads"),
            batched_status_writes: counter("batched_status_writes"),
        }
    }

    /// The counters' current (accumulated) values as the stats of `layout`'s
    /// GPU, with the given loop times.
    fn stats(&self, layout: &GpuLayout, busy: Duration, wall: Duration) -> GpuPollStats {
        GpuPollStats {
            node: layout.node,
            gpu_index: layout.gpu_index,
            polls: self.polls.get(),
            requests: self.requests.get(),
            batched_status_reads: self.batched_status_reads.get(),
            batched_entry_reads: self.batched_entry_reads.get(),
            batched_status_writes: self.batched_status_writes.get(),
            busy,
            wall,
        }
    }
}

/// The receive a `RECV` (or the inbound half of a `SENDRECV_REPLACE`) body
/// asks for: [`PEER_ANY`] / [`ANY_TAG`] words decode to wildcard filters.
fn recv_kind(peer: u32, tag: u32) -> RequestKind {
    RequestKind::Recv {
        src: (peer != PEER_ANY).then_some(peer as usize),
        tag: (tag != ANY_TAG).then_some(tag),
    }
}

impl GpuKernelThread {
    /// Allocate and zero the struct-of-arrays mailbox region for `slots`
    /// slots of `reqs_per_slot` nonblocking completion records each on
    /// `device`.
    pub fn allocate_mailboxes(
        device: &Device,
        slots: usize,
        reqs_per_slot: usize,
    ) -> Result<DevicePtr> {
        let bytes = mailbox_region_bytes(slots, reqs_per_slot);
        let ptr = device.malloc(bytes)?;
        device.memcpy_htod(ptr, &vec![0u8; bytes])?;
        Ok(ptr)
    }

    /// Pull `len` device bytes at `ptr` into a pooled payload.  The pool's
    /// classes leave room for the wire envelope, so the comm thread frames a
    /// remote send in this same buffer instead of copying the body again.
    /// The range comes from the kernel, so it is checked against device
    /// memory before anything is allocated for it.
    fn pull_payload(&self, ptr: DevicePtr, len: usize) -> Result<Payload> {
        let end = ptr.offset().checked_add(len);
        if end.is_none_or(|end| end > self.device.memory_capacity()) {
            return Err(DcgnError::Internal(format!(
                "{len} bytes at {ptr} reach outside device memory"
            )));
        }
        let mut buf = PayloadBuf::with_capacity(len);
        self.device.memcpy_dtoh(buf.body_mut(len), ptr)?;
        Ok(buf.freeze())
    }

    /// Relay a harvested body: queue its request(s) into the sweep's `batch`
    /// (shipped to the comm thread as one [`CommCommand::Batch`]) and return
    /// the bookkeeping its completion needs.  A body that cannot be turned
    /// into requests (a buffer outside device memory, an unknown opcode or
    /// reduce word) yields an op that is already answered with the error,
    /// so it completes into its record on the next sweep and the kernel
    /// faults instead of waiting forever.
    fn stage(&self, slot: usize, body: &Body, batch: &mut Vec<Request>) -> PendingOp {
        let mut op = PendingOp {
            awaiting: 0,
            replies: Vec::new(),
            gen: body.gen,
            buffer: Some((body.data, body.len)),
            unit_len: 0,
        };
        match self.requests(body, &mut op) {
            Ok(kinds) => {
                for kind in kinds.into_iter().flatten() {
                    batch.push(Request {
                        src_rank: self.layout.slot_rank(slot),
                        kind,
                        reply_to: self.inbox.reply_to((slot as u32, body.record)),
                    });
                    op.awaiting += 1;
                }
            }
            Err(e) => op.replies.push(Reply::Error(e)),
        }
        op
    }

    /// The request(s) `body` asks for — two for `SENDRECV_REPLACE` — with
    /// `op`'s write-back bookkeeping adjusted where the operation's buffer
    /// convention needs it.  The payload leaves device memory here, which
    /// is why the slot can be acknowledged straight back to `EMPTY`.
    fn requests(&self, body: &Body, op: &mut PendingOp) -> Result<[Option<RequestKind>; 2]> {
        let Body {
            peer, peer2, aux, ..
        } = *body;
        let (data_ptr, len) = (body.data, body.len);
        let comm = CommId::from_raw(body.comm);
        // Collectives carry the slot's position and the group size in the
        // `peer2`/`aux` words (equal to the global rank and total rank count
        // for world operations); `peer` is the root's sub-rank.
        let (root, sub, group_size) = (peer as usize, peer2 as usize, aux as usize);
        let pull = |len: usize| self.pull_payload(data_ptr, len);

        let mut inbound = None;
        let kind = match body.opcode {
            opcode::SEND | opcode::SENDRECV_REPLACE => {
                // `SENDRECV_REPLACE` relays two requests together: the
                // outbound copy of the buffer and the inbound replacement.
                inbound = (body.opcode != opcode::SEND).then(|| recv_kind(peer2, aux));
                // The payload is pulled from device memory over PCI-e into
                // a pooled buffer and is never copied again on the host.
                let data = pull(len)?;
                let (dst, tag) = (root, aux);
                RequestKind::Send { dst, tag, data }
            }
            opcode::RECV => recv_kind(peer, aux),
            opcode::BARRIER => RequestKind::Barrier { comm },
            opcode::BROADCAST => {
                let data = if sub == root {
                    // The root's device buffer already holds the payload,
                    // so the completion does not copy it back down.
                    op.buffer = None;
                    Some(pull(len)?)
                } else {
                    None
                };
                RequestKind::Broadcast { comm, root, data }
            }
            opcode::GATHER | opcode::ALLGATHER => {
                // In-place convention: this slot's contribution sits at its
                // sub-rank's offset inside a `group_size × len` buffer
                // (saturating: an absurd offset fails the range check).
                let mine = data_ptr.offset().saturating_add(sub.saturating_mul(len));
                let data = self.pull_payload(DevicePtr::NULL.add(mine), len)?;
                op.unit_len = len;
                op.buffer = Some((data_ptr, len.saturating_mul(group_size)));
                if body.opcode == opcode::GATHER {
                    RequestKind::Gather { comm, root, data }
                } else {
                    RequestKind::Allgather { comm, data }
                }
            }
            opcode::SCATTER => {
                // The root stages one `len`-byte chunk per member; the
                // chunks are zero-copy views of one pulled buffer.
                let chunks = if sub == root {
                    let staged = pull(len.saturating_mul(group_size))?;
                    let chunk = |r: usize| staged.slice(r * len..(r + 1) * len);
                    Some((0..group_size).map(chunk).collect())
                } else {
                    None
                };
                RequestKind::Scatter { comm, root, chunks }
            }
            opcode::REDUCE | opcode::ALLREDUCE => {
                let word = body.reduce;
                let (op, dtype) = decode_reduce_word(word).ok_or_else(|| {
                    DcgnError::Internal(format!("unknown reduce op/dtype word {word:#x}"))
                })?;
                let data = pull(len)?;
                if body.opcode == opcode::REDUCE {
                    RequestKind::Reduce {
                        comm,
                        root,
                        data,
                        op,
                        dtype,
                    }
                } else {
                    RequestKind::Allreduce {
                        comm,
                        data,
                        op,
                        dtype,
                    }
                }
            }
            // The split's reply (the encoded membership) is written back
            // into the slot's table buffer like any `Bytes` result.
            opcode::SPLIT => {
                let (color, key) = (peer, peer2);
                RequestKind::Split { comm, color, key }
            }
            opcode::FREE => RequestKind::CommFree { comm },
            other => {
                return Err(DcgnError::Internal(format!(
                    "unknown mailbox opcode {other}"
                )))
            }
        };
        Ok([Some(kind), inbound])
    }

    /// Copy a completed request's result bytes into its device buffer —
    /// straight from the shared payload (for inter-node messages, the wire
    /// frame itself), no intermediate host copy — and note their length.
    /// Bytes that do not fit, or a buffer outside device memory, complete
    /// the request with an error code instead.
    fn write_back(&self, op: &PendingOp, bytes: &[u8], record: &mut Record) {
        record.len = bytes.len() as u64;
        let Some((ptr, capacity)) = op.buffer else {
            return;
        };
        if bytes.len() > capacity {
            record.error = mailbox_error::TRUNCATED;
        } else if self.device.memcpy_htod(ptr, bytes).is_err() {
            record.error = mailbox_error::OTHER;
        }
    }

    /// Complete a request whose replies have all arrived: write this rank's
    /// share of the result into the slot's device buffer, then the record's
    /// result fields, then flip its word to `DONE` (a separate word write,
    /// like the real implementation's flag protocol — the kernel's
    /// `test`/`wait` read that word).  Fails only when the record itself
    /// cannot be written.
    fn complete(&self, (slot, index): PendingKey, op: &mut PendingOp) -> Result<()> {
        let mut record = Record::default();
        for reply in std::mem::take(&mut op.replies) {
            match reply {
                Reply::SendDone | Reply::CollectiveDone(CollectiveResult::Unit) => {}
                Reply::RecvDone { data, status } => {
                    record.source = status.source as u32;
                    record.tag = status.tag;
                    self.write_back(op, data.as_slice(), &mut record);
                }
                Reply::CollectiveDone(CollectiveResult::Bytes(data)) => {
                    self.write_back(op, data.as_slice(), &mut record);
                }
                Reply::CollectiveDone(CollectiveResult::Chunks(chunks)) => {
                    // In-place gather/allgather: the device buffer expects
                    // equal `unit_len`-byte blocks, one per rank.
                    if chunks.iter().any(|c| c.len() != op.unit_len) {
                        record.error = mailbox_error::TRUNCATED;
                    } else {
                        let mut flat = Vec::with_capacity(chunks.len() * op.unit_len);
                        for chunk in &chunks {
                            flat.extend_from_slice(chunk.as_slice());
                        }
                        self.write_back(op, &flat, &mut record);
                    }
                }
                Reply::Error(e) => record.error = error_code(&e),
            }
        }
        let ptr = self.layout.record_ptr(slot, index);
        self.device
            .memcpy_htod(record_fields_ptr(ptr), &record.encode())?;
        self.device
            .write_u32(ptr, req_word(op.gen, req_state::DONE))?;
        Ok(())
    }

    /// The one place this thread receives from its inbox: wait up to `wait`
    /// for a reply — whichever request's lands first — then file it, and
    /// whatever else has arrived, under the pending op its token names.
    fn collect(&self, pending: &mut HashMap<PendingKey, PendingOp>, mut wait: Duration) {
        while let Some(((slot, record), reply)) = self.inbox.recv_timeout(wait) {
            if let Some(op) = pending.get_mut(&(slot as usize, record as usize)) {
                op.replies.push(reply);
                op.awaiting -= 1;
            }
            wait = Duration::ZERO;
        }
    }

    /// One polling sweep: complete finished requests, then harvest every
    /// newly `REQUESTED` slot with one batched status-column read, one
    /// scattered body fetch and one scattered write acknowledging them back
    /// to `EMPTY`, relaying the harvest as a single [`CommCommand::Batch`].
    /// Returns true when the sweep did any work.
    fn sweep(&self, pending: &mut HashMap<PendingKey, PendingOp>) -> Result<bool> {
        let mut did_work = false;

        // Completions: requests whose replies have all arrived from the
        // comm thread get written back to device memory.
        self.collect(pending, Duration::ZERO);
        let done: Vec<PendingKey> = pending
            .iter()
            .filter_map(|(&key, op)| (op.awaiting == 0).then_some(key))
            .collect();
        for key in done {
            self.cost.charge_queue_hop();
            let mut op = pending.remove(&key).expect("selected above");
            self.complete(key, &mut op)?;
            did_work = true;
        }

        // New requests: one batched PCI-e read covers every slot's status
        // word.  Skipped entirely while every slot has its blocking call in
        // flight (its reserved record pending): the kernel behind each slot
        // is waiting, not publishing.
        let blocked_slots = pending
            .keys()
            .filter(|&&(_, index)| index == RESERVED_RECORD)
            .count();
        if blocked_slots == self.layout.slots {
            return Ok(did_work);
        }
        let statuses = self
            .device
            .read_u32s(self.layout.mailbox_base, self.layout.slots)?;
        self.metrics.batched_status_reads.inc();
        let requested: Vec<usize> = (0..self.layout.slots)
            .filter(|&slot| statuses[slot] == status::REQUESTED)
            .collect();
        if requested.is_empty() {
            return Ok(did_work);
        }
        // One scattered fetch pulls every requested body together.
        let ranges: Vec<(DevicePtr, usize)> = requested
            .iter()
            .map(|&slot| (self.layout.body_ptr(slot), MAILBOX_BODY_BYTES))
            .collect();
        let bodies = self.device.memcpy_dtoh_scattered(&ranges)?;
        self.metrics.batched_entry_reads.inc();
        let mut batch = Vec::new();
        let mut acks: Vec<(DevicePtr, u32)> = Vec::with_capacity(requested.len());
        for (&slot, bytes) in requested.iter().zip(&bodies) {
            // A body naming no record of this slot, or one still in flight,
            // was not written by `GpuCtx`: the mailbox is corrupt and there
            // is no record to complete the request into.
            let body = Body::decode(bytes, self.layout.records_per_slot())?;
            let op = self.stage(slot, &body, &mut batch);
            if pending.insert((slot, body.record as usize), op).is_some() {
                return Err(DcgnError::Internal(format!(
                    "slot {slot} republished a completion record still in flight"
                )));
            }
            acks.push((self.layout.status_ptr(slot), status::EMPTY));
            self.metrics.requests.inc();
        }
        // One scattered write acknowledges the whole harvest — the
        // write-side mirror of the batched status read.
        self.device.write_u32s_scattered(&acks)?;
        self.metrics.batched_status_writes.inc();
        if !batch.is_empty() {
            // The whole harvest crosses the work queue as one command.  A
            // comm thread that is gone hands it back: dropping it answers
            // every request in it `ShuttingDown`.
            self.cost.charge_queue_hop();
            let _ = self.work_tx.send(CommCommand::Batch(batch));
        }
        Ok(true)
    }

    /// Run the sleep-based polling loop until the kernel has retired and all
    /// outstanding requests have been completed.
    pub fn run(&self, handle: &KernelHandle) -> Result<GpuPollStats> {
        /// How long after kernel retirement the loop keeps servicing
        /// requests the kernel abandoned (published but never waited on)
        /// before giving up with an error.  Legitimate in-flight
        /// completions land well within this; an irrecoverable request (e.g.
        /// an `irecv` nothing will ever match) must not hang the launch.
        const ABANDONED_GRACE: Duration = Duration::from_secs(5);

        let started = Instant::now();
        let mut busy = Duration::ZERO;
        // The registry accumulates across launches; a baseline taken here
        // keeps the returned per-launch stats delta-based.
        let before = self
            .metrics
            .stats(&self.layout, Duration::ZERO, Duration::ZERO);
        let mut pending: HashMap<PendingKey, PendingOp> = HashMap::new();
        let mut retired_at: Option<Instant> = None;

        loop {
            if pending.is_empty() {
                // Sleep-based polling: the CPU deliberately yields between
                // sweeps, trading request-discovery latency for host CPU
                // load (§3.2.3).
                dcgn_simtime::precise_sleep(self.cost.poll_interval);
            } else {
                // Requests are in flight with the comm thread: block on the
                // inbox (a true wait, not a spin) so completions are written
                // back as soon as a reply lands — the real GPU-kernel thread
                // handles a picked-up request synchronously — while still
                // sweeping for newly published requests at least once per
                // interval.
                self.collect(&mut pending, self.cost.poll_interval);
            }
            let sweep_start = Instant::now();
            self.metrics.polls.inc();
            let did_work = self.sweep(&mut pending)?;
            busy += sweep_start.elapsed();

            if handle.is_done() {
                if pending.is_empty() {
                    if !did_work {
                        break;
                    }
                } else {
                    // Only nonblocking requests can outlive the kernel (a
                    // blocking call pins its block until completion).
                    let since = *retired_at.get_or_insert_with(Instant::now);
                    if did_work {
                        retired_at = Some(Instant::now());
                    } else if since.elapsed() > ABANDONED_GRACE {
                        return Err(DcgnError::Internal(format!(
                            "GPU {}:{} kernel retired with {} abandoned nonblocking \
                             request(s) that never completed",
                            self.layout.node,
                            self.layout.gpu_index,
                            pending.len()
                        )));
                    }
                }
            }
        }
        let now = self.metrics.stats(&self.layout, busy, started.elapsed());
        Ok(GpuPollStats {
            polls: now.polls - before.polls,
            requests: now.requests - before.requests,
            batched_status_reads: now.batched_status_reads - before.batched_status_reads,
            batched_entry_reads: now.batched_entry_reads - before.batched_entry_reads,
            batched_status_writes: now.batched_status_writes - before.batched_status_writes,
            ..now
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::mailbox::{MAILBOX_REQS_PER_SLOT, RECORD_FIELDS_BYTES};
    use super::*;

    #[test]
    fn poll_stats_busy_fraction() {
        let stats = GpuPollStats {
            node: 0,
            gpu_index: 0,
            polls: 10,
            requests: 2,
            batched_status_reads: 10,
            batched_entry_reads: 2,
            batched_status_writes: 2,
            busy: Duration::from_millis(25),
            wall: Duration::from_millis(100),
        };
        assert!((stats.busy_fraction() - 0.25).abs() < 1e-9);
        let empty = GpuPollStats {
            wall: Duration::ZERO,
            ..stats
        };
        assert_eq!(empty.busy_fraction(), 0.0);
    }

    #[test]
    fn mailbox_allocation_is_zeroed() {
        let device = Device::new_default(0);
        let ptr = GpuKernelThread::allocate_mailboxes(&device, 4, MAILBOX_REQS_PER_SLOT).unwrap();
        let bytes = device
            .memcpy_dtoh_vec(ptr, mailbox_region_bytes(4, MAILBOX_REQS_PER_SLOT))
            .unwrap();
        assert!(bytes.iter().all(|&b| b == 0));
    }

    /// Build a host-side GPU-kernel thread wired to a plain channel, with
    /// every mailbox zeroed.
    fn test_gpu_thread(
        slots: usize,
    ) -> (GpuKernelThread, crossbeam::channel::Receiver<CommCommand>) {
        let device = Device::new_default(0);
        let mailbox_base =
            GpuKernelThread::allocate_mailboxes(&device, slots, MAILBOX_REQS_PER_SLOT).unwrap();
        let (work_tx, work_rx) = crossbeam::channel::unbounded();
        (
            GpuKernelThread {
                device,
                layout: GpuLayout {
                    node: 0,
                    gpu_index: 0,
                    slots,
                    reqs_per_slot: MAILBOX_REQS_PER_SLOT,
                    slot_rank_base: 0,
                    total_ranks: slots,
                    mailbox_base,
                },
                work_tx,
                cost: CostModel::zero(),
                metrics: GpuThreadMetrics::new(&MetricsHandle::new(), 0, 0),
                inbox: Inbox::new(),
            },
            work_rx,
        )
    }

    /// Publish `body` on `slot` under generation 1 of `record`, the way a
    /// device block would (through the one body encoder).
    fn publish(gpu: &GpuKernelThread, slot: usize, record: usize, body: Body) {
        let body = Body {
            record: record as u32,
            gen: 1,
            ..body
        };
        let l = &gpu.layout;
        let pending = req_word(1, req_state::PENDING);
        gpu.device
            .write_u32(l.record_ptr(slot, record), pending)
            .unwrap();
        gpu.device
            .memcpy_htod(l.body_ptr(slot), &body.encode())
            .unwrap();
        gpu.device
            .write_u32(l.status_ptr(slot), status::REQUESTED)
            .unwrap();
    }

    fn barrier_body(gpu: &GpuKernelThread, slot: usize) -> Body {
        Body {
            peer2: slot as u32,
            aux: gpu.layout.slots as u32,
            ..Body::new(opcode::BARRIER, 0, DevicePtr::NULL, 0)
        }
    }

    fn record_word(gpu: &GpuKernelThread, slot: usize, record: usize) -> u32 {
        let ptr = gpu.layout.record_ptr(slot, record);
        gpu.device.read_u32(ptr).unwrap()
    }

    fn record_fields(gpu: &GpuKernelThread, slot: usize, record: usize) -> Record {
        let ptr = record_fields_ptr(gpu.layout.record_ptr(slot, record));
        let bytes = gpu
            .device
            .memcpy_dtoh_vec(ptr, RECORD_FIELDS_BYTES)
            .unwrap();
        Record::decode(bytes.as_slice().try_into().unwrap())
    }

    #[test]
    fn one_sweep_harvests_n_slots_with_one_status_read_and_one_batch() {
        let slots = 4;
        let (gpu, work_rx) = test_gpu_thread(slots);
        for slot in 0..slots {
            publish(&gpu, slot, RESERVED_RECORD, barrier_body(&gpu, slot));
        }

        let mut pending = HashMap::new();
        let reads_before = gpu.device.dtoh_transfer_count();
        let writes_before = gpu.device.htod_transfer_count();
        gpu.sweep(&mut pending).unwrap();

        // Exactly one status-column read plus one scattered body fetch —
        // not one PCI-e round trip per slot.
        assert_eq!(
            gpu.device.dtoh_transfer_count(),
            reads_before + 2,
            "a sweep over {slots} requested slots must issue exactly 2 device reads"
        );
        // ... and exactly one scattered acknowledgement write, not one
        // write per slot.
        assert_eq!(
            gpu.device.htod_transfer_count(),
            writes_before + 1,
            "a sweep over {slots} requested slots must issue exactly 1 device write"
        );
        assert_eq!(gpu.metrics.batched_status_reads.get(), 1);
        assert_eq!(gpu.metrics.batched_entry_reads.get(), 1);
        assert_eq!(gpu.metrics.batched_status_writes.get(), 1);
        assert_eq!(gpu.metrics.requests.get(), slots as u64);
        assert_eq!(pending.len(), slots);
        // Every slot is acknowledged straight back to EMPTY; its record
        // stays PENDING until the completion.
        for slot in 0..slots {
            let status_ptr = gpu.layout.status_ptr(slot);
            assert_eq!(gpu.device.read_u32(status_ptr).unwrap(), status::EMPTY);
            assert_eq!(
                record_word(&gpu, slot, RESERVED_RECORD),
                req_word(1, req_state::PENDING)
            );
        }

        // The whole harvest crossed the work queue as a single Batch.
        let reqs = match work_rx.try_recv().unwrap() {
            CommCommand::Batch(reqs) => reqs,
            other => panic!("expected one Batch command, got {other:?}"),
        };
        assert_eq!(reqs.len(), slots);
        assert!(work_rx.try_recv().is_err(), "no further queue traffic");

        // Completing the replies flips every record to DONE on the next
        // sweep: two device writes per completion (fields, then the word).
        for req in reqs {
            req.reply_to
                .complete(Reply::CollectiveDone(CollectiveResult::Unit));
        }
        let reads_before = gpu.device.dtoh_transfer_count();
        let writes_before = gpu.device.htod_transfer_count();
        gpu.sweep(&mut pending).unwrap();
        assert!(pending.is_empty());
        assert_eq!(
            gpu.device.htod_transfer_count(),
            writes_before + 2 * slots as u64
        );
        // No slot is blocked any more, so the same sweep goes on to read
        // the status column (once; nothing is requested).
        assert_eq!(gpu.device.dtoh_transfer_count(), reads_before + 1);
        for slot in 0..slots {
            assert_eq!(
                record_word(&gpu, slot, RESERVED_RECORD),
                req_word(1, req_state::DONE)
            );
            assert_eq!(
                record_fields(&gpu, slot, RESERVED_RECORD),
                Record::default()
            );
        }
    }

    /// The exact PCI-e transfers one small request costs, per request kind,
    /// on a 1-slot GPU: the sweep that harvests it and the sweep that
    /// completes it, as `(device reads, device writes)`.  A change to the
    /// mailbox protocol states its win as a diff of this table.
    #[test]
    fn each_request_kind_costs_a_pinned_number_of_transfers_per_sweep() {
        const LEN: usize = 64;
        let buf = DevicePtr::NULL.add(1 << 20);
        let received = || {
            let mut data = PayloadBuf::with_capacity(LEN);
            data.body_mut(LEN).fill(7);
            let status = crate::message::CommStatus {
                source: 1,
                tag: 0,
                len: LEN,
            };
            Reply::RecvDone {
                data: data.freeze(),
                status,
            }
        };
        let unit = || Reply::CollectiveDone(CollectiveResult::Unit);
        let (gpu, _) = test_gpu_thread(1);
        let send = Body::new(opcode::SEND, 1, buf, LEN);
        let recv = Body::new(opcode::RECV, 1, buf, LEN);
        // (kind, record, body, reply, harvest sweep, completion sweep)
        let table = [
            (
                "blocking SEND",
                RESERVED_RECORD,
                send,
                Reply::SendDone,
                (3, 1),
                (1, 2),
            ),
            (
                "blocking RECV",
                RESERVED_RECORD,
                recv,
                received(),
                (2, 1),
                (1, 3),
            ),
            ("ISEND", 1, send, Reply::SendDone, (3, 1), (1, 2)),
            ("IRECV", 1, recv, received(), (2, 1), (1, 3)),
            (
                "BARRIER",
                RESERVED_RECORD,
                barrier_body(&gpu, 0),
                unit(),
                (2, 1),
                (1, 2),
            ),
        ];
        for (kind, record, body, reply, harvest, completion) in table {
            let (gpu, work_rx) = test_gpu_thread(1);
            let mut pending = HashMap::new();
            let transfers = |gpu: &GpuKernelThread| {
                (
                    gpu.device.dtoh_transfer_count(),
                    gpu.device.htod_transfer_count(),
                )
            };
            let delta =
                |before: (u64, u64), after: (u64, u64)| (after.0 - before.0, after.1 - before.1);
            publish(&gpu, 0, record, body);
            let before = transfers(&gpu);
            gpu.sweep(&mut pending).unwrap();
            assert_eq!(delta(before, transfers(&gpu)), harvest, "{kind}: harvest");
            let CommCommand::Batch(mut reqs) = work_rx.try_recv().unwrap() else {
                panic!("{kind}: expected a Batch");
            };
            reqs.pop().unwrap().reply_to.complete(reply);
            let before = transfers(&gpu);
            gpu.sweep(&mut pending).unwrap();
            assert_eq!(
                delta(before, transfers(&gpu)),
                completion,
                "{kind}: completion"
            );
            assert!(pending.is_empty(), "{kind}");
            assert_eq!(record_word(&gpu, 0, record), req_word(1, req_state::DONE));
        }
    }

    #[test]
    fn status_read_is_skipped_only_while_every_reserved_record_is_pending() {
        let slots = 2;
        let (gpu, _work_rx) = test_gpu_thread(slots);
        let mut pending = HashMap::new();
        // Slot 0 blocks; slot 1 has only a nonblocking request in flight,
        // so it may publish again: the status column is still read.
        publish(&gpu, 0, RESERVED_RECORD, barrier_body(&gpu, 0));
        publish(&gpu, 1, 1, barrier_body(&gpu, 1));
        gpu.sweep(&mut pending).unwrap();
        assert_eq!(pending.len(), 2);
        let reads = gpu.device.dtoh_transfer_count();
        gpu.sweep(&mut pending).unwrap();
        assert_eq!(gpu.device.dtoh_transfer_count(), reads + 1);
        // Slot 1 blocks too: nothing can publish, nothing is read.
        publish(&gpu, 1, RESERVED_RECORD, barrier_body(&gpu, 1));
        gpu.sweep(&mut pending).unwrap();
        assert_eq!(pending.len(), 3);
        let reads = gpu.device.dtoh_transfer_count();
        assert!(!gpu.sweep(&mut pending).unwrap());
        assert_eq!(gpu.device.dtoh_transfer_count(), reads);
    }

    #[test]
    fn a_request_that_cannot_be_staged_completes_with_an_error_code() {
        let (gpu, work_rx) = test_gpu_thread(3);
        let outside = DevicePtr::NULL.add(gpu.device.memory_capacity());
        let mut reduce = Body::new(opcode::ALLREDUCE, 0, DevicePtr::NULL.add(4096), 8);
        reduce.reduce = 0xFFFF;
        publish(
            &gpu,
            0,
            RESERVED_RECORD,
            Body::new(opcode::SEND, 1, outside, 8),
        );
        publish(&gpu, 1, 2, Body::new(99, 0, DevicePtr::NULL, 0));
        publish(&gpu, 2, RESERVED_RECORD, reduce);

        let mut pending = HashMap::new();
        gpu.sweep(&mut pending).unwrap();
        assert_eq!(pending.len(), 3);
        assert!(
            work_rx.try_recv().is_err(),
            "nothing reached the comm thread"
        );
        gpu.sweep(&mut pending).unwrap();
        assert!(pending.is_empty());
        for (slot, record) in [(0, RESERVED_RECORD), (1, 2), (2, RESERVED_RECORD)] {
            assert_eq!(
                record_word(&gpu, slot, record),
                req_word(1, req_state::DONE)
            );
            let fields = record_fields(&gpu, slot, record);
            assert_eq!(fields.error, mailbox_error::OTHER);
        }
    }

    #[test]
    fn a_result_that_cannot_be_written_back_completes_with_an_error_code() {
        let (gpu, work_rx) = test_gpu_thread(1);
        let outside = DevicePtr::NULL.add(gpu.device.memory_capacity());
        publish(&gpu, 0, 1, Body::new(opcode::RECV, 0, outside, 8));
        let mut pending = HashMap::new();
        gpu.sweep(&mut pending).unwrap();
        let CommCommand::Batch(mut reqs) = work_rx.try_recv().unwrap() else {
            panic!("expected a Batch");
        };
        let status = crate::message::CommStatus {
            source: 0,
            tag: 0,
            len: 8,
        };
        let mut data = PayloadBuf::with_capacity(8);
        data.body_mut(8).fill(7);
        reqs.pop().unwrap().reply_to.complete(Reply::RecvDone {
            data: data.freeze(),
            status,
        });
        gpu.sweep(&mut pending).unwrap();
        assert_eq!(record_word(&gpu, 0, 1), req_word(1, req_state::DONE));
        assert_eq!(record_fields(&gpu, 0, 1).error, mailbox_error::OTHER);
    }

    #[test]
    fn a_request_the_comm_thread_drops_completes_with_the_shutdown_code() {
        let (gpu, work_rx) = test_gpu_thread(1);
        let buf = DevicePtr::NULL.add(4096);
        publish(&gpu, 0, RESERVED_RECORD, Body::new(opcode::RECV, 0, buf, 8));
        let mut pending = HashMap::new();
        gpu.sweep(&mut pending).unwrap();
        assert_eq!(pending.len(), 1);
        // The comm thread goes away with the batch in hand.
        drop(work_rx.try_recv().unwrap());
        gpu.sweep(&mut pending).unwrap();
        assert!(pending.is_empty());
        assert_eq!(
            record_word(&gpu, 0, RESERVED_RECORD),
            req_word(1, req_state::DONE)
        );
        let fields = record_fields(&gpu, 0, RESERVED_RECORD);
        assert_eq!(fields.error, mailbox_error::SHUTDOWN);

        // ... or is already gone when the next harvest is relayed.
        drop(work_rx);
        publish(&gpu, 0, 1, barrier_body(&gpu, 0));
        gpu.sweep(&mut pending).unwrap();
        gpu.sweep(&mut pending).unwrap();
        assert!(pending.is_empty());
        assert_eq!(record_fields(&gpu, 0, 1).error, mailbox_error::SHUTDOWN);
    }

    #[test]
    fn the_inbox_wait_wakes_on_whichever_reply_lands_first() {
        let (gpu, work_rx) = test_gpu_thread(1);
        let mut pending = HashMap::new();
        let mut reqs = Vec::new();
        for record in [1, 2] {
            publish(&gpu, 0, record, barrier_body(&gpu, 0));
            gpu.sweep(&mut pending).unwrap();
            let CommCommand::Batch(batch) = work_rx.try_recv().unwrap() else {
                panic!("expected a Batch");
            };
            reqs.extend(batch);
        }
        assert_eq!(pending.len(), 2);
        // Only the second record's request is answered.
        let second = reqs.pop().unwrap();
        second
            .reply_to
            .complete(Reply::CollectiveDone(CollectiveResult::Unit));
        let deadline = Duration::from_secs(30);
        let waited = Instant::now();
        gpu.collect(&mut pending, deadline);
        assert!(
            waited.elapsed() < deadline / 2,
            "the wait ran to its deadline"
        );
        gpu.sweep(&mut pending).unwrap();
        assert_eq!(record_word(&gpu, 0, 2), req_word(1, req_state::DONE));
        assert_eq!(record_word(&gpu, 0, 1), req_word(1, req_state::PENDING));
        assert_eq!(pending.len(), 1);
    }

    #[test]
    fn empty_sweep_reads_the_status_column_once_and_sends_nothing() {
        let (gpu, work_rx) = test_gpu_thread(3);
        let mut pending = HashMap::new();
        let reads_before = gpu.device.dtoh_transfer_count();
        assert!(!gpu.sweep(&mut pending).unwrap());
        assert_eq!(gpu.device.dtoh_transfer_count(), reads_before + 1);
        assert_eq!(gpu.metrics.batched_entry_reads.get(), 0);
        assert!(work_rx.try_recv().is_err());
    }
}
