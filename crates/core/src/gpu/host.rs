//! The host side of the mailbox protocol: the GPU-kernel thread that polls
//! device memory, relays harvested requests to the communication thread and
//! writes their completions back, plus the setup context and per-launch
//! statistics it hands to applications.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Sender;
use dcgn_dpm::{Device, DevicePtr, KernelHandle};
use dcgn_metrics::{Counter, MetricsHandle};
use dcgn_netsim::{Payload, PayloadBuf};
use dcgn_simtime::{Charge, Clock, Deadline};

use super::mailbox::{
    decode_reduce_word, error_code, in_device_memory, mailbox_error, mailbox_region_bytes, opcode,
    publish_order, record_word, req_state, split_word, Body, GpuLayout, Record, ANY_TAG,
    MAILBOX_COMPLETION_BYTES, MAILBOX_INLINE_BYTES, PEER_ANY, RESERVED_RECORD,
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
    /// PCI-e reads of the mailbox's records (at most one per sweep, however
    /// many slots there are; none while every slot's blocking call is in
    /// flight).
    pub mailbox_reads: u64,
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
/// completion into its record.
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
    pub clock: Clock,
    pub metrics: GpuThreadMetrics,
    /// Where every reply to a relayed request lands, tagged with the
    /// `(slot, record)` the request completes into.
    pub inbox: Inbox,
    /// The record region as the last sweep read it: one buffer for the
    /// loop's lifetime, so a sweep allocates nothing to read it.
    pub region: RefCell<Vec<u8>>,
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
    mailbox_reads: Counter,
}

impl GpuThreadMetrics {
    /// Resolve the three polling counters for GPU `gpu_index` on `node` in
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
            mailbox_reads: counter("mailbox_reads"),
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
            mailbox_reads: self.mailbox_reads.get(),
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

    /// Pull `len` device bytes at `ptr` into a pooled payload, from
    /// `inline` (the copy in the record the sweep read) or over PCI-e.  The
    /// pool's classes leave room for the wire envelope, so the comm thread
    /// frames a remote send in this same buffer instead of copying the body
    /// again.  The range comes from the kernel, so it is checked against
    /// device memory before anything is allocated for it.
    fn pull_payload(&self, ptr: DevicePtr, len: usize, inline: Option<&[u8]>) -> Result<Payload> {
        if !in_device_memory(ptr, len, self.device.memory_capacity()) {
            return Err(DcgnError::Internal(format!(
                "{len} bytes at {ptr} reach outside device memory"
            )));
        }
        let mut buf = PayloadBuf::with_capacity(len);
        match inline {
            Some(bytes) => buf.body_mut(len).copy_from_slice(bytes),
            None => self.device.memcpy_dtoh(buf.body_mut(len), ptr)?,
        }
        Ok(buf.freeze())
    }

    /// Relay the request harvested from record `(slot, index)` under
    /// `gen`, whose bytes are `record`: queue its request(s) into the
    /// sweep's `batch` (shipped to the comm thread as one
    /// [`CommCommand::Batch`]) and return the bookkeeping its completion
    /// needs.  A body that cannot be turned into requests (a buffer outside
    /// device memory, an unknown opcode or reduce word) yields an op that is
    /// already answered with the error, so it completes into its record on
    /// the next sweep and the kernel faults instead of waiting forever.
    fn stage(
        &self,
        (slot, index): PendingKey,
        gen: u32,
        record: &[u8],
        batch: &mut Vec<Request>,
    ) -> PendingOp {
        let mut op = PendingOp {
            awaiting: 0,
            replies: Vec::new(),
            gen,
            buffer: None,
            unit_len: 0,
        };
        match self.requests(record, &mut op) {
            Ok(kinds) => {
                for kind in kinds.into_iter().flatten() {
                    batch.push(Request {
                        src_rank: self.layout.slot_rank(slot),
                        kind,
                        reply_to: self.inbox.reply_to((slot as u32, index as u32)),
                    });
                    op.awaiting += 1;
                }
            }
            Err(e) => op.replies.push(Reply::Error(e)),
        }
        op
    }

    /// The request(s) the body harvested in `record` asks for — two for
    /// `SENDRECV_REPLACE` — with `op`'s write-back buffer set as the
    /// operation's buffer convention needs it.  A sent payload leaves device
    /// memory here.
    fn requests(&self, record: &[u8], op: &mut PendingOp) -> Result<[Option<RequestKind>; 2]> {
        let body = Body::decode(record);
        let Body {
            peer, peer2, aux, ..
        } = body;
        let (data_ptr, len) = (body.data, body.len);
        op.buffer = Some((data_ptr, len));
        let comm = CommId::from_raw(body.comm);
        // Collectives carry the slot's position and the group size in the
        // `peer2`/`aux` words (equal to the global rank and total rank count
        // for world operations); `peer` is the root's sub-rank.
        let (root, sub, group_size) = (peer as usize, peer2 as usize, aux as usize);
        // A buffer's bytes ride in the record when they fit it.
        let sent = body.inline(record);
        let pull = |len: usize| self.pull_payload(data_ptr, len, sent.filter(|s| s.len() == len));

        let mut inbound = None;
        let kind = match body.opcode {
            opcode::SEND | opcode::SENDRECV_REPLACE => {
                // `SENDRECV_REPLACE` relays two requests together: the
                // outbound copy of the buffer and the inbound replacement.
                inbound = (body.opcode != opcode::SEND).then(|| recv_kind(peer2, aux));
                // The payload is pulled into a pooled buffer and is never
                // copied again on the host.
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
                let data = self.pull_payload(DevicePtr::NULL.add(mine), len, None)?;
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

    /// Deliver a completed request's result bytes and note their length:
    /// into the record's inline area when they fit it, else into the device
    /// buffer straight from the shared payload (for inter-node messages, the
    /// wire frame itself), no intermediate host copy.  Bytes that do not
    /// fit, or a buffer outside device memory (which fails that write),
    /// complete the request with an error code instead.
    fn write_back(&self, op: &PendingOp, bytes: &[u8], record: &mut Record) {
        record.len = bytes.len() as u64;
        let Some((ptr, capacity)) = op.buffer else {
            return;
        };
        if bytes.len() > capacity {
            record.error = mailbox_error::TRUNCATED;
        } else if bytes.len() <= MAILBOX_INLINE_BYTES
            && in_device_memory(ptr, bytes.len(), self.device.memory_capacity())
        {
            record.inline = Some(bytes.to_vec());
        } else if self.device.memcpy_htod(ptr, bytes).is_err() {
            record.error = mailbox_error::OTHER;
        }
    }

    /// Complete a request whose replies have all arrived: deliver this
    /// rank's share of the result, then write the record's inline area,
    /// result fields and `DONE` word in one transfer, word last (the
    /// kernel's `test`/`wait` read that word).  Fails only when the record
    /// itself cannot be written.
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
        self.device.memcpy_htod(
            self.layout.result_ptr(slot, index),
            &record.encode_done(op.gen),
        )?;
        Ok(())
    }

    /// The one place this thread receives from its inbox: wait up to `wait`
    /// for a reply — whichever request's lands first — then file it, and
    /// whatever else has arrived, under the pending op its token names.
    fn collect(&self, pending: &mut HashMap<PendingKey, PendingOp>, wait: Duration) {
        let deadline = self.clock.deadline(wait);
        let mut next = self.inbox.recv_until(&self.clock, deadline);
        while let Some(((slot, record), reply)) = next {
            if let Some(op) = pending.get_mut(&(slot as usize, record as usize)) {
                op.replies.push(reply);
                op.awaiting -= 1;
            }
            next = self.inbox.try_recv();
        }
    }

    /// One polling sweep: complete finished requests, then harvest newly
    /// published ones.  Returns true when the sweep did any work.
    fn sweep(&self, pending: &mut HashMap<PendingKey, PendingOp>) -> Result<bool> {
        let completed = self.complete_ready(pending)?;
        Ok(self.harvest(pending)? || completed)
    }

    /// Write back every request whose replies have all arrived from the
    /// comm thread.  Returns true when there was one.
    fn complete_ready(&self, pending: &mut HashMap<PendingKey, PendingOp>) -> Result<bool> {
        self.collect(pending, Duration::ZERO);
        let done: Vec<PendingKey> = pending
            .iter()
            .filter_map(|(&key, op)| (op.awaiting == 0).then_some(key))
            .collect();
        for &key in &done {
            self.clock
                .charge(Charge::QueueHop, self.clock.model().queue_hop);
            let mut op = pending.remove(&key).expect("selected above");
            self.complete(key, &mut op)?;
        }
        Ok(!done.is_empty())
    }

    /// Harvest every record newly `PENDING` with one read of the record
    /// region and relay the harvest as a single [`CommCommand::Batch`],
    /// writing nothing back.  Returns true when anything was harvested.
    fn harvest(&self, pending: &mut HashMap<PendingKey, PendingOp>) -> Result<bool> {
        // Skipped entirely while every slot has its blocking call in flight
        // (its reserved record pending): the kernel behind each slot is
        // waiting, not publishing.
        let blocked_slots = pending
            .keys()
            .filter(|&&(_, index)| index == RESERVED_RECORD)
            .count();
        if blocked_slots == self.layout.slots {
            return Ok(false);
        }
        let mut region = self.region.borrow_mut();
        region.resize(self.layout.records_bytes(), 0);
        self.device
            .memcpy_dtoh(&mut region, self.layout.mailbox_base)?;
        self.metrics.mailbox_reads.inc();
        let records_per_slot = self.layout.records_per_slot();
        let mut found: Vec<(PendingKey, u32, &[u8])> = Vec::new();
        for (i, record) in region.chunks_exact(MAILBOX_COMPLETION_BYTES).enumerate() {
            let key = (i / records_per_slot, i % records_per_slot);
            let (gen, state) = split_word(record_word(record));
            // A record in `pending` is in flight: the kernel cannot have
            // claimed it again before its completion.
            if state == req_state::PENDING && !pending.contains_key(&key) {
                found.push((key, gen, record));
            }
        }
        if found.is_empty() {
            return Ok(false);
        }
        // A slot's kernel may reuse its records in any index order, so
        // relay each slot's requests by generation — its publish sequence —
        // which keeps sends to one destination non-overtaking.
        found.sort_by(|&((a, _), gen_a, _), &((b, _), gen_b, _)| {
            a.cmp(&b).then(publish_order(gen_a, gen_b))
        });
        let mut batch = Vec::new();
        for (key, gen, record) in found {
            let op = self.stage(key, gen, record, &mut batch);
            pending.insert(key, op);
            self.metrics.requests.inc();
        }
        if !batch.is_empty() {
            // The whole harvest crosses the work queue as one command.  A
            // comm thread that is gone hands it back: dropping it answers
            // every request in it `ShuttingDown`.
            self.clock
                .charge(Charge::QueueHop, self.clock.model().queue_hop);
            let _ = self.work_tx.send(CommCommand::Batch(batch));
        }
        Ok(true)
    }

    /// One pass of the poll loop after its wait: note whether the kernel
    /// has retired, then sweep.  The note comes first: a kernel that
    /// publishes during the sweep and then retires still counts as running
    /// for this pass, so the next pass harvests its request instead of the
    /// loop ending with it unread.  Returns `None` while the kernel ran, and
    /// whether the sweep did any work once it had retired.
    fn pass(
        &self,
        retired: impl FnOnce() -> bool,
        pending: &mut HashMap<PendingKey, PendingOp>,
    ) -> Result<Option<bool>> {
        let retired = retired();
        let did_work = self.sweep(pending)?;
        Ok(retired.then_some(did_work))
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

        let poll_interval = self.clock.model().poll_interval;
        let started = self.clock.now();
        let mut busy = Duration::ZERO;
        // The registry accumulates across launches; a baseline taken here
        // keeps the returned per-launch stats delta-based.
        let before = self
            .metrics
            .stats(&self.layout, Duration::ZERO, Duration::ZERO);
        let mut pending: HashMap<PendingKey, PendingOp> = HashMap::new();
        // Set once the kernel retires with requests still pending, and
        // pushed back by every sweep that makes progress on them.
        let mut give_up: Option<Deadline> = None;

        loop {
            if pending.is_empty() {
                // Sleep-based polling: the CPU deliberately yields between
                // sweeps, trading request-discovery latency for host CPU
                // load (§3.2.3).
                self.clock.charge(Charge::Poll, poll_interval);
            } else {
                // Requests are in flight with the comm thread: block on the
                // inbox (a true wait, not a spin) so completions are written
                // back as soon as a reply lands — the real GPU-kernel thread
                // handles a picked-up request synchronously — while still
                // sweeping for newly published requests at least once per
                // interval.
                self.collect(&mut pending, poll_interval);
            }
            let sweep_start = self.clock.now();
            self.metrics.polls.inc();
            let retired = self.pass(|| handle.is_done(), &mut pending)?;
            busy += self.clock.elapsed(sweep_start);

            if let Some(did_work) = retired {
                if pending.is_empty() {
                    if !did_work {
                        break;
                    }
                } else {
                    // Only nonblocking requests can outlive the kernel (a
                    // blocking call pins its block until completion).
                    let grace =
                        *give_up.get_or_insert_with(|| self.clock.deadline(ABANDONED_GRACE));
                    if did_work {
                        give_up = Some(self.clock.deadline(ABANDONED_GRACE));
                    } else if self.clock.passed(grace) {
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
        let elapsed = self.clock.elapsed(started);
        let now = self.metrics.stats(&self.layout, busy, elapsed);
        Ok(GpuPollStats {
            polls: now.polls - before.polls,
            requests: now.requests - before.requests,
            mailbox_reads: now.mailbox_reads - before.mailbox_reads,
            ..now
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::ops::Range;
    use std::time::Instant;

    use dcgn_dpm::DeviceConfig;
    use dcgn_simtime::CostModel;

    use super::super::device::{self, DeviceMemory, GpuRequest};
    use super::super::mailbox::{req_word, MAILBOX_REQS_PER_SLOT, REQ_GEN_MASK};
    use super::*;

    /// The device side of the mailbox driven through the host API, as the
    /// kit below publishes and the walker's block releases.
    impl DeviceMemory for Device {
        fn read(&self, ptr: DevicePtr, out: &mut [u8]) {
            self.memcpy_dtoh(out, ptr).unwrap()
        }

        fn write(&self, ptr: DevicePtr, bytes: &[u8]) {
            self.memcpy_htod(ptr, bytes).unwrap()
        }
    }

    #[test]
    fn poll_stats_busy_fraction() {
        let stats = GpuPollStats {
            node: 0,
            gpu_index: 0,
            polls: 10,
            requests: 2,
            mailbox_reads: 10,
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

    /// Build a host-side GPU-kernel thread for `slots` slots of `depth`
    /// nonblocking records each on `device`, wired to a plain channel, with
    /// every mailbox zeroed.
    fn gpu_thread(
        device: Arc<Device>,
        slots: usize,
        depth: usize,
    ) -> (GpuKernelThread, crossbeam::channel::Receiver<CommCommand>) {
        let mailbox_base = GpuKernelThread::allocate_mailboxes(&device, slots, depth).unwrap();
        let (work_tx, work_rx) = crossbeam::channel::unbounded();
        (
            GpuKernelThread {
                layout: GpuLayout {
                    node: 0,
                    gpu_index: 0,
                    slots,
                    reqs_per_slot: depth,
                    slot_rank_base: 0,
                    total_ranks: slots,
                    mailbox_base,
                    memory_bytes: device.memory_capacity(),
                },
                device,
                work_tx,
                clock: Clock::from(CostModel::zero()),
                metrics: GpuThreadMetrics::new(&MetricsHandle::new(), 0, 0),
                inbox: Inbox::new(),
                region: RefCell::default(),
            },
            work_rx,
        )
    }

    fn test_gpu_thread(
        slots: usize,
    ) -> (GpuKernelThread, crossbeam::channel::Receiver<CommCommand>) {
        gpu_thread(Device::new_default(0), slots, MAILBOX_REQS_PER_SLOT)
    }

    fn word_of(gpu: &GpuKernelThread, slot: usize, record: usize) -> u32 {
        gpu.device
            .read_u32(gpu.layout.word_ptr(slot, record))
            .unwrap()
    }

    /// A device block's claim, step for step as `GpuCtx::publish` makes it
    /// (the walker is single-threaded, so a read and a write stand in for
    /// the device's atomics): the first `FREE` record of `records` goes
    /// `CLAIMED`, and the slot's sequence word hands out its generation.
    fn claim(gpu: &GpuKernelThread, slot: usize, records: Range<usize>) -> Option<(usize, u32)> {
        let (d, l) = (&gpu.device, &gpu.layout);
        let index = records
            .into_iter()
            .find(|&i| split_word(word_of(gpu, slot, i)).1 == req_state::FREE)?;
        let (old, _) = split_word(word_of(gpu, slot, index));
        d.write_u32(l.word_ptr(slot, index), req_word(old, req_state::CLAIMED))
            .unwrap();
        let sequence = d.read_u32(l.sequence_ptr(slot)).unwrap();
        d.write_u32(l.sequence_ptr(slot), sequence.wrapping_add(1))
            .unwrap();
        Some((index, sequence & REQ_GEN_MASK))
    }

    /// The rest of the publish, as `GpuCtx::publish` makes it: the body and
    /// a small buffer into the claimed record, then the word to `PENDING`.
    fn post(gpu: &GpuKernelThread, slot: usize, (index, gen): (usize, u32), body: Body) {
        let req = GpuRequest { slot, index, gen };
        device::post(&*gpu.device, &gpu.layout, req, &body);
    }

    /// Publish `body` on exactly `record` of `slot`, the way a device block
    /// would; returns the claim's generation.
    fn publish(gpu: &GpuKernelThread, slot: usize, record: usize, body: Body) -> u32 {
        let claimed = claim(gpu, slot, record..record + 1).expect("the record is FREE");
        post(gpu, slot, claimed, body);
        claimed.1
    }

    fn barrier_body(gpu: &GpuKernelThread, slot: usize) -> Body {
        Body {
            peer2: slot as u32,
            aux: gpu.layout.slots as u32,
            ..Body::new(opcode::BARRIER, 0, DevicePtr::NULL, 0)
        }
    }

    fn record_fields(gpu: &GpuKernelThread, slot: usize, record: usize) -> Record {
        let ptr = gpu.layout.record_ptr(slot, record);
        let bytes = gpu
            .device
            .memcpy_dtoh_vec(ptr, MAILBOX_COMPLETION_BYTES)
            .unwrap();
        Record::decode(&bytes)
    }

    fn transfers(gpu: &GpuKernelThread) -> (u64, u64) {
        (
            gpu.device.dtoh_transfer_count(),
            gpu.device.htod_transfer_count(),
        )
    }

    fn since(before: (u64, u64), gpu: &GpuKernelThread) -> (u64, u64) {
        let after = transfers(gpu);
        (after.0 - before.0, after.1 - before.1)
    }

    #[test]
    fn one_sweep_harvests_n_slots_with_one_region_read_and_one_batch() {
        let slots = 4;
        let (gpu, work_rx) = test_gpu_thread(slots);
        for slot in 0..slots {
            publish(&gpu, slot, RESERVED_RECORD, barrier_body(&gpu, slot));
        }

        let mut pending = HashMap::new();
        let before = transfers(&gpu);
        gpu.sweep(&mut pending).unwrap();

        // Exactly one read of the record region — not one PCI-e round trip
        // per slot — and nothing written back.
        assert_eq!(
            since(before, &gpu),
            (1, 0),
            "a sweep over {slots} published slots must issue exactly 1 device read"
        );
        assert_eq!(gpu.metrics.mailbox_reads.get(), 1);
        assert_eq!(gpu.metrics.requests.get(), slots as u64);
        assert_eq!(pending.len(), slots);
        // Each record stays PENDING until the completion.
        for slot in 0..slots {
            assert_eq!(
                word_of(&gpu, slot, RESERVED_RECORD),
                req_word(0, req_state::PENDING)
            );
        }

        // The whole harvest crossed the work queue as a single Batch.
        let reqs = match work_rx.try_recv().unwrap() {
            CommCommand::Batch(reqs) => reqs,
            other => panic!("expected one Batch command, got {other:?}"),
        };
        assert_eq!(reqs.len(), slots);
        assert!(work_rx.try_recv().is_err(), "no further queue traffic");

        // A record still pending is not harvested again.
        gpu.sweep(&mut pending).unwrap();
        assert_eq!(gpu.metrics.requests.get(), slots as u64);
        assert!(work_rx.try_recv().is_err());

        // Completing the replies flips every record to DONE on the next
        // sweep: one device write per completion (fields and word).
        for req in reqs {
            req.reply_to
                .complete(Reply::CollectiveDone(CollectiveResult::Unit));
        }
        let before = transfers(&gpu);
        gpu.sweep(&mut pending).unwrap();
        assert!(pending.is_empty());
        // No slot is blocked any more, so the same sweep goes on to read
        // the records (once; nothing new is pending).
        assert_eq!(since(before, &gpu), (1, slots as u64));
        for slot in 0..slots {
            assert_eq!(
                word_of(&gpu, slot, RESERVED_RECORD),
                req_word(0, req_state::DONE)
            );
            assert_eq!(
                record_fields(&gpu, slot, RESERVED_RECORD),
                Record::default()
            );
        }
    }

    /// The exact PCI-e transfers one request costs, per request kind, on a
    /// 1-slot GPU: the sweep that harvests it and the sweep that completes
    /// it, as `(device reads, device writes)`.  A change to the mailbox
    /// protocol states its win as a diff of this table.
    #[test]
    fn each_request_kind_costs_a_pinned_number_of_transfers_per_sweep() {
        const LEN: usize = MAILBOX_INLINE_BYTES;
        let buf = DevicePtr::NULL.add(1 << 20);
        let bytes = |len: usize| {
            let mut data = PayloadBuf::with_capacity(len);
            data.body_mut(len).fill(7);
            data.freeze()
        };
        let received = |len: usize| {
            let status = crate::message::CommStatus {
                source: 1,
                tag: 0,
                len,
            };
            Reply::RecvDone {
                data: bytes(len),
                status,
            }
        };
        let result = |len| Reply::CollectiveDone(CollectiveResult::Bytes(bytes(len)));
        let unit = || Reply::CollectiveDone(CollectiveResult::Unit);
        let (gpu, _) = test_gpu_thread(1);
        let send = |len| Body::new(opcode::SEND, 1, buf, len);
        let recv = |len| Body::new(opcode::RECV, 1, buf, len);
        let collective = |opcode| Body {
            aux: 1,
            ..Body::new(opcode, 0, buf, LEN)
        };
        // (kind, record, body, reply, harvest sweep, completion sweep):
        // the harvest reads the records (and a sent payload too large to
        // ride in one), the completion writes a received payload too large
        // to ride in the record and then the record.
        let table = [
            (
                "blocking SEND",
                RESERVED_RECORD,
                send(LEN),
                Reply::SendDone,
                (1, 0),
                (1, 1),
            ),
            (
                "blocking RECV",
                RESERVED_RECORD,
                recv(LEN),
                received(LEN),
                (1, 0),
                (1, 1),
            ),
            ("ISEND", 1, send(LEN), Reply::SendDone, (1, 0), (1, 1)),
            ("IRECV", 1, recv(LEN), received(LEN), (1, 0), (1, 1)),
            (
                "BARRIER",
                RESERVED_RECORD,
                barrier_body(&gpu, 0),
                unit(),
                (1, 0),
                (1, 1),
            ),
            (
                "SEND 65 B",
                RESERVED_RECORD,
                send(LEN + 1),
                Reply::SendDone,
                (2, 0),
                (1, 1),
            ),
            (
                "RECV of a 65 B message",
                RESERVED_RECORD,
                recv(LEN + 1),
                received(LEN + 1),
                (1, 0),
                (1, 2),
            ),
            (
                "ALLREDUCE",
                RESERVED_RECORD,
                collective(opcode::ALLREDUCE),
                result(LEN),
                (1, 0),
                (1, 1),
            ),
            (
                "BROADCAST root",
                RESERVED_RECORD,
                collective(opcode::BROADCAST),
                result(LEN),
                (1, 0),
                (1, 1),
            ),
        ];
        for (kind, record, body, reply, harvest, completion) in table {
            let (gpu, work_rx) = test_gpu_thread(1);
            let mut pending = HashMap::new();
            let gen = publish(&gpu, 0, record, body);
            let before = transfers(&gpu);
            gpu.sweep(&mut pending).unwrap();
            assert_eq!(since(before, &gpu), harvest, "{kind}: harvest");
            let CommCommand::Batch(mut reqs) = work_rx.try_recv().unwrap() else {
                panic!("{kind}: expected a Batch");
            };
            reqs.pop().unwrap().reply_to.complete(reply);
            let before = transfers(&gpu);
            gpu.sweep(&mut pending).unwrap();
            assert_eq!(since(before, &gpu), completion, "{kind}: completion");
            assert!(pending.is_empty(), "{kind}");
            assert_eq!(word_of(&gpu, 0, record), req_word(gen, req_state::DONE));
            assert_eq!(record_fields(&gpu, 0, record).error, mailbox_error::OK);
        }
    }

    #[test]
    fn region_read_is_skipped_only_while_every_reserved_record_is_pending() {
        let slots = 2;
        let (gpu, _work_rx) = test_gpu_thread(slots);
        let mut pending = HashMap::new();
        // Slot 0 blocks; slot 1 has only a nonblocking request in flight,
        // so it may publish again: the records are still read.
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

    /// Records free in any order, so a slot's requests can sit in its column
    /// out of publish order; one sweep that finds several must still relay
    /// them as published, or a later blocking send would overtake an
    /// earlier `isend` to the same `(dst, tag)`.
    #[test]
    fn one_sweep_relays_a_slots_requests_in_publish_order_not_record_order() {
        let (gpu, work_rx) = test_gpu_thread(1);
        let buf = DevicePtr::NULL.add(1 << 20);
        let send = |len| Body {
            aux: 5,
            ..Body::new(opcode::SEND, 1, buf, len)
        };
        // Identified by length: ISEND on record 2, blocking SEND on the
        // reserved record 0, ISEND on record 1.
        publish(&gpu, 0, 2, send(8));
        publish(&gpu, 0, RESERVED_RECORD, send(16));
        publish(&gpu, 0, 1, send(24));
        let mut pending = HashMap::new();
        gpu.sweep(&mut pending).unwrap();
        assert_eq!(pending.len(), 3);
        let CommCommand::Batch(reqs) = work_rx.try_recv().unwrap() else {
            panic!("expected one Batch");
        };
        let relayed: Vec<_> = reqs
            .iter()
            .map(|req| match &req.kind {
                RequestKind::Send {
                    dst: 1,
                    tag: 5,
                    data,
                } => data.len(),
                other => panic!("expected a send to (1, 5), got {other:?}"),
            })
            .collect();
        assert_eq!(relayed, [8, 16, 24]);
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
            assert_eq!(word_of(&gpu, slot, record), req_word(0, req_state::DONE));
            let fields = record_fields(&gpu, slot, record);
            assert_eq!(fields.error, mailbox_error::OTHER);
        }
    }

    #[test]
    fn a_result_that_cannot_be_written_back_completes_with_an_error_code() {
        let (gpu, work_rx) = test_gpu_thread(1);
        let outside = DevicePtr::NULL.add(gpu.device.memory_capacity());
        let gen = publish(&gpu, 0, 1, Body::new(opcode::RECV, 0, outside, 8));
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
        assert_eq!(word_of(&gpu, 0, 1), req_word(gen, req_state::DONE));
        assert_eq!(record_fields(&gpu, 0, 1).error, mailbox_error::OTHER);
    }

    #[test]
    fn a_request_the_comm_thread_drops_completes_with_the_shutdown_code() {
        let (gpu, work_rx) = test_gpu_thread(1);
        let buf = DevicePtr::NULL.add(4096);
        let gen = publish(&gpu, 0, RESERVED_RECORD, Body::new(opcode::RECV, 0, buf, 8));
        let mut pending = HashMap::new();
        gpu.sweep(&mut pending).unwrap();
        assert_eq!(pending.len(), 1);
        // The comm thread goes away with the batch in hand.
        drop(work_rx.try_recv().unwrap());
        gpu.sweep(&mut pending).unwrap();
        assert!(pending.is_empty());
        assert_eq!(
            word_of(&gpu, 0, RESERVED_RECORD),
            req_word(gen, req_state::DONE)
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
        let mut gens = Vec::new();
        for record in [1, 2] {
            gens.push(publish(&gpu, 0, record, barrier_body(&gpu, 0)));
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
        assert_eq!(word_of(&gpu, 0, 2), req_word(gens[1], req_state::DONE));
        assert_eq!(word_of(&gpu, 0, 1), req_word(gens[0], req_state::PENDING));
        assert_eq!(pending.len(), 1);
    }

    #[test]
    fn empty_sweep_reads_the_records_once_and_sends_nothing() {
        let (gpu, work_rx) = test_gpu_thread(3);
        let mut pending = HashMap::new();
        let before = transfers(&gpu);
        assert!(!gpu.sweep(&mut pending).unwrap());
        assert_eq!(since(before, &gpu), (1, 0));
        assert_eq!(gpu.metrics.mailbox_reads.get(), 1);
        assert_eq!(gpu.metrics.requests.get(), 0);
        // A claimed record is still being written: the host leaves it be.
        let claimed = claim(&gpu, 1, 1..2).unwrap();
        assert!(!gpu.sweep(&mut pending).unwrap());
        post(&gpu, 1, claimed, barrier_body(&gpu, 1));
        assert!(gpu.sweep(&mut pending).unwrap());
        assert_eq!(pending.len(), 1);
        let CommCommand::Batch(reqs) = work_rx.try_recv().unwrap() else {
            panic!("expected a Batch");
        };
        assert_eq!(reqs.len(), 1);
        assert!(work_rx.try_recv().is_err());
    }

    /// One move of the mailbox walker.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Move {
        /// The block takes its next step.
        Block,
        /// The poll loop's retirement probe returns (inside a pass).
        Probe,
        /// The poll loop runs one pass.
        Pass,
        /// The host writes back every answered request.
        Complete,
        /// The comm thread answers the i-th request it holds.
        Reply(usize),
    }

    /// Depth-first enumeration by replay: `prefix` names the option taken at
    /// each choice point so far (0 past its end), `taken` records what each
    /// point of this run took and offered.
    struct Schedule {
        prefix: Vec<usize>,
        taken: Vec<(usize, usize)>,
    }

    impl Schedule {
        fn choose(&mut self, options: &[Move]) -> Move {
            let k = self.prefix.get(self.taken.len()).copied().unwrap_or(0);
            self.taken.push((k, options.len()));
            options[k]
        }

        /// The prefix of the next schedule, `None` after the last.
        fn next(mut self) -> Option<Vec<usize>> {
            while let Some((k, n)) = self.taken.pop() {
                if k + 1 < n {
                    let mut prefix: Vec<usize> = self.taken.iter().map(|&(k, _)| k).collect();
                    prefix.push(k + 1);
                    return Some(prefix);
                }
            }
            None
        }
    }

    /// What a walked publish asks for.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Kind {
        Recv,
        /// A broadcast from this slot, its root: nothing is written back.
        BroadcastRoot,
        Send,
    }

    /// One step of the walked block's program.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Publish a request, on the reserved record when `.1`.
        Publish(Kind, bool),
        /// Poll the `.0`-th publish until `DONE`, then release its record.
        Wait(usize),
        Retire,
    }

    /// The 8-byte buffer of the walk's `i`-th publish, which holds
    /// `payload(i)` when published.
    fn walked_buffer(i: usize) -> DevicePtr {
        DevicePtr::NULL.add(4096 + 64 * i)
    }

    fn payload(i: usize) -> Vec<u8> {
        vec![0xB0 + i as u8; 8]
    }

    /// What the comm thread answers the walk's `i`-th publish, a receive.
    fn answer(i: usize) -> Vec<u8> {
        vec![0xA0 + i as u8; 8]
    }

    fn walked_body(kind: Kind, i: usize) -> Body {
        let (opcode, peer, aux) = match kind {
            Kind::Recv => (opcode::RECV, 1, i as u32),
            Kind::Send => (opcode::SEND, 1, i as u32),
            // Root 0 of a group of 1, whose sub-rank (`peer2`) is 0.
            Kind::BroadcastRoot => (opcode::BROADCAST, 0, 1),
        };
        Body {
            aux,
            ..Body::new(opcode, peer, walked_buffer(i), 8)
        }
    }

    /// The walked block: its program, where it is, each publish's kind and
    /// request, and the writes of its last step not yet landed.  Its
    /// device-side code is `GpuCtx`'s, over a memory that queues writes and
    /// lands one per block move, so the walk puts host moves between the
    /// writes of one publish or release.
    struct Block {
        device: Arc<Device>,
        program: Vec<Op>,
        pc: usize,
        published: Vec<(Kind, GpuRequest)>,
        queued: RefCell<VecDeque<(DevicePtr, Vec<u8>)>>,
        retired: bool,
    }

    impl DeviceMemory for Block {
        fn read(&self, ptr: DevicePtr, out: &mut [u8]) {
            DeviceMemory::read(&*self.device, ptr, out)
        }

        fn write(&self, ptr: DevicePtr, bytes: &[u8]) {
            self.queued.borrow_mut().push_back((ptr, bytes.to_vec()));
        }
    }

    impl Block {
        fn op(&self) -> Option<Op> {
            self.program.get(self.pc).copied()
        }

        fn records(&self, gpu: &GpuKernelThread, blocking: bool) -> Range<usize> {
            if blocking {
                RESERVED_RECORD..RESERVED_RECORD + 1
            } else {
                RESERVED_RECORD + 1..gpu.layout.records_per_slot()
            }
        }

        /// Land the oldest queued write; false when there is none.
        fn land(&self) -> bool {
            let next = self.queued.borrow_mut().pop_front();
            next.map(|(ptr, bytes)| DeviceMemory::write(&*self.device, ptr, &bytes))
                .is_some()
        }

        /// Whether the next move can do anything: land a queued write, or
        /// start the next op — a publish needs a `FREE` record, a poll one
        /// that is no longer `PENDING`.
        fn enabled(&self, gpu: &GpuKernelThread) -> bool {
            if !self.queued.borrow().is_empty() {
                return true;
            }
            match self.op() {
                Some(Op::Publish(_, blocking)) => self
                    .records(gpu, blocking)
                    .any(|i| split_word(word_of(gpu, 0, i)).1 == req_state::FREE),
                Some(Op::Wait(i)) => {
                    let req = self.published[i].1;
                    word_of(gpu, 0, req.index) != req_word(req.gen, req_state::PENDING)
                }
                Some(Op::Retire) => true,
                None => false,
            }
        }

        /// One move: land the next queued write, or else start the next op
        /// and land its first write.
        fn step(&mut self, gpu: &GpuKernelThread) {
            if self.land() {
                return;
            }
            match self.op().expect("enabled") {
                Op::Publish(kind, blocking) => {
                    let i = self.published.len();
                    let (index, gen) = claim(gpu, 0, self.records(gpu, blocking)).expect("FREE");
                    let req = GpuRequest {
                        slot: 0,
                        index,
                        gen,
                    };
                    device::post(&*self, &gpu.layout, req, &walked_body(kind, i));
                    self.published.push((kind, req));
                    self.land();
                }
                Op::Wait(i) => {
                    let (kind, req) = self.published[i];
                    let record = device::release(&*self, &gpu.layout, req)
                        .unwrap_or_else(|_| {
                            panic!("publish {i} completed under another generation")
                        })
                        .expect("enabled once DONE");
                    assert_eq!(record.error, mailbox_error::OK);
                    self.land();
                    let holds = gpu.device.memcpy_dtoh_vec(walked_buffer(i), 8).unwrap();
                    let expected = if kind == Kind::Recv {
                        answer(i)
                    } else {
                        payload(i)
                    };
                    assert_eq!(holds, expected, "publish {i} released the wrong bytes");
                }
                Op::Retire => self.retired = true,
            }
            self.pc += 1;
        }
    }

    /// Replay one schedule of the walk to the poll loop's exit, checking the
    /// mailbox's invariants on the way and at the end.  A pass that changes
    /// nothing and does not end the loop is a no-op: the walk also takes
    /// every schedule through it without it, so the replay stops there.
    /// Returns whether it reached the exit.
    fn walk_one(prefix: Vec<usize>, program: &[Op]) -> (Schedule, bool) {
        let device = Device::new(
            0,
            DeviceConfig::default().with_memory_bytes(1 << 16),
            CostModel::zero(),
        );
        let (gpu, work_rx) = gpu_thread(device, 1, 1);
        // One claim short of the generation wrap: the first publish takes
        // REQ_GEN_MASK, the next 0; every record starts FREE under a
        // generation no claim takes, its inline area holding that previous
        // tenant's bytes.
        let l = &gpu.layout;
        gpu.device
            .write_u32(l.sequence_ptr(0), REQ_GEN_MASK)
            .unwrap();
        for record in 0..l.records_per_slot() {
            let free = req_word(REQ_GEN_MASK - 1, req_state::FREE);
            gpu.device.write_u32(l.word_ptr(0, record), free).unwrap();
            let previous = [0xEE; MAILBOX_INLINE_BYTES];
            gpu.device
                .memcpy_htod(l.result_ptr(0, record), &previous)
                .unwrap();
        }
        for i in 0..program.len() {
            gpu.device
                .memcpy_htod(walked_buffer(i), &payload(i))
                .unwrap();
        }
        let mut schedule = Schedule {
            prefix,
            taken: Vec::new(),
        };
        let mut block = Block {
            device: Arc::clone(&gpu.device),
            program: program.to_vec(),
            pc: 0,
            published: Vec::new(),
            queued: RefCell::default(),
            retired: false,
        };
        let mut pending = HashMap::new();
        let mut held: Vec<Request> = Vec::new();
        let mut relayed: Vec<(&str, Vec<u8>)> = Vec::new();
        let mut answered = false;
        // Replies commute with the block's moves, and with each other: the
        // host sees them only at its next move.  So the walk offers them
        // right after a host move, in the order the comm thread holds them.
        let mut replies_from = Some(0);
        loop {
            let mut options = Vec::new();
            if block.enabled(&gpu) {
                options.push(Move::Block);
            }
            options.push(Move::Pass);
            if answered {
                options.push(Move::Complete);
            }
            if let Some(first) = replies_from {
                options.extend((first..held.len()).map(Move::Reply));
            }
            assert!(!options.is_empty(), "the walk is stuck");
            let chosen = schedule.choose(&options);
            replies_from = Some(0);
            match chosen {
                Move::Block => {
                    block.step(&gpu);
                    replies_from = None;
                }
                Move::Reply(i) => {
                    let req = held.remove(i);
                    let reply = match req.kind {
                        RequestKind::Recv { tag: Some(tag), .. } => Reply::RecvDone {
                            data: Payload::copy_from_slice(&answer(tag as usize)),
                            status: crate::message::CommStatus {
                                source: 1,
                                tag,
                                len: 8,
                            },
                        },
                        RequestKind::Broadcast {
                            data: Some(data), ..
                        } => Reply::CollectiveDone(CollectiveResult::Bytes(data)),
                        _ => Reply::SendDone,
                    };
                    req.reply_to.complete(reply);
                    answered = true;
                    replies_from = Some(i);
                }
                Move::Complete => {
                    gpu.complete_ready(&mut pending).unwrap();
                    answered = false;
                }
                Move::Pass => {
                    let (requests, completes) = (gpu.metrics.requests.get(), answered);
                    let mut moved = false;
                    // The block may run on while the loop reads whether it
                    // has retired, wherever the pass reads that.
                    let retired = gpu
                        .pass(
                            || {
                                if block.enabled(&gpu)
                                    && schedule.choose(&[Move::Probe, Move::Block]) == Move::Block
                                {
                                    while block.enabled(&gpu) {
                                        block.step(&gpu);
                                    }
                                    moved = true;
                                }
                                block.retired
                            },
                            &mut pending,
                        )
                        .unwrap();
                    answered = false;
                    while let Ok(command) = work_rx.try_recv() {
                        let CommCommand::Batch(reqs) = command else {
                            panic!("expected a Batch");
                        };
                        for req in reqs {
                            let bytes = match &req.kind {
                                RequestKind::Send { data, .. }
                                | RequestKind::Broadcast {
                                    data: Some(data), ..
                                } => data.as_slice().to_vec(),
                                _ => Vec::new(),
                            };
                            relayed.push((req.kind.name(), bytes));
                            held.push(req);
                        }
                    }
                    if retired == Some(false) && pending.is_empty() {
                        break;
                    }
                    if !moved && !completes && gpu.metrics.requests.get() == requests {
                        return (schedule, false);
                    }
                }
                Move::Probe => unreachable!("offered only inside a pass"),
            }
            // No record ever shows DONE under a generation other than that
            // of the request the block published on it.
            for record in 0..gpu.layout.records_per_slot() {
                let (word_gen, state) = split_word(word_of(&gpu, 0, record));
                if state == req_state::DONE {
                    let latest = block.published.iter().rev().find(|p| p.1.index == record);
                    assert_eq!(
                        Some(word_gen),
                        latest.map(|p| p.1.gen),
                        "record {record} completed under another generation"
                    );
                }
            }
        }

        // The loop has exited: the kernel retired and nothing it published
        // was left behind.  Each request was relayed once, in publish
        // order, a sent payload with its own bytes — never those its
        // record's previous tenant left there.
        let published: Vec<(&str, Vec<u8>)> = program
            .iter()
            .filter_map(|op| match op {
                Op::Publish(kind, _) => Some(*kind),
                _ => None,
            })
            .enumerate()
            .map(|(i, kind)| match kind {
                Kind::Recv => ("recv", Vec::new()),
                Kind::BroadcastRoot => ("broadcast", payload(i)),
                Kind::Send => ("send", payload(i)),
            })
            .collect();
        assert!(block.retired);
        assert_eq!(relayed, published, "harvested once each, in publish order");
        assert_eq!(gpu.metrics.requests.get(), published.len() as u64);
        let waited: Vec<usize> = program
            .iter()
            .filter_map(|op| match op {
                Op::Wait(i) => Some(*i),
                _ => None,
            })
            .collect();
        for (i, &(_, req)) in block.published.iter().enumerate() {
            let (record, gen) = (req.index, req.gen);
            let latest = block.published.iter().rposition(|p| p.1.index == record) == Some(i);
            if !latest {
                continue;
            }
            let state = if waited.contains(&i) {
                req_state::FREE
            } else {
                // Abandoned: completed, never polled.
                req_state::DONE
            };
            assert_eq!(
                word_of(&gpu, 0, record),
                req_word(gen, state),
                "record {record} ended in the wrong state"
            );
        }
        (schedule, true)
    }

    /// Every interleaving of one block's publishes, polls and retirement —
    /// each write they make landing as a move of its own — with the poll
    /// loop's passes and completion sweeps and the comm thread's replies, on
    /// one slot of two records across the generation wrap: an `irecv` on
    /// record 1, a blocking broadcast from this slot on the reserved record
    /// (the wrap falls between the two), the `irecv`'s wait, and an `isend`
    /// reusing record 1 — waited on, or abandoned at retirement.  Every
    /// payload rides in the record: each released receive must read the
    /// bytes answered to it, the broadcast root's buffer must keep its own.
    #[test]
    fn every_interleaving_of_the_mailbox_harvests_each_request_once_in_order() {
        let started = Instant::now();
        let (mut walked, mut cut) = (0usize, 0usize);
        for waits_last in [true, false] {
            let mut program = vec![
                Op::Publish(Kind::Recv, false),
                Op::Publish(Kind::BroadcastRoot, true),
                Op::Wait(1),
                Op::Wait(0),
                Op::Publish(Kind::Send, false),
            ];
            if waits_last {
                program.push(Op::Wait(2));
            }
            program.push(Op::Retire);
            let mut prefix = Some(Vec::new());
            while let Some(next) = prefix {
                let (schedule, exited) = walk_one(next, &program);
                if exited {
                    walked += 1;
                } else {
                    cut += 1;
                }
                prefix = schedule.next();
            }
        }
        println!(
            "mailbox walker: {walked} schedules to the loop's exit ({cut} cut at a no-op pass) in {:?}",
            started.elapsed()
        );
        assert!(walked > 1000, "only {walked} schedules walked");
    }
}
