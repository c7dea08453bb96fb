//! The device-side kernel API (`dcgn::gpu::*` in the paper): every call
//! publishes one request through [`GpuCtx::publish`] and collects its
//! completion through [`GpuCtx::poll`]; a blocking call is the two back to
//! back.

use dcgn_dpm::{BlockCtx, DevicePtr};
use dcgn_rmpi::{ReduceDtype, ReduceOp};

use super::mailbox::{
    encode_reduce_word, in_device_memory, mailbox_error, opcode, record_word, req_state, req_word,
    split_word, Body, GpuLayout, Record, MAILBOX_COMPLETION_BYTES, MAILBOX_INLINE_BYTES, PEER_ANY,
    REQ_GEN_MASK, RESERVED_RECORD,
};
use super::ABANDONED_GRACE;
use crate::group::CommId;
use crate::message::CommStatus;

/// Device memory as the mailbox's device side uses it: a block's, or the
/// mailbox walker's stand-in that lands writes one schedule step at a time.
pub(super) trait DeviceMemory {
    fn read(&self, ptr: DevicePtr, out: &mut [u8]);
    fn write(&self, ptr: DevicePtr, bytes: &[u8]);
}

impl DeviceMemory for BlockCtx {
    fn read(&self, ptr: DevicePtr, out: &mut [u8]) {
        BlockCtx::read(self, ptr, out)
    }

    fn write(&self, ptr: DevicePtr, bytes: &[u8]) {
        BlockCtx::write(self, ptr, bytes)
    }
}

/// The rest of a publish once a block holds `req`'s record: the body, with
/// a copy of a buffer that fits the inline area and lies in device memory,
/// then the word to `PENDING` — last, so the host never harvests it early.
pub(super) fn post(mem: &impl DeviceMemory, layout: &GpuLayout, req: GpuRequest, body: &Body) {
    let mut inline = [0u8; MAILBOX_INLINE_BYTES];
    let fits = body.len <= MAILBOX_INLINE_BYTES;
    if fits && in_device_memory(body.data, body.len, layout.memory_bytes) {
        mem.read(body.data, &mut inline[..body.len]);
    }
    let record = layout.record_ptr(req.slot, req.index);
    mem.write(record, &body.encode(&inline));
    let pending = req_word(req.gen, req_state::PENDING);
    mem.write(layout.word_ptr(req.slot, req.index), &pending.to_le_bytes());
}

/// Read `req`'s record once: `Ok(None)` while it is in flight; once `DONE`,
/// copy a result the host flagged inline into the request's buffer, release
/// the record (keeping its generation until the next claim) and return the
/// result.  `Err` carries the word of a stale handle's record.
pub(super) fn release(
    mem: &impl DeviceMemory,
    layout: &GpuLayout,
    req: GpuRequest,
) -> Result<Option<Record>, u32> {
    let mut bytes = [0u8; MAILBOX_COMPLETION_BYTES];
    mem.read(layout.record_ptr(req.slot, req.index), &mut bytes);
    match record_word(&bytes) {
        word if word == req_word(req.gen, req_state::PENDING) => return Ok(None),
        word if word != req_word(req.gen, req_state::DONE) => return Err(word),
        _ => {}
    }
    let record = Record::decode(&bytes);
    if let Some(result) = &record.inline {
        mem.write(Body::decode(&bytes).data, result);
    }
    let free = req_word(req.gen, req_state::FREE);
    mem.write(layout.word_ptr(req.slot, req.index), &free.to_le_bytes());
    Ok(Some(record))
}

/// The device-side communication context handed to DCGN GPU kernels
/// (the `dcgn::gpu::*` API of the paper).
///
/// All payloads live in device global memory — "for communication, we have to
/// use global memory; this is a byproduct of the memory system on the GPU" —
/// so sends and receives take [`DevicePtr`] arguments.
pub struct GpuCtx<'a> {
    block: &'a BlockCtx,
    layout: &'a GpuLayout,
}

impl<'a> GpuCtx<'a> {
    pub(crate) fn new(block: &'a BlockCtx, layout: &'a GpuLayout) -> Self {
        GpuCtx { block, layout }
    }

    /// The underlying block execution context (geometry, device memory
    /// access).
    pub fn block(&self) -> &BlockCtx {
        self.block
    }

    /// Number of slots configured for this GPU.
    pub fn slots(&self) -> usize {
        self.layout.slots
    }

    /// Total number of DCGN ranks in the job.
    pub fn size(&self) -> usize {
        self.layout.total_ranks
    }

    /// Node hosting this GPU.
    pub fn node(&self) -> usize {
        self.layout.node
    }

    /// The DCGN rank of `slot` on this GPU (the paper's
    /// `dcgn::gpu::getRank(slotIdx)`).
    pub fn rank(&self, slot: usize) -> usize {
        self.layout.slot_rank(slot)
    }

    /// The slot whose rank equals this block's id, when the launch uses the
    /// default one-block-per-slot geometry.
    pub fn slot_for_block(&self) -> usize {
        self.block.block_id() % self.layout.slots
    }

    /// This slot's handle onto the world communicator.
    pub fn world_comm(&self, slot: usize) -> GpuComm {
        GpuComm {
            id: CommId::WORLD.raw(),
            rank: self.rank(slot),
            size: self.layout.total_ranks,
            table: DevicePtr::NULL,
        }
    }

    /// Publish `body` on `slot`: claim a completion record (CAS `FREE →
    /// CLAIMED`), take the slot's next sequence number as the claim
    /// generation, write the body into the record — with a copy of a buffer
    /// of at most [`MAILBOX_INLINE_BYTES`], a device-side copy that saves the
    /// host a PCI-e read — and flip its word to `PENDING` ([`post`]).
    /// Returns without waiting for the host, and the host writes nothing
    /// back until the completion.  The generation orders the slot's
    /// requests: the host relays what one sweep finds in publish order,
    /// whatever records they sit in.
    ///
    /// A `blocking` call (named, for its timeout) claims the slot's
    /// reserved record and waits for it like for its completion
    /// ([`GpuCtx::spin`]): blocks sharing a slot serialise their blocking
    /// calls there (one rank never has two collectives in flight), and
    /// never compete with outstanding nonblocking requests.  A nonblocking
    /// call claims any record of the `reqs_per_slot` column, and faults
    /// rather than deadlock when none goes `FREE` within [`ABANDONED_GRACE`]
    /// (typically this very kernel publishing past the configured depth).
    fn publish(&self, slot: usize, blocking: Option<&str>, body: Body) -> GpuRequest {
        let b = self.block;
        let depth = self.layout.reqs_per_slot;
        let column = RESERVED_RECORD + 1..self.layout.records_per_slot();
        let records = match blocking {
            Some(_) => RESERVED_RECORD..column.start,
            None => column,
        };
        let claim = || {
            records.clone().find(|&index| {
                let ptr = self.layout.word_ptr(slot, index);
                let word = b.read_u32(ptr);
                let (gen, state) = split_word(word);
                state == req_state::FREE
                    && b.atomic_cas_u32(ptr, word, req_word(gen, req_state::CLAIMED)) == word
            })
        };
        let index = match blocking {
            Some(what) => self.spin(what, claim),
            None => {
                let grace = b.clock().deadline(ABANDONED_GRACE);
                b.spin_until(grace, claim).unwrap_or_else(|| {
                    panic!(
                        "slot {slot} on device {}: all {depth} completion record(s) stayed \
                         in flight — did this kernel publish more than the configured \
                         mailbox depth ({depth}) of requests without test()/wait()ing any?",
                        b.device_id()
                    )
                })
            }
        };
        // Each claim takes a fresh generation, so handles from earlier
        // claims go stale.
        let gen = b.atomic_add_u32(self.layout.sequence_ptr(slot), 1) & REQ_GEN_MASK;
        let req = GpuRequest { slot, index, gen };
        post(b, self.layout, req, &body);
        req
    }

    /// Read `req`'s record once ([`release`]): `None` while the request is
    /// in flight, its completion status once the host has completed it.
    ///
    /// # Panics
    /// Panics — faulting the kernel — when the request completed with a
    /// mailbox error (naming the call as `what`) and on a *stale* handle,
    /// whose record was released and possibly reclaimed.
    fn poll(&self, req: GpuRequest, what: &str) -> Option<CommStatus> {
        let b = self.block;
        let record = release(b, self.layout, req).unwrap_or_else(|word| {
            panic!(
                "stale GpuRequest {}.{}.{} on device {} block {}: its completion record \
                 was already harvested (word is now {word:#x}) — was the request waited \
                 on twice?",
                req.slot,
                req.index,
                req.gen,
                b.device_id(),
                b.block_id()
            )
        })?;
        if record.error != mailbox_error::OK {
            panic!(
                "dcgn::gpu::{what} failed on device {} block {}: mailbox error {}",
                b.device_id(),
                b.block_id(),
                record.error
            );
        }
        Some(CommStatus {
            source: record.source as usize,
            tag: record.tag,
            len: record.len as usize,
        })
    }

    /// Spin on `poll` until it yields; past the request timeout, fault the
    /// kernel naming call `what`, as a CPU rank's call returns `Timeout`.
    /// The block never releases a record it gave up on, so no later claim
    /// takes it and a reply landing late completes no other request.
    fn spin<T>(&self, what: &str, poll: impl FnMut() -> Option<T>) -> T {
        let (b, after) = (self.block, self.layout.request_timeout);
        let done = b.spin_until(b.clock().deadline(after), poll);
        done.unwrap_or_else(|| {
            let (device, block) = (b.device_id(), b.block_id());
            panic!("dcgn::gpu::{what} timed out after {after:?} on device {device} block {block}")
        })
    }

    /// A blocking call: publish on the reserved record, then wait for it.
    /// No [`GpuRequest`] escapes, so the reserved record's handle cannot be
    /// waited on twice or kept.
    fn blocking(&self, slot: usize, what: &str, body: Body) -> CommStatus {
        let req = self.publish(slot, Some(what), body);
        self.spin(what, || self.poll(req, what))
    }

    /// A blocking collective over `comm`: the body additionally carries the
    /// caller's sub-rank and the group's size and id.  Returns the result
    /// size in bytes.
    fn collective(&self, slot: usize, what: &str, comm: &GpuComm, body: Body) -> usize {
        let body = Body {
            peer2: comm.rank as u32,
            aux: comm.size as u32,
            comm: comm.id,
            ..body
        };
        self.blocking(slot, what, body).len
    }

    /// A point-to-point body: `opcode` towards `peer` carrying `tag`.
    fn p2p(opcode: u32, peer: usize, tag: u32, data: DevicePtr, len: usize) -> Body {
        Body {
            aux: tag,
            ..Body::new(opcode, peer as u32, data, len)
        }
    }

    /// Send `len` bytes starting at device pointer `data` to DCGN rank `dst`
    /// using `slot` (the paper's `dcgn::gpu::send`; untagged = tag 0).
    pub fn send(&self, slot: usize, dst: usize, data: DevicePtr, len: usize) {
        self.send_tagged(slot, dst, 0, data, len)
    }

    /// Send with an explicit message tag: the tag rides in the request
    /// body's `aux` word and matches against the receiver's tag filter
    /// (CPU `recv_tagged` / GPU [`GpuCtx::recv_tagged`] /
    /// [`ANY_TAG`](super::ANY_TAG)).
    pub fn send_tagged(&self, slot: usize, dst: usize, tag: u32, data: DevicePtr, len: usize) {
        self.blocking(slot, "send", Self::p2p(opcode::SEND, dst, tag, data, len));
    }

    /// Receive into `len` bytes of device memory at `data` from DCGN rank
    /// `src` using `slot` (the paper's `dcgn::gpu::recv`; untagged = tag 0).
    /// Returns the completion status.
    pub fn recv(&self, slot: usize, src: usize, data: DevicePtr, len: usize) -> CommStatus {
        self.recv_tagged(slot, src, 0, data, len)
    }

    /// Receive a message carrying `tag` (or any tag, for
    /// [`ANY_TAG`](super::ANY_TAG)) from DCGN rank `src`.  The returned
    /// status always reports the tag the message actually carried: the
    /// matched tag is round-tripped through the completion record, so an
    /// `ANY_TAG` receive learns the sender's tag instead of seeing 0.
    pub fn recv_tagged(
        &self,
        slot: usize,
        src: usize,
        tag: u32,
        data: DevicePtr,
        len: usize,
    ) -> CommStatus {
        self.blocking(slot, "recv", Self::p2p(opcode::RECV, src, tag, data, len))
    }

    /// Receive from any rank (untagged = tag 0).
    pub fn recv_any(&self, slot: usize, data: DevicePtr, len: usize) -> CommStatus {
        self.recv_any_tagged(slot, 0, data, len)
    }

    /// Receive a message carrying `tag` (or any tag, for
    /// [`ANY_TAG`](super::ANY_TAG)) from any rank (tag reporting as in
    /// [`GpuCtx::recv_tagged`]).
    pub fn recv_any_tagged(
        &self,
        slot: usize,
        tag: u32,
        data: DevicePtr,
        len: usize,
    ) -> CommStatus {
        self.recv_tagged(slot, PEER_ANY as usize, tag, data, len)
    }

    /// Send the `len` bytes at `data` to `dst` and replace them with the
    /// message received from `src` (device-side `MPI_Sendrecv_replace`).
    /// Both halves are relayed together, so symmetric exchanges (ring
    /// rotations, Cannon's algorithm) cannot deadlock.
    pub fn sendrecv_replace(
        &self,
        slot: usize,
        dst: usize,
        src: usize,
        data: DevicePtr,
        len: usize,
    ) -> CommStatus {
        let body = Body {
            peer2: src as u32,
            ..Self::p2p(opcode::SENDRECV_REPLACE, dst, 0, data, len)
        };
        self.blocking(slot, "sendrecv_replace", body)
    }

    // ------------------------------------------------------------------
    // Nonblocking point-to-point: `isend`/`irecv` return as soon as the
    // request is published; the kernel keeps computing and collects the
    // completion later with `test`/`wait`, which read the request's
    // completion word in device memory — no further host round trip.
    // Compute issued between publish and wait overlaps the entire host
    // relay and wire time.
    // ------------------------------------------------------------------

    /// Start a nonblocking send of `len` device bytes at `data` to DCGN rank
    /// `dst` (untagged = tag 0).  Returns immediately; the buffer must stay
    /// unmodified until the returned request completes
    /// ([`GpuCtx::wait`]/[`GpuCtx::test`]).
    pub fn isend(&self, slot: usize, dst: usize, data: DevicePtr, len: usize) -> GpuRequest {
        self.isend_tagged(slot, dst, 0, data, len)
    }

    /// Start a nonblocking tagged send.
    pub fn isend_tagged(
        &self,
        slot: usize,
        dst: usize,
        tag: u32,
        data: DevicePtr,
        len: usize,
    ) -> GpuRequest {
        self.publish(slot, None, Self::p2p(opcode::SEND, dst, tag, data, len))
    }

    /// Post a nonblocking receive from DCGN rank `src` into `len` bytes of
    /// device memory at `data` (untagged = tag 0).  The buffer must not be
    /// read until the request completes.
    pub fn irecv(&self, slot: usize, src: usize, data: DevicePtr, len: usize) -> GpuRequest {
        self.irecv_tagged(slot, src, 0, data, len)
    }

    /// Post a nonblocking receive matching `tag` (or any tag, for
    /// [`ANY_TAG`](super::ANY_TAG)) from DCGN rank `src`.
    pub fn irecv_tagged(
        &self,
        slot: usize,
        src: usize,
        tag: u32,
        data: DevicePtr,
        len: usize,
    ) -> GpuRequest {
        self.publish(slot, None, Self::p2p(opcode::RECV, src, tag, data, len))
    }

    /// Post a nonblocking receive matching `tag` (or
    /// [`ANY_TAG`](super::ANY_TAG)) from any rank.
    pub fn irecv_any_tagged(
        &self,
        slot: usize,
        tag: u32,
        data: DevicePtr,
        len: usize,
    ) -> GpuRequest {
        self.irecv_tagged(slot, PEER_ANY as usize, tag, data, len)
    }

    /// Nonblocking completion check: returns the completion status once the
    /// host has flipped the request's completion word to `DONE`, releasing
    /// the record; returns `None` while the request is still in flight.
    ///
    /// # Panics
    /// Panics (like the blocking calls) when the request completed with a
    /// mailbox error, and on a *stale* handle — one already harvested (the
    /// record's generation moved on), which on the CPU side is the clean
    /// `InvalidArgument` error.
    pub fn test(&self, req: GpuRequest) -> Option<CommStatus> {
        self.poll(req, "wait")
    }

    /// Spin on the request's completion word (pure device-side wait — the
    /// host writes the word via its regular sweep) and return the
    /// completion status.
    ///
    /// # Panics
    /// Panics on a mailbox error or a stale handle (see [`GpuCtx::test`]).
    pub fn wait(&self, req: GpuRequest) -> CommStatus {
        self.spin("wait", || self.poll(req, "wait"))
    }

    /// Wait for every request, returning the completions in argument order —
    /// the device-side mirror of `CpuCtx::waitall`.  Each handle is
    /// consumed; a stale handle faults like [`GpuCtx::wait`].
    pub fn waitall(&self, reqs: &[GpuRequest]) -> Vec<CommStatus> {
        reqs.iter().map(|&req| self.wait(req)).collect()
    }

    /// Wait until *one* of the requests completes; returns its index within
    /// `reqs` and its completion status (the other handles stay valid) —
    /// the device-side mirror of `CpuCtx::waitany`.  Polls every request's
    /// completion word in one device-side wait, as [`GpuCtx::wait`] polls
    /// one: spin, then park until the next write to device memory.
    ///
    /// # Panics
    /// Panics on an empty request list, a mailbox error, or a stale handle.
    pub fn waitany(&self, reqs: &[GpuRequest]) -> (usize, CommStatus) {
        assert!(
            !reqs.is_empty(),
            "dcgn::gpu::waitany needs at least one request handle"
        );
        self.spin("waitany", || {
            reqs.iter()
                .enumerate()
                .find_map(|(i, &req)| Some((i, self.poll(req, "wait")?)))
        })
    }

    /// Barrier across every DCGN rank, entered by this slot.
    pub fn barrier(&self, slot: usize) {
        self.barrier_in(slot, &self.world_comm(slot));
    }

    /// Barrier across the members of `comm`, entered by this slot.
    pub fn barrier_in(&self, slot: usize, comm: &GpuComm) {
        let body = Body::new(opcode::BARRIER, 0, DevicePtr::NULL, 0);
        self.collective(slot, "barrier", comm, body);
    }

    /// Broadcast from DCGN rank `root`.  The slot whose rank is `root`
    /// supplies `len` bytes at `data`; every other participant receives the
    /// root's bytes into `data` (at most `len` bytes).  Returns the number of
    /// bytes broadcast.
    pub fn broadcast(&self, slot: usize, root: usize, data: DevicePtr, len: usize) -> usize {
        self.broadcast_in(slot, &self.world_comm(slot), root, data, len)
    }

    /// Broadcast within `comm` from sub-rank `root`.
    pub fn broadcast_in(
        &self,
        slot: usize,
        comm: &GpuComm,
        root: usize,
        data: DevicePtr,
        len: usize,
    ) -> usize {
        let body = Body::new(opcode::BROADCAST, root as u32, data, len);
        self.collective(slot, "broadcast", comm, body)
    }

    /// Gather every rank's block at DCGN rank `root` (in-place, like
    /// `MPI_Gather` with `MPI_IN_PLACE`): `data` addresses a buffer of
    /// `size() × len` bytes in which this slot has written its own `len`-byte
    /// contribution at offset `rank × len`.  On return the root's buffer
    /// holds every rank's block at that rank's offset; other participants'
    /// buffers are untouched.  Returns the total bytes gathered at the root
    /// and `0` elsewhere.
    pub fn gather(&self, slot: usize, root: usize, data: DevicePtr, len: usize) -> usize {
        self.gather_in(slot, &self.world_comm(slot), root, data, len)
    }

    /// Gather within `comm` at sub-rank `root` (in-place over a
    /// `comm.size × len` buffer indexed by sub-rank).
    pub fn gather_in(
        &self,
        slot: usize,
        comm: &GpuComm,
        root: usize,
        data: DevicePtr,
        len: usize,
    ) -> usize {
        let body = Body::new(opcode::GATHER, root as u32, data, len);
        self.collective(slot, "gather", comm, body)
    }

    /// Scatter per-rank chunks of `len` bytes from DCGN rank `root`
    /// (in-place): the root's `data` buffer stages `size() × len` bytes with
    /// rank `r`'s chunk at offset `r × len`; on return every participant's
    /// `data` holds its own chunk in the first `len` bytes (the root's own
    /// chunk is copied down to its buffer start as well).  Returns the chunk
    /// size received.
    pub fn scatter(&self, slot: usize, root: usize, data: DevicePtr, len: usize) -> usize {
        self.scatter_in(slot, &self.world_comm(slot), root, data, len)
    }

    /// Scatter within `comm` from sub-rank `root` (in-place over a
    /// `comm.size × len` buffer indexed by sub-rank).
    pub fn scatter_in(
        &self,
        slot: usize,
        comm: &GpuComm,
        root: usize,
        data: DevicePtr,
        len: usize,
    ) -> usize {
        let body = Body::new(opcode::SCATTER, root as u32, data, len);
        self.collective(slot, "scatter", comm, body)
    }

    /// Allgather every rank's block (in-place, like `MPI_Allgather` with
    /// `MPI_IN_PLACE`): same buffer convention as [`GpuCtx::gather`], but on
    /// return *every* participant's buffer holds all `size() × len` bytes.
    /// Returns the total bytes gathered.
    pub fn allgather(&self, slot: usize, data: DevicePtr, len: usize) -> usize {
        self.allgather_in(slot, &self.world_comm(slot), data, len)
    }

    /// Allgather within `comm` (in-place over a `comm.size × len` buffer
    /// indexed by sub-rank).
    pub fn allgather_in(&self, slot: usize, comm: &GpuComm, data: DevicePtr, len: usize) -> usize {
        let body = Body::new(opcode::ALLGATHER, 0, data, len);
        self.collective(slot, "allgather", comm, body)
    }

    /// Element-wise reduction of `count` `f64`s at `data` to DCGN rank
    /// `root`.  On return the root's buffer holds the reduced vector; other
    /// participants' buffers are untouched.  Returns the result size in
    /// bytes at the root and `0` elsewhere.
    pub fn reduce(
        &self,
        slot: usize,
        root: usize,
        op: ReduceOp,
        data: DevicePtr,
        count: usize,
    ) -> usize {
        let world = self.world_comm(slot);
        self.reduce_in(slot, &world, root, op, ReduceDtype::F64, data, count)
    }

    /// Element-wise reduction of `count` elements of `dtype` at `data`
    /// (`f64`, `f32`, `u32` or `i64`; the element type is carried in the
    /// body's `reduce` word next to the operator) within `comm` to sub-rank
    /// `root`.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_in(
        &self,
        slot: usize,
        comm: &GpuComm,
        root: usize,
        op: ReduceOp,
        dtype: ReduceDtype,
        data: DevicePtr,
        count: usize,
    ) -> usize {
        let body = Body {
            reduce: encode_reduce_word(op, dtype),
            ..Body::new(
                opcode::REDUCE,
                root as u32,
                data,
                count * dtype.element_bytes(),
            )
        };
        self.collective(slot, "reduce", comm, body)
    }

    /// Element-wise reduction of `count` `f64`s at `data`, with every rank
    /// receiving the reduced vector in place.  Returns the result size in
    /// bytes.
    pub fn allreduce(&self, slot: usize, op: ReduceOp, data: DevicePtr, count: usize) -> usize {
        let world = self.world_comm(slot);
        self.allreduce_in(slot, &world, op, ReduceDtype::F64, data, count)
    }

    /// Element-wise reduction of `count` elements of `dtype` within `comm`
    /// delivered to every member.
    pub fn allreduce_in(
        &self,
        slot: usize,
        comm: &GpuComm,
        op: ReduceOp,
        dtype: ReduceDtype,
        data: DevicePtr,
        count: usize,
    ) -> usize {
        let body = Body {
            reduce: encode_reduce_word(op, dtype),
            ..Body::new(opcode::ALLREDUCE, 0, data, count * dtype.element_bytes())
        };
        self.collective(slot, "allreduce", comm, body)
    }

    /// Collectively split the world into subgroups (`MPI_Comm_split`): slots
    /// supplying the same `color` form a new communicator ordered by
    /// `(key, rank)`.  The host writes the encoded membership —
    /// `[id u64][sub-rank u32][size u32][member u32 × size]` — into `table`
    /// (at most `table_len` bytes), which must stay allocated for as long as
    /// the returned handle's member lookups are used.
    pub fn split(
        &self,
        slot: usize,
        color: u32,
        key: u32,
        table: DevicePtr,
        table_len: usize,
    ) -> GpuComm {
        self.split_in(slot, &self.world_comm(slot), color, key, table, table_len)
    }

    /// Split an existing communicator further; every member must call it.
    pub fn split_in(
        &self,
        slot: usize,
        comm: &GpuComm,
        color: u32,
        key: u32,
        table: DevicePtr,
        table_len: usize,
    ) -> GpuComm {
        let body = Body {
            peer2: key,
            comm: comm.id,
            ..Body::new(opcode::SPLIT, color, table, table_len)
        };
        self.blocking(slot, "comm_split", body);
        let b = self.block;
        GpuComm {
            id: b.read_u64(table),
            rank: b.read_u32(table.add(8)) as usize,
            size: b.read_u32(table.add(12)) as usize,
            table,
        }
    }

    /// Release this slot's handle on a communicator created with
    /// [`GpuCtx::split`] (`MPI_Comm_free` analogue).  Every local member
    /// must free the group before the host evicts it from its registry; the
    /// handle (and its device-side member table) must not be used
    /// afterwards.  The world communicator cannot be freed.
    pub fn comm_free(&self, slot: usize, comm: &GpuComm) {
        let body = Body {
            comm: comm.id,
            ..Body::new(opcode::FREE, 0, DevicePtr::NULL, 0)
        };
        self.blocking(slot, "comm_free", body);
    }

    /// Global DCGN rank of `sub_rank` within `comm` (read from the member
    /// table the split left in device memory).  World handles have no table
    /// in device memory; their mapping is the identity.
    pub fn comm_member(&self, comm: &GpuComm, sub_rank: usize) -> usize {
        assert!(
            sub_rank < comm.size,
            "sub-rank {sub_rank} out of range ({} members)",
            comm.size
        );
        if comm.id == CommId::WORLD.raw() {
            return sub_rank;
        }
        self.block.read_u32(comm.table.add(16 + 4 * sub_rank)) as usize
    }
}

/// Handle to an outstanding nonblocking device-side operation started with
/// [`GpuCtx::isend`]/[`GpuCtx::irecv`]: the slot it was published through
/// and the index of its completion record within that slot's column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuRequest {
    pub(super) slot: usize,
    pub(super) index: usize,
    /// The completion record's claim generation (the slot's sequence number
    /// at publish); completion words are generation-stamped, so a handle
    /// outliving its record's release is detected as stale.
    pub(super) gen: u32,
}

/// A GPU slot's handle onto a communicator created with [`GpuCtx::split`]:
/// the group id, this slot's sub-rank, the group size, and the device
/// address of the member table (sub-rank → global rank, readable with
/// [`GpuCtx::comm_member`]).
#[derive(Debug, Clone, Copy)]
pub struct GpuComm {
    /// Raw communicator id ([`CommId::raw`]).
    pub id: u64,
    /// This slot's position within the group.
    pub rank: usize,
    /// Number of ranks in the group.
    pub size: usize,
    /// Device address of the encoded membership (the split's `table`).
    pub table: DevicePtr,
}
