//! The exchange driver: one participant's side of every exchange it takes
//! part in, with no I/O.  DCGN's engine (a participant per node), the MPI
//! twin's collectives (one per rank) and the plan walker all run it.
//!
//! The driver numbers the exchanges of each [`Stream`], frames and parses
//! their header, and owns every rule for a frame that meets no running
//! plan [`Machine`].  Participants enter a stream's exchanges in the same
//! order, so the stream's last entered sequence number is all they need:
//!
//! * **early** — a frame of an exchange not entered yet is stashed, and
//!   [`Driver::enter`] replays the stash through the path live frames take;
//! * **abort** — an early abort replaces the stash with a *tombstone*, the
//!   error the exchange ends with once entered; a live one ends it at once;
//! * **cap** — one frame more than [`STASH_PER_PARTICIPANT`] per
//!   participant turns a stash into a tombstone of
//!   [`RmpiError::StashOverflow`];
//! * **late** — a frame of an exchange already entered and ended is dropped.

use std::collections::HashMap;
use std::sync::Arc;

use dcgn_netsim::Payload;

use super::wire::frame_to_error;
use super::{Action, ExFrame, Layout, Machine};
use crate::packet::{RmpiError, PHASE_ABORT};
use crate::Result;

/// One stream of exchanges: a communicator's registration epoch and raw id.
/// Its exchanges are numbered 1, 2, … in the order participants enter them.
pub type Stream = (u32, u64);

/// One exchange: its stream and sequence number.
type Key = (Stream, u64);

/// Bytes of the exchange header every frame starts with:
/// `[epoch u32][comm u64][seq u64][phase u32][status u8][pad u8 × 3]`.
const HEADER_BYTES: usize = 28;

/// Stashed frames allowed per participant of the world.  Ring sends one
/// participant at most `2(n − 1)` frames of an exchange, and every other
/// participant can add one abort, so no correct run stashes `3n`.
const STASH_PER_PARTICIPANT: usize = 3;

/// What the driver asks its caller to do.
#[derive(Debug)]
pub enum Out<T> {
    /// Ship `wire`, already framed, to every participant in `to`.
    Send {
        /// Destination participants (never empty).
        to: Vec<usize>,
        /// The frame's protocol phase ([`PHASE_ABORT`] for an abort).
        phase: u32,
        /// The framed bytes, shared by every destination.
        wire: Payload,
    },
    /// An exchange ended at this participant: the state its caller entered
    /// it with, and its down-payload or error.
    Done(T, Result<Payload>),
}

/// A running exchange.
#[cfg_attr(test, derive(Clone))]
struct Live<T> {
    state: T,
    layout: Arc<Layout>,
    machine: Machine,
}

/// What waits for an exchange this participant has not entered.
#[cfg_attr(test, derive(Clone))]
enum Stash {
    /// `(source, phase, frame)` in arrival order.
    Early(Vec<(usize, u32, ExFrame)>),
    /// The error the exchange ends with once it is entered.
    Tombstone(RmpiError),
}

/// One participant's exchanges; `T` is what its caller keeps per exchange.
#[cfg_attr(test, derive(Clone))]
pub struct Driver<T> {
    /// This participant, as layouts name it.
    me: usize,
    /// Frames one stash may hold.
    cap: usize,
    /// The last sequence number entered on each stream.
    entered: HashMap<Stream, u64>,
    live: HashMap<Key, Live<T>>,
    stash: HashMap<Key, Stash>,
}

impl<T> Driver<T> {
    /// The driver of participant `me` in a world of `participants`.
    pub fn new(me: usize, participants: usize) -> Self {
        Driver {
            me,
            cap: STASH_PER_PARTICIPANT * participants,
            entered: HashMap::new(),
            live: HashMap::new(),
            stash: HashMap::new(),
        }
    }

    /// Consume `stream`'s next sequence number and start its exchange with
    /// `start(layout, position)`, unless a tombstone already ends it; then
    /// replay whatever was stashed for it.  `layout` must name this
    /// participant.
    pub fn enter(
        &mut self,
        stream: Stream,
        layout: Arc<Layout>,
        state: T,
        start: impl FnOnce(&Layout, usize) -> Result<(Machine, Vec<Action>)>,
        outs: &mut Vec<Out<T>>,
    ) -> Result<()> {
        let key = self.next(stream);
        let early = match self.stash.remove(&key) {
            Some(Stash::Tombstone(err)) => {
                outs.push(Out::Done(state, Err(err)));
                return Ok(());
            }
            Some(Stash::Early(frames)) => frames,
            None => Vec::new(),
        };
        let me = self.me;
        let pos = layout.nodes.iter().position(|&p| p == me);
        let pos = pos.ok_or_else(|| RmpiError::Internal(format!("{me} is not in the layout")))?;
        let (machine, actions) = start(&layout, pos)?;
        let live = Live {
            state,
            layout,
            machine,
        };
        self.live.insert(key, live);
        self.act(key, actions, outs);
        for (src, phase, frame) in early {
            self.feed(key, src, phase, frame, outs);
        }
        Ok(())
    }

    /// Consume `stream`'s next sequence number for an exchange that failed
    /// before it started, and abort it at every other participant of
    /// `layout` with `(status, body)`.
    pub fn enter_aborted(
        &mut self,
        stream: Stream,
        layout: &Layout,
        status: u8,
        body: &[u8],
        outs: &mut Vec<Out<T>>,
    ) {
        let key = self.next(stream);
        self.stash.remove(&key);
        self.abort(key, layout, status, body, outs);
    }

    /// Take one received frame from participant `src`: feed it to its
    /// running exchange, stash it for one not entered yet, or drop it as
    /// late.  A frame too short for its header is
    /// [`RmpiError::InvalidArgument`].
    pub fn on_wire(&mut self, src: usize, wire: Payload, outs: &mut Vec<Out<T>>) -> Result<()> {
        let (key, phase, frame) = parse(wire)?;
        let (stream, seq) = key;
        if seq <= self.entered.get(&stream).copied().unwrap_or(0) {
            self.feed(key, src, phase, frame, outs);
            return Ok(());
        }
        let cap = self.cap;
        let stash = self.stash.entry(key).or_insert(Stash::Early(Vec::new()));
        match stash {
            _ if phase == PHASE_ABORT => {
                *stash = Stash::Tombstone(frame_to_error(frame.0, frame.1.as_slice()));
            }
            Stash::Early(frames) if frames.len() < cap => frames.push((src, phase, frame)),
            Stash::Early(_) => *stash = Stash::Tombstone(RmpiError::StashOverflow { cap }),
            Stash::Tombstone(_) => {}
        }
        Ok(())
    }

    /// True when an exchange of `stream` is running.
    pub fn is_live(&self, stream: Stream) -> bool {
        self.live.keys().any(|&(s, _)| s == stream)
    }

    /// True when no exchange is running.
    pub fn is_idle(&self) -> bool {
        self.live.is_empty()
    }

    /// How many exchanges not entered yet hold a tombstone, and how many
    /// hold stashed frames.
    pub fn stashed(&self) -> (usize, usize) {
        let tombstones = self.stash.values();
        let tombstones = tombstones.filter(|s| matches!(s, Stash::Tombstone(_)));
        let tombstones = tombstones.count();
        (tombstones, self.stash.len() - tombstones)
    }

    /// Forget `stream` and whatever was stashed for exchanges of it that
    /// will now never be entered.
    pub fn forget(&mut self, stream: Stream) {
        self.entered.remove(&stream);
        self.stash.retain(|&(s, _), _| s != stream);
    }

    /// Drop every running exchange: its caller gave up on it.  Each stream
    /// keeps its sequence number, so what still arrives for one is late.
    pub fn abandon(&mut self) {
        self.live.clear();
    }

    fn next(&mut self, stream: Stream) -> Key {
        let seq = self.entered.entry(stream).or_insert(0);
        *seq += 1;
        (stream, *seq)
    }

    /// Feed a frame to its running exchange, under every plan alike when it
    /// is an abort; a frame of an exchange that has ended is dropped.
    fn feed(&mut self, key: Key, src: usize, phase: u32, frame: ExFrame, outs: &mut Vec<Out<T>>) {
        let Some(live) = self.live.get_mut(&key) else {
            return;
        };
        if phase == PHASE_ABORT {
            let err = frame_to_error(frame.0, frame.1.as_slice());
            return self.end(key, Err(err), outs);
        }
        let actions = live.machine.on_frame(&live.layout, src, phase, frame);
        self.act(key, actions, outs);
    }

    /// Turn a machine's actions into outs; the first terminal one ends the
    /// exchange.
    fn act(&mut self, key: Key, actions: Vec<Action>, outs: &mut Vec<Out<T>>) {
        for action in actions {
            let result = match action {
                Action::Send {
                    to,
                    phase,
                    status,
                    body,
                } => {
                    if !to.is_empty() {
                        let wire = frame(key, phase, status, body.as_slice());
                        outs.push(Out::Send { to, phase, wire });
                    }
                    continue;
                }
                Action::Deliver(payload) => Ok(payload),
                Action::Fail(err) => Err(err),
                Action::Abort { status, body } => {
                    if let Some(live) = self.live.get(&key) {
                        self.abort(key, &live.layout, status, &body, outs);
                    }
                    Err(frame_to_error(status, &body))
                }
            };
            self.end(key, result, outs);
        }
    }

    /// End `key`'s exchange with `result`, unless it has already ended.
    fn end(&mut self, key: Key, result: Result<Payload>, outs: &mut Vec<Out<T>>) {
        if let Some(live) = self.live.remove(&key) {
            outs.push(Out::Done(live.state, result));
        }
    }

    /// Send an abort of `key` to every other participant of `layout`: it
    /// does not ride the (possibly disagreeing) schedule.
    fn abort(&self, key: Key, layout: &Layout, status: u8, body: &[u8], outs: &mut Vec<Out<T>>) {
        let to: Vec<usize> = layout
            .nodes
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect();
        if !to.is_empty() {
            let wire = frame(key, PHASE_ABORT, status, body);
            outs.push(Out::Send {
                to,
                phase: PHASE_ABORT,
                wire,
            });
        }
    }
}

/// Frame one exchange frame: the header, then `body`.
fn frame(((epoch, comm), seq): Key, phase: u32, status: u8, body: &[u8]) -> Payload {
    let mut out = Vec::with_capacity(HEADER_BYTES + body.len());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&comm.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&phase.to_le_bytes());
    out.extend_from_slice(&[status, 0, 0, 0]);
    out.extend_from_slice(body);
    Payload::from_vec(out)
}

/// Split a received frame into its exchange, phase and `(status, body)`;
/// the body is a zero-copy view of `wire`.
fn parse(wire: Payload) -> Result<(Key, u32, ExFrame)> {
    let bytes = wire.as_slice();
    if bytes.len() < HEADER_BYTES {
        let len = bytes.len();
        return Err(RmpiError::InvalidArgument(format!(
            "short exchange frame: {len} bytes"
        )));
    }
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
    let key = ((u32_at(0), u64_at(4)), u64_at(12));
    let (phase, status) = (u32_at(20), bytes[24]);
    Ok((key, phase, (status, wire.slice(HEADER_BYTES..wire.len()))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::{start_machine, CollectiveId, CollectiveKind, ExchangePlan};

    const STREAM: Stream = (7, 3);

    /// Participants 0 (the star's root) and 1.
    fn layout() -> Arc<Layout> {
        Arc::new(Layout::new(vec![0, 1]))
    }

    fn barrier(layout: &Layout, pos: usize) -> Result<(Machine, Vec<Action>)> {
        let id = CollectiveId {
            kind: CollectiveKind::Barrier,
            root: None,
            reduction: None,
        };
        start_machine(ExchangePlan::Star, id, layout, pos, Ok(Vec::new()))
    }

    /// A start that must not run.
    fn no_start(_: &Layout, _: usize) -> Result<(Machine, Vec<Action>)> {
        panic!("a tombstoned exchange starts no machine")
    }

    /// The frames participant 1 sends in `stream`'s first exchange: its
    /// barrier up-frame, or its abort.
    fn from_one(aborts: bool) -> Payload {
        let mut one = Driver::new(1, 2);
        let mut outs = Vec::new();
        if aborts {
            let codes = [CollectiveKind::Barrier, CollectiveKind::Allreduce];
            let codes = codes.map(CollectiveKind::wire_code);
            one.enter_aborted(
                STREAM,
                &layout(),
                super::super::ST_MISMATCH,
                &codes,
                &mut outs,
            );
        } else {
            one.enter(STREAM, layout(), (), barrier, &mut outs).unwrap();
        }
        match outs.pop() {
            Some(Out::Send { to, wire, .. }) if to == [0] => wire,
            other => panic!("expected one frame to participant 0, got {other:?}"),
        }
    }

    #[test]
    fn an_abort_before_entering_ends_the_exchange_with_no_machine() {
        let mut root: Driver<()> = Driver::new(0, 2);
        let mut outs = Vec::new();
        root.on_wire(1, from_one(true), &mut outs).unwrap();
        assert!(outs.is_empty());
        assert_eq!(root.stashed(), (1, 0));
        root.enter(STREAM, layout(), (), no_start, &mut outs)
            .unwrap();
        assert!(
            matches!(
                &outs[..],
                [Out::Done((), Err(RmpiError::CollectiveMismatch { .. }))]
            ),
            "{outs:?}"
        );
        assert_eq!(root.stashed(), (0, 0));
        assert!(root.is_idle());
    }

    #[test]
    fn a_flood_of_frames_before_entering_becomes_a_tombstone_at_the_cap() {
        let mut root: Driver<()> = Driver::new(0, 2);
        let cap = 3 * 2;
        let mut outs = Vec::new();
        let up = from_one(false);
        for _ in 0..cap {
            root.on_wire(1, up.clone(), &mut outs).unwrap();
        }
        assert_eq!(root.stashed(), (0, 1));
        root.on_wire(1, up, &mut outs).unwrap();
        assert_eq!(root.stashed(), (1, 0));
        assert!(outs.is_empty());
        root.enter(STREAM, layout(), (), no_start, &mut outs)
            .unwrap();
        assert!(
            matches!(
                &outs[..],
                [Out::Done((), Err(RmpiError::StashOverflow { cap: 6 }))]
            ),
            "{outs:?}"
        );
        assert_eq!(root.stashed(), (0, 0));
    }

    #[test]
    fn a_frame_of_an_ended_or_abandoned_exchange_is_dropped() {
        for abandons in [false, true] {
            let mut root: Driver<()> = Driver::new(0, 2);
            let mut outs = Vec::new();
            root.enter(STREAM, layout(), (), barrier, &mut outs)
                .unwrap();
            assert!(outs.is_empty(), "the root waits for the up-frame");
            if abandons {
                root.abandon();
            } else {
                root.on_wire(1, from_one(false), &mut outs).unwrap();
                assert!(
                    matches!(&outs[..], [Out::Send { .. }, Out::Done((), Ok(_))]),
                    "{outs:?}"
                );
                outs.clear();
            }
            root.on_wire(1, from_one(false), &mut outs).unwrap();
            assert!(outs.is_empty());
            assert_eq!(root.stashed(), (0, 0));
            assert!(root.is_idle());
        }
    }

    #[test]
    fn a_short_frame_is_an_invalid_argument() {
        let mut root: Driver<()> = Driver::new(0, 2);
        let short = Payload::from_vec(vec![0; HEADER_BYTES - 1]);
        let taken = root.on_wire(1, short, &mut Vec::new());
        assert!(matches!(taken, Err(RmpiError::InvalidArgument(_))));
    }

    #[test]
    fn frames_roundtrip_identity_phase_status_and_body() {
        let key = ((7, u64::MAX - 3), 99);
        let wire = frame(key, 1, 2, &[0xAB, 0xCD]);
        assert_eq!(wire.len(), HEADER_BYTES + 2);
        let (got, phase, (status, body)) = parse(wire).unwrap();
        assert_eq!((got, phase, status), (key, 1, 2));
        assert_eq!(body.as_slice(), &[0xAB, 0xCD]);
        // Every identity field is distinguishing: no hashing, no collisions.
        for other in [((8, key.0 .1), 99), ((7, 1), 99), ((7, key.0 .1), 100)] {
            let (got, _, _) = parse(frame(other, 1, 2, &[])).unwrap();
            assert_ne!(got, key);
        }
        let (_, phase, _) = parse(frame(key, 0, 2, &[])).unwrap();
        assert_eq!(phase, 0);
    }
}
