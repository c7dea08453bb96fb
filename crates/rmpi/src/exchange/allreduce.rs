//! The allreduce plans: schedules with no combining root, in which every node
//! folds partials it receives into its own vector and forwards the result.
//!
//! One driver runs them.  A node's schedule is an ordered table of [`Step`]s
//! — send a range of the vector to a peer, or receive a range from one and
//! fold it in or overwrite with it — and the driver stashes frames by phase
//! (a partner of a later step may run ahead), consumes them in table order,
//! and emits every send the moment its turn comes.  The two schedules are
//! two tables:
//!
//! * **recursive doubling** ([`rd_steps`]) — pairwise whole-vector fold
//!   rounds over a power-of-two core, with extras folding in/out at the edges
//!   (latency-optimal for small vectors);
//! * **ring** ([`ring_steps`]) — reduce-scatter then allgather of `n` chunks
//!   around a ring (bandwidth-optimal for large vectors).
//!
//! A node whose local build failed cannot fold, so it aborts the whole
//! exchange at once — identical containment to the rooted plans' error echo.

use std::collections::HashMap;
use std::ops::Range;

use dcgn_netsim::Payload;

use super::wire::{
    decode_reduce_body, encode_reduce_body, unexpected_frame, AbortFrame, CollectiveId, ExFrame,
    ST_ERR, ST_OK,
};
use super::{Action, Machine};
use crate::collectives::{parse_reduce_frame, ReduceDtype, ReduceOp};
use crate::packet::{PHASE_RD_FOLD_IN, PHASE_RD_FOLD_OUT, PHASE_RD_ROUND_BASE, PHASE_RING_BASE};

/// One step of a node's allreduce schedule.  `chunk` names which of the
/// schedule's equal element-wise partitions of the vector the step moves
/// (`None` = the whole vector); frames of chunked steps also carry the
/// sender's total vector length, so a length disagreement is caught on the
/// first frame instead of surfacing as a misaligned chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Send the range to node `dst` under `phase`.
    Send {
        phase: u32,
        dst: usize,
        chunk: Option<usize>,
    },
    /// Wait for the `phase` frame, then fold it into the range (`fold`) or
    /// overwrite the range with it.
    Recv {
        phase: u32,
        chunk: Option<usize>,
        fold: bool,
    },
}

/// Largest power of two ≤ `n` (the "core" size of a recursive-doubling
/// schedule).  `n` must be nonzero.
fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n > 0);
    1usize << (usize::BITS - 1 - n.leading_zeros())
}

/// Recursive-doubling schedule of position `pos` in `nodes`.  The largest
/// power of two `m ≤ n` positions form the core; an extra (`pos ≥ m`) folds
/// into core partner `pos − m` first and gets the finished vector back last.
pub(crate) fn rd_steps(pos: usize, nodes: &[usize]) -> Vec<Step> {
    let n = nodes.len();
    let m = prev_power_of_two(n);
    let whole = |phase, dst| Step::Send {
        phase,
        dst,
        chunk: None,
    };
    let recv = |phase, fold| Step::Recv {
        phase,
        chunk: None,
        fold,
    };
    if pos >= m {
        return vec![
            whole(PHASE_RD_FOLD_IN, nodes[pos - m]),
            recv(PHASE_RD_FOLD_OUT, false),
        ];
    }
    let extra = (pos + m < n).then(|| nodes[pos + m]);
    let mut steps = Vec::new();
    if extra.is_some() {
        steps.push(recv(PHASE_RD_FOLD_IN, true));
    }
    for round in 0..m.trailing_zeros() {
        let phase = PHASE_RD_ROUND_BASE + round;
        steps.push(whole(phase, nodes[pos ^ (1 << round)]));
        steps.push(recv(phase, true));
    }
    steps.extend(extra.map(|dst| whole(PHASE_RD_FOLD_OUT, dst)));
    steps
}

/// Ring schedule of position `pos` in `nodes`: `2(n − 1)` steps, each sending
/// one of `n` chunks to the successor and receiving one from the
/// predecessor.  The first `n − 1` steps fold (reduce-scatter, after which
/// each position owns one finished chunk), the rest overwrite (allgather).
pub(crate) fn ring_steps(pos: usize, nodes: &[usize]) -> Vec<Step> {
    let n = nodes.len();
    let dst = nodes[(pos + 1) % n];
    let mut steps = Vec::new();
    for s in 0..2 * (n - 1) {
        // Step 0 sends this node's own chunk; afterwards a node forwards the
        // chunk it finished receiving the step before, so both walk backwards
        // around the ring one chunk per step.
        let send = (pos + 2 * n - s) % n;
        let phase = PHASE_RING_BASE + s as u32;
        steps.push(Step::Send {
            phase,
            dst,
            chunk: Some(send),
        });
        steps.push(Step::Recv {
            phase,
            chunk: Some((send + n - 1) % n),
            fold: s < n - 1,
        });
    }
    steps
}

/// Progress state of one node in an allreduce schedule.
#[cfg_attr(test, derive(Clone))]
pub struct Allreduce {
    id: CollectiveId,
    op: ReduceOp,
    dtype: ReduceDtype,
    /// Plan name, for the unexpected-phase diagnostic.
    schedule: &'static str,
    steps: Vec<Step>,
    /// Next step of `steps` to execute.
    cursor: usize,
    /// Number of chunks the schedule's chunked steps partition the vector
    /// into (the node count).
    chunks: usize,
    /// The full vector (raw element bytes): folds update it in place, the
    /// last step leaves the result in it.
    acc: Vec<u8>,
    /// Frames for later steps that raced ahead of this node, keyed by phase,
    /// with their sender.  At most one sender exists per phase, so a map
    /// suffices.
    stash: HashMap<u32, (usize, ExFrame)>,
}

impl Allreduce {
    /// Enter the exchange with this node's partial (`up`: the reduce-framed
    /// local combine, or the local validation failure) and run every step
    /// that needs no frame yet.
    pub(crate) fn start(
        id: CollectiveId,
        (op, dtype): (ReduceOp, ReduceDtype),
        schedule: &'static str,
        steps: Vec<Step>,
        chunks: usize,
        up: Result<Vec<u8>, String>,
    ) -> (Machine, Vec<Action>) {
        let mut machine = Allreduce {
            id,
            op,
            dtype,
            schedule,
            steps,
            cursor: 0,
            chunks,
            acc: Vec::new(),
            stash: HashMap::new(),
        };
        let partial = up.and_then(|frame| {
            let partial = parse_reduce_frame(&frame, op, dtype).map_err(|e| e.to_string())?;
            Ok(partial.to_vec())
        });
        let actions = match partial {
            Ok(partial) => {
                machine.acc = partial;
                machine.advance()
            }
            Err(msg) => vec![Action::Abort {
                status: ST_ERR,
                body: msg.into_bytes(),
            }],
        };
        (Machine::Allreduce(machine), actions)
    }

    /// Stash one received frame and run every step it unblocks.
    pub(crate) fn on_frame(&mut self, src_node: usize, phase: u32, frame: ExFrame) -> Vec<Action> {
        let expected = self
            .steps
            .iter()
            .any(|step| matches!(step, Step::Recv { phase: p, .. } if *p == phase));
        if !expected {
            let (status, body) = unexpected_frame(self.id, self.schedule, src_node, phase, &frame);
            return vec![Action::Abort { status, body }];
        }
        self.stash.insert(phase, (src_node, frame));
        self.advance()
    }

    /// The driver: execute steps in table order until one waits for a frame
    /// that has not arrived, or the table ends and the vector is the result.
    fn advance(&mut self) -> Vec<Action> {
        let mut actions = Vec::new();
        while let Some(&step) = self.steps.get(self.cursor) {
            match step {
                Step::Send { phase, dst, chunk } => {
                    let total = chunk.map(|_| self.acc.len() as u32);
                    let body = encode_reduce_body(
                        self.id,
                        self.op,
                        self.dtype,
                        total,
                        &self.acc[self.range(chunk)],
                    );
                    actions.push(Action::Send {
                        to: vec![dst],
                        phase,
                        status: ST_OK,
                        body: Payload::from_vec(body),
                    });
                }
                Step::Recv { phase, chunk, fold } => {
                    let Some((src_node, frame)) = self.stash.remove(&phase) else {
                        return actions;
                    };
                    if let Err((status, body)) = self.apply(src_node, &frame, chunk, fold) {
                        actions.push(Action::Abort { status, body });
                        return actions;
                    }
                }
            }
            self.cursor += 1;
        }
        let result = std::mem::take(&mut self.acc);
        actions.push(Action::Deliver(Payload::from_vec(result)));
        actions
    }

    /// Validate one received frame and fold it into (or overwrite) its range
    /// of the vector.
    fn apply(
        &mut self,
        src_node: usize,
        frame: &ExFrame,
        chunk: Option<usize>,
        fold: bool,
    ) -> Result<(), AbortFrame> {
        let chunked = chunk.is_some();
        let (total, peer) =
            decode_reduce_body(self.id, self.op, self.dtype, src_node, frame, chunked)?;
        let err = |msg: String| (ST_ERR, msg.into_bytes());
        if let Some(total) = total.filter(|&t| t as usize != self.acc.len()) {
            return Err(err(format!(
                "reduce length mismatch across nodes: a peer's vector has {total} bytes, this \
                 node's has {}",
                self.acc.len()
            )));
        }
        let range = self.range(chunk);
        if fold {
            self.dtype
                .fold(self.op, &mut self.acc[range], peer)
                .map_err(|e| err(e.to_string()))
        } else if peer.len() != range.len() {
            Err(err(format!(
                "allreduce chunk length mismatch: got {} bytes, expected {}",
                peer.len(),
                range.len()
            )))
        } else {
            self.acc[range].copy_from_slice(peer);
            Ok(())
        }
    }

    /// Byte range of `chunk` within the vector.  Chunks partition it
    /// element-wise; sizes differ by at most one element.
    fn range(&self, chunk: Option<usize>) -> Range<usize> {
        let Some(chunk) = chunk else {
            return 0..self.acc.len();
        };
        let elem = self.dtype.element_bytes();
        let e = self.acc.len() / elem;
        (chunk * e / self.chunks * elem)..((chunk + 1) * e / self.chunks * elem)
    }
}

#[cfg(test)]
mod tests {
    use super::super::sim::{layout_for, Sim};
    use super::super::wire::CollectiveKind;
    use super::*;
    use crate::collectives::frame_reduce;
    use crate::packet::PHASE_UP;

    const SUM_F64: (ReduceOp, ReduceDtype) = (ReduceOp::Sum, ReduceDtype::F64);

    fn id() -> CollectiveId {
        CollectiveId {
            kind: CollectiveKind::Allreduce,
            root: None,
            reduction: Some(SUM_F64),
        }
    }

    fn bytes(values: &[f64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// Position `pos` contributes `(pos + 1) · (i + 1)` in element `i`.
    fn input(pos: usize, len: usize) -> Vec<f64> {
        (0..len).map(|i| ((pos + 1) * (i + 1)) as f64).collect()
    }

    fn start(ring: bool, pos: usize, n: usize, len: usize) -> (Machine, Vec<Action>) {
        let nodes = layout_for(n).nodes;
        let (name, steps) = if ring {
            ("ring", ring_steps(pos, &nodes))
        } else {
            ("recursive-doubling", rd_steps(pos, &nodes))
        };
        let up = frame_reduce(SUM_F64.0, SUM_F64.1, &bytes(&input(pos, len)));
        Allreduce::start(id(), SUM_F64, name, steps, n, Ok(up))
    }

    /// A frame of position `from`'s schedule carrying `values`.
    fn frame(chunked_total: Option<u32>, values: &[f64]) -> ExFrame {
        let body = encode_reduce_body(id(), SUM_F64.0, SUM_F64.1, chunked_total, &bytes(values));
        (ST_OK, Payload::from_vec(body))
    }

    fn assert_everyone_has_the_sum(sim: &Sim, n: usize, len: usize, what: &str) {
        let sum: Vec<f64> = (0..len)
            .map(|i| (0..n).map(|pos| input(pos, len)[i]).sum())
            .collect();
        for (pos, outcome) in sim.outcome.iter().enumerate() {
            assert_eq!(
                outcome,
                &Some(Ok(Payload::from_vec(bytes(&sum)))),
                "{what}: position {pos} of {n}"
            );
        }
    }

    #[test]
    fn recursive_doubling_folds_extras_in_and_out_in_any_arrival_order() {
        // 5, 6 and 7 nodes: a 4-node core plus 1-3 extras.
        for n in [2, 4, 5, 6, 7, 8] {
            for newest_first in [false, true] {
                let sim = Sim::start(n, |_, pos| start(false, pos, n, 3)).run(newest_first);
                assert_everyone_has_the_sum(&sim, n, 3, "recursive doubling");
                // Extras exchange exactly two frames; core nodes log2(m) + those.
                let m = prev_power_of_two(n);
                let expected = m * m.trailing_zeros() as usize + 2 * (n - m);
                assert_eq!(sim.sent.len(), expected, "frames at n = {n}");
            }
        }
    }

    #[test]
    fn recursive_doubling_stashes_a_later_round_until_its_turn() {
        // Position 1 of 6 is a core node with an extra (position 5): its
        // schedule is fold-in, round 0 (partner 0), round 1 (partner 3),
        // fold-out.  Hand it round 1 first, then round 0, then the fold-in.
        let nodes = layout_for(6).nodes;
        let (mut machine, opening) = start(false, 1, 6, 1);
        assert_eq!(
            opening,
            vec![],
            "a core node with an extra waits for the fold-in"
        );
        let Machine::Allreduce(m) = &mut machine else {
            panic!("allreduce machine")
        };
        assert_eq!(
            m.on_frame(nodes[3], PHASE_RD_ROUND_BASE + 1, frame(None, &[100.0])),
            vec![]
        );
        assert_eq!(
            m.on_frame(nodes[0], PHASE_RD_ROUND_BASE, frame(None, &[10.0])),
            vec![]
        );
        // The fold-in unblocks everything: own 2 + 7 = 9 goes to round 0,
        // 9 + 10 = 19 to round 1, and 119 both to the extra and to the ranks.
        let actions = m.on_frame(nodes[5], PHASE_RD_FOLD_IN, frame(None, &[7.0]));
        let send = |dst: usize, phase: u32, value: f64| Action::Send {
            to: vec![nodes[dst]],
            phase,
            status: ST_OK,
            body: frame(None, &[value]).1,
        };
        assert_eq!(
            actions,
            vec![
                send(0, PHASE_RD_ROUND_BASE, 9.0),
                send(3, PHASE_RD_ROUND_BASE + 1, 19.0),
                send(5, PHASE_RD_FOLD_OUT, 119.0),
                Action::Deliver(Payload::from_vec(bytes(&[119.0]))),
            ]
        );
    }

    #[test]
    fn ring_reduces_and_gathers_chunks_even_when_some_are_empty() {
        // 7 elements split unevenly; 2 elements leave one of 3 chunks empty;
        // 1 element leaves two empty.
        for n in [2, 3, 5] {
            for len in [1, 2, 7] {
                for newest_first in [false, true] {
                    let sim = Sim::start(n, |_, pos| start(true, pos, n, len)).run(newest_first);
                    assert_everyone_has_the_sum(&sim, n, len, "ring");
                    assert_eq!(sim.sent.len(), n * 2 * (n - 1), "frames at n = {n}");
                }
            }
        }
    }

    #[test]
    fn ring_consumes_a_predecessor_running_one_step_ahead() {
        // Position 1 of 3 with a 3-element vector [2, 4, 6]: chunk c is
        // element c.  Its predecessor (position 0, vector [1, 2, 3]) delivers
        // step 1 before step 0.
        let nodes = layout_for(3).nodes;
        let (mut machine, opening) = start(true, 1, 3, 3);
        let total = Some(24);
        let send = |step: u32, value: f64| Action::Send {
            to: vec![nodes[2]],
            phase: PHASE_RING_BASE + step,
            status: ST_OK,
            body: frame(total, &[value]).1,
        };
        assert_eq!(
            opening,
            vec![send(0, 4.0)],
            "step 0 sends the node's own chunk 1"
        );
        let Machine::Allreduce(m) = &mut machine else {
            panic!("allreduce machine")
        };
        // Step 1's frame (chunk 2, already holding positions 2 + 0) is early.
        assert_eq!(
            m.on_frame(nodes[0], PHASE_RING_BASE + 1, frame(total, &[12.0])),
            vec![]
        );
        // Step 0's frame folds chunk 0 (1 + 2), which step 1 forwards; the
        // stashed frame then completes chunk 2 (12 + 6), which step 2 forwards.
        let actions = m.on_frame(nodes[0], PHASE_RING_BASE, frame(total, &[1.0]));
        assert_eq!(actions, vec![send(1, 3.0), send(2, 18.0)]);
        // Allgather: the finished chunk 1, then the finished chunk 0.
        let actions = m.on_frame(nodes[0], PHASE_RING_BASE + 2, frame(total, &[12.0]));
        assert_eq!(actions, vec![send(3, 12.0)]);
        let actions = m.on_frame(nodes[0], PHASE_RING_BASE + 3, frame(total, &[6.0]));
        assert_eq!(
            actions,
            vec![Action::Deliver(Payload::from_vec(bytes(&[
                6.0, 12.0, 18.0
            ])))]
        );
    }

    #[test]
    fn a_disagreeing_or_unscheduled_frame_aborts_exactly_once() {
        for ring in [false, true] {
            let nodes = layout_for(4).nodes;
            let (mut machine, _) = start(ring, 0, 4, 2);
            let Machine::Allreduce(m) = &mut machine else {
                panic!("allreduce machine")
            };
            // A phase of the rooted plans: the sender derived another schedule.
            let actions = m.on_frame(nodes[1], PHASE_UP, frame(None, &[1.0, 2.0]));
            assert!(
                matches!(actions[..], [Action::Abort { status: ST_ERR, .. }]),
                "{actions:?}"
            );
        }
        // A partner whose vector is longer: the fold rejects it.
        let nodes = layout_for(4).nodes;
        let (mut machine, _) = start(false, 0, 4, 2);
        let Machine::Allreduce(m) = &mut machine else {
            panic!("allreduce machine")
        };
        let actions = m.on_frame(nodes[1], PHASE_RD_ROUND_BASE, frame(None, &[1.0, 2.0, 3.0]));
        assert!(
            matches!(actions[..], [Action::Abort { status: ST_ERR, .. }]),
            "{actions:?}"
        );
        // A local build failure aborts at the start and sends nothing.
        let failed = Err("reduce length mismatch: rank 1".to_string());
        let (_, actions) =
            Allreduce::start(id(), SUM_F64, "ring", ring_steps(0, &nodes), 4, failed);
        assert!(
            matches!(actions[..], [Action::Abort { status: ST_ERR, .. }]),
            "{actions:?}"
        );
    }

    #[test]
    fn prev_power_of_two_brackets() {
        for n in 1..200usize {
            let m = prev_power_of_two(n);
            assert!(m.is_power_of_two());
            assert!(m <= n && n < 2 * m, "n={n} m={m}");
        }
    }
}
