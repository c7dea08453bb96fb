//! Point-to-point matching: the one matcher under [`crate::Communicator`]
//! and under DCGN's comm thread.
//!
//! Unmatched messages wait in arrival order and unmatched receives in
//! posting order.  Each arrival or posting is matched at once against the
//! oldest waiting entry it fits, so no waiting message is ever accepted by a
//! waiting receive, and the queue order alone gives MPI's two guarantees:
//! a receive takes the earliest-arrived message it accepts (messages of one
//! `(source, tag)` never overtake each other), and a message goes to the
//! earliest-posted receive that accepts it (a wildcard competes with an
//! exact receive on posting order, nothing else).  A scan is as long as the
//! opposite queue, which holds at most the receives a rank keeps posted (32
//! for the benchmark's window server).

use std::collections::VecDeque;

/// A receive's matching rule: whether it takes a message of type `M`.
pub trait Accepts<M> {
    /// True when this receive may complete with `msg`.
    fn accepts(&self, msg: &M) -> bool;
}

/// Messages waiting for a receive and receives waiting for a message, each
/// queue in the order its entries came.
pub struct Matcher<M, R> {
    msgs: VecDeque<M>,
    recvs: VecDeque<R>,
}

impl<M, R> Default for Matcher<M, R> {
    fn default() -> Self {
        Matcher {
            msgs: VecDeque::new(),
            recvs: VecDeque::new(),
        }
    }
}

impl<M, R: Accepts<M>> Matcher<M, R> {
    /// A message arrived: pair it with the earliest-posted receive that
    /// accepts it, or queue it behind every earlier arrival.
    pub fn arrive(&mut self, msg: M) -> Option<(R, M)> {
        match self.recvs.iter().position(|recv| recv.accepts(&msg)) {
            Some(at) => self.recvs.remove(at).map(|recv| (recv, msg)),
            None => {
                self.msgs.push_back(msg);
                None
            }
        }
    }

    /// A receive was posted: pair it with the earliest-arrived message it
    /// accepts, or queue it behind every earlier posting.
    pub fn post(&mut self, recv: R) -> Option<(R, M)> {
        match self.msgs.iter().position(|msg| recv.accepts(msg)) {
            Some(at) => self.msgs.remove(at).map(|msg| (recv, msg)),
            None => {
                self.recvs.push_back(recv);
                None
            }
        }
    }

    /// Number of receives waiting for a message.
    pub fn pending_recvs(&self) -> usize {
        self.recvs.len()
    }

    /// Number of messages waiting for a receive.
    pub fn queued_msgs(&self) -> usize {
        self.msgs.len()
    }

    /// Drop every waiting receive (a shutdown path: nobody is left to
    /// consume them).
    pub fn clear_recvs(&mut self) {
        self.recvs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcgn_testkit::{check, name, Rng};

    /// A test message: `(id, src, tag)`.
    type Msg = (usize, usize, u32);

    /// A test receive: `(id, src filter, tag filter)`.
    #[derive(Clone, Copy, Debug)]
    struct Recv(usize, Option<usize>, Option<u32>);

    impl Accepts<Msg> for Recv {
        fn accepts(&self, &(_, src, tag): &Msg) -> bool {
            self.1.is_none_or(|s| s == src) && self.2.is_none_or(|t| t == tag)
        }
    }

    /// A filter that is `None` (a wildcard) one time in three.
    fn filter(rng: u64, values: u64) -> Option<u64> {
        (!rng.is_multiple_of(3)).then_some((rng / 3) % values)
    }

    /// Random interleavings of arrivals and postings, wildcards on either
    /// axis included, against the rules the queue order must give: after
    /// every step no waiting message is accepted by a waiting receive, a
    /// pair's message is the earliest waiting one its receive accepts,
    /// and a pair's receive is the earliest waiting one that accepts its
    /// message.
    #[test]
    fn every_match_is_the_oldest_entry_that_fits() {
        check(name!(), 64, |rng| {
            let steps = rng.vec(1..80, Rng::next_u64);
            let mut m = Matcher::<Msg, Recv>::default();
            // Shadow copies of the two queues, in arrival and posting order.
            let mut msgs: Vec<Msg> = Vec::new();
            let mut recvs: Vec<Recv> = Vec::new();
            for (id, step) in steps.into_iter().enumerate() {
                let (src, tag) = (step >> 8, step >> 24);
                let paired = if step & 1 == 0 {
                    let msg = (id, (src % 3) as usize, (tag % 3) as u32);
                    let paired = m.arrive(msg);
                    match &paired {
                        Some((recv, _)) => {
                            let first = recvs.iter().position(|r| r.accepts(&msg));
                            assert_eq!(first.map(|at| recvs[at].0), Some(recv.0));
                            recvs.retain(|r| r.0 != recv.0);
                        }
                        None => msgs.push(msg),
                    }
                    paired
                } else {
                    let src = filter(src, 3).map(|s| s as usize);
                    let recv = Recv(id, src, filter(tag, 3).map(|t| t as u32));
                    let paired = m.post(recv);
                    match &paired {
                        Some((_, msg)) => {
                            let first = msgs.iter().position(|m| recv.accepts(m));
                            assert_eq!(first.map(|at| msgs[at].0), Some(msg.0));
                            msgs.retain(|m| m.0 != msg.0);
                        }
                        None => recvs.push(recv),
                    }
                    paired
                };
                if let Some((recv, msg)) = paired {
                    assert!(recv.accepts(&msg));
                }
                assert!(!recvs.iter().any(|r| msgs.iter().any(|m| r.accepts(m))));
                assert_eq!(m.queued_msgs(), msgs.len());
                assert_eq!(m.pending_recvs(), recvs.len());
            }
        });
    }
}
