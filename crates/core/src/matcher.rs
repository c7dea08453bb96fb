//! Indexed point-to-point matching.
//!
//! The comm thread's message matcher: messages that arrived (or were sourced
//! locally) before a matching receive, receives posted before a matching
//! message, and the hash indexes that pair them up in MPI order.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::time::Duration;

use dcgn_metrics::Histogram;
use dcgn_netsim::Payload;

use crate::message::ReplyTo;

/// A DCGN point-to-point message that arrived from another node (or was
/// sourced locally) and has not yet been matched by a local receive.
pub(crate) struct IncomingMsg {
    pub(crate) src: usize,
    pub(crate) dst: usize,
    pub(crate) tag: u32,
    pub(crate) data: Payload,
    /// The receive-side copy this message owes its receiver, decided where
    /// it arrived: an eager frame's copy out of its landing slot, or an
    /// intra-node send's shared-memory copy.  Zero for a rendezvous payload
    /// the NIC's drain already moved into the buffer the receiver takes.
    pub(crate) copy: Duration,
    /// Reply address of the local sender, for intra-node sends whose
    /// completion is tied to the matching receive (paper §6.2: "Local sends
    /// finish upon matching with a local receive").
    pub(crate) local_sender: Option<ReplyTo>,
    /// Arrival stamp, for FIFO matching across buckets.
    pub(crate) seq: u64,
}

/// A local receive request that has not yet been matched.  `None` filters
/// are wildcards (any source / any tag).
pub(crate) struct PendingRecv {
    pub(crate) dst_rank: usize,
    pub(crate) src: Option<usize>,
    pub(crate) tag: Option<u32>,
    pub(crate) reply_to: ReplyTo,
    /// Posting stamp, for FIFO matching across buckets.
    pub(crate) seq: u64,
}

/// Hash-indexed message matcher.  Unmatched messages are bucketed by
/// `(dst, src, tag)` and unmatched receives by `(dst, src-filter,
/// tag-filter)`, so a fully-qualified match is a constant number of bucket
/// probes; receives with a wildcard filter (`src = None` and/or
/// `tag = None`) fall back to comparing the heads of the candidate message
/// buckets, indexed per destination.  Sequence stamps keep the MPI-style
/// FIFO guarantees: per (src, tag) messages match in arrival order, and
/// competing receives match in posting order.
#[derive(Default)]
pub(crate) struct Matcher {
    next_seq: u64,
    /// Unmatched messages, keyed by (dst, src, tag); FIFO within a bucket.
    incoming: HashMap<(usize, usize, u32), VecDeque<IncomingMsg>>,
    /// Which (src, tag) buckets are non-empty for each destination — the
    /// wildcard receive's fallback index.
    incoming_keys: HashMap<usize, BTreeSet<(usize, u32)>>,
    /// Unmatched receives, keyed by (dst, src-filter, tag-filter).
    recvs: HashMap<(usize, Option<usize>, Option<u32>), VecDeque<PendingRecv>>,
    recv_count: usize,
    msg_count: usize,
    /// Number of candidate buckets a wildcard receive had to scan; the
    /// default (disabled) histogram makes standalone matchers inert.
    wildcard_scan: Histogram,
}

impl Matcher {
    /// An empty matcher recording wildcard scan lengths into `wildcard_scan`.
    pub(crate) fn new(wildcard_scan: Histogram) -> Self {
        Matcher {
            wildcard_scan,
            ..Matcher::default()
        }
    }

    pub(crate) fn stamp(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Number of receives still waiting for a message.
    pub(crate) fn pending_recvs(&self) -> usize {
        self.recv_count
    }

    /// Number of messages queued without a matching receive.
    pub(crate) fn queued_msgs(&self) -> usize {
        self.msg_count
    }

    /// Queue a message that matched no receive.
    pub(crate) fn push_msg(&mut self, msg: IncomingMsg) {
        self.msg_count += 1;
        self.incoming_keys
            .entry(msg.dst)
            .or_default()
            .insert((msg.src, msg.tag));
        self.incoming
            .entry((msg.dst, msg.src, msg.tag))
            .or_default()
            .push_back(msg);
    }

    /// Queue a receive that matched no message.
    pub(crate) fn push_recv(&mut self, recv: PendingRecv) {
        self.recv_count += 1;
        self.recvs
            .entry((recv.dst_rank, recv.src, recv.tag))
            .or_default()
            .push_back(recv);
    }

    /// Pop the oldest queued message a new receive can match.
    pub(crate) fn take_msg_for(&mut self, recv: &PendingRecv) -> Option<IncomingMsg> {
        let (src, tag) = match (recv.src, recv.tag) {
            // Fully qualified: one direct bucket probe.
            (Some(src), Some(tag)) => (src, tag),
            // Wildcard on either axis: the earliest-arrived head among
            // every non-empty bucket passing the filters.
            (src_filter, tag_filter) => {
                let keys = self.incoming_keys.get(&recv.dst_rank)?;
                self.wildcard_scan.record(keys.len() as u64);
                *keys
                    .iter()
                    .filter(|(src, tag)| {
                        src_filter.is_none_or(|s| s == *src) && tag_filter.is_none_or(|t| t == *tag)
                    })
                    .min_by_key(|&&(src, tag)| {
                        self.incoming
                            .get(&(recv.dst_rank, src, tag))
                            .and_then(VecDeque::front)
                            .map_or(u64::MAX, |m| m.seq)
                    })?
            }
        };
        self.pop_msg((recv.dst_rank, src, tag))
    }

    fn pop_msg(&mut self, key: (usize, usize, u32)) -> Option<IncomingMsg> {
        let bucket = self.incoming.get_mut(&key)?;
        let msg = bucket.pop_front()?;
        self.msg_count -= 1;
        if bucket.is_empty() {
            self.incoming.remove(&key);
            if let Some(keys) = self.incoming_keys.get_mut(&key.0) {
                keys.remove(&(key.1, key.2));
                if keys.is_empty() {
                    self.incoming_keys.remove(&key.0);
                }
            }
        }
        Some(msg)
    }

    /// Pop the earliest-posted receive a new message can match: the exact
    /// bucket competes with every wildcard bucket on posting order.
    ///
    /// The posting stamp is the *only* tiebreaker — no wildcard shape is
    /// privileged over another.  In particular, when a `(src, ANY_TAG)`
    /// receive and an `(ANY_SOURCE, tag)` receive can both take the same
    /// message, whichever was posted first wins, in either posting order.
    pub(crate) fn take_recv_for(
        &mut self,
        dst: usize,
        src: usize,
        tag: u32,
    ) -> Option<PendingRecv> {
        let candidates = [
            (dst, Some(src), Some(tag)),
            (dst, Some(src), None),
            (dst, None, Some(tag)),
            (dst, None, None),
        ];
        let key = candidates
            .into_iter()
            .filter_map(|key| {
                self.recvs
                    .get(&key)
                    .and_then(VecDeque::front)
                    .map(|r| (r.seq, key))
            })
            .min_by_key(|&(seq, _)| seq)
            .map(|(_, key)| key)?;
        let bucket = self.recvs.get_mut(&key)?;
        let recv = bucket.pop_front()?;
        if bucket.is_empty() {
            self.recvs.remove(&key);
        }
        self.recv_count -= 1;
        Some(recv)
    }

    /// Drop every queued receive (shutdown path); each one's `ReplyTo`
    /// answers its kernel thread `ShuttingDown`.
    pub(crate) fn drain_recvs(&mut self) {
        self.recv_count = 0;
        self.recvs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DcgnError;
    use crate::message::{Inbox, Reply};
    use dcgn_simtime::{Clock, CostModel};
    use std::time::Duration;

    /// A receive replying into an inbox of its own, under token `(dst, seq)`.
    fn test_recv(
        dst: usize,
        src: Option<usize>,
        tag: Option<u32>,
        seq: u64,
    ) -> (PendingRecv, Inbox) {
        let inbox = Inbox::new();
        (
            PendingRecv {
                dst_rank: dst,
                src,
                tag,
                reply_to: inbox.reply_to((dst as u32, seq as u32)),
                seq,
            },
            inbox,
        )
    }

    fn test_msg(dst: usize, src: usize, tag: u32, seq: u64, byte: u8) -> IncomingMsg {
        IncomingMsg {
            src,
            dst,
            tag,
            data: Payload::copy_from_slice(&[byte]),
            copy: Duration::ZERO,
            local_sender: None,
            seq,
        }
    }

    #[test]
    fn matcher_is_fifo_per_source_and_tag() {
        let mut m = Matcher::default();
        let seq = m.stamp();
        m.push_msg(test_msg(0, 1, 7, seq, 0xA));
        let seq = m.stamp();
        m.push_msg(test_msg(0, 1, 7, seq, 0xB));
        let (recv, _rx) = test_recv(0, Some(1), Some(7), m.stamp());
        assert_eq!(m.take_msg_for(&recv).unwrap().data.as_slice(), &[0xA]);
        assert_eq!(m.take_msg_for(&recv).unwrap().data.as_slice(), &[0xB]);
        assert!(m.take_msg_for(&recv).is_none());
    }

    #[test]
    fn matcher_wildcard_takes_earliest_arrival_across_sources() {
        let mut m = Matcher::default();
        let seq = m.stamp();
        m.push_msg(test_msg(0, 2, 0, seq, 0xC));
        let seq = m.stamp();
        m.push_msg(test_msg(0, 1, 0, seq, 0xD));
        let (wild, _rx) = test_recv(0, None, Some(0), m.stamp());
        // Source 2's message arrived first, so the wildcard gets it despite
        // source 1 sorting lower.
        assert_eq!(m.take_msg_for(&wild).unwrap().src, 2);
        assert_eq!(m.take_msg_for(&wild).unwrap().src, 1);
    }

    #[test]
    fn matcher_wildcard_tag_takes_earliest_arrival_across_tags() {
        let mut m = Matcher::default();
        let seq = m.stamp();
        m.push_msg(test_msg(0, 1, 9, seq, 0xE));
        let seq = m.stamp();
        m.push_msg(test_msg(0, 1, 3, seq, 0xF));
        // Any-tag receive from source 1: arrival order, not tag order.
        let (wild_tag, _rx) = test_recv(0, Some(1), None, m.stamp());
        assert_eq!(m.take_msg_for(&wild_tag).unwrap().tag, 9);
        // Fully wildcard receive drains the rest.
        let (wild, _rx) = test_recv(0, None, None, m.stamp());
        assert_eq!(m.take_msg_for(&wild).unwrap().tag, 3);
        assert!(m.take_msg_for(&wild).is_none());
    }

    #[test]
    fn matcher_ignores_wrong_dst_tag_and_src() {
        let mut m = Matcher::default();
        let seq = m.stamp();
        m.push_msg(test_msg(0, 1, 7, seq, 0xE));
        let (wrong_tag, _a) = test_recv(0, Some(1), Some(8), m.stamp());
        let (wrong_dst, _b) = test_recv(1, Some(1), Some(7), m.stamp());
        let (wrong_src, _c) = test_recv(0, Some(2), Some(7), m.stamp());
        assert!(m.take_msg_for(&wrong_tag).is_none());
        assert!(m.take_msg_for(&wrong_dst).is_none());
        assert!(m.take_msg_for(&wrong_src).is_none());
        assert!(m.take_recv_for(0, 1, 8).is_none());
    }

    #[test]
    fn matcher_prefers_earlier_posted_recv_between_exact_and_wildcard() {
        let mut m = Matcher::default();
        let (wild, _a) = test_recv(0, None, Some(0), m.stamp());
        m.push_recv(wild);
        let (exact, _b) = test_recv(0, Some(3), Some(0), m.stamp());
        m.push_recv(exact);
        assert_eq!(m.pending_recvs(), 2);
        // The wildcard was posted first, so it wins the first message.
        assert!(m.take_recv_for(0, 3, 0).unwrap().src.is_none());
        assert_eq!(m.take_recv_for(0, 3, 0).unwrap().src, Some(3));
        assert_eq!(m.pending_recvs(), 0);
        // Reversed posting order: the exact receive wins.
        let (exact, _c) = test_recv(0, Some(3), Some(0), m.stamp());
        m.push_recv(exact);
        let (wild, _d) = test_recv(0, None, Some(0), m.stamp());
        m.push_recv(wild);
        assert_eq!(m.take_recv_for(0, 3, 0).unwrap().src, Some(3));
        assert!(m.take_recv_for(0, 3, 0).unwrap().src.is_none());
    }

    #[test]
    fn matcher_any_tag_recv_competes_on_posting_order() {
        let mut m = Matcher::default();
        let (any_tag, _a) = test_recv(0, Some(1), None, m.stamp());
        m.push_recv(any_tag);
        let (exact, _b) = test_recv(0, Some(1), Some(5), m.stamp());
        m.push_recv(exact);
        // The any-tag receive was posted first, so it wins the tag-5
        // message; the exact receive stays queued for the next one.
        assert!(m.take_recv_for(0, 1, 5).unwrap().tag.is_none());
        assert_eq!(m.take_recv_for(0, 1, 5).unwrap().tag, Some(5));
        assert!(m.take_recv_for(0, 1, 5).is_none());
    }

    #[test]
    fn matcher_mixed_wildcards_race_on_posting_order_alone() {
        // A `(src, ANY_TAG)` receive and an `(ANY_SOURCE, tag)` receive
        // both match a message from that src with that tag; the winner
        // must be whichever was posted first, in either posting order.
        let mut m = Matcher::default();
        let (src_wild_tag, _a) = test_recv(0, Some(2), None, m.stamp());
        m.push_recv(src_wild_tag);
        let (wild_src_tag, _b) = test_recv(0, None, Some(7), m.stamp());
        m.push_recv(wild_src_tag);
        // (src=2, ANY_TAG) was posted first: it wins the (2, 7) message.
        let winner = m.take_recv_for(0, 2, 7).unwrap();
        assert_eq!((winner.src, winner.tag), (Some(2), None));
        let loser = m.take_recv_for(0, 2, 7).unwrap();
        assert_eq!((loser.src, loser.tag), (None, Some(7)));
        assert_eq!(m.pending_recvs(), 0);
        // Reversed posting order: (ANY_SOURCE, tag=7) wins instead.
        let (wild_src_tag, _c) = test_recv(0, None, Some(7), m.stamp());
        m.push_recv(wild_src_tag);
        let (src_wild_tag, _d) = test_recv(0, Some(2), None, m.stamp());
        m.push_recv(src_wild_tag);
        let winner = m.take_recv_for(0, 2, 7).unwrap();
        assert_eq!((winner.src, winner.tag), (None, Some(7)));
        let loser = m.take_recv_for(0, 2, 7).unwrap();
        assert_eq!((loser.src, loser.tag), (Some(2), None));
        assert_eq!(m.pending_recvs(), 0);
    }

    #[test]
    fn matcher_drain_empties_everything() {
        let mut m = Matcher::default();
        let inboxes: Vec<_> = (0..3)
            .map(|i| {
                let (recv, inbox) = test_recv(i, None, None, m.stamp());
                m.push_recv(recv);
                inbox
            })
            .collect();
        assert_eq!(m.pending_recvs(), 3);
        m.drain_recvs();
        assert_eq!(m.pending_recvs(), 0);
        // Dropped, not parked somewhere: every one of them was answered.
        let clock = Clock::from(CostModel::zero());
        for inbox in inboxes {
            let crossing = inbox.drain(&clock, clock.deadline(Duration::ZERO), |_| true);
            assert_eq!(crossing.map(|c| c.taken), Some(1));
        }
    }

    #[test]
    fn a_dropped_matcher_answers_everything_it_held_shutting_down() {
        let mut m = Matcher::default();
        let mut inboxes = Vec::new();
        for dst in 0..2 {
            let (recv, inbox) = test_recv(dst, Some(7), None, m.stamp());
            m.push_recv(recv);
            inboxes.push(inbox);
        }
        // A queued intra-node send: its sender waits for the match.
        let sender = Inbox::new();
        let seq = m.stamp();
        m.push_msg(IncomingMsg {
            local_sender: Some(sender.reply_to((4, 4))),
            ..test_msg(3, 4, 0, seq, 0xA)
        });
        inboxes.push(sender);
        drop(m);
        let clock = Clock::from(CostModel::zero());
        for inbox in inboxes {
            let crossing = inbox.drain(&clock, clock.deadline(Duration::ZERO), |(_, reply)| {
                matches!(reply, Reply::Error(DcgnError::ShuttingDown))
            });
            assert_eq!(crossing.map(|c| (c.taken, c.paid)), Some((1, true)));
        }
    }
}
