//! Point-to-point matching for the comm thread: the entries of the MPI
//! twin's [`dcgn_rmpi::Matcher`] and the rule that pairs them, so DCGN and
//! the MPI it is measured against match by one ordering rule.

use dcgn_netsim::Payload;
use dcgn_rmpi::Accepts;
use dcgn_simtime::Stamp;

use crate::message::ReplyTo;

/// A DCGN point-to-point message that arrived from another node (or was
/// sourced locally) and has not yet been matched by a local receive.
pub(crate) struct IncomingMsg {
    pub(crate) src: usize,
    pub(crate) dst: usize,
    pub(crate) tag: u32,
    pub(crate) data: Payload,
    /// When the bytes of the receive-side copy this message owes were
    /// ready, decided where it arrived: an eager frame's landing, for the
    /// copy out of its landing slot, or an intra-node send's handling, for
    /// its shared-memory copy.  `None` for a rendezvous payload the NIC's
    /// drain already moved into the buffer the receiver takes.
    pub(crate) ready: Option<Stamp>,
    /// Reply address of the local sender, for intra-node sends whose
    /// completion is tied to the matching receive (paper §6.2: "Local sends
    /// finish upon matching with a local receive").
    pub(crate) local_sender: Option<ReplyTo>,
}

/// A local receive request that has not yet been matched.  `None` filters
/// are wildcards (any source / any tag).
pub(crate) struct PendingRecv {
    pub(crate) dst_rank: usize,
    pub(crate) src: Option<usize>,
    pub(crate) tag: Option<u32>,
    /// When the comm thread posted it: no copy into its buffer starts
    /// sooner.
    pub(crate) posted: Stamp,
    pub(crate) reply_to: ReplyTo,
}

impl Accepts<IncomingMsg> for PendingRecv {
    fn accepts(&self, msg: &IncomingMsg) -> bool {
        self.dst_rank == msg.dst
            && self.src.is_none_or(|s| s == msg.src)
            && self.tag.is_none_or(|t| t == msg.tag)
    }
}

/// The comm thread's matcher.  Dropping an entry drops its `ReplyTo`,
/// which answers its kernel thread `ShuttingDown`.
pub(crate) type Matcher = dcgn_rmpi::Matcher<IncomingMsg, PendingRecv>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DcgnError;
    use crate::message::{Inbox, Reply};
    use dcgn_simtime::{Clock, CostModel};
    use std::time::Duration;

    /// A receive replying into an inbox of its own.
    fn test_recv(dst: usize, src: Option<usize>, tag: Option<u32>) -> (PendingRecv, Inbox) {
        let inbox = Inbox::new();
        (
            PendingRecv {
                dst_rank: dst,
                src,
                tag,
                posted: Clock::from(CostModel::zero()).now(),
                reply_to: inbox.reply_to((dst as u32, 0)),
            },
            inbox,
        )
    }

    fn test_msg(dst: usize, src: usize, tag: u32, byte: u8) -> IncomingMsg {
        IncomingMsg {
            src,
            dst,
            tag,
            data: Payload::copy_from_slice(&[byte]),
            ready: None,
            local_sender: None,
        }
    }

    /// Post a receive and return the message it took at once, if any.
    fn post(
        m: &mut Matcher,
        dst: usize,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> Option<IncomingMsg> {
        let (recv, _inbox) = test_recv(dst, src, tag);
        m.post(recv).map(|(_, msg)| msg)
    }

    /// Post a receive that must wait, keeping its inbox.
    fn post_waiting(m: &mut Matcher, dst: usize, src: Option<usize>, tag: Option<u32>) -> Inbox {
        let (recv, inbox) = test_recv(dst, src, tag);
        assert!(m.post(recv).is_none(), "nothing queued fits this receive");
        inbox
    }

    /// Deliver a message and return the filters of the receive it took.
    fn arrive(
        m: &mut Matcher,
        dst: usize,
        src: usize,
        tag: u32,
    ) -> Option<(Option<usize>, Option<u32>)> {
        m.arrive(test_msg(dst, src, tag, 0))
            .map(|(recv, _)| (recv.src, recv.tag))
    }

    #[test]
    fn matcher_is_fifo_per_source_and_tag() {
        let mut m = Matcher::default();
        assert!(m.arrive(test_msg(0, 1, 7, 0xA)).is_none());
        assert!(m.arrive(test_msg(0, 1, 7, 0xB)).is_none());
        assert_eq!(m.queued_msgs(), 2);
        assert_eq!(
            post(&mut m, 0, Some(1), Some(7)).unwrap().data.as_slice(),
            &[0xA]
        );
        assert_eq!(
            post(&mut m, 0, Some(1), Some(7)).unwrap().data.as_slice(),
            &[0xB]
        );
        assert!(post(&mut m, 0, Some(1), Some(7)).is_none());
        assert_eq!(m.queued_msgs(), 0);
    }

    #[test]
    fn matcher_wildcard_takes_earliest_arrival_across_sources() {
        let mut m = Matcher::default();
        m.arrive(test_msg(0, 2, 0, 0xC));
        m.arrive(test_msg(0, 1, 0, 0xD));
        // Source 2's message arrived first, so the wildcard gets it despite
        // source 1 sorting lower.
        assert_eq!(post(&mut m, 0, None, Some(0)).unwrap().src, 2);
        assert_eq!(post(&mut m, 0, None, Some(0)).unwrap().src, 1);
    }

    #[test]
    fn matcher_wildcard_tag_takes_earliest_arrival_across_tags() {
        let mut m = Matcher::default();
        m.arrive(test_msg(0, 1, 9, 0xE));
        m.arrive(test_msg(0, 1, 3, 0xF));
        // Any-tag receive from source 1: arrival order, not tag order.
        assert_eq!(post(&mut m, 0, Some(1), None).unwrap().tag, 9);
        // Fully wildcard receive drains the rest.
        assert_eq!(post(&mut m, 0, None, None).unwrap().tag, 3);
        assert!(post(&mut m, 0, None, None).is_none());
    }

    #[test]
    fn matcher_ignores_wrong_dst_tag_and_src() {
        let mut m = Matcher::default();
        m.arrive(test_msg(0, 1, 7, 0xE));
        let _wrong_tag = post_waiting(&mut m, 0, Some(1), Some(8));
        let _wrong_dst = post_waiting(&mut m, 1, Some(1), Some(7));
        let _wrong_src = post_waiting(&mut m, 0, Some(2), Some(7));
        assert_eq!((m.queued_msgs(), m.pending_recvs()), (1, 3));
        // A message none of the three accepts waits too.
        assert!(arrive(&mut m, 0, 2, 8).is_none());
        assert_eq!((m.queued_msgs(), m.pending_recvs()), (2, 3));
    }

    #[test]
    fn matcher_prefers_earlier_posted_recv_between_exact_and_wildcard() {
        let mut m = Matcher::default();
        let _wild = post_waiting(&mut m, 0, None, Some(0));
        let _exact = post_waiting(&mut m, 0, Some(3), Some(0));
        assert_eq!(m.pending_recvs(), 2);
        // The wildcard was posted first, so it wins the first message.
        assert_eq!(arrive(&mut m, 0, 3, 0), Some((None, Some(0))));
        assert_eq!(arrive(&mut m, 0, 3, 0), Some((Some(3), Some(0))));
        assert_eq!(m.pending_recvs(), 0);
        // Reversed posting order: the exact receive wins.
        let _exact = post_waiting(&mut m, 0, Some(3), Some(0));
        let _wild = post_waiting(&mut m, 0, None, Some(0));
        assert_eq!(arrive(&mut m, 0, 3, 0), Some((Some(3), Some(0))));
        assert_eq!(arrive(&mut m, 0, 3, 0), Some((None, Some(0))));
    }

    #[test]
    fn matcher_any_tag_recv_competes_on_posting_order() {
        let mut m = Matcher::default();
        let _any_tag = post_waiting(&mut m, 0, Some(1), None);
        let _exact = post_waiting(&mut m, 0, Some(1), Some(5));
        // The any-tag receive was posted first, so it wins the tag-5
        // message; the exact receive stays queued for the next one.
        assert_eq!(arrive(&mut m, 0, 1, 5), Some((Some(1), None)));
        assert_eq!(arrive(&mut m, 0, 1, 5), Some((Some(1), Some(5))));
        assert!(arrive(&mut m, 0, 1, 5).is_none());
    }

    #[test]
    fn matcher_mixed_wildcards_race_on_posting_order_alone() {
        // A `(src, ANY_TAG)` receive and an `(ANY_SOURCE, tag)` receive
        // both match a message from that src with that tag; the winner
        // must be whichever was posted first, in either posting order.
        let mut m = Matcher::default();
        let _src_wild_tag = post_waiting(&mut m, 0, Some(2), None);
        let _wild_src_tag = post_waiting(&mut m, 0, None, Some(7));
        // (src=2, ANY_TAG) was posted first: it wins the (2, 7) message.
        assert_eq!(arrive(&mut m, 0, 2, 7), Some((Some(2), None)));
        assert_eq!(arrive(&mut m, 0, 2, 7), Some((None, Some(7))));
        assert_eq!(m.pending_recvs(), 0);
        // Reversed posting order: (ANY_SOURCE, tag=7) wins instead.
        let _wild_src_tag = post_waiting(&mut m, 0, None, Some(7));
        let _src_wild_tag = post_waiting(&mut m, 0, Some(2), None);
        assert_eq!(arrive(&mut m, 0, 2, 7), Some((None, Some(7))));
        assert_eq!(arrive(&mut m, 0, 2, 7), Some((Some(2), None)));
        assert_eq!(m.pending_recvs(), 0);
    }

    #[test]
    fn matcher_drain_empties_everything() {
        let mut m = Matcher::default();
        let inboxes: Vec<_> = (0..3)
            .map(|i| post_waiting(&mut m, i, None, None))
            .collect();
        assert_eq!(m.pending_recvs(), 3);
        m.clear_recvs();
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
        let mut inboxes: Vec<_> = (0..2)
            .map(|dst| post_waiting(&mut m, dst, Some(7), None))
            .collect();
        // A queued intra-node send: its sender waits for the match.
        let sender = Inbox::new();
        let queued = m.arrive(IncomingMsg {
            local_sender: Some(sender.reply_to((4, 4))),
            ..test_msg(3, 4, 0, 0xA)
        });
        assert!(queued.is_none());
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
