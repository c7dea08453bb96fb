//! Point-to-point semantics of the MPI substrate: blocking and nonblocking
//! sends/receives, matching rules, eager vs. rendezvous protocols, and error
//! handling.

use std::time::Duration;

use dcgn_rmpi::{MpiWorld, RankPlacement, RdvConfig, RmpiError, ANY_SOURCE, ANY_TAG};
use dcgn_simtime::CostModel;

fn two_ranks() -> Vec<dcgn_rmpi::Communicator> {
    MpiWorld::create(&RankPlacement::block(2, 1), CostModel::zero())
}

#[test]
fn blocking_send_recv_small() {
    let mut comms = two_ranks();
    let mut r1 = comms.pop().unwrap();
    let mut r0 = comms.pop().unwrap();
    let t = std::thread::spawn(move || {
        r0.send(1, 7, b"hello dcgn").unwrap();
        r0
    });
    let (data, status) = r1.recv(Some(0), Some(7)).unwrap();
    assert_eq!(data, b"hello dcgn");
    assert_eq!(status.source, 0);
    assert_eq!(status.tag, 7);
    assert_eq!(status.len, 10);
    t.join().unwrap();
}

#[test]
fn rendezvous_protocol_for_large_messages() {
    // 1 MiB payload is far above the 64 KiB eager threshold.
    let mut comms = two_ranks();
    let mut r1 = comms.pop().unwrap();
    let mut r0 = comms.pop().unwrap();
    let payload: Vec<u8> = (0..(1 << 20)).map(|i| (i % 251) as u8).collect();
    let expected = payload.clone();
    let t = std::thread::spawn(move || {
        r0.send(1, 0, &payload).unwrap();
    });
    let (data, status) = r1.recv(Some(0), Some(0)).unwrap();
    assert_eq!(status.len, 1 << 20);
    assert_eq!(data, expected);
    t.join().unwrap();
}

#[test]
fn zero_byte_messages_are_valid() {
    let mut comms = two_ranks();
    let mut r1 = comms.pop().unwrap();
    let mut r0 = comms.pop().unwrap();
    let t = std::thread::spawn(move || {
        r0.send(1, 3, &[]).unwrap();
    });
    let (data, status) = r1.recv(Some(0), Some(3)).unwrap();
    assert!(data.is_empty());
    assert_eq!(status.len, 0);
    t.join().unwrap();
}

#[test]
fn tag_matching_keeps_messages_apart() {
    let mut comms = two_ranks();
    let mut r1 = comms.pop().unwrap();
    let mut r0 = comms.pop().unwrap();
    let t = std::thread::spawn(move || {
        r0.send(1, 10, b"ten").unwrap();
        r0.send(1, 20, b"twenty").unwrap();
    });
    // Receive in the opposite order of sending: tag matching must pick the
    // right message from the unexpected queue.
    let (twenty, _) = r1.recv(Some(0), Some(20)).unwrap();
    let (ten, _) = r1.recv(Some(0), Some(10)).unwrap();
    assert_eq!(twenty, b"twenty");
    assert_eq!(ten, b"ten");
    t.join().unwrap();
}

#[test]
fn any_source_and_any_tag_wildcards() {
    let comms = MpiWorld::create(&RankPlacement::block(3, 1), CostModel::zero());
    let mut it = comms.into_iter();
    let mut r0 = it.next().unwrap();
    let mut r1 = it.next().unwrap();
    let mut r2 = it.next().unwrap();
    let t1 = std::thread::spawn(move || r1.send(0, 5, b"from-1").unwrap());
    let t2 = std::thread::spawn(move || r2.send(0, 6, b"from-2").unwrap());
    let mut seen = Vec::new();
    for _ in 0..2 {
        let (data, status) = r0.recv(ANY_SOURCE, ANY_TAG).unwrap();
        seen.push((status.source, status.tag, data.into_vec()));
    }
    seen.sort();
    assert_eq!(seen[0].0, 1);
    assert_eq!(seen[0].2, b"from-1");
    assert_eq!(seen[1].0, 2);
    assert_eq!(seen[1].2, b"from-2");
    t1.join().unwrap();
    t2.join().unwrap();
}

#[test]
fn per_sender_message_order_is_preserved() {
    let mut comms = two_ranks();
    let mut r1 = comms.pop().unwrap();
    let mut r0 = comms.pop().unwrap();
    let t = std::thread::spawn(move || {
        for i in 0..50u32 {
            r0.send(1, 1, &i.to_le_bytes()).unwrap();
        }
    });
    for i in 0..50u32 {
        let (data, _) = r1.recv(Some(0), Some(1)).unwrap();
        assert_eq!(u32::from_le_bytes(data.as_slice().try_into().unwrap()), i);
    }
    t.join().unwrap();
}

#[test]
fn nonblocking_requests_complete_out_of_order() {
    let mut comms = two_ranks();
    let mut r1 = comms.pop().unwrap();
    let mut r0 = comms.pop().unwrap();
    let t = std::thread::spawn(move || {
        r0.send(1, 2, b"second").unwrap();
        r0.send(1, 1, b"first").unwrap();
    });
    let req_first = r1.irecv(Some(0), Some(1)).unwrap();
    let req_second = r1.irecv(Some(0), Some(2)).unwrap();
    r1.wait_all(&[req_first, req_second]).unwrap();
    let (first, _) = r1.take_recv(req_first).unwrap();
    let (second, _) = r1.take_recv(req_second).unwrap();
    assert_eq!(first, b"first");
    assert_eq!(second, b"second");
    t.join().unwrap();
}

#[test]
fn isend_wait_and_test() {
    let mut comms = two_ranks();
    let mut r1 = comms.pop().unwrap();
    let mut r0 = comms.pop().unwrap();
    let recv_req = r1.irecv(Some(0), Some(9)).unwrap();
    assert!(!r1.test(recv_req).unwrap());
    let send_req = r0.isend(1, 9, b"async".to_vec()).unwrap();
    r0.wait_send(send_req).unwrap();
    // Poll the receive side until the message shows up.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !r1.test(recv_req).unwrap() {
        assert!(
            std::time::Instant::now() < deadline,
            "message never arrived"
        );
        std::thread::yield_now();
    }
    let (data, _) = r1.take_recv(recv_req).unwrap();
    assert_eq!(data, b"async");
}

#[test]
fn sendrecv_exchanges_without_deadlock() {
    let results = MpiWorld::run(
        &RankPlacement::block(2, 1),
        CostModel::zero(),
        |mut comm| {
            let partner = 1 - comm.rank();
            let mine = vec![comm.rank() as u8; 16];
            let (theirs, status) = comm
                .sendrecv(partner, 0, &mine, Some(partner), Some(0))
                .unwrap();
            (theirs, status.source)
        },
    );
    assert_eq!(results[0].0, vec![1u8; 16]);
    assert_eq!(results[0].1, 1);
    assert_eq!(results[1].0, vec![0u8; 16]);
    assert_eq!(results[1].1, 0);
}

#[test]
fn sendrecv_replace_swaps_buffers() {
    let results = MpiWorld::run(
        &RankPlacement::block(2, 1),
        CostModel::zero(),
        |mut comm| {
            let partner = 1 - comm.rank();
            let mut buf = vec![comm.rank() as u8 + 10; 8];
            comm.sendrecv_replace(&mut buf, partner, 4, Some(partner), Some(4))
                .unwrap();
            buf
        },
    );
    assert_eq!(results[0], vec![11u8; 8]);
    assert_eq!(results[1], vec![10u8; 8]);
}

#[test]
fn large_sendrecv_replace_uses_rendezvous_both_ways() {
    let results = MpiWorld::run(
        &RankPlacement::block(2, 1),
        CostModel::zero(),
        |mut comm| {
            let partner = 1 - comm.rank();
            let mut buf = vec![comm.rank() as u8; 300_000];
            comm.sendrecv_replace(&mut buf, partner, 4, Some(partner), Some(4))
                .unwrap();
            (buf.len(), buf[0], buf[buf.len() - 1])
        },
    );
    assert_eq!(results[0], (300_000, 1, 1));
    assert_eq!(results[1], (300_000, 0, 0));
}

#[test]
fn invalid_rank_is_rejected() {
    let mut comms = two_ranks();
    let mut r0 = comms.remove(0);
    assert_eq!(r0.send(5, 0, b"x").unwrap_err(), RmpiError::InvalidRank(5));
    assert_eq!(
        r0.recv(Some(9), None).unwrap_err(),
        RmpiError::InvalidRank(9)
    );
}

#[test]
fn unmatched_recv_times_out_as_stall() {
    let mut comms = two_ranks();
    let mut r0 = comms.remove(0);
    r0.set_progress_timeout(Duration::from_millis(100));
    let err = r0.recv(Some(1), Some(0)).unwrap_err();
    assert!(matches!(err, RmpiError::Stalled(_)));
}

#[test]
fn a_maximal_progress_timeout_never_stalls() {
    // `Duration::MAX` means "wait forever": the deadline saturates instead
    // of overflowing the clock.
    let handles: Vec<_> = two_ranks()
        .into_iter()
        .map(|mut comm| {
            comm.set_progress_timeout(Duration::MAX);
            std::thread::spawn(move || {
                let peer = 1 - comm.rank();
                for i in 0..4u8 {
                    if comm.rank() == 0 {
                        comm.send(peer, 0, &[i]).unwrap();
                        assert_eq!(comm.recv(Some(peer), Some(0)).unwrap().0, [i]);
                    } else {
                        let (data, _) = comm.recv(Some(peer), Some(0)).unwrap();
                        comm.send(peer, 0, data.as_slice()).unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn unknown_request_is_an_error() {
    let mut comms = two_ranks();
    let mut r0 = comms.remove(0);
    let req = r0.irecv(Some(1), Some(0)).unwrap();
    // Using a request from a different communicator (or a stale one) fails.
    let mut r1 = comms.remove(0);
    assert_eq!(r1.test(req).unwrap_err(), RmpiError::UnknownRequest);
}

#[test]
fn self_send_and_recv() {
    let comms = MpiWorld::create(&RankPlacement::block(1, 1), CostModel::zero());
    let mut r0 = comms.into_iter().next().unwrap();
    let req = r0.irecv(Some(0), Some(1)).unwrap();
    r0.send(0, 1, b"loopback").unwrap();
    let (data, status) = r0.wait_recv(req).unwrap();
    assert_eq!(data, b"loopback");
    assert_eq!(status.source, 0);
}

#[test]
fn many_ranks_ring_pass() {
    let n = 6;
    let results = MpiWorld::run(
        &RankPlacement::block(3, 2),
        CostModel::zero(),
        move |mut comm| {
            let next = (comm.rank() + 1) % n;
            let prev = (comm.rank() + n - 1) % n;
            let token = vec![comm.rank() as u8];
            let (incoming, _) = comm.sendrecv(next, 0, &token, Some(prev), Some(0)).unwrap();
            incoming.as_slice()[0] as usize
        },
    );
    for (rank, &got) in results.iter().enumerate() {
        assert_eq!(got, (rank + n - 1) % n);
    }
}

#[test]
fn eager_delivery_is_zero_copy_end_to_end() {
    // The payload handed to isend is a pooled buffer; the receiver's
    // payload must be a view of the *same allocation* — the substrate moves
    // the frame, it never copies the bytes out on the receive side.
    let mut comms = two_ranks();
    let mut r1 = comms.remove(1);
    let mut r0 = comms.remove(0);
    let sent = dcgn_netsim::Payload::copy_from_slice(&[0xEE; 512]);
    let sent_ptr = sent.as_slice().as_ptr() as usize;
    let req = r0.isend(1, 4, sent).unwrap();
    // The eager send leaves at the sender's next progress call.
    r0.wait_send(req).unwrap();
    let (got, status) = r1.recv(Some(0), Some(4)).unwrap();
    assert_eq!(status.len, 512);
    assert_eq!(got, vec![0xEE; 512]);
    assert_eq!(
        got.as_slice().as_ptr() as usize,
        sent_ptr,
        "eager receive must alias the sender's pooled buffer, not copy it"
    );
}

#[test]
fn rendezvous_delivery_is_zero_copy_end_to_end() {
    // Same guarantee above the eager threshold: the RTS/CTS handshake moves
    // envelopes, and the one-chunk stream moves the pooled payload itself.
    let mut comms = two_ranks();
    let mut r1 = comms.remove(1);
    let mut r0 = comms.remove(0);
    let size = RdvConfig::from_env(CostModel::zero().eager_threshold)
        .unwrap()
        .eager_threshold
        + 1;
    let sent = dcgn_netsim::Payload::copy_from_slice(&vec![0xDD; size]);
    let sent_ptr = sent.as_slice().as_ptr() as usize;
    let send_req = r0.isend(1, 4, sent).unwrap();
    let recv_req = r1.irecv(Some(0), Some(4)).unwrap();
    let t = std::thread::spawn(move || {
        r0.wait_send(send_req).unwrap();
        r0
    });
    let (got, status) = r1.wait_recv(recv_req).unwrap();
    t.join().unwrap();
    assert_eq!(status.len, size);
    // When the suite runs with a DCGN_RDV_CHUNK small enough to stream this
    // send, the receiver legitimately assembles the chunks into its own
    // pooled buffer (the chunks themselves are still zero-copy views of the
    // sender's staging buffer), so pointer identity only holds on the
    // one-chunk path.
    let streamed = std::env::var("DCGN_RDV_CHUNK")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .is_some_and(|chunk| chunk > 0 && chunk < size);
    if streamed {
        assert_eq!(got.as_slice(), &vec![0xDD; size][..]);
    } else {
        assert_eq!(
            got.as_slice().as_ptr() as usize,
            sent_ptr,
            "rendezvous receive must alias the sender's pooled buffer"
        );
    }
}
