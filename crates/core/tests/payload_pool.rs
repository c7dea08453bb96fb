//! Property tests of the pooled payload buffers: slab recycling must never
//! hand a buffer back out while any live [`Payload`] still references it —
//! neither under direct pool-level churn nor under real interleaved
//! sends/recvs/collectives, where a recycled-too-early buffer would show up
//! as corrupted message bytes.

use std::sync::Arc;

use dcgn::{DcgnConfig, Payload, Runtime};
// The point-to-point envelope; every pool class is a power of two plus it.
use dcgn_netsim::buffer::ENVELOPE_BYTES as ENVELOPE;
use dcgn_testkit::{check, name, Rng};

/// The byte every cell of a payload created at step `step` by actor `actor`
/// is filled with.
fn fill_byte(step: usize, actor: usize) -> u8 {
    (step.wrapping_mul(31) ^ actor.wrapping_mul(7)) as u8
}

/// Buffers within an envelope of a class boundary — bodies of
/// `2^k − 16 ..= 2^k + 16` bytes — must recycle like any other and never
/// alias while live; framing them appends in place exactly when the body
/// fits its class's power of two, and falls back to a pooled copy in the
/// next class when it does not.  The classes used (16 KB – 128 KB) are ones
/// the churn tests below never reach, so slab order is deterministic here.
#[test]
fn class_boundary_buffers_recycle_and_never_alias() {
    for shift in 14..=17u32 {
        for len in (1usize << shift) - ENVELOPE..=(1 << shift) + ENVELOPE {
            let a = Payload::copy_from_slice(&vec![0xA1; len]);
            let b = Payload::copy_from_slice(&vec![0xB2; len]);
            let a_ptr = a.as_slice().as_ptr();
            assert_ne!(a_ptr, b.as_slice().as_ptr(), "{len}: live buffers alias");
            // Dropping `a` recycles it; the next buffer of the class is that
            // allocation again, and the still-live `b` is untouched.
            drop(a);
            let c = Payload::copy_from_slice(&vec![0xC3; len]);
            assert_eq!(c.as_slice().as_ptr(), a_ptr, "{len}: not recycled");
            assert!(
                b.as_slice().iter().all(|&x| x == 0xB2),
                "{len}: b clobbered"
            );
            // Framing: in place up to the power of two, a copy past it.
            let frame = c.into_framed(&[0xE4; ENVELOPE]);
            assert_eq!(
                frame.as_slice().as_ptr() == a_ptr,
                len <= 1 << shift,
                "{len}: wrong framing path"
            );
            assert_eq!(frame.len(), len + ENVELOPE);
            assert!(frame.as_slice()[..len].iter().all(|&x| x == 0xC3));
            assert!(frame.as_slice()[len..].iter().all(|&x| x == 0xE4));
            assert!(
                b.as_slice().iter().all(|&x| x == 0xB2),
                "{len}: b clobbered"
            );
        }
    }
}

/// Pool-level churn: random interleavings of create / clone / slice /
/// drop.  Every payload still held must read back exactly the fill it
/// was created with, no matter how many buffers were recycled and
/// reissued in between.
#[test]
fn recycling_never_aliases_live_payloads() {
    check(name!(), 48, |rng| {
        let ops = rng.vec(1..120, Rng::next_u64);
        // (payload, expected fill, expected length)
        let mut held: Vec<(Payload, u8, usize)> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            // Half the sizes are arbitrary, half sit within an envelope of a
            // class boundary (2^k ± 16 for 256 B – 4 KB).
            let len = if op & 4 == 0 {
                1 + (op >> 8) as usize % 2500
            } else {
                (256usize << ((op >> 8) % 5)) - ENVELOPE + (op >> 16) as usize % (2 * ENVELOPE + 1)
            };
            let fill = fill_byte(step, 0);
            match op % 4 {
                0 => held.push((Payload::copy_from_slice(&vec![fill; len]), fill, len)),
                // A framed stage: the envelope (here more fill) is appended
                // in the buffer's spare capacity, or copied at a boundary.
                1 => held.push((
                    Payload::copy_from_slice(&vec![fill; len]).into_framed(&[fill; ENVELOPE]),
                    fill,
                    len + ENVELOPE,
                )),
                2 if !held.is_empty() => {
                    // Dropping may recycle the buffer into the pool; live
                    // views of the same buffer must pin it.
                    let i = (op >> 3) as usize % held.len();
                    held.swap_remove(i);
                }
                3 if !held.is_empty() => {
                    let i = (op >> 3) as usize % held.len();
                    let (p, fill, len) = &held[i];
                    let view_len = len / 2;
                    let view = p.slice(0..view_len);
                    held.push((view, *fill, view_len));
                }
                _ => {}
            }
            // Spot-check one held payload per step; all are verified below.
            if let Some((p, fill, len)) = held.get(step % held.len().max(1)) {
                assert_eq!(p.len(), *len);
                assert!(p.as_slice().iter().all(|b| b == fill));
            }
        }
        for (p, fill, len) in &held {
            assert_eq!(p.len(), *len);
            assert!(
                p.as_slice().iter().all(|b| b == fill),
                "a recycled buffer aliased a live payload"
            );
        }
    });
}

/// Cut one buffer at random points (repeats give empty pieces) and
/// `append` the pieces back in order: the result is the original view —
/// same pointer, same bytes — however it was cut, and once the pieces'
/// source is dropped it leaves through `into_vec` as the allocation.
#[test]
fn random_cuts_of_one_buffer_rejoin_by_pointer() {
    check(name!(), 48, |rng| {
        let len = rng.range(1..5000);
        let cuts = rng.vec(0..12, |rng| rng.next_u64() as usize);
        let whole = Payload::copy_from_slice(&(0..len).map(|i| i as u8).collect::<Vec<_>>());
        let base = whole.as_slice().as_ptr();
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
        bounds.extend([0, len]);
        bounds.sort_unstable();
        let mut joined = Payload::empty();
        for pair in bounds.windows(2) {
            joined.append(whole.slice(pair[0]..pair[1]));
        }
        assert_eq!(joined.as_slice().as_ptr(), base);
        assert_eq!(&joined, &whole);
        drop(whole);
        let out = joined.into_vec();
        assert_eq!(out.as_ptr(), base);
    });
}

/// End-to-end churn: four CPU ranks over two nodes run rounds of ring
/// point-to-point traffic interleaved with allgathers and broadcasts,
/// with every payload carrying a per-(round, sender) fill pattern.  A
/// buffer recycled while still referenced by an in-flight message or an
/// undelivered collective result would surface as corrupt bytes here.
#[test]
fn pooled_payloads_survive_interleaved_traffic() {
    check(name!(), 48, |rng| {
        let lens = rng.vec(3..7, |rng| rng.range(1..3000));
        let runtime = Runtime::new(DcgnConfig::homogeneous(2, 2, 0, 0)).unwrap();
        let lens = Arc::new(lens);
        runtime
            .launch_cpu_only(move |ctx| {
                let n = ctx.size();
                let me = ctx.rank();
                for (round, &len) in lens.iter().enumerate() {
                    let next = (me + 1) % n;
                    let prev = (me + n - 1) % n;
                    // Ring exchange (even ranks send first, so the ring
                    // cannot deadlock; n is even).
                    let mine = vec![fill_byte(round, me); len];
                    let (got, status) = if me % 2 == 0 {
                        ctx.send(next, &mine).unwrap();
                        ctx.recv(prev).unwrap()
                    } else {
                        let got = ctx.recv(prev).unwrap();
                        ctx.send(next, &mine).unwrap();
                        got
                    };
                    assert_eq!(status.source, prev);
                    assert_eq!(got.len(), len, "round {round}: length corrupted");
                    let want = fill_byte(round, prev);
                    assert!(
                        got.iter().all(|&b| b == want),
                        "round {round}: payload bytes corrupted"
                    );
                    // Collectives recycle through the same pool.
                    let chunks = ctx.allgather(&mine[..len.min(64)]).unwrap();
                    for (r, chunk) in chunks.iter().enumerate() {
                        assert!(
                            chunk.iter().all(|&b| b == fill_byte(round, r)),
                            "round {round}: allgather chunk {r} corrupted"
                        );
                    }
                    let mut bcast = if me == round % n {
                        vec![fill_byte(round, 99); len]
                    } else {
                        Vec::new()
                    };
                    ctx.broadcast(round % n, &mut bcast).unwrap();
                    assert_eq!(bcast.len(), len);
                    assert!(
                        bcast.iter().all(|&b| b == fill_byte(round, 99)),
                        "round {round}: broadcast payload corrupted"
                    );
                }
            })
            .unwrap();
    });
}
