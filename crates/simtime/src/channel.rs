//! The one queue every hand-off between the stack's threads crosses: the
//! fabric's endpoints, a node's work queue, a requester's inbox and a
//! device's multiprocessor queue.  It owns the three rules a crossing
//! follows: a send notifies only a parked receiver, a receive spins before
//! it parks ([`Clock::poll_until`]), and a [`Receiver::drain`] pays one
//! [`Charge::QueueHop`](crate::Charge::QueueHop) for everything queued when
//! the consumer looks, due one hop after its first work item's send stamp:
//! a consumer that takes a crossing late waits only for what is left of it.
//!
//! The channel is unbounded and a send never blocks.  Senders are not
//! counted: at every site some handle keeps a sender for the receiver's
//! whole life, so a receiver has no "every sender gone" state to observe.
//! Dropping the [`Receiver`] closes the queue: what is queued is dropped,
//! and later sends hand their item back.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use crate::clock::{Clock, Deadline, Stamp};

struct State<T> {
    queue: VecDeque<(Stamp, T)>,
    /// The receiver is gone.
    closed: bool,
    /// Receivers parked on `ready`.
    waiting: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

/// The sending half of a [`channel`]; cloning shares it.
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half of a [`channel`].  Not `Clone`: consumers that share
/// one queue share the receiver behind an `Arc`.  Beside the queue it holds
/// the empty buffer a drain swaps in for the one it takes, so a crossing
/// allocates nothing: one allocation each showed in a CPU ping-pong's op.
pub struct Receiver<T>(Arc<Shared<T>>, Mutex<VecDeque<(Stamp, T)>>);

/// A new, empty, unbounded channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            closed: false,
            waiting: 0,
        }),
        ready: Condvar::new(),
    });
    (
        Sender(Arc::clone(&shared)),
        Receiver(shared, Mutex::default()),
    )
}

impl<T> Sender<T> {
    /// Queue `item` without blocking, waking a parked receiver if there is
    /// one (a futex wake is a system call even with nobody waiting).  `Err`
    /// hands `item` back once the receiver is gone.
    pub fn send(&self, item: T) -> Result<(), T> {
        let mut state = self.0.state.lock().expect("channel state");
        if state.closed {
            return Err(item);
        }
        state.queue.push_back((Stamp(Instant::now()), item));
        let wake = state.waiting > 0;
        drop(state);
        if wake {
            self.0.ready.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender(Arc::clone(&self.0))
    }
}

/// What one [`Receiver::drain`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drained {
    /// Items taken: the first, plus every one queued behind it.
    pub taken: usize,
    /// Whether any item was work, and so the crossing paid its queue hop.
    pub paid: bool,
}

impl<T> Receiver<T> {
    /// Take the next item if one is queued, without waiting.
    pub fn try_recv(&self) -> Option<T> {
        self.with_queue(|queue| queue.pop_front().map(|(_, item)| item))
    }

    /// Run `look` on the queue of items and their send stamps under its lock,
    /// without waiting (a fabric endpoint takes the first landed frame).
    pub fn with_queue<R>(&self, look: impl FnOnce(&mut VecDeque<(Stamp, T)>) -> R) -> R {
        look(&mut self.0.state.lock().expect("channel state").queue)
    }

    /// The next item, waiting on `clock` until `deadline` at most (`None`
    /// once it passes; a passed one looks once): a [`Clock::poll_until`]
    /// whose park is a wait on the channel's condvar.
    pub fn recv_until(&self, clock: &Clock, deadline: Deadline) -> Option<T> {
        self.recv_with(clock, deadline, |q| q.pop_front().map(|(_, item)| item))
    }

    /// One crossing of this queue — the one place that decides what a
    /// hand-off between the stack's threads costs.  Waits on `clock` until
    /// `deadline` for the first item, then takes it and every item queued
    /// behind it under one lock (one that lands during the drain belongs to
    /// the next crossing), handing each to `file`, which says whether it
    /// gave the consumer work.  A crossing that did pays one
    /// [`Charge::QueueHop`](crate::Charge::QueueHop) — everything queued
    /// when the consumer drains crosses in one hop — due one hop after its
    /// first work item was sent: the drain returns once it is due, at once
    /// if it already is.  Wake-ups and replies nobody waits for neither
    /// start a hop nor shorten one.  This is the only site that charges a
    /// hop: each crossing is paid once, by the consumer's drain, and a send
    /// costs the producer nothing modelled.  `None` when nothing arrived by
    /// `deadline`.
    pub fn drain(
        &self,
        clock: &Clock,
        deadline: Deadline,
        mut file: impl FnMut(T) -> bool,
    ) -> Option<Drained> {
        let mut spare = self.1.lock().expect("channel spare");
        let mut crossing = self.recv_with(clock, deadline, |queue| {
            (!queue.is_empty()).then(|| std::mem::replace(queue, std::mem::take(&mut *spare)))
        })?;
        let taken = crossing.len();
        let first_work = crossing.drain(..).fold(None, |first, (sent, item)| {
            first.or(file(item).then_some(sent))
        });
        *spare = crossing;
        if let Some(sent) = first_work {
            clock.queue_hop(sent);
        }
        let paid = first_work.is_some();
        Some(Drained { taken, paid })
    }

    /// Wait until `take` finds something in the queue, or `deadline`
    /// passes (`None`): spin, then park on `ready` until a send wakes this
    /// receiver.  `take` may leave items it does not want yet queued.
    pub fn recv_with<R>(
        &self,
        clock: &Clock,
        deadline: Deadline,
        mut take: impl FnMut(&mut VecDeque<(Stamp, T)>) -> Option<R>,
    ) -> Option<R> {
        let seen = std::cell::Cell::new(0);
        let poll = || {
            let mut state = self.0.state.lock().expect("channel state");
            let got = take(&mut state.queue);
            seen.set(state.queue.len());
            got
        };
        let park = |deadline| {
            let mut state = self.0.state.lock().expect("channel state");
            // A send since the last poll must not be slept on.
            if state.queue.len() == seen.get() {
                state.waiting += 1;
                (state, _) = clock.wait_until(&self.0.ready, state, deadline);
                state.waiting -= 1;
            }
        };
        clock.poll_until(deadline, poll, park)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.closed = true;
        let unread = std::mem::take(&mut state.queue);
        // Dropped outside the lock: an item's own drop may send (a
        // `ReplyTo` answers its requester).
        drop(state);
        drop(unread);
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;
    use dcgn_metrics::MetricsHandle;
    use std::time::Duration;

    fn clock() -> Clock {
        Clock::from(CostModel::zero())
    }

    #[test]
    fn unbounded_roundtrip_preserves_order() {
        let (tx, rx) = channel();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv_until(&clock(), Deadline::NEVER), Some(i));
        }
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn dropping_the_last_receiver_discards_queued_messages() {
        let (tx, rx) = channel();
        let queued = Arc::new(());
        tx.send(Arc::clone(&queued)).unwrap();
        let (rx, shared) = (Arc::new(rx), tx.clone());
        let rx2 = Arc::clone(&rx);
        drop(rx);
        assert_eq!(Arc::strong_count(&queued), 2, "a receiver is left");
        drop(rx2);
        assert_eq!(Arc::strong_count(&queued), 1);
        // Every sender sees the queue closed and gets its item back.
        let late = Arc::clone(&queued);
        assert!(tx.send(late).is_err_and(|late| Arc::ptr_eq(&late, &queued)));
        assert!(shared.send(Arc::clone(&queued)).is_err());
        assert_eq!(Arc::strong_count(&queued), 1);
    }

    #[test]
    fn a_parked_receiver_is_woken_by_a_send() {
        for deadline in [Deadline::NEVER, clock().deadline(Duration::from_secs(60))] {
            let (tx, rx) = channel::<u32>();
            let rx = Arc::new(rx);
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let waiter = Arc::clone(&rx);
            let t = std::thread::spawn(move || {
                done_tx.send(waiter.recv_until(&clock(), deadline)).unwrap();
            });
            // A waiter counts itself under the mutex its condvar wait
            // releases, so once the count shows, the waiter is parked.
            while rx.0.state.lock().unwrap().waiting != 1 {
                std::thread::yield_now();
            }
            tx.send(5).unwrap();
            let got = done_rx.recv_timeout(Duration::from_secs(60));
            assert_eq!(got, Ok(Some(5)), "{deadline:?}: the send woke nobody");
            t.join().unwrap();
            assert_eq!(rx.0.state.lock().unwrap().waiting, 0);
        }
    }

    #[test]
    fn an_item_left_queued_does_not_turn_the_park_into_a_spin() {
        // A fabric endpoint leaves a frame that has not landed queued: its
        // wait parks until something is sent, not only while nothing is.
        let metrics = MetricsHandle::new();
        let clock = Clock::new(CostModel::zero(), &metrics);
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        let deadline = clock.deadline(Duration::from_millis(5));
        assert_eq!(rx.recv_with(&clock, deadline, |_| None::<u32>), None);
        assert!(metrics.snapshot().counter("clock.parks") <= 2);
    }

    #[test]
    fn multiple_producers_and_consumers() {
        // A device's multiprocessor workers: consumers sharing one receiver.
        let (tx, rx) = channel::<Option<u32>>();
        let rx = Arc::new(rx);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || {
                    std::iter::from_fn(|| rx.recv_until(&clock(), Deadline::NEVER).flatten())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    (0..25).for_each(|i| tx.send(Some(p * 100 + i)).unwrap())
                })
            })
            .collect();
        producers.into_iter().for_each(|p| p.join().unwrap());
        for _ in &consumers {
            tx.send(None).unwrap();
        }
        let mut taken: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        taken.sort_unstable();
        let sent: Vec<u32> = (0..4)
            .flat_map(|p| (0..25).map(move |i| p * 100 + i))
            .collect();
        assert_eq!(taken, sent, "each item taken exactly once");
    }

    #[test]
    fn a_drain_takes_what_is_queued_when_it_looks_and_pays_one_hop_for_work() {
        let metrics = MetricsHandle::new();
        let hop = Duration::from_micros(1);
        let model = CostModel {
            queue_hop: hop,
            ..CostModel::zero()
        };
        let clock = Clock::new(model, &metrics);
        let hops =
            || metrics.snapshot().counter("model.charged_ns.queue_hop") / hop.as_nanos() as u64;
        let now = || clock.deadline(Duration::ZERO);
        let (tx, rx) = channel();
        assert_eq!(rx.drain(&clock, now(), |_: u32| true), None);
        // Three items queued, one of them work: one crossing, one hop.  An
        // item sent while the crossing is filed waits for the next one.
        for item in [0, 1, 0] {
            tx.send(item).unwrap();
        }
        let mut filed = Vec::new();
        let crossing = rx.drain(&clock, now(), |item| {
            if filed.is_empty() {
                tx.send(7).unwrap();
            }
            filed.push(item);
            item != 0
        });
        let drained = |taken, paid| Some(Drained { taken, paid });
        assert_eq!(crossing, drained(3, true));
        assert_eq!((filed, hops()), (vec![0, 1, 0], 1));
        // A crossing that carried no work pays nothing.
        assert_eq!(rx.drain(&clock, now(), |item| item == 0), drained(1, false));
        assert_eq!(hops(), 1);
        assert_eq!(rx.drain(&clock, now(), |_| true), None);
    }

    // The hop rule, timed: a hop of tens of milliseconds, so that a test
    // thread preempted for a few cannot pass a case by accident.
    const HOP: Duration = Duration::from_millis(50);

    /// A clock whose queue hop is `HOP`, and its ledger's hops charged and
    /// hops hidden.
    fn hop_clock() -> (Clock, impl Fn() -> (u64, u64)) {
        let metrics = MetricsHandle::new();
        let model = CostModel {
            queue_hop: HOP,
            ..CostModel::zero()
        };
        let clock = Clock::new(model, &metrics);
        let ledger = move || {
            let snap = metrics.snapshot();
            let charged = snap.counter("model.charged_ns.queue_hop");
            (
                charged / HOP.as_nanos() as u64,
                snap.counter("clock.hops_hidden"),
            )
        };
        (clock, ledger)
    }

    #[test]
    fn a_crossing_taken_at_once_returns_no_sooner_than_one_hop_after_its_send() {
        let (clock, ledger) = hop_clock();
        let (tx, rx) = channel();
        let before_send = clock.now();
        tx.send(1).unwrap();
        let crossing = rx.drain(&clock, Deadline::NEVER, |_: u32| true);
        assert!(crossing.is_some_and(|c| c.paid));
        assert!(clock.elapsed(before_send) >= HOP, "returned before its hop");
        assert_eq!(ledger(), (1, 0));
    }

    #[test]
    fn a_crossing_taken_a_hop_after_its_send_waits_no_hop_and_still_books_one() {
        let (clock, ledger) = hop_clock();
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        std::thread::sleep(HOP);
        let start = clock.now();
        let crossing = rx.drain(&clock, Deadline::NEVER, |_: u32| true);
        assert!(crossing.is_some_and(|c| c.paid));
        let took = clock.elapsed(start);
        assert!(took < HOP / 2, "a hop already due blocked for {took:?}");
        assert_eq!(ledger(), (1, 1));
    }

    #[test]
    fn a_non_work_item_queued_first_does_not_shorten_the_hop() {
        let (clock, ledger) = hop_clock();
        let (tx, rx) = channel();
        tx.send(0).unwrap();
        std::thread::sleep(HOP);
        let before_send = clock.now();
        tx.send(1).unwrap();
        let crossing = rx.drain(&clock, Deadline::NEVER, |item: u32| item != 0);
        assert_eq!(
            crossing,
            Some(Drained {
                taken: 2,
                paid: true
            })
        );
        assert!(
            clock.elapsed(before_send) >= HOP,
            "the wake-up started the hop"
        );
        assert_eq!(ledger(), (1, 0));
    }
}
