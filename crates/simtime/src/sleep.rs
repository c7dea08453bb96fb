//! The delay behind [`crate::Clock::charge`]: modelled costs but a NIC's are
//! real wall-clock delays.  On a lightly loaded machine `thread::sleep` has a
//! granularity of tens of microseconds, far coarser than the latencies
//! modelled, so short delays are a yielding spin instead.
//! Either way a delay ends in a raw spin of at most `YIELD_TAIL` (2 µs): on
//! a shared core a yield returns only after another runnable thread's turn,
//! so one started that close to the deadline would run past it.

use std::time::{Duration, Instant};

/// Threshold below which a delay is realised by spinning rather than
/// sleeping.  Chosen so that OS timer granularity does not dominate the
/// modelled latencies while keeping CPU burn bounded.
const SPIN_THRESHOLD: Duration = Duration::from_micros(200);

/// Portion of a long delay that is still spun away after sleeping, to absorb
/// over-sleep from the OS scheduler.
const SLEEP_SLACK: Duration = Duration::from_micros(150);

/// How long a spinning wait ([`crate::Clock::poll_until`], a channel's
/// `recv_until` and `drain` among them) yield-polls before it parks: an
/// event that lands within this budget skips the futex wake-up, which costs
/// more than the spin it replaces.  The stack's one spin budget.
pub(crate) const PARK_AFTER: Duration = Duration::from_micros(50);

/// The last stretch of a delay, spun without yielding (see
/// [`precise_sleep`]).  A longer tail would spin whole queue hops (6 µs)
/// and hold a core that the threads being waited on need.
const YIELD_TAIL: Duration = Duration::from_micros(2);

/// What a delay's spin does next, given the time `left` of it.
#[derive(Debug, PartialEq, Eq)]
enum Step {
    /// More than `YIELD_TAIL` is left: let another thread run.
    Yield,
    /// The tail: spin on the core until the deadline.
    Spin,
    /// The deadline has passed.
    Done,
}

fn step(left: Duration) -> Step {
    if left.is_zero() {
        Step::Done
    } else if left > YIELD_TAIL {
        Step::Yield
    } else {
        Step::Spin
    }
}

/// Sleep for `d`, trading CPU time for accuracy only when `d` is short.
///
/// * `d >= 200µs`: `thread::sleep` for most of the interval, then yield-spin
///   the remainder.
/// * `d < 200µs`: yield-spin the whole interval.  Yielding (rather than a raw
///   `spin_loop`) keeps the simulation live on single-core hosts where the
///   thread being waited on needs the same core.
///
/// Both end with a raw `spin_loop` through the last `YIELD_TAIL` (2 µs) of
/// `d`, in which no yield is started: a yield lasts until another runnable
/// thread has had its turn, which on a shared core ends well past the
/// deadline.
pub fn precise_sleep(d: Duration) {
    sleep_until(Instant::now() + d);
}

/// [`precise_sleep`] until `at`: returns once it has passed.
pub(crate) fn sleep_until(at: Instant) {
    let left = at.saturating_duration_since(Instant::now());
    if left >= SPIN_THRESHOLD {
        std::thread::sleep(left - SLEEP_SLACK);
    }
    loop {
        match step(at.saturating_duration_since(Instant::now())) {
            Step::Yield => std::thread::yield_now(),
            Step::Spin => std::hint::spin_loop(),
            Step::Done => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sleep_returns_immediately() {
        let start = Instant::now();
        precise_sleep(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn short_sleep_is_at_least_requested() {
        let d = Duration::from_micros(50);
        let start = Instant::now();
        precise_sleep(d);
        assert!(start.elapsed() >= d);
    }

    #[test]
    fn long_sleep_is_at_least_requested() {
        let d = Duration::from_millis(2);
        let start = Instant::now();
        precise_sleep(d);
        assert!(start.elapsed() >= d);
    }

    #[test]
    fn a_delay_yields_until_its_tail_then_spins_to_its_deadline() {
        assert_eq!(step(Duration::ZERO), Step::Done);
        assert_eq!(step(YIELD_TAIL), Step::Spin);
        assert_eq!(step(YIELD_TAIL + Duration::from_nanos(1)), Step::Yield);
    }
}
