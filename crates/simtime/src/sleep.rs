//! The delay behind [`crate::Clock::charge`]: modelled hardware costs are
//! injected as real wall-clock delays.  On a lightly loaded machine
//! `thread::sleep` has a granularity of tens of microseconds, far coarser than
//! the latencies modelled, so short delays are a yielding spin instead.

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

/// Sleep for `d`, trading CPU time for accuracy only when `d` is short.
///
/// * `d >= 200µs`: `thread::sleep` for most of the interval, then yield-spin
///   the remainder.
/// * `d < 200µs`: yield-spin the whole interval.  Yielding (rather than a raw
///   `spin_loop`) keeps the simulation live on single-core hosts where the
///   thread being waited on needs the same core.
pub fn precise_sleep(d: Duration) {
    sleep_from(Instant::now(), d);
}

/// [`precise_sleep`] for a delay that began at `start`: returns once `d`
/// has passed since then.
pub(crate) fn sleep_from(start: Instant, d: Duration) {
    if d.is_zero() {
        return;
    }
    if d >= SPIN_THRESHOLD {
        let coarse = d.saturating_sub(SLEEP_SLACK);
        if !coarse.is_zero() {
            std::thread::sleep(coarse);
        }
    }
    while start.elapsed() < d {
        std::thread::yield_now();
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
}
