//! Rendezvous pipeline configuration and per-transfer progress tracking.
//!
//! Large messages rendezvous with an RTS→CTS handshake and then stream as
//! fixed-size chunks through a bounded credit window (see the `comm` module
//! docs for the protocol).  This module holds the two supporting pieces:
//!
//! * [`RdvConfig`] — the tunables (eager threshold, chunk size, window
//!   depth), their environment-variable overrides, and their validation;
//! * [`TransferProgress`] / [`ProgressHandle`] — a rolling-window progress
//!   tracker that lets every in-flight transfer publish its byte count
//!   through a shared atomic, so diagnostics can read per-transfer fractions
//!   and a recent-throughput estimate without touching the engine state.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dcgn_netsim::buffer::ENVELOPE_BYTES;

use crate::packet::RmpiError;

/// Environment variable overriding [`RdvConfig::eager_threshold`] (bytes).
pub const ENV_EAGER_THRESHOLD: &str = "DCGN_EAGER_THRESHOLD";
/// Environment variable overriding [`RdvConfig::chunk_bytes`] (bytes;
/// `0` forces the legacy single-frame rendezvous path).
pub const ENV_RDV_CHUNK: &str = "DCGN_RDV_CHUNK";
/// Environment variable overriding [`RdvConfig::window`] (chunks).
pub const ENV_RDV_WINDOW: &str = "DCGN_RDV_WINDOW";

/// Default streaming chunk size.  Chosen so the paper-scale benchmark sizes
/// (≤256 KB) keep the zero-copy single-frame path and only genuinely large
/// transfers stream.
pub const DEFAULT_RDV_CHUNK: usize = 256 * 1024;
/// Default credit-window depth in chunks.
pub const DEFAULT_RDV_WINDOW: usize = 8;
/// Upper bound on the window depth — far above anything useful, it exists
/// only to turn a typo'd configuration into a clean error.
pub const MAX_RDV_WINDOW: usize = 1 << 16;

/// Tunables of the point-to-point transfer protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdvConfig {
    /// Messages at or below this many bytes travel eagerly (payload with the
    /// envelope); larger messages rendezvous.
    pub eager_threshold: usize,
    /// Streaming chunk size in bytes.  A rendezvous payload larger than one
    /// chunk and an envelope streams as `RdvChunk` frames; smaller payloads
    /// — or any payload when this is `0` — ship as a single `RdvData` frame.
    pub chunk_bytes: usize,
    /// Credit window: the maximum number of chunks in flight per transfer.
    pub window: usize,
}

impl RdvConfig {
    /// The default pipeline configuration for a given eager threshold.
    pub fn new(eager_threshold: usize) -> Self {
        RdvConfig {
            eager_threshold,
            chunk_bytes: DEFAULT_RDV_CHUNK,
            window: DEFAULT_RDV_WINDOW,
        }
    }

    /// The defaults for `eager_threshold`, with any `DCGN_EAGER_THRESHOLD`,
    /// `DCGN_RDV_CHUNK` and `DCGN_RDV_WINDOW` environment overrides applied.
    /// A set-but-unparsable variable is an [`RmpiError::InvalidArgument`]
    /// naming the variable and its value, so a misspelt override fails the
    /// job instead of silently testing nothing.
    pub fn from_env(eager_threshold: usize) -> crate::Result<Self> {
        let var = |name: &str| parse_env_usize(name, std::env::var(name).ok().as_deref());
        let mut cfg = Self::new(eager_threshold);
        if let Some(v) = var(ENV_EAGER_THRESHOLD)? {
            cfg.eager_threshold = v;
        }
        if let Some(v) = var(ENV_RDV_CHUNK)? {
            cfg.chunk_bytes = v;
        }
        if let Some(v) = var(ENV_RDV_WINDOW)? {
            cfg.window = v;
        }
        Ok(cfg)
    }

    /// Replace the eager threshold (builder-style helper).
    pub fn with_eager_threshold(mut self, bytes: usize) -> Self {
        self.eager_threshold = bytes;
        self
    }

    /// Replace the chunk size (builder-style helper; `0` disables streaming).
    pub fn with_chunk_bytes(mut self, bytes: usize) -> Self {
        self.chunk_bytes = bytes;
        self
    }

    /// Replace the window depth (builder-style helper).
    pub fn with_window(mut self, chunks: usize) -> Self {
        self.window = chunks;
        self
    }

    /// Check the configuration's invariants, returning
    /// [`RmpiError::InvalidArgument`] with an actionable message on violation.
    pub fn validate(&self) -> crate::Result<()> {
        if self.chunk_bytes > 0 && self.window == 0 {
            return Err(RmpiError::InvalidArgument(format!(
                "rendezvous window must be at least 1 chunk when chunking is \
                 enabled (chunk_bytes = {})",
                self.chunk_bytes
            )));
        }
        if self.window > MAX_RDV_WINDOW {
            return Err(RmpiError::InvalidArgument(format!(
                "rendezvous window of {} chunks exceeds the maximum of {}",
                self.window, MAX_RDV_WINDOW
            )));
        }
        Ok(())
    }

    /// Number of chunks a `len`-byte streamed transfer splits into: the
    /// last chunk absorbs a tail of at most [`ENVELOPE_BYTES`], so a framed
    /// power-of-two body does not trail a 16-byte runt frame.
    /// Meaningful only when [`RdvConfig::streams`] holds for `len`.
    pub fn chunks_for(&self, len: usize) -> usize {
        debug_assert!(self.streams(len));
        (len - ENVELOPE_BYTES).div_ceil(self.chunk_bytes)
    }

    /// True when a rendezvous payload of `len` bytes takes the streamed
    /// chunk path rather than the single-frame path: it is more than one
    /// chunk plus the tail a chunk absorbs.
    pub fn streams(&self, len: usize) -> bool {
        self.chunk_bytes > 0 && len.saturating_sub(ENVELOPE_BYTES) > self.chunk_bytes
    }

    /// Chunks a receiver coalesces into one `RdvCredit` frame: half the
    /// window.  Per-chunk credits would wake the sender for every chunk —
    /// a cross-thread round trip that costs more than the chunk's own wire
    /// time — while anything above the window risks starving it.  Half the
    /// window keeps the sender fed (it still holds `window - batch` slots
    /// when a batch is in flight) at a fraction of the wake-ups.  Always at
    /// least 1, so `window = 1` degrades to per-chunk credits.
    pub fn credit_batch(&self) -> usize {
        (self.window / 2).max(1)
    }
}

/// Interpret the value of environment variable `name` (`None` = unset) as a
/// count.
fn parse_env_usize(name: &str, value: Option<&str>) -> crate::Result<Option<usize>> {
    value
        .map(|v| {
            v.trim().parse().map_err(|_| {
                RmpiError::InvalidArgument(format!("{name}={v:?} is not an unsigned integer"))
            })
        })
        .transpose()
}

// ---------------------------------------------------------------------------
// Rolling-window transfer progress.
// ---------------------------------------------------------------------------

/// Samples retained by the rolling throughput window.
const ROLLING_SAMPLES: usize = 64;

/// Progress registry shared by all transfers of one communicator.
///
/// Each streamed transfer registers an atomic byte counter
/// ([`ProgressHandle`]) here; every drained chunk bumps the counter and
/// appends a `(when, cumulative bytes)` sample to a bounded rolling window,
/// from which [`TransferProgress::recent_bytes_per_sec`] derives the
/// engine's recent aggregate throughput.  Readers never block the data path:
/// counters are relaxed atomics and the window is sampled under a short
/// lock.
#[derive(Debug, Default)]
pub struct TransferProgress {
    instances: Mutex<Vec<Instance>>,
    window: Mutex<RollingWindow>,
    cumulative: AtomicUsize,
}

#[derive(Debug)]
struct Instance {
    done: Arc<AtomicUsize>,
    total: usize,
}

impl Instance {
    /// Still in flight: bytes outstanding and its [`ProgressHandle`] (the
    /// counter's other owner) not yet dropped by a failed receive.
    fn live(&self) -> bool {
        self.done.load(Ordering::Relaxed) < self.total && Arc::strong_count(&self.done) > 1
    }
}

#[derive(Debug, Default)]
struct RollingWindow {
    samples: std::collections::VecDeque<(Instant, usize)>,
}

/// Per-transfer snapshot reported by [`TransferProgress::fractions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferSnapshot {
    /// Bytes delivered so far.
    pub done: usize,
    /// Total bytes of the transfer.
    pub total: usize,
}

impl TransferProgress {
    /// Register a new transfer of `total` bytes and return its handle.
    /// Finished and abandoned transfers are swept out on the way, so the
    /// registry holds the transfers in flight, not every one there ever was.
    pub fn register(self: &Arc<Self>, total: usize) -> ProgressHandle {
        let done = Arc::new(AtomicUsize::new(0));
        let mut instances = self.instances.lock().expect("progress lock");
        instances.retain(Instance::live);
        instances.push(Instance {
            done: Arc::clone(&done),
            total,
        });
        ProgressHandle {
            done,
            total,
            started: Instant::now(),
            registry: Arc::clone(self),
        }
    }

    /// Bytes delivered across every transfer ever registered.
    pub fn total_bytes(&self) -> usize {
        self.cumulative.load(Ordering::Relaxed)
    }

    /// Per-transfer progress of every live (incomplete) transfer.
    /// Completed transfers are swept out on the way.
    pub fn fractions(&self) -> Vec<TransferSnapshot> {
        let mut instances = self.instances.lock().expect("progress lock");
        instances.retain(Instance::live);
        instances
            .iter()
            .map(|i| TransferSnapshot {
                done: i.done.load(Ordering::Relaxed),
                total: i.total,
            })
            .collect()
    }

    /// Aggregate throughput over the rolling sample window, or `None` before
    /// two samples exist.
    pub fn recent_bytes_per_sec(&self) -> Option<f64> {
        let window = self.window.lock().expect("progress lock");
        let (first, last) = (window.samples.front()?, window.samples.back()?);
        let elapsed = last.0.duration_since(first.0);
        if elapsed.is_zero() || last.1 == first.1 {
            return None;
        }
        Some((last.1 - first.1) as f64 / elapsed.as_secs_f64())
    }

    fn record(&self, bytes: usize) {
        let cumulative = self.cumulative.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let mut window = self.window.lock().expect("progress lock");
        window.samples.push_back((Instant::now(), cumulative));
        while window.samples.len() > ROLLING_SAMPLES {
            window.samples.pop_front();
        }
    }
}

/// One transfer's write handle into a [`TransferProgress`] registry.
#[derive(Debug)]
pub struct ProgressHandle {
    done: Arc<AtomicUsize>,
    total: usize,
    started: Instant,
    registry: Arc<TransferProgress>,
}

impl ProgressHandle {
    /// Record `bytes` more of this transfer as delivered.
    pub fn add(&self, bytes: usize) {
        self.done.fetch_add(bytes, Ordering::Relaxed);
        self.registry.record(bytes);
    }

    /// Bytes delivered so far.
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Total bytes of the transfer.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Mean throughput of this transfer since it was registered.
    pub fn bytes_per_sec(&self) -> f64 {
        let elapsed = self.started.elapsed().max(Duration::from_nanos(1));
        self.done() as f64 / elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        let cfg = RdvConfig::new(64 * 1024);
        assert_eq!(cfg.eager_threshold, 64 * 1024);
        assert_eq!(cfg.chunk_bytes, DEFAULT_RDV_CHUNK);
        assert_eq!(cfg.window, DEFAULT_RDV_WINDOW);
        assert!(cfg.validate().is_ok());
        let cfg = cfg
            .with_eager_threshold(128)
            .with_chunk_bytes(4096)
            .with_window(2);
        assert_eq!(
            (cfg.eager_threshold, cfg.chunk_bytes, cfg.window),
            (128, 4096, 2)
        );
    }

    #[test]
    fn unparsable_env_values_are_errors_naming_variable_and_value() {
        assert_eq!(parse_env_usize(ENV_RDV_CHUNK, None).unwrap(), None);
        assert_eq!(
            parse_env_usize(ENV_RDV_CHUNK, Some(" 4096 ")).unwrap(),
            Some(4096)
        );
        for bad in ["4k", "-1", ""] {
            let err = parse_env_usize(ENV_RDV_WINDOW, Some(bad)).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(ENV_RDV_WINDOW) && msg.contains(&format!("{bad:?}")),
                "{msg}"
            );
        }
    }

    #[test]
    fn validation_rejects_degenerate_windows() {
        let err = RdvConfig::new(64).with_window(0).validate().unwrap_err();
        assert!(matches!(err, RmpiError::InvalidArgument(_)), "{err}");
        let err = RdvConfig::new(64)
            .with_window(MAX_RDV_WINDOW + 1)
            .validate()
            .unwrap_err();
        assert!(matches!(err, RmpiError::InvalidArgument(_)), "{err}");
        // chunk_bytes = 0 disables streaming, so the window is irrelevant.
        assert!(RdvConfig::new(64)
            .with_chunk_bytes(0)
            .with_window(0)
            .validate()
            .is_ok());
    }

    #[test]
    fn streaming_decision_and_chunk_count() {
        let cfg = RdvConfig::new(64).with_chunk_bytes(1000);
        assert!(!cfg.streams(1000), "exactly one chunk ships single-frame");
        // A chunk absorbs an envelope-sized tail: a framed one-chunk body is
        // still one frame, not a full chunk and a 16-byte runt.
        assert!(!cfg.streams(1000 + ENVELOPE_BYTES));
        assert!(cfg.streams(1000 + ENVELOPE_BYTES + 1));
        assert_eq!(cfg.chunks_for(1000 + ENVELOPE_BYTES + 1), 2);
        assert_eq!(cfg.chunks_for(3000), 3);
        assert_eq!(cfg.chunks_for(3000 + ENVELOPE_BYTES), 3);
        assert_eq!(cfg.chunks_for(3000 + ENVELOPE_BYTES + 1), 4);
        assert!(!cfg.with_chunk_bytes(0).streams(usize::MAX));
    }

    /// A long-lived communicator registers one transfer per streamed
    /// receive; the registry must hold the ones in flight, not all of them.
    #[test]
    fn finished_and_abandoned_transfers_leave_the_registry() {
        let progress = Arc::new(TransferProgress::default());
        for _ in 0..10_000 {
            progress.register(8).add(8);
        }
        assert!(progress.instances.lock().unwrap().len() <= 1);
        // A tombstoned receive drops its handle short of the total.
        let in_flight = progress.register(8);
        drop(progress.register(8));
        drop(progress.register(8));
        in_flight.add(4);
        assert_eq!(
            progress.fractions(),
            vec![TransferSnapshot { done: 4, total: 8 }]
        );
    }

    #[test]
    fn progress_tracks_fractions_and_throughput() {
        let progress = Arc::new(TransferProgress::default());
        let a = progress.register(100);
        let b = progress.register(50);
        a.add(40);
        std::thread::sleep(Duration::from_millis(2));
        b.add(50);
        assert_eq!(progress.total_bytes(), 90);
        assert_eq!(a.done(), 40);
        assert!(a.bytes_per_sec() > 0.0);
        // b completed, so only a remains live.
        let live = progress.fractions();
        assert_eq!(
            live,
            vec![TransferSnapshot {
                done: 40,
                total: 100
            }]
        );
        let rate = progress.recent_bytes_per_sec().expect("two samples");
        assert!(rate > 0.0);
    }
}
