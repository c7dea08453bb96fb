//! Rendezvous pipeline configuration.
//!
//! Large messages rendezvous with an RTS→CTS handshake and then stream as
//! fixed-size chunks through a bounded credit window — a payload of at most
//! one chunk as a one-chunk stream (see the `comm` module docs for the
//! protocol).  This module holds [`RdvConfig`]: the tunables
//! (eager threshold, chunk size, window depth), their environment-variable
//! overrides, and their validation.

use dcgn_netsim::buffer::ENVELOPE_BYTES;

use crate::packet::RmpiError;

/// Environment variable overriding [`RdvConfig::eager_threshold`] (bytes).
pub const ENV_EAGER_THRESHOLD: &str = "DCGN_EAGER_THRESHOLD";
/// Environment variable overriding [`RdvConfig::chunk_bytes`] (bytes;
/// `0` ships every rendezvous payload as one chunk).
pub const ENV_RDV_CHUNK: &str = "DCGN_RDV_CHUNK";
/// Environment variable overriding [`RdvConfig::window`] (chunks).
pub const ENV_RDV_WINDOW: &str = "DCGN_RDV_WINDOW";

/// Default streaming chunk size.  Chosen so the paper-scale benchmark sizes
/// (≤256 KB) ship as one zero-copy chunk and only genuinely large transfers
/// pipeline several.
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
    /// Streaming chunk size in bytes.  A rendezvous payload streams as one
    /// `RdvChunk` frame per chunk, the last absorbing a tail of at most an
    /// envelope; `0` makes any payload one chunk.
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

    /// Replace the chunk size (builder-style helper; `0` makes every payload
    /// one chunk).
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
        if self.window == 0 {
            return Err(RmpiError::InvalidArgument(format!(
                "rendezvous window must be at least 1 chunk (chunk_bytes = {})",
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

    /// Where the chunk of a `len`-byte rendezvous payload that starts at
    /// `offset` ends: one `chunk_bytes` further on, except that the last
    /// chunk absorbs a tail of at most [`ENVELOPE_BYTES`] — so a framed
    /// power-of-two body does not trail a 16-byte runt frame — and that
    /// `chunk_bytes = 0` makes the whole payload one chunk.
    pub(crate) fn chunk_end(&self, offset: usize, len: usize) -> usize {
        let full = offset.saturating_add(self.chunk_bytes);
        if self.chunk_bytes == 0 || full.saturating_add(ENVELOPE_BYTES) >= len {
            len
        } else {
            full
        }
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
        // chunk_bytes = 0 still streams one chunk, which needs a window slot.
        let err = RdvConfig::new(64)
            .with_chunk_bytes(0)
            .with_window(0)
            .validate()
            .unwrap_err();
        assert!(matches!(err, RmpiError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn streaming_decision_absorbs_an_envelope_tail() {
        let chunks = |cfg: RdvConfig, len: usize| {
            let (mut offset, mut count) = (0, 0);
            while offset < len {
                offset = cfg.chunk_end(offset, len);
                count += 1;
            }
            count
        };
        let cfg = RdvConfig::new(64).with_chunk_bytes(1000);
        assert_eq!(chunks(cfg, 1000), 1, "exactly one chunk is one frame");
        // A chunk absorbs an envelope-sized tail: a framed one-chunk body is
        // still one frame, not a full chunk and a 16-byte runt.
        assert_eq!(chunks(cfg, 1000 + ENVELOPE_BYTES), 1);
        assert_eq!(chunks(cfg, 1000 + ENVELOPE_BYTES + 1), 2);
        assert_eq!(chunks(cfg, 3000 + ENVELOPE_BYTES), 3);
        assert_eq!(chunks(cfg, 3000 + ENVELOPE_BYTES + 1), 4);
        // chunk_bytes = 0: the whole payload is one chunk.
        assert_eq!(chunks(cfg.with_chunk_bytes(0), 1 << 30), 1);
    }
}
