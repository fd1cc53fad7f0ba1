//! Probe configuration: one struct gates all four passive instruments plus
//! the active diagnostics layer (detectors and trace export).

use crate::detect::DetectorConfig;

/// Configuration of a [`crate::ProbeRecorder`].
///
/// The defaults enable the time series and the flight recorder at moderate
/// cost and leave the heatmaps off (their footprint scales with
/// `links × VCs × windows`); sweep binaries expose every knob as a
/// `--probe-*` flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Sampling stride of the time series in cycles (`≥ 1`).
    pub stride: u64,
    /// Maximum samples any one series stores; later sample points are dropped
    /// and counted rather than allocated.
    pub max_samples: usize,
    /// Routers emitted in the per-router time-series output (ranked by total
    /// activity at emission time; `0` disables per-router recording and its
    /// storage entirely).
    pub top_k: usize,
    /// Record the flight of roughly one in `flight_every` packets, selected by
    /// a pure hash of `(source node, generation cycle)` — deterministic and
    /// independent of engine sharding.  `0` disables the flight recorder.
    pub flight_every: u64,
    /// Capacity of the flight-event ring; once full, further events are
    /// dropped and counted.
    pub flight_capacity: usize,
    /// Cycles per heatmap aggregation window.  `0` disables the heatmaps.
    pub heatmap_window: u64,
    /// Maximum heatmap windows stored; later windows are dropped and counted.
    pub max_windows: usize,
    /// Anomaly detectors ([`DetectorConfig::off`] by default; armed detectors
    /// are evaluated over the recorded sample stream when the file set is
    /// written and gate the trigger bundle emission).
    pub detect: DetectorConfig,
    /// Emit a Chrome `trace_event` / Perfetto JSON file (detector trips on a
    /// cycle-as-microsecond timebase) next to the other probe files.
    pub trace: bool,
    /// Fold every delivered packet's delay decomposition into the per-component
    /// ledger and emit `*_delay.csv`/`*_delay.jsonl` (exact, not sampled; off
    /// by default — the stamps themselves are always captured by the engine).
    pub delay: bool,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self {
            stride: 64,
            max_samples: 4096,
            top_k: 4,
            flight_every: 64,
            flight_capacity: 1 << 16,
            heatmap_window: 0,
            max_windows: 64,
            detect: DetectorConfig::off(),
            trace: false,
            delay: false,
        }
    }
}

impl ProbeConfig {
    /// Defaults with the heatmaps enabled too (window of `window` cycles) —
    /// the configuration of the interference/transient studies.
    pub fn full(window: u64) -> Self {
        Self {
            heatmap_window: window,
            ..Self::default()
        }
    }

    /// [`Self::full`] plus the whole active layer: every detector armed at
    /// the [`DetectorConfig::armed`] defaults and trace export on — the
    /// configuration of the detectors-armed bench point and the invariance
    /// tests.
    pub fn full_active(window: u64) -> Self {
        Self {
            detect: DetectorConfig::armed(),
            trace: true,
            ..Self::full(window)
        }
    }

    /// True when the detectors are evaluated.
    #[inline]
    pub fn detect_enabled(&self) -> bool {
        self.detect.enabled()
    }

    /// True when the per-(link, VC) heatmaps are recorded.
    #[inline]
    pub fn heatmap_enabled(&self) -> bool {
        self.heatmap_window > 0
    }

    /// True when the flight recorder samples packets.
    #[inline]
    pub fn flight_enabled(&self) -> bool {
        self.flight_every > 0
    }

    /// True when the per-packet delay ledger folds deliveries.
    #[inline]
    pub fn delay_enabled(&self) -> bool {
        self.delay
    }

    /// Panics on nonsensical values (a zero stride, or armed detectors with
    /// a zero stall run length).
    pub fn validate(&self) {
        assert!(self.stride >= 1, "probe stride must be at least 1 cycle");
        assert!(
            !self.detect.enabled() || self.detect.stall_samples >= 1,
            "detector stall_samples must be at least 1 sample"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_heatmap_off() {
        let cfg = ProbeConfig::default();
        cfg.validate();
        assert!(!cfg.heatmap_enabled());
        assert!(cfg.flight_enabled());
        assert!(!cfg.detect_enabled());
        assert!(!cfg.delay_enabled(), "the delay ledger is opt-in");
        assert!(ProbeConfig::full(1024).heatmap_enabled());
        let active = ProbeConfig::full_active(1024);
        assert!(active.heatmap_enabled() && active.detect_enabled() && active.trace);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_rejected() {
        ProbeConfig {
            stride: 0,
            ..ProbeConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "stall_samples")]
    fn armed_zero_stall_rejected() {
        let mut cfg = ProbeConfig::full_active(64);
        cfg.detect.stall_samples = 0;
        cfg.validate();
    }
}
