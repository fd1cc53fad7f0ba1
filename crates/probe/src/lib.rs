//! Read-only observability probes for the Dragonfly simulator.
//!
//! A [`ProbeRecorder`] is installed into an engine (sequential or sharded) and
//! passively records what the cycle loop already computes — it never consumes
//! RNG state, never feeds back into routing or flow control, and therefore
//! never perturbs a run: reports with probes on are byte-identical to reports
//! with probes off (pinned by `tests/probe_invariance.rs`).
//!
//! Five instruments share one [`ProbeConfig`]:
//!
//! * **time series** — network-wide counters (injected / delivered packets,
//!   misroute decisions, buffered phits, per-class link phits, Piggybacking
//!   congested-flag count) sampled every `stride` cycles into preallocated
//!   [`dragonfly_stats::TimeSeries`] buffers, plus per-router counters for a
//!   top-K cut,
//! * **flight recorder** — a deterministic ~1/N sample of packets (pure hash
//!   of `(source, generation cycle)`, *not* RNG) whose per-hop events land in
//!   a fixed-capacity ring,
//! * **heatmaps** — windowed per-(link, VC) phit counts, credit-stall counts
//!   and occupancy samples,
//! * **diagnostics** — engine-dependent memory counters (packet-arena growth,
//!   ring high-water marks) that are deliberately *excluded* from the
//!   byte-identity guarantee (a sharded engine drains its boundary rings every
//!   cycle, so its high-water marks legitimately differ from the sequential
//!   engine's),
//! * **delay attribution** ([`DelayLedger`]) — an exact (not sampled)
//!   per-packet latency decomposition: the engine stamps component boundaries
//!   on every packet, and on delivery the completed split (injection queue /
//!   VC wait / credit wait / link transit / detour / serialization) folds into
//!   per-component histograms whose integer sum equals the end-to-end latency
//!   for every packet (the conservation invariant).
//!
//! # Determinism
//!
//! Every counter is attributed to exactly one router/link owner, so the
//! per-shard recorders of a sharded run merge by plain element-wise addition
//! ([`ProbeRecorder::merge`]) — commutative and associative like
//! `ExactStats`, hence shard-count-invariant.  The two bounded buffers keep
//! sets defined by the whole run — the flight ring whole cycles, the delay
//! ledger's scope table the smallest keys — and their merge applies the same
//! bound to the union, so even an overflowing run merges to the sequential
//! recorder's contents.  Flight events are sorted into a canonical total
//! order at emission time, so the emitted files (except the diagnostics
//! series) are byte-identical between sequential and sharded runs of the same
//! spec (pinned by `tests/shard_equivalence.rs`).
//!
//! # Zero allocation
//!
//! All probe storage is sized and reserved at installation time; the hot-path
//! record methods only index into it.  Overflow (more samples, events or
//! windows than configured) *drops and counts* instead of growing, which
//! keeps `tests/zero_alloc.rs` green with probes enabled.
//!
//! # The active layer
//!
//! On top of the passive instruments sits an *active diagnostics layer* that
//! preserves all three invariants above:
//!
//! * **detectors** ([`detect()`]) — four anomaly verdicts (throughput
//!   collapse, credit stall, misroute storm, fairness skew) computed once,
//!   when the file set is written, as one function of the recorded series.
//!   Merged series are byte-identical to sequential ones, so the verdicts
//!   are too, and the cycle loop never steps a detector,
//! * **triggered black-box capture** — when a detector trips, `write_all`
//!   slices the already-recorded series/flight/heatmap data into a bounded
//!   diagnostic bundle around the first trip (`*_trigger*` files),
//! * **trace + manifest export** — detector trips as Chrome
//!   `trace_event`/Perfetto JSON ([`TraceBuilder`]), and a self-describing
//!   [`RunManifest`] JSON naming the run and its emitted files.

#![warn(missing_docs)]

mod config;
mod delay;
mod detect;
mod emit;
mod flight;
mod manifest;
mod recorder;
mod trace;
mod trigger;

pub use config::ProbeConfig;
pub use delay::{
    ClassLedger, DelayLedger, DelayRow, DelaySample, DELAY_COMPONENTS, DELAY_COMPONENT_NAMES,
    DELAY_UNTAGGED,
};
pub use detect::{
    detect, detector_name, DetectorConfig, DetectorSample, TripRecord, DETECT_COLLAPSE,
    DETECT_SKEW, DETECT_STALL, DETECT_STORM, NO_ROUTER,
};
pub use flight::{flight_hash, FlightEvent, FLIGHT_DELIVER, FLIGHT_HOP, FLIGHT_INJECT, NONE_U16};
pub use manifest::{RunManifest, MANIFEST_SCHEMA_VERSION};
pub use recorder::{
    ProbeDims, ProbeRecorder, SampleSnapshot, CLASS_GLOBAL, CLASS_LOCAL, CLASS_TERMINAL,
};
pub use trace::TraceBuilder;
pub use trigger::write_trigger_jsonl;
