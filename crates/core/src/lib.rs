//! High-level experiment API for the Dragonfly routing reproduction.
//!
//! This crate glues the topology, simulator, routing mechanisms and traffic patterns
//! into the experiment protocols of the paper:
//!
//! * [`ExperimentSpec`] / [`ExperimentBuilder`] — one run: a [`Protocol`]
//!   ([`Steady`], [`Jobs`], [`Batch`]) under [`RunOptions`] (shards, probes),
//! * [`sweep`] — the load, threshold, traffic-mix and workload-interference sweeps
//!   behind each figure,
//! * [`runner`] — [`SweepRunner`], the orchestration layer every figure/workload
//!   binary routes its sweep through: worker pool, deterministic ordering,
//!   progress/ETA reporting and a sequential escape hatch,
//! * [`csv`] — small CSV emission helpers used by the figure binaries.
//!
//! ```
//! use dragonfly_core::{ExperimentBuilder, RoutingKind, TrafficKind};
//!
//! let report = ExperimentBuilder::new(2)
//!     .routing(RoutingKind::Rlm)
//!     .traffic(TrafficKind::AdversarialGlobal(1))
//!     .offered_load(0.3)
//!     .warmup_cycles(1_000)
//!     .measure_cycles(2_000)
//!     .run();
//! assert!(report.accepted_load > 0.0);
//! ```

#![warn(missing_docs)]

pub mod csv;
pub mod experiment;
mod parallel;
pub mod runner;
pub mod sweep;

pub use csv::CsvWriter;
pub use experiment::{
    Batch, ExperimentBuilder, ExperimentSpec, FlowControlKind, Jobs, Protocol, RunOptions, Steady,
    TrafficKind,
};
pub use runner::{effective_jobs, SweepRunner};
pub use sweep::{
    churn_sweep, interference_sweep, load_sweep, mix_sweep, threshold_sweep, ChurnSweep,
    InterferenceSweep, LoadSweep, MixSweep, ThresholdSweep,
};

pub use dragonfly_probe::{
    detector_name, DelayLedger, DelaySample, DetectorConfig, ProbeConfig, ProbeRecorder,
    RunManifest, TraceBuilder, TripRecord, DELAY_COMPONENT_NAMES,
};
pub use dragonfly_routing::{AdaptiveParams, RoutingKind};
pub use dragonfly_shard::{ShardPlan, ShardedSimulation};
pub use dragonfly_stats::{
    BatchReport, JobLifecycleReport, JobReport, PhaseReport, SimReport, WorkloadReport,
};
pub use dragonfly_workload::{
    Completion, JobPattern, JobSpec, PhaseSpec, PlacementPolicy, SyntheticTrace, Trace, TraceJob,
    WorkloadSpec,
};
