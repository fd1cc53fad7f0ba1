//! High-level experiment API for the Dragonfly routing reproduction.
//!
//! This crate glues the topology, simulator, routing mechanisms and traffic patterns
//! into the experiment protocols of the paper:
//!
//! * [`ExperimentSpec`] — one run: a [`Protocol`]
//!   ([`Steady`], [`Jobs`], [`Batch`]) under [`RunOptions`] (shards, probes),
//! * [`sweep`] — the load, threshold, traffic-mix and job-list sweeps behind
//!   each figure and study,
//! * [`runner`] — [`SweepRunner`], the orchestration layer every figure and
//!   workload row routes its sweep through: worker pool, deterministic ordering
//!   and progress/ETA reporting,
//! * [`csv`] — small CSV emission helpers used by the harness binaries.
//!
//! ```
//! use dragonfly_core::{ExperimentSpec, RoutingKind, TrafficKind};
//!
//! let mut spec = ExperimentSpec::new(2);
//! spec.routing = RoutingKind::Rlm;
//! spec.traffic = TrafficKind::AdversarialGlobal(1);
//! spec.offered_load = 0.3;
//! spec.warmup = 1_000;
//! spec.measure = 2_000;
//! spec.drain = 2_000;
//! let report = spec.run();
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
    Batch, ExperimentSpec, FlowControlKind, Jobs, Protocol, RunOptions, Steady, TrafficKind,
};
pub use runner::{effective_jobs, SweepRunner};
pub use sweep::{
    job_sweep, load_sweep, mix_sweep, threshold_sweep, JobSweep, LoadSweep, MixSweep,
    ThresholdSweep,
};

pub use dragonfly_probe::{
    detector_name, DelayLedger, DelaySample, DetectorConfig, ProbeConfig, ProbeRecorder,
    RunManifest, TripRecord, DELAY_COMPONENT_NAMES,
};
pub use dragonfly_routing::{AdaptiveParams, RoutingKind};
pub use dragonfly_shard::{ShardPlan, ShardedSimulation};
pub use dragonfly_stats::{
    BatchReport, JobLifecycleReport, JobReport, PhaseReport, SimReport, WorkloadReport,
};
pub use dragonfly_workload::{
    Completion, JobPattern, JobSpec, PhaseSpec, PlacementPolicy, SyntheticTrace, Trace,
};
