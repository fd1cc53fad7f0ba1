//! Multi-job workloads for the Dragonfly simulator.
//!
//! The paper evaluates its routing mechanisms under single, static synthetic
//! patterns.  Real systems run several *jobs* at once, each placed on a subset of
//! the nodes, going through *phases* of different communication behaviour, and
//! arriving and departing over time — the regime where adaptive routing matters
//! most (workload interference, transient adaptation, churn).  This crate models
//! it:
//!
//! * a [`WorkloadSpec`] is a static list of [`JobSpec`]s, each switching its
//!   [`JobPattern`] and load at [`PhaseSpec`] boundaries; a [`Trace`] is a list
//!   of [`TraceJob`] arrivals (text format or [`SyntheticTrace`]) that leave on
//!   a [`Completion`],
//! * a [`PlacementPolicy`] allocates every job from the current free set of a
//!   [`FreePool`]; job-scoped patterns keep a job's traffic on its own nodes,
//! * both spec types are a [`JobList`] compiling into one runtime, a
//!   [`Schedule`], that the simulation engine drives every cycle.
//!
//! Headline scenarios: [`WorkloadSpec::interference`],
//! [`WorkloadSpec::transient`] and [`scenarios::fragmentation_trace`].

#![warn(missing_docs)]

mod job_patterns;
mod placement;
mod runtime;
pub mod scenarios;
mod spec;
mod trace;
mod workload_adapter;

pub use placement::FreePool;
pub use runtime::{Job, JobLifetime, Schedule};
pub use spec::{JobPattern, JobSpec, PhaseSpec, PlacementPolicy, WorkloadSpec};
pub use trace::{Completion, SyntheticTrace, Trace, TraceJob};
pub use workload_adapter::JobList;
