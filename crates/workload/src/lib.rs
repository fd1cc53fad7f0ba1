//! Multi-job workloads for the Dragonfly simulator.
//!
//! The paper evaluates its routing mechanisms under single, static synthetic
//! patterns.  Real systems run several *jobs* at once, each placed on a subset of
//! the nodes, going through *phases* of different communication behaviour, and
//! arriving and departing over time — the regime where adaptive routing matters
//! most (workload interference, transient adaptation, churn).  This crate models
//! it:
//!
//! * a [`JobSpec`] is one job: it arrives at a cycle, switches its
//!   [`JobPattern`] and load at [`PhaseSpec`] boundaries, and leaves on a
//!   [`Completion`] (or never),
//! * a [`Trace`] is a named list of jobs (text format or [`SyntheticTrace`]);
//!   a static workload is the list whose jobs all arrive at cycle 0 and never
//!   leave ([`Trace::is_static`]),
//! * a [`PlacementPolicy`] allocates every job from the current free set of a
//!   [`FreePool`]; job-scoped patterns keep a job's traffic on its own nodes,
//! * [`Trace::schedule`] compiles a list into the one runtime, a
//!   [`Schedule`], that the simulation engine drives every cycle.
//!
//! Headline scenarios: [`Trace::interference`], [`Trace::transient`] and
//! [`scenarios::fragmentation_trace`].

#![warn(missing_docs)]

mod job_patterns;
mod placement;
mod runtime;
pub mod scenarios;
mod spec;
mod trace;

pub use placement::FreePool;
pub use runtime::{Job, JobLifetime, Schedule};
pub use spec::{Completion, JobPattern, JobSpec, PhaseSpec, PlacementPolicy};
pub use trace::{SyntheticTrace, Trace};
