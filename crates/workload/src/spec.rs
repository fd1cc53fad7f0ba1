//! Job specifications: jobs, placements, phases, completions and job-scoped
//! patterns, and the checks every job list of a [`crate::Trace`] passes.

use std::collections::HashSet;

/// How a job's nodes are chosen from the machine's free nodes.
///
/// Jobs are placed in specification order; every policy draws only from nodes not
/// taken by earlier jobs, so the per-job node sets are disjoint by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Lowest-indexed free nodes first: fills routers, then groups, contiguously —
    /// the classic "contiguous groups" allocation of batch schedulers.
    Contiguous,
    /// One free node per router per sweep, cycling over all routers — spreads the
    /// job across every router (and therefore every group) of the machine.
    RoundRobinRouters,
    /// A seeded random subset of the free nodes (deterministic for a fixed seed).
    Random {
        /// Seed of the placement shuffle.
        seed: u64,
    },
}

impl PlacementPolicy {
    /// Short display name used in workload labels.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::Contiguous => "cont",
            PlacementPolicy::RoundRobinRouters => "rr",
            PlacementPolicy::Random { .. } => "rand",
        }
    }
}

/// The communication pattern of one job phase, scoped to the job's own nodes.
///
/// The adversarial variants mirror the paper's patterns but restricted to the job:
/// a packet targets the job's nodes in the group (router) at the configured offset
/// from the source's group (router); if the job has no nodes there, the packet falls
/// back to a uniform draw over the job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobPattern {
    /// Uniform over the job's nodes (excluding the source).
    Uniform,
    /// Adversarial-global with the given group offset, restricted to the job.
    AdversarialGlobal(usize),
    /// Adversarial-local with the given router offset, restricted to the job.
    AdversarialLocal(usize),
    /// Per-packet Bernoulli mix of a job-scoped ADVG and ADVL component.
    Mixed {
        /// Fraction of packets following the adversarial-global component.
        global_fraction: f64,
        /// Group offset of the global component.
        global_offset: usize,
        /// Router offset of the local component.
        local_offset: usize,
    },
    /// Staged all-to-all collective: every node walks round-robin through all of
    /// its job peers, so over any window of `size - 1` packets each peer is hit
    /// exactly once (the personalized-exchange schedule of MPI_Alltoall).
    AllToAll,
    /// Ring / nearest-neighbour exchange: each packet goes to the previous or the
    /// next node in the job's rank order (halo exchanges, stencil codes).
    RingExchange,
    /// A seeded fixed-point-free permutation of the job's nodes: every node sends
    /// all of its traffic to one fixed peer (static transpose-style collectives).
    Permutation {
        /// Seed of the permutation shuffle.
        seed: u64,
    },
}

impl JobPattern {
    /// Display name matching the paper's labels.
    pub fn name(self) -> String {
        match self {
            JobPattern::Uniform => "UN".to_string(),
            JobPattern::AdversarialGlobal(n) => format!("ADVG+{n}"),
            JobPattern::AdversarialLocal(n) => format!("ADVL+{n}"),
            JobPattern::Mixed {
                global_fraction,
                global_offset,
                local_offset,
            } => format!(
                "MIX{}%(ADVG+{global_offset}/ADVL+{local_offset})",
                (global_fraction * 100.0).round() as u32
            ),
            JobPattern::AllToAll => "A2A".to_string(),
            JobPattern::RingExchange => "RING".to_string(),
            JobPattern::Permutation { seed } => format!("PERM#{seed}"),
        }
    }

    /// Parse a pattern from its [`JobPattern::name`] form (used by the scheduler's
    /// trace files): `UN`, `ADVG+n`, `ADVL+n`, `A2A`, `RING`, `PERM#seed` and
    /// `MIXp%(ADVG+g/ADVL+l)`.  Case-insensitive; `parse(x.name())` round-trips for
    /// every pattern whose mix fraction is a whole percentage.
    pub fn parse(text: &str) -> Result<Self, String> {
        let t = text.trim().to_ascii_uppercase();
        let offset = |s: &str, what: &str| {
            s.parse::<usize>()
                .map_err(|e| format!("bad {what} offset in `{text}`: {e}"))
        };
        if t == "UN" {
            Ok(JobPattern::Uniform)
        } else if t == "A2A" {
            Ok(JobPattern::AllToAll)
        } else if t == "RING" {
            Ok(JobPattern::RingExchange)
        } else if let Some(n) = t.strip_prefix("ADVG+") {
            Ok(JobPattern::AdversarialGlobal(offset(n, "group")?))
        } else if let Some(n) = t.strip_prefix("ADVL+") {
            Ok(JobPattern::AdversarialLocal(offset(n, "router")?))
        } else if let Some(s) = t.strip_prefix("PERM#") {
            Ok(JobPattern::Permutation {
                seed: s
                    .parse()
                    .map_err(|e| format!("bad permutation seed in `{text}`: {e}"))?,
            })
        } else if let Some(rest) = t.strip_prefix("MIX") {
            // MIXp%(ADVG+g/ADVL+l)
            let (pct, rest) = rest
                .split_once("%(")
                .ok_or_else(|| format!("bad mix pattern `{text}` (expected MIXp%(...))"))?;
            let pct: f64 = pct
                .parse()
                .map_err(|e| format!("bad mix percentage in `{text}`: {e}"))?;
            if !(0.0..=100.0).contains(&pct) {
                return Err(format!(
                    "mix percentage in `{text}` must be between 0 and 100"
                ));
            }
            let body = rest
                .strip_suffix(')')
                .ok_or_else(|| format!("bad mix pattern `{text}` (missing `)`)"))?;
            let (g, l) = body
                .split_once('/')
                .ok_or_else(|| format!("bad mix pattern `{text}` (expected ADVG+g/ADVL+l)"))?;
            let g = g
                .strip_prefix("ADVG+")
                .ok_or_else(|| format!("bad mix global component in `{text}`"))?;
            let l = l
                .strip_prefix("ADVL+")
                .ok_or_else(|| format!("bad mix local component in `{text}`"))?;
            Ok(JobPattern::Mixed {
                global_fraction: pct / 100.0,
                global_offset: offset(g, "group")?,
                local_offset: offset(l, "router")?,
            })
        } else {
            Err(format!("unknown job pattern `{text}`"))
        }
    }
}

/// One phase of a job: a pattern and an offered load, active from `start_cycle`
/// (an absolute simulation cycle) until the next phase starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    /// Absolute cycle at which the phase becomes active (the first phase must use 0).
    pub start_cycle: u64,
    /// Traffic pattern of the phase.
    pub pattern: JobPattern,
    /// Offered load of the phase in phits/(node·cycle).
    pub offered_load: f64,
}

impl PhaseSpec {
    /// A phase starting at `start_cycle`.
    pub fn new(start_cycle: u64, pattern: JobPattern, offered_load: f64) -> Self {
        assert!(offered_load >= 0.0, "offered load must be non-negative");
        Self {
            start_cycle,
            pattern,
            offered_load,
        }
    }
}

/// When a running job is finished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Completion {
    /// The job runs for this many cycles after being placed.
    Duration(u64),
    /// The job runs until this many of its packets have been delivered.
    Volume(u64),
}

/// One job: a name, an arrival cycle, a node count, a placement policy, a
/// phase schedule and a completion condition.  A static workload's job
/// arrives at cycle 0 and never completes, as [`JobSpec::new`] builds it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Display name (unique within its [`crate::Trace`]; used in per-job reports).
    pub name: String,
    /// Absolute cycle at which the job arrives (enters the wait queue).
    pub arrival: u64,
    /// Number of nodes the job occupies (at least 2, so it can communicate).
    pub size: usize,
    /// How the job's nodes are chosen from the free set at placement time.
    pub placement: PlacementPolicy,
    /// Phase schedule: non-empty, strictly increasing start cycles, first at 0.
    pub phases: Vec<PhaseSpec>,
    /// When the job leaves; `None` = it never does.
    pub completion: Option<Completion>,
}

impl JobSpec {
    /// A single-phase job that arrives at cycle 0 and never completes.
    pub fn new(
        name: impl Into<String>,
        size: usize,
        placement: PlacementPolicy,
        pattern: JobPattern,
        offered_load: f64,
    ) -> Self {
        Self {
            name: name.into(),
            arrival: 0,
            size,
            placement,
            phases: vec![PhaseSpec::new(0, pattern, offered_load)],
            completion: None,
        }
    }

    /// Append a phase switching to `pattern`/`offered_load` at `start_cycle`.
    pub fn then_at(mut self, start_cycle: u64, pattern: JobPattern, offered_load: f64) -> Self {
        self.phases
            .push(PhaseSpec::new(start_cycle, pattern, offered_load));
        self
    }

    /// The same job, arriving at `cycle`.
    pub fn arrive_at(mut self, cycle: u64) -> Self {
        self.arrival = cycle;
        self
    }

    /// The same job, leaving on `completion`.
    pub fn complete_on(mut self, completion: Completion) -> Self {
        self.completion = Some(completion);
        self
    }

    /// Compact label: `name:PH0→PH1…` with per-phase loads.
    pub(crate) fn label(&self) -> String {
        let phases = self
            .phases
            .iter()
            .map(|p| format!("{}@{:.2}", p.pattern.name(), p.offered_load))
            .collect::<Vec<_>>()
            .join("→");
        format!("{}:{}", self.name, phases)
    }
}

/// Every check a job list passes, reporting the first failure: at least one
/// job and few enough for the `u16` packet tag; names usable as raw CSV cells
/// and trace-file tokens, and unique; at least 2 nodes (so a job can
/// communicate); finite, non-negative loads; a phase table that starts at
/// cycle 0 with strictly increasing start cycles; a non-zero completion.
pub(crate) fn check_jobs(jobs: &[JobSpec]) -> Result<(), String> {
    if jobs.is_empty() {
        return Err("a job list needs at least one job".to_string());
    }
    if jobs.len() >= u16::MAX as usize {
        return Err("too many jobs for the u16 job tag".to_string());
    }
    let mut names = HashSet::new();
    for job in jobs {
        let name = job.name.as_str();
        if !name_is_clean(name) {
            return Err(format!("bad job name `{name}`"));
        }
        if !names.insert(name) {
            return Err(format!("duplicate job name `{name}`"));
        }
        if job.size < 2 {
            return Err(format!("job `{name}` needs at least 2 nodes"));
        }
        let bad_load = |p: &PhaseSpec| !p.offered_load.is_finite() || p.offered_load < 0.0;
        if job.phases.iter().any(bad_load) {
            return Err(format!("job `{name}` has a bad load"));
        }
        match job.phases.first() {
            None => return Err(format!("job `{name}` needs at least one phase")),
            Some(first) if first.start_cycle != 0 => {
                return Err(format!(
                    "job `{name}`: the first phase must start at cycle 0"
                ))
            }
            _ => {}
        }
        if job
            .phases
            .windows(2)
            .any(|w| w[0].start_cycle >= w[1].start_cycle)
        {
            return Err(format!(
                "job `{name}`: phase start cycles must be strictly increasing"
            ));
        }
        match job.completion {
            Some(Completion::Duration(0)) => return Err(format!("job `{name}` has zero duration")),
            Some(Completion::Volume(0)) => return Err(format!("job `{name}` has zero volume")),
            _ => {}
        }
    }
    Ok(())
}

/// Job and trace names end up as whitespace-delimited trace-file tokens and raw
/// CSV cells, so they must be non-empty and free of whitespace and commas.
pub(crate) fn name_is_clean(name: &str) -> bool {
    !name.is_empty() && !name.contains(|c: char| c.is_whitespace() || c == ',')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    #[test]
    fn job_pattern_names() {
        assert_eq!(JobPattern::Uniform.name(), "UN");
        assert_eq!(JobPattern::AdversarialGlobal(3).name(), "ADVG+3");
        assert_eq!(JobPattern::AdversarialLocal(1).name(), "ADVL+1");
        let mix = JobPattern::Mixed {
            global_fraction: 0.4,
            global_offset: 2,
            local_offset: 1,
        };
        assert_eq!(mix.name(), "MIX40%(ADVG+2/ADVL+1)");
        assert_eq!(JobPattern::AllToAll.name(), "A2A");
        assert_eq!(JobPattern::RingExchange.name(), "RING");
        assert_eq!(JobPattern::Permutation { seed: 9 }.name(), "PERM#9");
    }

    #[test]
    fn job_pattern_parse_round_trips() {
        let patterns = [
            JobPattern::Uniform,
            JobPattern::AdversarialGlobal(3),
            JobPattern::AdversarialLocal(1),
            JobPattern::AllToAll,
            JobPattern::RingExchange,
            JobPattern::Permutation { seed: 42 },
            JobPattern::Mixed {
                global_fraction: 0.4,
                global_offset: 2,
                local_offset: 1,
            },
        ];
        for p in patterns {
            assert_eq!(JobPattern::parse(&p.name()), Ok(p), "{}", p.name());
        }
        // Case-insensitive and whitespace-tolerant.
        assert_eq!(
            JobPattern::parse(" advg+2 "),
            Ok(JobPattern::AdversarialGlobal(2))
        );
        assert!(JobPattern::parse("nope").is_err());
        assert!(JobPattern::parse("ADVG+x").is_err());
        assert!(JobPattern::parse("MIX40%(ADVG+2)").is_err());
        // Out-of-range mix percentages must error rather than silently clamp.
        assert!(JobPattern::parse("MIX250%(ADVG+1/ADVL+1)")
            .unwrap_err()
            .contains("between 0 and 100"));
        assert!(JobPattern::parse("MIX-5%(ADVG+1/ADVL+1)").is_err());
    }

    #[test]
    fn workload_label_mentions_jobs_and_phases() {
        let spec = Trace::transient(72, 0.15, 10_000, 2);
        let label = spec.label();
        assert!(label.starts_with("WL[app:UN@0.15"), "{label}");
        assert!(label.contains("ADVG+2@0.15"), "{label}");
    }

    #[test]
    fn interference_splits_the_machine() {
        let spec = Trace::interference(72, 1, 0.6, 0.1);
        assert_eq!(spec.jobs.len(), 2);
        assert_eq!(spec.jobs[0].size + spec.jobs[1].size, 72);
        assert_eq!(spec.jobs[0].phases.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn tiny_job_rejected() {
        Trace::new(
            "wl",
            vec![JobSpec::new(
                "solo",
                1,
                PlacementPolicy::Contiguous,
                JobPattern::Uniform,
                0.1,
            )],
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_phases_rejected() {
        Trace::new(
            "wl",
            vec![JobSpec::new(
                "bad",
                4,
                PlacementPolicy::Contiguous,
                JobPattern::Uniform,
                0.1,
            )
            .then_at(100, JobPattern::Uniform, 0.2)
            .then_at(100, JobPattern::Uniform, 0.3)],
        );
    }

    #[test]
    #[should_panic(expected = "start at cycle 0")]
    fn late_first_phase_rejected() {
        Trace::new(
            "wl",
            vec![JobSpec {
                phases: vec![PhaseSpec::new(10, JobPattern::Uniform, 0.1)],
                ..JobSpec::new(
                    "bad",
                    4,
                    PlacementPolicy::Contiguous,
                    JobPattern::Uniform,
                    0.1,
                )
            }],
        );
    }

    fn job(name: &str, load: f64) -> JobSpec {
        JobSpec::new(
            name,
            4,
            PlacementPolicy::Contiguous,
            JobPattern::Uniform,
            load,
        )
    }

    // A static job list rejects what an arrival list rejects (`trace::tests`):
    // names are raw CSV cells, `WorkloadReport::job` looks jobs up by name,
    // and an infinite load would become a generation probability of 1.

    #[test]
    #[should_panic(expected = "bad job name `a,b`")]
    fn csv_unsafe_job_name_rejected() {
        Trace::new("wl", vec![job("a,b", 0.1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate job name `x`")]
    fn duplicate_job_names_rejected() {
        Trace::new("wl", vec![job("x", 0.1), job("x", 0.2)]);
    }

    #[test]
    #[should_panic(expected = "job `inf` has a bad load")]
    fn non_finite_load_rejected() {
        Trace::new("wl", vec![job("inf", f64::INFINITY)]);
    }
}
