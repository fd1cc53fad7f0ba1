//! Job lists: static workloads, and traces of jobs that arrive over time,
//! run, and depart.

use crate::runtime::{Job, Schedule};
use crate::spec::PlacementPolicy;
use crate::spec::{check_jobs, name_is_clean, Completion, JobPattern, JobSpec, PhaseSpec};
use dragonfly_rng::{derive_seed, Rng};
use dragonfly_topology::DragonflyParams;

/// A named job list, sorted by arrival cycle (stable for ties, so the list
/// order breaks placement ties deterministically).  A static workload is the
/// list whose jobs all arrive at cycle 0 and never leave
/// ([`Trace::is_static`]); an arrival trace's jobs arrive over time and leave
/// on their [`Completion`].
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Display name of the list (scenario label in sweeps and CSV rows).
    pub name: String,
    /// The jobs, sorted by arrival cycle.
    pub jobs: Vec<JobSpec>,
}

impl Trace {
    /// Build a validated job list (jobs are stably sorted by arrival cycle).
    ///
    /// # Panics
    ///
    /// Panics on what [`Trace::try_new`] rejects.
    pub fn new(name: impl Into<String>, jobs: Vec<JobSpec>) -> Self {
        match Self::try_new(name, jobs) {
            Ok(trace) => trace,
            Err(msg) => panic!("invalid trace: {msg}"),
        }
    }

    /// Build a validated job list, reporting the first problem instead of
    /// panicking: a name that is empty or holds whitespace or a comma; no
    /// jobs; a job name that is not clean or repeats; fewer than 2 nodes; a
    /// non-finite or negative load; a phase table that does not start at
    /// cycle 0 with strictly increasing start cycles; a zero completion.
    pub fn try_new(name: impl Into<String>, jobs: Vec<JobSpec>) -> Result<Self, String> {
        let mut trace = Self {
            name: name.into(),
            jobs,
        };
        trace.check()?;
        trace.jobs.sort_by_key(|j| j.arrival);
        Ok(trace)
    }

    /// What [`Trace::try_new`] checks.  The fields are public, so a list can
    /// be edited after construction; [`Trace::schedule`] checks again.
    fn check(&self) -> Result<(), String> {
        if !name_is_clean(&self.name) {
            return Err(format!("bad trace name `{}`", self.name));
        }
        check_jobs(&self.jobs)
    }

    /// The headline interference scenario: an adversarial *aggressor* job and a
    /// uniform *victim* job, each on half of the machine, interleaved over every
    /// router (round-robin placement) so they share local and global channels.
    ///
    /// The aggressor drives ADVG+`aggressor_offset` at `aggressor_load`; the victim
    /// drives job-uniform traffic at `victim_load`.  Under minimal routing the
    /// aggressor saturates one global channel per group and the victim's packets
    /// queue behind it; adaptive mechanisms (OLM, PB, PAR) divert around the hot
    /// channels and shield the victim.
    pub fn interference(
        num_nodes: usize,
        aggressor_offset: usize,
        aggressor_load: f64,
        victim_load: f64,
    ) -> Self {
        Self::interference_placed(
            num_nodes,
            aggressor_offset,
            aggressor_load,
            victim_load,
            PlacementPolicy::RoundRobinRouters,
        )
    }

    /// The interference scenario with an explicit placement policy for both jobs —
    /// the knob behind placement × aggressor-load interference sweeps.  Contiguous
    /// placement isolates the jobs into separate groups (victim traffic rarely
    /// crosses the aggressor's hot channels); round-robin placement interleaves
    /// them over every router, maximizing the shared channels.
    pub fn interference_placed(
        num_nodes: usize,
        aggressor_offset: usize,
        aggressor_load: f64,
        victim_load: f64,
        placement: PlacementPolicy,
    ) -> Self {
        let half = num_nodes / 2;
        let aggressor = JobPattern::AdversarialGlobal(aggressor_offset);
        Self::new(
            "interference",
            vec![
                JobSpec::new("aggressor", half, placement, aggressor, aggressor_load),
                JobSpec::new(
                    "victim",
                    num_nodes - half,
                    placement,
                    JobPattern::Uniform,
                    victim_load,
                ),
            ],
        )
    }

    /// The headline transient scenario: one job covering the whole machine that
    /// switches from uniform traffic to ADVG+`advg_offset` at `switch_cycle`,
    /// exposing the reaction time of adaptive routing in the per-phase breakdown.
    pub fn transient(
        num_nodes: usize,
        offered_load: f64,
        switch_cycle: u64,
        advg_offset: usize,
    ) -> Self {
        let app = JobSpec::new(
            "app",
            num_nodes,
            PlacementPolicy::Contiguous,
            JobPattern::Uniform,
            offered_load,
        );
        let advg = JobPattern::AdversarialGlobal(advg_offset);
        Self::new(
            "transient",
            vec![app.then_at(switch_cycle, advg, offered_load)],
        )
    }

    /// Parse the text format emitted by [`Trace::to_text`]:
    ///
    /// ```text
    /// # comments and blank lines are ignored
    /// trace <name>
    /// job <name> arrive=<cycle> size=<nodes> place=<cont|rr|rand#seed> \
    ///     pattern=<UN|ADVG+n|ADVL+n|A2A|RING|PERM#seed|MIXp%(ADVG+g/ADVL+l)> \
    ///     load=<phits/(node·cycle)> (duration=<cycles> | volume=<packets>)
    /// ```
    ///
    /// (each `job` stanza on one line; key order after the name is free).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut name = "trace".to_string();
        let mut jobs = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |msg: String| format!("line {}: {msg}", lineno + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("trace ") {
                name = rest.trim().to_string();
                continue;
            }
            let Some(rest) = line.strip_prefix("job ") else {
                return Err(err(format!(
                    "expected `trace`, `job` or a comment, got `{line}`"
                )));
            };
            let mut fields = rest.split_whitespace();
            let job_name = fields
                .next()
                .ok_or_else(|| err("missing job name".to_string()))?
                .to_string();
            let (mut arrive, mut size, mut place, mut pattern, mut load, mut completion) =
                (None, None, None, None, None, None);
            for field in fields {
                let (key, value) = field
                    .split_once('=')
                    .ok_or_else(|| err(format!("expected key=value, got `{field}`")))?;
                // Repeated keys never overwrite silently; duration= and volume= are
                // mutually exclusive ways to state the same completion bound.
                let taken = match key {
                    "arrive" => arrive.is_some(),
                    "size" => size.is_some(),
                    "place" => place.is_some(),
                    "pattern" => pattern.is_some(),
                    "load" => load.is_some(),
                    "duration" | "volume" => completion.is_some(),
                    _ => false,
                };
                if taken {
                    return Err(err(if matches!(key, "duration" | "volume") {
                        "conflicting completion keys (duration= and volume= are \
                         mutually exclusive)"
                            .to_string()
                    } else {
                        format!("duplicate key `{key}=`")
                    }));
                }
                match key {
                    "arrive" => {
                        arrive = Some(
                            value
                                .parse::<u64>()
                                .map_err(|e| err(format!("arrive: {e}")))?,
                        )
                    }
                    "size" => {
                        size = Some(
                            value
                                .parse::<usize>()
                                .map_err(|e| err(format!("size: {e}")))?,
                        )
                    }
                    "place" => place = Some(parse_placement(value).map_err(&err)?),
                    "pattern" => pattern = Some(JobPattern::parse(value).map_err(&err)?),
                    "load" => {
                        load = Some(
                            value
                                .parse::<f64>()
                                .map_err(|e| err(format!("load: {e}")))?,
                        )
                    }
                    "duration" => {
                        completion = Some(Completion::Duration(
                            value.parse().map_err(|e| err(format!("duration: {e}")))?,
                        ))
                    }
                    "volume" => {
                        completion = Some(Completion::Volume(
                            value.parse().map_err(|e| err(format!("volume: {e}")))?,
                        ))
                    }
                    other => return Err(err(format!("unknown key `{other}`"))),
                }
            }
            let missing = |what: &str| err(format!("job `{job_name}` is missing {what}"));
            let arrival = arrive.ok_or_else(|| missing("arrive="))?;
            let size = size.ok_or_else(|| missing("size="))?;
            let placement = place.ok_or_else(|| missing("place="))?;
            // A struct literal, not `PhaseSpec::new`: a bad load is an `Err`
            // from `try_new`, never a panic.
            let phase = PhaseSpec {
                start_cycle: 0,
                pattern: pattern.ok_or_else(|| missing("pattern="))?,
                offered_load: load.ok_or_else(|| missing("load="))?,
            };
            let completion = completion.ok_or_else(|| missing("duration= or volume="))?;
            jobs.push(JobSpec {
                name: job_name.clone(),
                arrival,
                size,
                placement,
                phases: vec![phase],
                completion: Some(completion),
            });
        }
        Self::try_new(name, jobs)
    }

    /// Emit the canonical text form ([`Trace::parse`] round-trips it).
    ///
    /// # Panics
    ///
    /// Panics, naming the job, on a job the text grammar cannot express: one
    /// with more than one phase or without a completion.
    pub fn to_text(&self) -> String {
        let mut out = format!("trace {}\n", self.name);
        for job in &self.jobs {
            let (Some(completion), [phase]) = (job.completion, job.phases.as_slice()) else {
                panic!(
                    "job `{}` has no trace-file line: it needs one phase and a completion",
                    job.name
                );
            };
            let place = match job.placement {
                PlacementPolicy::Random { seed } => format!("rand#{seed}"),
                other => other.name().to_string(),
            };
            let completion = match completion {
                Completion::Duration(cycles) => format!("duration={cycles}"),
                Completion::Volume(packets) => format!("volume={packets}"),
            };
            out.push_str(&format!(
                "job {} arrive={} size={} place={place} pattern={} load={} {completion}\n",
                job.name,
                job.arrival,
                job.size,
                phase.pattern.name(),
                phase.offered_load,
            ));
        }
        out
    }

    /// Whether every job arrives at cycle 0 and none completes: a static
    /// workload, run to steady state rather than through its lifecycle.
    pub fn is_static(&self) -> bool {
        self.jobs
            .iter()
            .all(|j| j.arrival == 0 && j.completion.is_none())
    }

    /// The display label used as the traffic name wherever this list drives a
    /// run (`TrafficKind::Jobs`, the compiled [`Schedule`], report
    /// aggregates): `WL[aggressor:ADVG+1@0.60,victim:UN@0.10]` for a static
    /// workload, `CHURN[name:Njobs]` otherwise.
    pub fn label(&self) -> String {
        if self.is_static() {
            let jobs: Vec<String> = self.jobs.iter().map(JobSpec::label).collect();
            format!("WL[{}]", jobs.join(","))
        } else {
            format!("CHURN[{}:{}jobs]", self.name, self.jobs.len())
        }
    }

    /// Compile the jobs against a topology and a packet size in phits, which
    /// turns every phase's offered load into a per-node, per-cycle packet
    /// probability exactly like [`dragonfly_traffic::BernoulliInjection`].
    /// The jobs are placed in list order as they arrive.
    ///
    /// # Panics
    ///
    /// Panics on what [`Trace::try_new`] rejects (so a list edited after
    /// construction cannot reach the runtime unchecked), and when the jobs
    /// could never all be placed: a job larger than the machine, or a static
    /// workload needing more nodes than it has.
    pub fn schedule(&self, params: &DragonflyParams, packet_size: usize) -> Schedule {
        if let Err(msg) = self.check() {
            panic!("invalid trace: {msg}");
        }
        if self.is_static() {
            let total: usize = self.jobs.iter().map(|j| j.size).sum();
            let num_nodes = params.num_nodes();
            assert!(
                total <= num_nodes,
                "workload needs {total} nodes but the machine has {num_nodes}"
            );
        }
        let jobs = self.jobs.iter().map(Job::new).collect();
        Schedule::new(self.label(), jobs, params, packet_size)
    }
}

fn parse_placement(text: &str) -> Result<PlacementPolicy, String> {
    // Case-insensitive, like `JobPattern::parse` for the adjacent pattern= key.
    match text.to_ascii_lowercase().as_str() {
        "cont" => Ok(PlacementPolicy::Contiguous),
        "rr" => Ok(PlacementPolicy::RoundRobinRouters),
        other => match other.strip_prefix("rand#") {
            Some(seed) => Ok(PlacementPolicy::Random {
                seed: seed
                    .parse()
                    .map_err(|e| format!("bad placement seed in `{text}`: {e}"))?,
            }),
            None => Err(format!(
                "unknown placement `{text}` (expected cont, rr or rand#seed)"
            )),
        },
    }
}

/// Seeded synthetic arrival process: exponential inter-arrival times and durations,
/// sizes and patterns drawn uniformly from the given menus.  The same spec always
/// builds the same trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTrace {
    /// Trace display name.
    pub name: String,
    /// Seed of every draw below.
    pub seed: u64,
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Mean cycles between consecutive arrivals (exponential).
    pub mean_interarrival: f64,
    /// Mean running duration in cycles (exponential, at least 1).
    pub mean_duration: f64,
    /// Job sizes to draw from (uniformly).
    pub sizes: Vec<usize>,
    /// Patterns to draw from (uniformly).
    pub patterns: Vec<JobPattern>,
    /// Placement policy of every job.
    pub placement: PlacementPolicy,
    /// Offered load of every job, in phits/(node·cycle).
    pub offered_load: f64,
}

impl SyntheticTrace {
    /// Build the trace (deterministic for a fixed spec).
    pub fn build(&self) -> Trace {
        assert!(self.jobs > 0, "a synthetic trace needs at least one job");
        assert!(!self.sizes.is_empty(), "no job sizes to draw from");
        assert!(!self.patterns.is_empty(), "no job patterns to draw from");
        let mut rng = Rng::seed_from(derive_seed(self.seed, 0xD15C));
        let mut arrival = 0u64;
        let jobs = (0..self.jobs)
            .map(|i| {
                arrival += exponential(&mut rng, self.mean_interarrival);
                let size = *rng.choose(&self.sizes);
                let pattern = *rng.choose(&self.patterns);
                let duration = exponential(&mut rng, self.mean_duration);
                let job = JobSpec::new(
                    format!("j{i:03}"),
                    size,
                    self.placement,
                    pattern,
                    self.offered_load,
                );
                job.arrive_at(arrival)
                    .complete_on(Completion::Duration(duration))
            })
            .collect();
        Trace::new(self.name.clone(), jobs)
    }
}

/// An exponential draw with the given mean, rounded up to at least one cycle.
fn exponential(rng: &mut Rng, mean: f64) -> u64 {
    let u = rng.next_f64();
    (-(1.0 - u).ln() * mean).ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_topology::DragonflyParams;

    fn sample_trace() -> Trace {
        Trace::new(
            "sample",
            vec![
                JobSpec::new(
                    "late",
                    8,
                    PlacementPolicy::Random { seed: 3 },
                    JobPattern::Permutation { seed: 7 },
                    0.25,
                )
                .arrive_at(500)
                .complete_on(Completion::Volume(2_000)),
                JobSpec::new(
                    "early",
                    16,
                    PlacementPolicy::Contiguous,
                    JobPattern::AdversarialGlobal(1),
                    0.4,
                )
                .complete_on(Completion::Duration(3_000)),
            ],
        )
    }

    #[test]
    fn trace_sorts_by_arrival_and_round_trips_through_text() {
        let trace = sample_trace();
        assert_eq!(trace.jobs[0].name, "early");
        let text = trace.to_text();
        assert!(text.starts_with("trace sample\n"));
        assert!(text.contains("place=rand#3"));
        assert!(text.contains("pattern=PERM#7"));
        assert!(text.contains("volume=2000"));
        let parsed = Trace::parse(&text).expect("canonical text must parse");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn parse_tolerates_comments_and_key_order() {
        let text = "# a comment\n\n\
                    trace t\n\
                    job a size=4 arrive=10 load=0.1 pattern=ring place=RR duration=100\n";
        let trace = Trace::parse(text).unwrap();
        assert_eq!(trace.name, "t");
        assert_eq!(trace.jobs.len(), 1);
        // Both pattern= and place= are case-insensitive.
        assert_eq!(trace.jobs[0].phases[0].pattern, JobPattern::RingExchange);
        assert_eq!(trace.jobs[0].placement, PlacementPolicy::RoundRobinRouters);
        assert_eq!(trace.jobs[0].completion, Some(Completion::Duration(100)));
    }

    #[test]
    fn parse_reports_line_numbers_for_errors() {
        let bad = "trace t\njob a arrive=0 size=4 place=cont pattern=UN load=0.1\n";
        let err = Trace::parse(bad).unwrap_err();
        assert!(err.contains("missing duration= or volume="), "{err}");
        let bad = "wat\n";
        assert!(Trace::parse(bad).unwrap_err().contains("line 1"));
        let bad = "job a arrive=0 size=4 place=weird pattern=UN load=0.1 duration=1\n";
        assert!(Trace::parse(bad).unwrap_err().contains("unknown placement"));
    }

    #[test]
    fn parse_rejects_duplicate_and_conflicting_keys() {
        let dup = "job a arrive=0 arrive=5 size=4 place=cont pattern=UN load=0.1 duration=1\n";
        let err = Trace::parse(dup).unwrap_err();
        assert!(err.contains("duplicate key `arrive=`"), "{err}");
        let both =
            "job a arrive=0 size=4 place=cont pattern=UN load=0.1 duration=5000 volume=100\n";
        let err = Trace::parse(both).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn validation_rejects_degenerate_jobs() {
        let job = |name: &str| {
            JobSpec::new(
                name,
                4,
                PlacementPolicy::Contiguous,
                JobPattern::Uniform,
                0.1,
            )
            .complete_on(Completion::Duration(10))
        };
        assert!(Trace::try_new("t", vec![]).is_err());
        let mut tiny = job("tiny");
        tiny.size = 1;
        assert!(Trace::try_new("t", vec![tiny])
            .unwrap_err()
            .contains("at least 2"));
        let mut dead = job("dead");
        dead.completion = Some(Completion::Duration(0));
        assert!(Trace::try_new("t", vec![dead])
            .unwrap_err()
            .contains("zero duration"));
        assert!(Trace::try_new("t", vec![job("dup"), job("dup")])
            .unwrap_err()
            .contains("duplicate"));
        let mut inf = job("inf");
        inf.phases[0].offered_load = f64::INFINITY;
        assert!(Trace::try_new("t", vec![inf])
            .unwrap_err()
            .contains("bad load"));
        // Names become raw CSV cells: commas would shift every column after them.
        assert!(Trace::try_new("t", vec![job("a,b")])
            .unwrap_err()
            .contains("bad job name"));
        assert!(Trace::try_new("t,x", vec![job("ok")])
            .unwrap_err()
            .contains("bad trace name"));
    }

    #[test]
    fn nominal_load_weighs_sizes() {
        let trace = sample_trace();
        let want = (0.25 * 8.0 + 0.4 * 16.0) / 72.0;
        let schedule = trace.schedule(&DragonflyParams::new(2), 8);
        assert!((schedule.nominal_offered_load(72) - want).abs() < 1e-12);
        assert_eq!(trace.jobs.last().map(|j| j.arrival), Some(500));
    }

    #[test]
    fn synthetic_traces_are_deterministic_and_seed_sensitive() {
        let spec = SyntheticTrace {
            name: "syn".into(),
            seed: 9,
            jobs: 20,
            mean_interarrival: 400.0,
            mean_duration: 2_000.0,
            sizes: vec![4, 8, 16],
            patterns: vec![JobPattern::Uniform, JobPattern::RingExchange],
            placement: PlacementPolicy::Contiguous,
            offered_load: 0.15,
        };
        let one = spec.build();
        assert_eq!(one, spec.build());
        assert_eq!(one.jobs.len(), 20);
        assert!(one.jobs.iter().all(|j| [4, 8, 16].contains(&j.size)));
        assert!(one.jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(one.jobs.last().unwrap().arrival > 0);
        let other = SyntheticTrace { seed: 10, ..spec };
        assert_ne!(one, other.build());
        // The synthetic trace survives the text round-trip too.
        assert_eq!(Trace::parse(&one.to_text()).unwrap(), one);
    }

    /// A valid two-phase static workload whose phase table the tests then
    /// break, the way a caller can through the public fields.
    fn two_phase() -> Trace {
        let job = JobSpec::new(
            "a",
            8,
            PlacementPolicy::Contiguous,
            JobPattern::Uniform,
            0.1,
        )
        .then_at(50, JobPattern::AdversarialGlobal(1), 0.1);
        Trace::new("wl", vec![job])
    }

    #[test]
    #[should_panic(expected = "first phase must start at cycle 0")]
    fn rejects_late_first_phase() {
        let mut spec = two_phase();
        spec.jobs[0].phases[0].start_cycle = 5;
        spec.schedule(&DragonflyParams::new(2), 8);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_phases() {
        let mut spec = two_phase();
        let repeat = PhaseSpec::new(50, JobPattern::Uniform, 0.1);
        spec.jobs[0].phases.push(repeat);
        spec.schedule(&DragonflyParams::new(2), 8);
    }

    #[test]
    fn static_lists_label_as_workloads_and_have_no_text_form() {
        let static_list = two_phase();
        assert!(static_list.is_static());
        assert_eq!(static_list.label(), "WL[a:UN@0.10→ADVG+1@0.10]");
        let trace = sample_trace();
        assert!(!trace.is_static());
        assert_eq!(trace.label(), "CHURN[sample:2jobs]");
        let text = std::panic::catch_unwind(|| static_list.to_text());
        let msg = *text.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.starts_with("job `a` has no trace-file line"), "{msg}");
    }
}
