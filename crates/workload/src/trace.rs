//! Job-arrival traces: jobs that arrive over time, run, and depart.

use crate::spec::{check_jobs, name_is_clean, JobPattern, PlacementPolicy};
use dragonfly_rng::{derive_seed, Rng};

/// When a running job is finished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Completion {
    /// The job runs for this many cycles after being placed.
    Duration(u64),
    /// The job runs until this many of its packets have been delivered.
    Volume(u64),
}

/// One job arrival of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJob {
    /// Display name (unique within the trace; used in per-job reports).
    pub name: String,
    /// Absolute cycle at which the job arrives (enters the wait queue).
    pub arrival: u64,
    /// Number of nodes the job needs (at least 2, so it can communicate).
    pub size: usize,
    /// How the job's nodes are chosen from the free set at placement time.
    pub placement: PlacementPolicy,
    /// Traffic pattern over the job's nodes while it runs.
    pub pattern: JobPattern,
    /// Offered load while running, in phits/(node·cycle).
    pub offered_load: f64,
    /// Completion condition.
    pub completion: Completion,
}

impl TraceJob {
    /// One canonical trace-file line (see [`Trace::to_text`]).
    fn to_line(&self) -> String {
        let place = match self.placement {
            PlacementPolicy::Contiguous => "cont".to_string(),
            PlacementPolicy::RoundRobinRouters => "rr".to_string(),
            PlacementPolicy::Random { seed } => format!("rand#{seed}"),
        };
        let completion = match self.completion {
            Completion::Duration(cycles) => format!("duration={cycles}"),
            Completion::Volume(packets) => format!("volume={packets}"),
        };
        format!(
            "job {} arrive={} size={} place={place} pattern={} load={} {completion}",
            self.name,
            self.arrival,
            self.size,
            self.pattern.name(),
            self.offered_load,
        )
    }

    /// The check only a trace job needs (see [`check_jobs`] for the rest).
    fn check_completion(&self) -> Result<(), String> {
        match self.completion {
            Completion::Duration(0) => Err(format!("job `{}` has zero duration", self.name)),
            Completion::Volume(0) => Err(format!("job `{}` has zero volume", self.name)),
            _ => Ok(()),
        }
    }
}

/// A job-arrival trace: named, sorted by arrival cycle (stable for ties, so the
/// trace order breaks placement ties deterministically).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Display name of the trace (scenario label in sweeps and CSV rows).
    pub name: String,
    /// The arrivals, sorted by arrival cycle.
    pub jobs: Vec<TraceJob>,
}

impl Trace {
    /// Build a validated trace (jobs are stably sorted by arrival cycle).
    ///
    /// # Panics
    ///
    /// Panics on an invalid job (see [`Trace::try_new`]).
    pub fn new(name: impl Into<String>, jobs: Vec<TraceJob>) -> Self {
        match Self::try_new(name, jobs) {
            Ok(trace) => trace,
            Err(msg) => panic!("invalid trace: {msg}"),
        }
    }

    /// Build a validated trace, reporting the first problem instead of panicking.
    pub fn try_new(name: impl Into<String>, mut jobs: Vec<TraceJob>) -> Result<Self, String> {
        let name = name.into();
        if !name_is_clean(&name) {
            return Err(format!("bad trace name `{name}`"));
        }
        check_jobs(
            jobs.iter()
                .map(|j| (j.name.as_str(), j.size, [j.offered_load])),
        )?;
        jobs.iter().try_for_each(TraceJob::check_completion)?;
        jobs.sort_by_key(|j| j.arrival);
        Ok(Self { name, jobs })
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
            jobs.push(TraceJob {
                name: job_name.clone(),
                arrival: arrive.ok_or_else(|| missing("arrive="))?,
                size: size.ok_or_else(|| missing("size="))?,
                placement: place.ok_or_else(|| missing("place="))?,
                pattern: pattern.ok_or_else(|| missing("pattern="))?,
                offered_load: load.ok_or_else(|| missing("load="))?,
                completion: completion.ok_or_else(|| missing("duration= or volume="))?,
            });
        }
        Self::try_new(name, jobs)
    }

    /// Emit the canonical text form ([`Trace::parse`] round-trips it).
    pub fn to_text(&self) -> String {
        let mut out = format!("trace {}\n", self.name);
        for job in &self.jobs {
            out.push_str(&job.to_line());
            out.push('\n');
        }
        out
    }

    /// The display label used as the traffic name wherever this trace drives a
    /// run (`TrafficKind::Churn`, the compiled [`crate::Schedule`], report
    /// aggregates).
    pub fn label(&self) -> String {
        format!("CHURN[{}:{}jobs]", self.name, self.jobs.len())
    }

    /// The largest arrival cycle of the trace.
    pub fn last_arrival(&self) -> u64 {
        self.jobs.last().map_or(0, |j| j.arrival)
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
                TraceJob {
                    name: format!("j{i:03}"),
                    arrival,
                    size: *rng.choose(&self.sizes),
                    placement: self.placement,
                    pattern: *rng.choose(&self.patterns),
                    offered_load: self.offered_load,
                    completion: Completion::Duration(exponential(&mut rng, self.mean_duration)),
                }
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
                TraceJob {
                    name: "late".into(),
                    arrival: 500,
                    size: 8,
                    placement: PlacementPolicy::Random { seed: 3 },
                    pattern: JobPattern::Permutation { seed: 7 },
                    offered_load: 0.25,
                    completion: Completion::Volume(2_000),
                },
                TraceJob {
                    name: "early".into(),
                    arrival: 0,
                    size: 16,
                    placement: PlacementPolicy::Contiguous,
                    pattern: JobPattern::AdversarialGlobal(1),
                    offered_load: 0.4,
                    completion: Completion::Duration(3_000),
                },
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
        assert_eq!(trace.jobs[0].pattern, JobPattern::RingExchange);
        assert_eq!(trace.jobs[0].placement, PlacementPolicy::RoundRobinRouters);
        assert_eq!(trace.jobs[0].completion, Completion::Duration(100));
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
        let job = |name: &str| TraceJob {
            name: name.into(),
            arrival: 0,
            size: 4,
            placement: PlacementPolicy::Contiguous,
            pattern: JobPattern::Uniform,
            offered_load: 0.1,
            completion: Completion::Duration(10),
        };
        assert!(Trace::try_new("t", vec![]).is_err());
        let mut tiny = job("tiny");
        tiny.size = 1;
        assert!(Trace::try_new("t", vec![tiny])
            .unwrap_err()
            .contains("at least 2"));
        let mut dead = job("dead");
        dead.completion = Completion::Duration(0);
        assert!(Trace::try_new("t", vec![dead])
            .unwrap_err()
            .contains("zero duration"));
        assert!(Trace::try_new("t", vec![job("dup"), job("dup")])
            .unwrap_err()
            .contains("duplicate"));
        let mut inf = job("inf");
        inf.offered_load = f64::INFINITY;
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
        let schedule = crate::JobList::schedule(&trace, &DragonflyParams::new(2), 8);
        assert!((schedule.nominal_offered_load(72) - want).abs() < 1e-12);
        assert_eq!(trace.last_arrival(), 500);
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
        assert!(one.last_arrival() > 0);
        let other = SyntheticTrace { seed: 10, ..spec };
        assert_ne!(one, other.build());
        // The synthetic trace survives the text round-trip too.
        assert_eq!(Trace::parse(&one.to_text()).unwrap(), one);
    }
}
