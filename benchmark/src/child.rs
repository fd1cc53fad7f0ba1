//! One timed run: exactly one set-up and one run of one workload in this
//! process, reported as a single JSON line.  The parent re-executes the binary
//! with `run-one` once per run, so peak RSS is per run and allocator or cache
//! state never leaks between runs.

use crate::json::{obj, Json};
use crate::protocol::{batch_hooked, steady_hooked, Stage, StageClock, PHASES};
use crate::surface::{
    adaptive_params, build_engine, build_sharded, phit_hops, BatchReport, BurstSpec,
    ExperimentSpec, RoutingAlgorithm, RoutingVisitor, SimReport, Simulation, SweepRunner,
};
use crate::workloads::{sweep_specs, Kind, Workload};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Tolerance of the conservation checks: loads are window averages, so
/// deliveries of packets injected just before the window may exceed the
/// injections inside it by a little.  Windows holding few packets get three
/// standard errors of counting noise on top (see [`tolerance`]).
const EPSILON: f64 = 0.05;

fn tolerance(packets: u64) -> f64 {
    1.0 + EPSILON + 3.0 / (packets.max(1) as f64).sqrt()
}

/// One pass/fail check on a run's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
}

fn check(name: &str, ok: bool) -> Check {
    Check {
        name: name.to_string(),
        ok,
    }
}

/// Exact event counts of a run (the normalisers of host time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub cycles: u64,
    pub phit_hops: u64,
    pub packets_delivered: u64,
    pub peak_in_flight_packets: u64,
    pub peak_buffered_phits: u64,
    pub arena_grows: u64,
}

impl Counts {
    pub const NAMES: [&'static str; 6] = [
        "cycles",
        "phit_hops",
        "packets_delivered",
        "peak_in_flight_packets",
        "peak_buffered_phits",
        "arena_grows",
    ];

    fn of<R: RoutingAlgorithm>(sim: &Simulation<R>) -> Counts {
        let net = sim.network();
        Counts {
            cycles: net.cycle,
            phit_hops: phit_hops(net),
            packets_delivered: net.stats.total_delivered,
            peak_in_flight_packets: net.stats.peak_in_flight_packets,
            peak_buffered_phits: net.stats.peak_buffered_phits,
            arena_grows: net.arena_grows(),
        }
    }

    /// Fold a further engine's counts in: events add up, peaks take the maximum.
    fn absorb(&mut self, other: Counts) {
        self.cycles += other.cycles;
        self.phit_hops += other.phit_hops;
        self.packets_delivered += other.packets_delivered;
        self.peak_in_flight_packets = self
            .peak_in_flight_packets
            .max(other.peak_in_flight_packets);
        self.peak_buffered_phits = self.peak_buffered_phits.max(other.peak_buffered_phits);
        self.arena_grows += other.arena_grows;
    }

    pub fn values(&self) -> [u64; 6] {
        [
            self.cycles,
            self.phit_hops,
            self.packets_delivered,
            self.peak_in_flight_packets,
            self.peak_buffered_phits,
            self.arena_grows,
        ]
    }
}

/// A recorded interval.  `busy_ns` marks an aggregated child: the phase was
/// busy for that long in total somewhere inside its parent stage.
#[derive(Debug, Clone)]
struct Span {
    parent: Option<usize>,
    name: String,
    start_ns: u64,
    end_ns: u64,
    busy_ns: Option<u64>,
}

#[derive(Default)]
struct Spans(Vec<Span>);

impl Spans {
    fn push(&mut self, parent: Option<usize>, name: &str, start_ns: u64, end_ns: u64) -> usize {
        self.0.push(Span {
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            busy_ns: None,
        });
        self.0.len() - 1
    }

    /// File a run's stages under `parent`, each with its phases as aggregated
    /// children.
    fn push_stages(&mut self, parent: usize, stages: &[Stage]) {
        for stage in stages {
            let id = self.push(Some(parent), stage.name, stage.start_ns, stage.end_ns);
            for (phase, busy) in PHASES.iter().zip(stage.phase_ns) {
                let child = self.push(Some(id), phase, stage.start_ns, stage.end_ns);
                self.0[child].busy_ns = Some(busy);
            }
        }
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.0
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut pairs = vec![
                        ("id", Json::from(id)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("name", Json::from(s.name.as_str())),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                    ];
                    if let Some(busy) = s.busy_ns {
                        pairs.push(("busy_ns", Json::from(busy)));
                    }
                    obj(pairs)
                })
                .collect(),
        )
    }
}

/// Everything one run produced.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub run_s: f64,
    /// CSV row(s) of the report, newline-joined.
    pub report: String,
    pub checks: Vec<Check>,
    pub counts: Option<Counts>,
    /// Simulated cycles a burst took to drain.
    pub consumption_cycles: Option<u64>,
    /// Traced runs: host ns per phase (+ between-cycle time) and hooked cycles.
    pub phases: Option<([u64; 6], u64)>,
    /// Traced sweeps: Σ per-point set-up and run time, run back to back.
    pub points_setup_s: Option<f64>,
    pub points_run_s: Option<f64>,
    spans: Spans,
}

fn checks_steady(
    spec: &ExperimentSpec,
    report: &SimReport,
    drained_early: Option<bool>,
) -> Vec<Check> {
    let slack = tolerance(report.packets_delivered);
    let mut checks = vec![
        check("no_deadlock", !report.deadlock_detected),
        check(
            "conservation",
            report.accepted_load <= report.injected_load * slack
                && report.injected_load <= report.offered_load * slack,
        ),
    ];
    if let Some(drained) = drained_early {
        checks.push(check("tagged_packets_delivered", drained));
    }
    if spec.traffic.name().starts_with("ADVG") {
        // One global link per group pair: Valiant-style detours cap ADVG at 0.5.
        checks.push(check(
            "advg_accepted_below_half",
            report.accepted_load <= 0.5 * slack,
        ));
    }
    checks
}

fn checks_batch(report: &BatchReport) -> Vec<Check> {
    vec![
        check("no_deadlock", !report.deadlock_detected),
        check("no_timeout", !report.timed_out),
        check(
            "tagged_packets_delivered",
            report.packets_delivered == report.packets_total,
        ),
    ]
}

/// What to do with one engine once dispatched to its concrete mechanism.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Construct and drop (set-up cost only).
    BuildOnly,
    /// The simulator's own protocol.
    Builtin,
    /// The hook-driven protocol of `crate::protocol`.
    Hooked,
}

struct EngineRun<'a> {
    w: &'a Workload,
    mode: Mode,
    epoch: Instant,
}

/// Result of [`EngineRun`]: the run plus the instants bounding set-up and run.
struct EngineResult {
    outcome: Outcome,
    stages: Vec<Stage>,
    at: [Instant; 3],
}

impl RoutingVisitor for EngineRun<'_> {
    type Output = EngineResult;

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> EngineResult {
        let (w, spec) = (self.w, &self.w.spec);
        let mut clock = StageClock::new(self.epoch);
        let mut outcome = Outcome::default();

        let t0 = Instant::now();
        let (mut sharded, mut engine) = match w.kind {
            Kind::Sharded { shards } => (Some(build_sharded(spec, routing, shards)), None),
            _ => (None, Some(build_engine(spec, routing))),
        };
        let t1 = Instant::now();
        outcome.setup_s = (t1 - t0).as_secs_f64();
        if self.mode == Mode::BuildOnly {
            return EngineResult {
                outcome,
                stages: Vec::new(),
                at: [t0, t1, t1],
            };
        }

        let budget = spec.warmup + spec.measure + spec.drain;
        if let Some(sim) = &mut sharded {
            let report =
                sim.run_steady_state(spec.offered_load, spec.warmup, spec.measure, spec.drain);
            let mut counts = Counts {
                cycles: sim.network(0).cycle,
                peak_in_flight_packets: report.peak_in_flight_packets,
                peak_buffered_phits: report.peak_buffered_phits,
                ..Counts::default()
            };
            for s in 0..sim.shards() {
                let net = sim.network(s);
                counts.phit_hops += phit_hops(net);
                counts.packets_delivered += net.stats.total_delivered;
                counts.arena_grows += net.arena_grows();
            }
            let drained = (!w.saturated).then_some(counts.cycles < budget);
            outcome.checks = checks_steady(spec, &report, drained);
            outcome.report = report.csv_row();
            outcome.counts = Some(counts);
        } else if let (
            Some(sim),
            Kind::Batch {
                packets_per_node,
                max_cycles,
            },
        ) = (&mut engine, w.kind)
        {
            let burst = BurstSpec::new(packets_per_node, spec.flow_control.packet_size());
            let report = if self.mode == Mode::Hooked {
                batch_hooked(sim, burst, max_cycles, &mut clock)
            } else {
                sim.run_batch(burst, max_cycles)
            };
            outcome.consumption_cycles = Some(report.consumption_cycles);
            outcome.checks = checks_batch(&report);
            outcome.report = report.csv_row();
            outcome.counts = Some(Counts::of(sim));
        } else if let Some(sim) = &mut engine {
            let report = if self.mode == Mode::Hooked {
                steady_hooked(sim, spec, &mut clock)
            } else {
                sim.run_steady_state(spec.offered_load, spec.warmup, spec.measure, spec.drain)
            };
            let counts = Counts::of(sim);
            // Grid points run up to load 1.0; only the single-engine workloads
            // promise to deliver every tagged packet within the drain budget.
            let expect_drained = w.kind == Kind::Steady && !w.saturated;
            let drained = expect_drained.then_some(counts.cycles < budget);
            outcome.checks = checks_steady(spec, &report, drained);
            outcome.report = report.csv_row();
            outcome.counts = Some(counts);
        }
        let t2 = Instant::now();
        outcome.run_s = (t2 - t1).as_secs_f64();
        outcome.phases = (self.mode == Mode::Hooked).then(|| clock.totals());
        EngineResult {
            outcome,
            stages: clock.stages,
            at: [t0, t1, t2],
        }
    }
}

fn dispatch(w: &Workload, mode: Mode, epoch: Instant) -> EngineResult {
    w.spec
        .routing
        .dispatch(adaptive_params(&w.spec), EngineRun { w, mode, epoch })
}

/// The workload `w` narrowed to one grid point.
fn point_of(w: &Workload, spec: ExperimentSpec) -> Workload {
    Workload { spec, ..w.clone() }
}

/// What one child process does with its workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pass {
    /// One set-up and one run of the simulator's own protocol, undisturbed.
    Plain,
    /// The same, re-driven through the phase hook, with spans recorded.
    Traced,
    /// The set-up alone: one more sample of `setup_s` from a fresh process.
    SetupOnly,
}

impl Pass {
    fn flag(self) -> Option<&'static str> {
        match self {
            Pass::Plain => None,
            Pass::Traced => Some("--traced"),
            Pass::SetupOnly => Some("--setup-only"),
        }
    }
}

/// Turn transparent huge pages off for this process.  Whether a 2 MB page is
/// free at fault time depends on how fragmented the host's memory happens to
/// be, and it flips the set-up time of the large workloads between two modes a
/// factor of two apart (README.md, "Noise protocol"); 4 kB pages always exist.
/// A kernel that refuses leaves the default in place, which only costs noise.
#[cfg(target_os = "linux")]
fn disable_transparent_huge_pages() {
    use std::ffi::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_THP_DISABLE: c_int = 41;
    let (on, unused): (c_ulong, c_ulong) = (1, 0);
    // SAFETY: PR_SET_THP_DISABLE takes four integer arguments (the last three
    // must be zero) and no pointers; it only sets a flag on this process's
    // address space, which affects later page faults, not existing mappings.
    unsafe { prctl(PR_SET_THP_DISABLE, on, unused, unused, unused) };
}

#[cfg(not(target_os = "linux"))]
fn disable_transparent_huge_pages() {}

/// Run `w` once in this process.
pub fn run_one(w: &Workload, pass: Pass) -> Outcome {
    disable_transparent_huge_pages();
    let epoch = Instant::now();
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let traced = pass == Pass::Traced;
    let mode = match pass {
        Pass::Plain => Mode::Builtin,
        Pass::Traced => Mode::Hooked,
        Pass::SetupOnly => Mode::BuildOnly,
    };
    let Kind::Sweep { jobs, stride } = w.kind else {
        let EngineResult {
            mut outcome,
            stages,
            at: [t0, t1, t2],
        } = dispatch(w, mode, epoch);
        if traced {
            outcome.spans.push(None, "setup", ns(t0), ns(t1));
            let run = outcome.spans.push(None, "run", ns(t1), ns(t2));
            outcome.spans.push_stages(run, &stages);
            if let Kind::Sharded { .. } = w.kind {
                // The sharded engine cannot be hooked from outside, so the
                // phase rows of a sharded workload are those of the sequential
                // engine on the same spec — the work the shards divide.
                let twin = Workload {
                    kind: Kind::Steady,
                    ..w.clone()
                };
                let EngineResult {
                    outcome: seq,
                    stages,
                    at: [s0, _, s2],
                } = dispatch(&twin, Mode::Hooked, epoch);
                let id = outcome.spans.push(None, "sequential_twin", ns(s0), ns(s2));
                outcome.spans.push_stages(id, &stages);
                outcome.phases = seq.phases;
                outcome.checks.push(check(
                    "sharded_report_equals_sequential",
                    seq.report == outcome.report,
                ));
            }
        }
        return outcome;
    };

    // Sweep set-up: the spec list plus one construction of every point's
    // engine, which is what the runner pays again, per point, inside the run.
    let t0 = Instant::now();
    let specs = sweep_specs(&w.spec, stride);
    for spec in &specs {
        dispatch(&point_of(w, spec.clone()), Mode::BuildOnly, epoch);
    }
    let t1 = Instant::now();
    let mut outcome = Outcome {
        setup_s: (t1 - t0).as_secs_f64(),
        ..Outcome::default()
    };
    if pass == Pass::SetupOnly {
        return outcome;
    }
    // A check of a sweep passes when it passes on every point.
    let mut verdicts = std::collections::BTreeMap::<String, bool>::new();
    let mut fold = |checks: Vec<Check>| {
        for c in checks {
            *verdicts.entry(c.name).or_insert(true) &= c.ok;
        }
    };
    let mut rows = Vec::with_capacity(specs.len());
    if traced {
        // Points one by one on this thread, each hook-driven.
        outcome.spans.push(None, "setup", ns(t0), ns(t1));
        let run = outcome.spans.push(None, "run", ns(t1), ns(t1));
        let (mut counts, mut phases, mut cycles) = (Counts::default(), [0u64; 6], 0u64);
        let (mut setup_s, mut run_s) = (0.0, 0.0);
        for spec in &specs {
            let point = point_of(w, spec.clone());
            let EngineResult {
                outcome: p,
                at: [p0, p1, p2],
                ..
            } = dispatch(&point, Mode::Hooked, epoch);
            let id = outcome.spans.push(Some(run), &spec.label(), ns(p0), ns(p2));
            outcome.spans.push(Some(id), "setup", ns(p0), ns(p1));
            outcome.spans.push(Some(id), "run", ns(p1), ns(p2));
            counts.absorb(p.counts.expect("engine runs report counts"));
            let (point_ns, point_cycles) = p.phases.expect("hooked runs report phases");
            for (total, part) in phases.iter_mut().zip(point_ns) {
                *total += part;
            }
            cycles += point_cycles;
            setup_s += p.setup_s;
            run_s += p.run_s;
            fold(p.checks);
            rows.push(p.report);
        }
        let t2 = Instant::now();
        outcome.spans.0[run].end_ns = ns(t2);
        outcome.run_s = (t2 - t1).as_secs_f64();
        outcome.counts = Some(counts);
        outcome.phases = Some((phases, cycles));
        outcome.points_setup_s = Some(setup_s);
        outcome.points_run_s = Some(run_s);
    } else {
        let reports = SweepRunner::new(w.name)
            .jobs(Some(jobs))
            .quiet()
            .run_steady(&specs);
        outcome.run_s = t1.elapsed().as_secs_f64();
        for (spec, report) in specs.iter().zip(&reports) {
            fold(checks_steady(spec, report, None));
            rows.push(report.csv_row());
        }
    }
    outcome.checks = verdicts
        .into_iter()
        .map(|(name, ok)| Check { name, ok })
        .collect();
    outcome.report = rows.join("\n");
    outcome
}

/// FNV-1a 64 of the report text, as 16 hex digits.
pub fn digest(report: &str) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in report.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Peak resident set of this process (`VmHWM`), in MB of 1024 kB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

impl Outcome {
    /// The child's result line.  `"end": true` comes last so a truncated line
    /// can never pass for a complete one.
    pub fn to_json(&self, w: &Workload, pass: Pass) -> Json {
        let traced = pass == Pass::Traced;
        let mut pairs = vec![
            ("workload", Json::from(w.name)),
            ("seed", Json::from(w.spec.seed)),
            ("pass", Json::from(format!("{pass:?}"))),
            ("setup_s", Json::from(self.setup_s)),
            ("run_s", Json::from(self.run_s)),
            ("peak_rss_mb", peak_rss_mb().map_or(Json::Null, Json::from)),
            ("digest", Json::from(digest(&self.report))),
            ("report", Json::from(self.report.as_str())),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| obj([("name", Json::from(c.name.as_str())), ("ok", c.ok.into())]))
                        .collect(),
                ),
            ),
        ];
        if let Some(counts) = self.counts {
            pairs.push((
                "counts",
                obj(Counts::NAMES
                    .iter()
                    .zip(counts.values())
                    .map(|(name, value)| (*name, Json::from(value)))),
            ));
        }
        if let Some(cycles) = self.consumption_cycles {
            pairs.push(("consumption_cycles", Json::from(cycles)));
        }
        if let Some((phase_ns, cycles)) = self.phases {
            pairs.push((
                "phase_ns",
                Json::Arr(phase_ns.iter().map(|&n| Json::from(n)).collect()),
            ));
            pairs.push(("hooked_cycles", Json::from(cycles)));
        }
        if let (Some(setup), Some(run)) = (self.points_setup_s, self.points_run_s) {
            pairs.push(("points_setup_s", Json::from(setup)));
            pairs.push(("points_run_s", Json::from(run)));
        }
        if traced {
            pairs.push(("spans", self.spans.to_json()));
        }
        pairs.push(("end", Json::from(true)));
        obj(pairs)
    }
}

/// A child's result line as the parent reads it.
#[derive(Debug, Clone)]
pub struct ChildLine {
    pub setup_s: f64,
    pub run_s: f64,
    pub peak_rss_mb: f64,
    pub digest: String,
    pub report: String,
    pub checks: Vec<Check>,
    pub counts: Option<Counts>,
    pub consumption_cycles: Option<u64>,
    pub phases: Option<([u64; 6], u64)>,
    pub points_setup_s: Option<f64>,
    pub points_run_s: Option<f64>,
    pub spans: Vec<Json>,
}

/// Parse a child's standard output: the last line must be a complete result
/// for `workload`.  Anything else — no output, a truncated line, another
/// workload's line — is an error, never a partial result.
pub fn parse_child_line(stdout: &str, workload: &str) -> Result<ChildLine, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the child printed nothing")?;
    let json = Json::parse(line).map_err(|e| format!("child line does not parse: {e}"))?;
    if json.get("end").and_then(Json::as_bool) != Some(true) {
        return Err("child line is incomplete (no end marker)".into());
    }
    if json.get("workload").and_then(Json::as_str) != Some(workload) {
        return Err(format!("child line is not for workload `{workload}`"));
    }
    let num = |key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("child line lacks a number `{key}`"))
    };
    let text = |key: &str| {
        json.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("child line lacks a string `{key}`"))
    };
    let checks = json
        .get("checks")
        .and_then(Json::as_arr)
        .ok_or("child line lacks `checks`")?
        .iter()
        .map(|c| {
            Some(Check {
                name: c.get("name")?.as_str()?.to_string(),
                ok: c.get("ok")?.as_bool()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("child line has a malformed check")?;
    let counts = match json.get("counts") {
        None => None,
        Some(c) => {
            let mut values = [0u64; 6];
            for (slot, name) in values.iter_mut().zip(Counts::NAMES) {
                *slot = c
                    .get(name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("child line lacks the count `{name}`"))?;
            }
            let [cycles, phit_hops, packets_delivered, peak_in_flight_packets, peak_buffered_phits, arena_grows] =
                values;
            Some(Counts {
                cycles,
                phit_hops,
                packets_delivered,
                peak_in_flight_packets,
                peak_buffered_phits,
                arena_grows,
            })
        }
    };
    let phases = match (json.get("phase_ns"), json.get("hooked_cycles")) {
        (Some(ns), Some(cycles)) => {
            let ns: Vec<u64> = ns
                .as_arr()
                .ok_or("`phase_ns` is not an array")?
                .iter()
                .filter_map(Json::as_u64)
                .collect();
            let ns: [u64; 6] = ns.try_into().map_err(|_| "`phase_ns` must hold 6 counts")?;
            Some((ns, cycles.as_u64().ok_or("`hooked_cycles` is not a count")?))
        }
        _ => None,
    };
    Ok(ChildLine {
        setup_s: num("setup_s")?,
        run_s: num("run_s")?,
        peak_rss_mb: num("peak_rss_mb")?,
        digest: text("digest")?,
        report: text("report")?,
        checks,
        counts,
        consumption_cycles: json.get("consumption_cycles").and_then(Json::as_u64),
        phases,
        points_setup_s: json.get("points_setup_s").and_then(Json::as_f64),
        points_run_s: json.get("points_run_s").and_then(Json::as_f64),
        spans: json
            .get("spans")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default(),
    })
}

/// Re-execute this binary for one run of `workload` and wait for it to end.
pub fn spawn_run_one(
    workload: &str,
    seed: u64,
    quick: bool,
    pass: Pass,
) -> Result<ChildLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run-one")
        .arg(workload)
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    if let Some(flag) = pass.flag() {
        cmd.arg(flag);
    }
    // `output` waits for the child to exit, so no process outlives this call.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the `run-one {workload}` child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "the `run-one {workload}` child failed: {}",
            output.status
        ));
    }
    parse_child_line(&String::from_utf8_lossy(&output.stdout), workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::workload;

    #[test]
    fn digest_is_fnv1a_64() {
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
        assert_ne!(digest("row,1"), digest("row,2"));
    }

    #[test]
    fn traced_and_untraced_runs_agree_and_the_line_round_trips() {
        for name in ["adv_sat_h4", "burst_wh_h4", "un_h8_shard2"] {
            let w = workload(name, 3, true).unwrap();
            let plain = run_one(&w, Pass::Plain);
            let traced = run_one(&w, Pass::Traced);
            assert_eq!(plain.report, traced.report, "{name}");
            assert_eq!(plain.counts, traced.counts, "{name}");
            assert!(
                plain.checks.iter().all(|c| c.ok),
                "{name}: {:?}",
                plain.checks
            );
            assert!(
                traced.checks.iter().all(|c| c.ok),
                "{name}: {:?}",
                traced.checks
            );
            let (phase_ns, cycles) = traced.phases.unwrap();
            assert!(cycles > 0 && phase_ns.iter().sum::<u64>() > 0);

            let line = traced.to_json(&w, Pass::Traced).line();
            assert!(!line.contains('\n'));
            let parsed = parse_child_line(&format!("noise\n{line}\n"), name).unwrap();
            assert_eq!(parsed.report, traced.report);
            assert_eq!(parsed.digest, digest(&traced.report));
            assert_eq!(parsed.counts, traced.counts);
            assert_eq!(parsed.phases, traced.phases);
            assert_eq!(parsed.checks, traced.checks);
            assert!(parsed.spans.len() >= 2);
        }
    }

    #[test]
    fn sharded_traced_run_checks_the_sequential_twin() {
        let w = workload("un_h8_shard2", 9, true).unwrap();
        let traced = run_one(&w, Pass::Traced);
        assert!(traced
            .checks
            .iter()
            .any(|c| c.name == "sharded_report_equals_sequential" && c.ok));
    }

    #[test]
    fn child_line_parser_rejects_truncated_or_foreign_output() {
        let w = workload("burst_wh_h4", 3, true).unwrap();
        let line = run_one(&w, Pass::Plain).to_json(&w, Pass::Plain).line();
        assert!(parse_child_line(&line, "burst_wh_h4").is_ok());
        // Every proper prefix is rejected: the end marker is the last member.
        for cut in [1, line.len() / 2, line.len() - 2, line.len() - 1] {
            assert!(
                parse_child_line(&line[..cut], "burst_wh_h4").is_err(),
                "a line cut at {cut} must not parse"
            );
        }
        assert!(parse_child_line("", "burst_wh_h4").is_err());
        assert!(parse_child_line("\n\n", "burst_wh_h4").is_err());
        assert!(parse_child_line(&line, "un_h8").is_err());
        assert!(parse_child_line("{\"end\":true}", "burst_wh_h4").is_err());
    }
}
