//! Turning child runs into named metrics: the end-to-end table, the per-layer
//! rows of the traced pass, the checks, and the `run` / `trace` / `measure`
//! entry points built on them.

use crate::child::{spawn_run_one, Check, ChildLine, Counts, Pass};
use crate::json::{obj, Json};
use crate::micro::{self, Row};
use crate::protocol::PHASES;
use crate::stats::{self, Summary};
use crate::workloads::{workload, Kind, Workload, DEFAULT_SEED, NAMES};
use std::path::PathBuf;
use std::time::Instant;

/// An end-to-end metric: what a user of the simulator pays per run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline by which the metric may worsen (BENCHMARK.json).
    pub bound: f64,
    /// Absolute worsening below which `compare` never reports `worse`
    /// (set-ups of a few milliseconds jitter by more than a quarter).
    pub floor: f64,
    /// Which statistic of the repeated runs is the reported value.
    pub headline: fn(&[f64]) -> Option<f64>,
}

/// All lower-is-better.  `run_s` is the minimum over the runs: interference on
/// a shared box is additive, so the minimum is what repeats.  Its bound is the
/// widest BENCHMARK.json allows because ten-seed spreads of 3–12 % were
/// measured on the recording box (README.md, "Noise protocol").
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "run_s",
        unit: "s",
        bound: 0.25,
        floor: 0.0,
        headline: stats::min,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.05,
        floor: 0.0,
        headline: stats::median,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        floor: 0.02,
        headline: stats::median,
    },
];

/// Extra set-up-only children per workload, so `setup_s` is a median of
/// several fresh-process set-ups rather than of the timed runs alone.
const EXTRA_SETUPS: usize = 5;

/// Fewest timed runs `measure` makes, however short `--seconds` is.
const MIN_REPS: usize = 2;

/// Every run made for one workload.
pub struct WorkloadRuns {
    pub w: Workload,
    pub reps: Vec<ChildLine>,
    pub extra_setups: Vec<f64>,
    pub traced: Option<ChildLine>,
}

impl WorkloadRuns {
    fn new(w: Workload) -> Self {
        Self {
            w,
            reps: Vec::new(),
            extra_setups: Vec::new(),
            traced: None,
        }
    }

    /// The samples behind an end-to-end metric.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        match metric {
            "run_s" => self.reps.iter().map(|r| r.run_s).collect(),
            "peak_rss_mb" => self.reps.iter().map(|r| r.peak_rss_mb).collect(),
            "setup_s" => self
                .reps
                .iter()
                .map(|r| r.setup_s)
                .chain(self.extra_setups.iter().copied())
                .collect(),
            _ => Vec::new(),
        }
    }

    /// `(metric, reported value, summary of the samples)` per end-to-end metric.
    pub fn end_to_end(&self) -> Vec<(&'static EndToEnd, f64, Summary)> {
        END_TO_END
            .iter()
            .filter_map(|m| {
                let samples = self.samples(m.name);
                Some((m, (m.headline)(&samples)?, Summary::of(&samples)?))
            })
            .collect()
    }

    /// Untraced `run_s` (the reported minimum).
    fn run_s(&self) -> Option<f64> {
        stats::min(&self.samples("run_s"))
    }

    /// The per-layer rows every workload's traced run has — the rows
    /// `measure --trace 1` prints (BENCHMARK.json's `per_layer`, before the
    /// primitive rows).  `None` without a traced run, an untraced run to
    /// compare it with, phase times or counts.
    pub fn per_layer(&self) -> Option<Vec<Row>> {
        let (traced, run_s) = (self.traced.as_ref()?, self.run_s()?);
        let ((phase_ns, cycles), counts) = (traced.phases?, traced.counts?);
        let mut rows: Vec<Row> = vec![
            ("trace.run_s".into(), traced.run_s, "s"),
            (
                "trace.overhead_pct".into(),
                (traced.run_s / run_s - 1.0) * 100.0,
                "%",
            ),
        ];
        for (phase, ns) in PHASES.iter().zip(phase_ns) {
            rows.push((
                format!("sim.{phase}_ns_per_cycle"),
                ns as f64 / cycles.max(1) as f64,
                "ns",
            ));
        }
        let in_phases: u64 = phase_ns[..PHASES.len()].iter().sum();
        let hooked: u64 = phase_ns.iter().sum();
        rows.push((
            "trace.phase_coverage_pct".into(),
            in_phases as f64 / hooked.max(1) as f64 * 100.0,
            "%",
        ));
        for (name, value) in Counts::NAMES.iter().zip(counts.values()) {
            rows.push((format!("sim.{name}"), value as f64, "count"));
        }
        rows.push((
            "sim.cycles_per_s".into(),
            counts.cycles as f64 / run_s,
            "1/s",
        ));
        rows.push((
            "sim.ns_per_phit_hop".into(),
            run_s * 1e9 / counts.phit_hops.max(1) as f64,
            "ns",
        ));
        rows.push((
            "sim.packets_per_s".into(),
            counts.packets_delivered as f64 / run_s,
            "1/s",
        ));
        Some(rows)
    }

    /// Rows only some workloads have: a burst's *simulated* consumption time,
    /// a sweep's parallel efficiency and set-up share.
    fn extra_rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        let (Some(traced), Some(run_s)) = (&self.traced, self.run_s()) else {
            return rows;
        };
        if let Some(cycles) = traced.consumption_cycles {
            rows.push(("sim.consumption_cycles".into(), cycles as f64, "count"));
        }
        if let (Some(setup), Some(run), Kind::Sweep { jobs, .. }) =
            (traced.points_setup_s, traced.points_run_s, self.w.kind)
        {
            rows.push((
                "core.sweep_efficiency".into(),
                (setup + run) / (jobs as f64 * run_s),
                "ratio",
            ));
            rows.push(("core.setup_share".into(), setup / (setup + run), "ratio"));
        }
        rows
    }

    /// Every check of every run, plus determinism across them (check 2).
    pub fn checks(&self) -> Vec<Check> {
        let mut checks: Vec<Check> = Vec::new();
        let runs = self.reps.iter().chain(self.traced.as_ref());
        for (i, run) in runs.clone().enumerate() {
            for c in &run.checks {
                checks.push(Check {
                    name: format!("{}#{i}.{}", self.w.name, c.name),
                    ok: c.ok,
                });
            }
        }
        let digests: Vec<&str> = runs.map(|r| r.digest.as_str()).collect();
        if digests.len() > 1 {
            checks.push(Check {
                name: format!("{}.every_run_same_report", self.w.name),
                ok: digests.windows(2).all(|pair| pair[0] == pair[1]),
            });
        }
        checks
    }

    /// The report digest (of the first run; check 2 fails unless all agree).
    pub fn digest(&self) -> Option<&str> {
        self.reps
            .iter()
            .chain(self.traced.as_ref())
            .map(|r| r.digest.as_str())
            .next()
    }
}

/// The digests recorded at [`DEFAULT_SEED`] when the ledger was first taken.
pub fn reference_digest(name: &str) -> Option<String> {
    let reference = Json::parse(include_str!("../reference.json")).ok()?;
    Some(reference.get("digests")?.get(name)?.as_str()?.to_string())
}

fn rows_json(rows: &[Row]) -> Json {
    obj(rows.iter().map(|(name, value, unit)| {
        (
            name.as_str(),
            obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
        )
    }))
}

/// Where traces land: `benchmark/out/`, beside this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write the spans of every traced run, tagged with their workload, to
/// `benchmark/out/trace.json`.
fn write_trace(all: &[WorkloadRuns]) -> Result<PathBuf, String> {
    let spans: Vec<Json> = all
        .iter()
        .filter_map(|runs| Some((runs.w.name, runs.traced.as_ref()?)))
        .flat_map(|(name, traced)| {
            traced.spans.iter().map(move |span| {
                let mut pairs = vec![("workload".to_string(), Json::from(name))];
                pairs.extend(span.as_obj().unwrap_or_default().iter().cloned());
                Json::Obj(pairs)
            })
        })
        .collect();
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("trace.json");
    std::fs::write(&path, obj([("spans", Json::Arr(spans))]).pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn cmd_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The machine and build the numbers were taken on.
fn fingerprint() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile: Vec<&str> = include_str!("../Cargo.toml")
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim().is_empty() && !l.starts_with('['))
        .collect();
    let unknown = || "unknown".to_string();
    obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("cpu_model", Json::from(cpu_model)),
        (
            "rustc",
            Json::from(cmd_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::from(cmd_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "git_dirty",
            cmd_line("git", &["status", "--porcelain"])
                .map_or(Json::Null, |s| (!s.is_empty()).into()),
        ),
        ("profile_release", Json::from(profile.join(", "))),
    ])
}

/// Options of `run` and `trace`.
pub struct RunOptions {
    pub seed: u64,
    pub reps: usize,
    pub quick: bool,
    pub out: Option<PathBuf>,
    /// Skip the timed reps' extras: one untraced run per workload, then the
    /// traced pass (the `trace` subcommand).
    pub trace_only: bool,
}

fn spawn_into(runs: &mut WorkloadRuns, quick: bool, pass: Pass) -> Result<(), String> {
    let line = spawn_run_one(runs.w.name, runs.w.spec.seed, quick, pass)?;
    match pass {
        Pass::Plain => runs.reps.push(line),
        Pass::Traced => runs.traced = Some(line),
        Pass::SetupOnly => runs.extra_setups.push(line.setup_s),
    }
    Ok(())
}

/// `run` and `trace`: every workload, reps interleaved round-robin, then the
/// traced pass and the layer rows.  Returns the ledger and whether every
/// check passed.
pub fn run_all(opts: &RunOptions) -> Result<(Json, bool), String> {
    let started = Instant::now();
    let mut all: Vec<WorkloadRuns> = NAMES
        .iter()
        .map(|name| WorkloadRuns::new(workload(name, opts.seed, opts.quick).expect("known name")))
        .collect();
    let reps = if opts.trace_only { 1 } else { opts.reps };
    for rep in 0..reps {
        for runs in &mut all {
            eprintln!("[rep {}/{reps}] {}", rep + 1, runs.w.name);
            spawn_into(runs, opts.quick, Pass::Plain)?;
        }
    }
    if !opts.trace_only && !opts.quick {
        for _ in 0..EXTRA_SETUPS {
            for runs in &mut all {
                spawn_into(runs, opts.quick, Pass::SetupOnly)?;
            }
        }
    }
    for runs in &mut all {
        eprintln!("[traced] {}", runs.w.name);
        spawn_into(runs, opts.quick, Pass::Traced)?;
    }
    let trace_path = write_trace(&all)?;
    eprintln!("[layers] primitives and option pairs");
    let mut layers = if opts.quick {
        micro::primitive_rows()
    } else {
        micro::all_rows()
    };

    let mut checks: Vec<Check> = all.iter().flat_map(WorkloadRuns::checks).collect();
    // The shard layer, from the twin workloads: its rows, and check 3 — a
    // sharded workload reproduces its sequential twin's report.
    for runs in &all {
        let Some(twin) = runs.w.twin.and_then(|t| all.iter().find(|r| r.w.name == t)) else {
            continue;
        };
        let headline = |r: &WorkloadRuns, metric: &str| {
            r.end_to_end()
                .into_iter()
                .find(|(m, ..)| m.name == metric)
                .map(|(_, value, _)| value)
        };
        if let (Some(seq), Some(shard)) = (headline(twin, "run_s"), headline(runs, "run_s")) {
            layers.push(("shard.speedup_2".into(), seq / shard, "ratio"));
        }
        if let (Some(seq), Some(shard)) =
            (headline(twin, "peak_rss_mb"), headline(runs, "peak_rss_mb"))
        {
            layers.push(("shard.rss_ratio".into(), shard / seq, "ratio"));
        }
        checks.push(Check {
            name: format!("{}.report_equals_{}", runs.w.name, twin.w.name),
            ok: runs.digest().is_some() && runs.digest() == twin.digest(),
        });
    }
    let failed: Vec<&Check> = checks.iter().filter(|c| !c.ok).collect();

    let compare_digests = opts.seed == DEFAULT_SEED && !opts.quick;
    let workloads = obj(all.iter().map(|runs| {
        let end_to_end = obj(runs.end_to_end().into_iter().map(|(m, value, summary)| {
            (
                m.name,
                obj([
                    ("value", Json::from(value)),
                    ("unit", Json::from(m.unit)),
                    ("better", Json::from("lower")),
                    ("bound", Json::from(m.bound)),
                    ("samples", summary.to_json()),
                ]),
            )
        }));
        let mut pairs = vec![
            ("why", Json::from(runs.w.why)),
            ("end_to_end", end_to_end),
            (
                "per_layer",
                rows_json(&[runs.per_layer().unwrap_or_default(), runs.extra_rows()].concat()),
            ),
            ("digest", runs.digest().map_or(Json::Null, Json::from)),
        ];
        if compare_digests {
            let reference = reference_digest(runs.w.name);
            pairs.push((
                "digest_changed",
                Json::from(reference.as_deref() != runs.digest()),
            ));
            pairs.push(("reference_digest", reference.map_or(Json::Null, Json::from)));
        }
        if let Some(first) = runs.reps.first().filter(|r| !r.report.contains('\n')) {
            pairs.push(("report", Json::from(first.report.as_str())));
        }
        (runs.w.name, obj(pairs))
    }));

    let ledger = obj([
        ("schema", Json::from(1u64)),
        ("quick", Json::from(opts.quick)),
        ("trace_only", Json::from(opts.trace_only)),
        ("seed", Json::from(opts.seed)),
        ("reps", Json::from(reps)),
        ("fingerprint", fingerprint()),
        ("workloads", workloads),
        ("layers", rows_json(&layers)),
        ("checks_attempted", Json::from(checks.len())),
        ("checks_failed", Json::from(failed.len())),
        (
            "failed_checks",
            Json::Arr(failed.iter().map(|c| Json::from(c.name.as_str())).collect()),
        ),
        ("trace_file", Json::from(trace_path.display().to_string())),
        ("wall_s", Json::from(started.elapsed().as_secs_f64())),
    ]);
    if let Some(path) = &opts.out {
        std::fs::write(path, ledger.pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok((ledger, failed.is_empty()))
}

/// `measure`: the entry point BENCHMARK.json's `command` names.  One workload,
/// measured for about `seconds`; prints the contract's one-line result last.
pub fn measure(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<bool, String> {
    let w = workload(name, seed, false).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let mut runs = WorkloadRuns::new(w);
    let started = Instant::now();
    let metrics: Vec<Row> = if traced {
        spawn_into(&mut runs, false, Pass::Plain)?;
        spawn_into(&mut runs, false, Pass::Traced)?;
        write_trace(std::slice::from_ref(&runs))?;
        let mut rows = runs
            .per_layer()
            .ok_or_else(|| format!("the traced run of `{name}` lacks phase times or counts"))?;
        rows.extend(micro::primitive_rows());
        rows
    } else {
        // As many whole runs as fit in `seconds`, and never fewer than two: the
        // determinism check needs a pair, and the minimum needs a choice.
        loop {
            spawn_into(&mut runs, false, Pass::Plain)?;
            let elapsed = started.elapsed().as_secs_f64();
            let per_run = elapsed / runs.reps.len() as f64;
            if runs.reps.len() >= MIN_REPS && elapsed + per_run > seconds {
                break;
            }
        }
        for _ in 0..EXTRA_SETUPS {
            spawn_into(&mut runs, false, Pass::SetupOnly)?;
        }
        runs.end_to_end()
            .into_iter()
            .map(|(m, value, _)| (m.name.to_string(), value, m.unit))
            .collect()
    };
    let checks = runs.checks();
    let failed = checks.iter().filter(|c| !c.ok).count();
    for c in checks.iter().filter(|c| !c.ok) {
        eprintln!("check failed: {}", c.name);
    }
    eprintln!(
        "{name}: {} run(s) in {:.1} s, digest {}",
        runs.reps.len() + usize::from(runs.traced.is_some()),
        started.elapsed().as_secs_f64(),
        runs.digest().unwrap_or("-"),
    );
    let line = obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(checks.len().max(1))),
        ("failed", Json::from(failed)),
        ("metrics", rows_json(&metrics)),
    ]);
    println!("{}", line.line());
    Ok(failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(run_s: f64, setup_s: f64, rss: f64, digest: &str) -> ChildLine {
        ChildLine {
            setup_s,
            run_s,
            peak_rss_mb: rss,
            digest: digest.into(),
            report: "row".into(),
            checks: vec![Check {
                name: "no_deadlock".into(),
                ok: true,
            }],
            counts: Some(Counts {
                cycles: 1_000,
                phit_hops: 4_000,
                packets_delivered: 500,
                ..Counts::default()
            }),
            consumption_cycles: None,
            phases: Some(([100_000, 200_000, 300_000, 400_000, 50_000, 10_000], 1_000)),
            points_setup_s: None,
            points_run_s: None,
            spans: Vec::new(),
        }
    }

    fn runs() -> WorkloadRuns {
        let mut runs = WorkloadRuns::new(workload("adv_sat_h4", 1, false).unwrap());
        runs.reps = vec![
            line(2.0, 0.30, 100.0, "d"),
            line(1.0, 0.10, 102.0, "d"),
            line(3.0, 0.20, 101.0, "d"),
        ];
        runs.extra_setups = vec![0.4, 0.5];
        runs.traced = Some(line(1.1, 0.1, 100.0, "d"));
        runs
    }

    #[test]
    fn headline_statistics_are_min_for_time_and_median_for_the_rest() {
        let runs = runs();
        let values: Vec<(&str, f64)> = runs
            .end_to_end()
            .into_iter()
            .map(|(m, v, _)| (m.name, v))
            .collect();
        assert_eq!(
            values,
            [("run_s", 1.0), ("peak_rss_mb", 101.0), ("setup_s", 0.3)]
        );
        assert_eq!(runs.samples("setup_s").len(), 5);
    }

    #[test]
    fn per_layer_rows_derive_from_the_traced_run_and_untraced_time() {
        let runs = runs();
        let rows = runs.per_layer().unwrap();
        let get = |name: &str| rows.iter().find(|r| r.0 == name).unwrap().1;
        assert!((get("trace.overhead_pct") - 10.0).abs() < 1e-9);
        assert_eq!(get("sim.routing_ns_per_cycle"), 300.0);
        assert_eq!(get("sim.cycles_per_s"), 1_000.0);
        assert_eq!(get("sim.ns_per_phit_hop"), 250_000.0);
        assert!((get("trace.phase_coverage_pct") - 100.0 * 1_050.0 / 1_060.0).abs() < 1e-9);
        // Without a traced run, or without its phase times, there are no rows.
        let mut blind = self::runs();
        blind.traced.as_mut().unwrap().phases = None;
        assert!(blind.per_layer().is_none());
        blind.traced = None;
        assert!(blind.per_layer().is_none() && blind.extra_rows().is_empty());
    }

    #[test]
    fn a_diverging_report_fails_the_determinism_check() {
        let mut runs = runs();
        assert!(runs.checks().iter().all(|c| c.ok));
        assert_eq!(runs.checks().len(), 5);
        runs.reps[1].digest = "other".into();
        let failed: Vec<_> = runs.checks().into_iter().filter(|c| !c.ok).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "adv_sat_h4.every_run_same_report");
    }

    #[test]
    fn reference_digests_cover_every_workload() {
        for name in NAMES {
            let digest = reference_digest(name).expect(name);
            assert_eq!(digest.len(), 16, "{name}");
        }
    }

    #[test]
    fn benchmark_json_names_what_the_code_measures() {
        let manifest = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            manifest
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), NAMES);
        for (entry, name) in manifest
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(NAMES)
        {
            let w = workload(name, 1, false).unwrap();
            assert_eq!(entry.get("why").unwrap().as_str(), Some(w.why));
        }
        let mut end_to_end = names("end_to_end");
        end_to_end.sort();
        let mut ours: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        ours.sort();
        assert_eq!(end_to_end, ours);
        for entry in manifest.get("end_to_end").unwrap().as_arr().unwrap() {
            let ours = END_TO_END
                .iter()
                .find(|m| Some(m.name) == entry.get("name").unwrap().as_str())
                .unwrap();
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(ours.bound));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(ours.unit));
        }
        let mut ours = runs().per_layer().unwrap();
        ours.extend(micro::primitive_rows());
        let listed: Vec<(String, String)> = manifest
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = ours
            .into_iter()
            .map(|(name, _, unit)| (name, unit.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }
}
