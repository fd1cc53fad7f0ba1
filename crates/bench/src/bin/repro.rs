//! Regenerates the paper's figures, Table I and the workload studies: one row of
//! the `ROWS` table per CSV file.
//!
//! ```text
//! cargo run --release -p dragonfly_bench --bin repro -- --quick            # every row
//! cargo run --release -p dragonfly_bench --bin repro -- fig4_5 fig6 --full # two figures
//! cargo run --release -p dragonfly_bench --bin repro -- fig7_8_advgh       # one row
//! cargo run --release -p dragonfly_bench --bin repro -- churn_sweep --h 4  # one study
//! ```
//!
//! A name selects the row of that name, or every row of that figure (`fig4_5`,
//! `fig6`, `fig7_8`, `fig9`, `fig10_11`, `table1`, and the studies `interference`,
//! `transient`, `interference_sweep`, `churn_sweep`); no name runs every row, and
//! an unknown name prints the valid ones and exits 2.  Each row expands its grid
//! with one of the sweep builders of `dragonfly_core::sweep`, runs it through
//! `HarnessArgs::run_points` and writes one CSV; with
//! `--probe` every point also writes its probe file set under the prefix
//! `<row>_<point>` (for example `fig4_5_un_olm_0-30`, `fig6b_rlm_mix50`,
//! `fig10_th0-45_0-50`, `intsweep_minimal_cont_0-0250`, `churn_olm_frag-0-75`).

use dragonfly_bench::{file_slug, HarnessArgs};
use dragonfly_core::{
    job_sweep, load_sweep, mix_sweep, sweep::default_loads, sweep::paper_mix_percentages,
    sweep::paper_thresholds, threshold_sweep, Batch, CsvWriter, ExperimentSpec, FlowControlKind,
    JobReport, JobSweep, LoadSweep, MixSweep, PhaseReport, PlacementPolicy, RoutingKind, SimReport,
    ThresholdSweep, Trace, TrafficKind, WorkloadReport,
};
use dragonfly_routing::ParitySignTable;
use dragonfly_topology::DragonflyParams;
use dragonfly_workload::scenarios::{fragmentation_fits, fragmentation_trace};
use FlowControlKind::{Vct, Wormhole};
use Grid::{Churn, IntSweep, Interference, Load, Mix, ParitySign, Threshold, Transient};
use RoutingKind::{Minimal, Olm, Par62, Piggybacking, Rlm, Valiant};
use Run::{Burst, Jobs, Steady};
use Traffic::{Advg1, Advgh, Un};

/// The paper plots Minimal only under UN and Valiant only under the adversarial
/// patterns.  OLM needs Virtual Cut-Through: the sweep builders drop it from the
/// wormhole rows, which leaves the paper's Figure 7–9 sets.
const UN: &[RoutingKind] = &[Par62, Olm, Rlm, Minimal, Piggybacking];
const ADV: &[RoutingKind] = &[Par62, Olm, Rlm, Valiant, Piggybacking];
const MIX: &[RoutingKind] = &[Par62, Olm, Rlm, Piggybacking];
/// The workload studies: every adaptive mechanism against Minimal, and the
/// three-mechanism cut of the two grid studies.
const STUDY: &[RoutingKind] = &[Minimal, Piggybacking, Par62, Rlm, Olm];
const GRID_STUDY: &[RoutingKind] = &[Minimal, Piggybacking, Olm];

/// A row's traffic pattern, resolved against `h` for ADVG+h.
#[derive(Clone, Copy)]
enum Traffic {
    Un,
    Advg1,
    Advgh,
}

impl Traffic {
    fn kind(self, h: usize) -> TrafficKind {
        match self {
            Traffic::Un => TrafficKind::Uniform,
            Traffic::Advg1 => TrafficKind::AdversarialGlobal(1),
            Traffic::Advgh => TrafficKind::AdversarialGlobal(h),
        }
    }
}

/// What a row sweeps, and so the columns of its CSV.
#[derive(Clone, Copy)]
enum Grid {
    /// Mechanism × offered load (`load_sweep`): the `SimReport` columns.
    Load(Traffic),
    /// Mechanism × ADVG+h share of an ADVG+h / ADVL+1 mix at offered load 1
    /// (`mix_sweep`).
    Mix,
    /// RLM's misrouting threshold × offered load (`threshold_sweep`).
    Threshold(Traffic),
    /// Table I, the parity-sign rule: closed-form, no simulation.
    ParitySign,
    /// An ADVG+1 aggressor job against a uniform victim job at load 0.1, both
    /// interleaved over every router, the aggressor at ~96 % of the +1 global
    /// channel's saturation: one point per mechanism.
    Interference,
    /// One machine-wide job at load 0.25 that switches from UN to ADVG+h halfway
    /// through the measurement window: one point per mechanism.
    Transient,
    /// Mechanism × placement × aggressor load of the interference workload;
    /// `--loads` are fractions of the +1 global channel's saturation.
    IntSweep,
    /// Mechanism × fresh/fragmented × aggressor load of the
    /// `fragmentation_trace` churn scenario; `--loads` are absolute aggressor
    /// loads.
    Churn,
}

/// How a row's points run: to steady state, as a burst drained to empty, or as
/// a job workload with per-job statistics.
#[derive(Clone, Copy)]
enum Run {
    Steady,
    Burst,
    Jobs,
}

/// One CSV file of the paper's results.
struct Row {
    name: &'static str,
    /// The figure the row belongs to; it selects the row too.
    figure: &'static str,
    flow: FlowControlKind,
    mechanisms: &'static [RoutingKind],
    grid: Grid,
    run: Run,
    csv: &'static str,
}

const fn row(
    name: &'static str,
    figure: &'static str,
    flow: FlowControlKind,
    mechanisms: &'static [RoutingKind],
    grid: Grid,
    run: Run,
    csv: &'static str,
) -> Row {
    Row {
        name,
        figure,
        flow,
        mechanisms,
        grid,
        run,
        csv,
    }
}

#[rustfmt::skip]
const ROWS: &[Row] = &[
    row("fig4_5_un", "fig4_5", Vct, UN, Load(Un), Steady, "fig4_5_un.csv"),
    row("fig4_5_advg1", "fig4_5", Vct, ADV, Load(Advg1), Steady, "fig4_5_advg1.csv"),
    row("fig4_5_advgh", "fig4_5", Vct, ADV, Load(Advgh), Steady, "fig4_5_advgh.csv"),
    row("fig6a", "fig6", Vct, MIX, Mix, Steady, "fig6a_mix_throughput.csv"),
    row("fig6b", "fig6", Vct, MIX, Mix, Burst, "fig6b_burst_consumption.csv"),
    row("fig7_8_un", "fig7_8", Wormhole, UN, Load(Un), Steady, "fig7_8_un.csv"),
    row("fig7_8_advg1", "fig7_8", Wormhole, ADV, Load(Advg1), Steady, "fig7_8_advg1.csv"),
    row("fig7_8_advgh", "fig7_8", Wormhole, ADV, Load(Advgh), Steady, "fig7_8_advgh.csv"),
    row("fig9a", "fig9", Wormhole, MIX, Mix, Steady, "fig9a_mix_throughput_wh.csv"),
    row("fig9b", "fig9", Wormhole, MIX, Mix, Burst, "fig9b_burst_consumption_wh.csv"),
    row("fig10", "fig10_11", Vct, &[Rlm], Threshold(Un), Steady, "fig10_rlm_threshold_un.csv"),
    row("fig11", "fig10_11", Vct, &[Rlm], Threshold(Advg1), Steady, "fig11_rlm_threshold_advg1.csv"),
    row("table1", "table1", Vct, &[], ParitySign, Steady, "table1_parity_sign.csv"),
    row("interference", "interference", Vct, STUDY, Interference, Jobs, "interference.csv"),
    row("transient", "transient", Vct, STUDY, Transient, Jobs, "transient.csv"),
    row("intsweep", "interference_sweep", Vct, GRID_STUDY, IntSweep, Jobs, "interference_sweep.csv"),
    row("churn", "churn_sweep", Vct, GRID_STUDY, Churn, Jobs, "churn_sweep.csv"),
];

impl Row {
    /// The row's points, in the sweep builder's row-major order.
    fn specs(&self, args: &HarnessArgs) -> Vec<ExperimentSpec> {
        let mut base = args.base_spec(self.flow);
        let mechanisms = self.mechanisms.to_vec();
        match self.grid {
            Load(traffic) => {
                base.traffic = traffic.kind(args.h);
                let loads = figure_loads(args);
                load_sweep(&LoadSweep {
                    base,
                    mechanisms,
                    loads,
                })
            }
            Mix => {
                base.offered_load = 1.0;
                let global_percentages = if args.quick {
                    vec![0, 50, 100]
                } else {
                    paper_mix_percentages()
                };
                mix_sweep(&MixSweep {
                    base,
                    mechanisms,
                    global_percentages,
                    global_offset: args.h,
                    local_offset: 1,
                })
            }
            Threshold(traffic) => {
                base.routing = mechanisms[0];
                base.traffic = traffic.kind(args.h);
                let thresholds = if args.quick {
                    vec![0.30, 0.45, 0.60]
                } else {
                    paper_thresholds()
                };
                let loads = figure_loads(args);
                threshold_sweep(&ThresholdSweep {
                    base,
                    thresholds,
                    loads,
                })
            }
            ParitySign => Vec::new(),
            Interference | Transient | IntSweep | Churn => {
                let traces = self.traces(args, &mut base);
                job_sweep(&JobSweep {
                    base,
                    mechanisms,
                    traces,
                })
            }
        }
    }

    /// The job lists of a job row, in grid order; a churn row also sets the
    /// run horizon on `base`.
    fn traces(&self, args: &HarnessArgs, base: &mut ExperimentSpec) -> Vec<Trace> {
        let params = DragonflyParams::new(args.h);
        let nodes = params.num_nodes();
        // nodes_per_group / 2 aggressor nodes share one +1 global channel,
        // which saturates at 2 / nodes_per_group.
        match self.grid {
            Interference => {
                let aggressor_load = 0.96 * 2.0 / params.nodes_per_group() as f64;
                vec![Trace::interference(nodes, 1, aggressor_load, 0.1)]
            }
            Transient => {
                let switch_cycle = args.warmup + args.measure / 2;
                vec![Trace::transient(nodes, 0.25, switch_cycle, args.h)]
            }
            IntSweep => {
                let saturation = 2.0 / params.nodes_per_group() as f64;
                let placements = [
                    PlacementPolicy::Contiguous,
                    PlacementPolicy::RoundRobinRouters,
                    PlacementPolicy::Random { seed: args.seed },
                ];
                let mut traces = Vec::new();
                for placement in placements {
                    for fraction in figure_loads(args) {
                        let load = fraction * saturation;
                        traces.push(Trace::interference_placed(nodes, 1, load, 0.1, placement));
                    }
                }
                traces
            }
            Churn => {
                // Whole-trace runs: a compact load set that straddles the
                // scattered aggressor's saturation (≈ 2 × load phits/cycle on
                // each +1 global channel).
                let loads = args.loads.clone().unwrap_or_else(|| {
                    if args.quick {
                        vec![0.75]
                    } else {
                        vec![0.3, 0.5, 0.75, 0.9]
                    }
                });
                let run_cycles = args.measure;
                // The horizon runs past the last departure.
                base.measure = run_cycles + (run_cycles / 4).max(1_000);
                let mut traces = Vec::with_capacity(2 * loads.len());
                for load in loads {
                    for fragmented in [false, true] {
                        let mut trace = fragmentation_trace(
                            &params,
                            fragmented,
                            load,
                            0.1,
                            run_cycles / 4,
                            run_cycles,
                            args.seed,
                        );
                        trace.name = format!("{}@{load:.2}", trace.name);
                        traces.push(trace);
                    }
                }
                traces
            }
            _ => unreachable!("only the job rows have job lists"),
        }
    }

    /// The smallest `h` the row's points can be built at: the churn row's
    /// fragmentation scenario needs room for the holes its fillers leave.
    fn min_h(&self) -> usize {
        match self.grid {
            Churn => (1..)
                .find(|&h| fragmentation_fits(&DragonflyParams::new(h)))
                .expect("some h fits the fragmentation scenario"),
            _ => 1,
        }
    }

    /// The probe file-set prefix of one point: the row name, then the point.
    fn prefix(&self, spec: &ExperimentSpec) -> String {
        let two = |x: f64| file_slug(&format!("{x:.2}"));
        let routing = file_slug(spec.routing.name());
        let point = match self.grid {
            Load(_) => format!("{routing}_{}", two(spec.offered_load)),
            Mix => format!("{routing}_mix{}", global_pct(spec)),
            Threshold(_) => format!("th{}_{}", two(spec.threshold), two(spec.offered_load)),
            ParitySign => unreachable!("Table I has no simulation points"),
            Interference | Transient | IntSweep | Churn => {
                let slugs: Vec<String> =
                    self.job_point(spec).iter().map(|c| file_slug(c)).collect();
                slugs.join("_")
            }
        };
        format!("{}_{point}", self.name)
    }

    /// Run the row and return its CSV header and rows.
    fn table(&self, args: &HarnessArgs) -> (String, Vec<String>) {
        let specs = self.specs(args);
        let prefix = |spec: &ExperimentSpec| self.prefix(spec);
        let steady = || args.run_points(self.name, &specs, dragonfly_core::Steady, prefix);
        match (self.grid, self.run) {
            (ParitySign, _) => {
                let rows = ParitySignTable::new().rows().into_iter();
                let rows = rows.map(|(first, second, allowed)| {
                    let allowed = if allowed { "yes" } else { "no" };
                    format!("{},{},{allowed}", first.label(), second.label())
                });
                ("first_hop,second_hop,allowed".into(), rows.collect())
            }
            (_, Burst) => {
                let batch = Batch {
                    packets_per_node: burst_packets(args, self.flow),
                    max_cycles: 4_000_000,
                };
                eprintln!(
                    "{}: burst of {} packets/node",
                    self.name, batch.packets_per_node
                );
                let reports = args.run_points(self.name, &specs, batch, prefix);
                let rows = specs.iter().zip(&reports).map(|(spec, r)| {
                    let pct = global_pct(spec);
                    format!(
                        "{},{pct},{},{}",
                        r.routing, r.consumption_cycles, r.timed_out
                    )
                });
                (
                    "routing,global_pct,consumption_cycles,timed_out".into(),
                    rows.collect(),
                )
            }
            (_, Jobs) => {
                let reports = args.run_points(self.name, &specs, dragonfly_core::Jobs, prefix);
                self.jobs_table(&specs, &reports)
            }
            (Load(_), Steady) => (
                SimReport::csv_header().into(),
                steady().iter().map(SimReport::csv_row).collect(),
            ),
            (Mix, Steady) => {
                let rows = specs.iter().zip(steady()).map(|(spec, r)| {
                    let pct = global_pct(spec);
                    let (accepted, latency) = (r.accepted_load, r.avg_latency_cycles);
                    format!("{},{pct},{accepted:.4},{latency:.2}", r.routing)
                });
                (
                    "routing,global_pct,accepted_load,avg_latency".into(),
                    rows.collect(),
                )
            }
            (Threshold(_), Steady) => {
                let rows = specs.iter().zip(steady()).map(|(spec, r)| {
                    format!(
                        "{:.2},{:.3},{:.4},{:.2},{:.2}",
                        spec.threshold,
                        r.offered_load,
                        r.accepted_load,
                        r.avg_latency_cycles,
                        r.p99_latency_cycles
                    )
                });
                let header = "threshold,offered_load,accepted_load,avg_latency,p99_latency";
                (header.into(), rows.collect())
            }
            (_, Steady) => unreachable!("every steady row sweeps loads, mixes or thresholds"),
        }
    }

    /// The CSV of a job row: each point's own columns, then one row per phase
    /// of every job (`PhaseReport`), or per job with its lifecycle (`JobReport`)
    /// for a churn trace.
    fn jobs_table(
        &self,
        specs: &[ExperimentSpec],
        reports: &[WorkloadReport],
    ) -> (String, Vec<String>) {
        let (columns, report_columns, report_rows): (_, _, fn(&WorkloadReport) -> Vec<String>) =
            match self.grid {
                IntSweep => (
                    "routing,placement,aggressor_load",
                    PhaseReport::csv_header(),
                    WorkloadReport::phase_csv_rows,
                ),
                Churn => (
                    "routing,trace",
                    JobReport::csv_header(),
                    WorkloadReport::job_csv_rows,
                ),
                _ => (
                    "routing",
                    PhaseReport::csv_header(),
                    WorkloadReport::phase_csv_rows,
                ),
            };
        let mut rows = Vec::new();
        for (spec, report) in specs.iter().zip(reports) {
            let routing = &report.aggregate.routing;
            assert!(!report.aggregate.deadlock_detected, "{routing} deadlocked");
            let point = self.job_point(spec).join(",");
            rows.extend(
                report_rows(report)
                    .iter()
                    .map(|row| format!("{point},{row}")),
            );
        }
        (format!("{columns},{report_columns}"), rows)
    }

    /// A job point's own CSV columns, read back from its spec so the CSV
    /// cannot drift from the grid's construction order; slugged and joined
    /// by `_`, they are also its probe prefix after the row name.
    fn job_point(&self, spec: &ExperimentSpec) -> Vec<String> {
        let routing = spec.routing.name().to_string();
        match self.grid {
            IntSweep => {
                let aggressor = &spec.traffic.jobs().expect("job traffic").jobs[0];
                let load = aggressor.phases[0].offered_load;
                vec![
                    routing,
                    aggressor.placement.name().into(),
                    format!("{load:.4}"),
                ]
            }
            Churn => vec![
                routing,
                spec.traffic.jobs().expect("job traffic").name.clone(),
            ],
            _ => vec![routing],
        }
    }
}

/// The offered loads of a load-swept row: `--loads`, else the figures' grid.
fn figure_loads(args: &HarnessArgs) -> Vec<f64> {
    args.loads.clone().unwrap_or_else(|| {
        if args.quick {
            vec![0.1, 0.3, 0.5, 0.8]
        } else {
            default_loads()
        }
    })
}

/// The ADVG percentage of a mix point.
fn global_pct(spec: &ExperimentSpec) -> u32 {
    match spec.traffic {
        TrafficKind::Mixed {
            global_fraction, ..
        } => (global_fraction * 100.0).round() as u32,
        _ => unreachable!("mix sweep produces mixed traffic only"),
    }
}

/// `rows`, if every one of them can be built at `args.h`: the row's smallest
/// `h`, then every point's configuration (`SimConfig::check`).  Checked
/// before any row runs, so a refused `--h` writes nothing.
fn check_h(rows: Vec<&'static Row>, args: &HarnessArgs) -> Result<Vec<&'static Row>, String> {
    let h = args.h;
    if let Some(row) = rows.iter().find(|row| h < row.min_h()) {
        return Err(format!(
            "row `{}` needs --h {} or more (got --h {h})",
            row.name,
            row.min_h()
        ));
    }
    for row in &rows {
        for spec in row.specs(args) {
            spec.sim_config()
                .check()
                .map_err(|msg| format!("row `{}`, {}: {msg}", row.name, spec.routing.name()))?;
        }
    }
    Ok(rows)
}

/// Packets per node of the 6b/9b burst.  The paper sends 1000 8-phit packets per
/// node at h = 8; smaller networks send `1000 · h / 8`, and a wormhole burst carries
/// the same payload in 80-phit packets (the paper's 89 at h = 8).
fn burst_packets(args: &HarnessArgs, flow: FlowControlKind) -> u64 {
    let vct = if args.quick {
        20
    } else {
        1000 * args.h.min(8) as u64 / 8
    };
    match flow {
        Vct => vct,
        Wormhole => ((vct * 8) as f64 / 80.0).round().max(1.0) as u64,
    }
}

/// The rows `names` select, in table order: all of them when `names` is empty.
fn select(names: &[String]) -> Result<Vec<&'static Row>, String> {
    let picks = |row: &Row, name: &str| name == row.name || name == row.figure;
    if let Some(bad) = names.iter().find(|n| !ROWS.iter().any(|row| picks(row, n))) {
        let mut valid: Vec<&str> = Vec::new();
        for row in ROWS {
            for name in [row.figure, row.name] {
                if !valid.contains(&name) {
                    valid.push(name);
                }
            }
        }
        return Err(format!(
            "unknown row `{bad}`; valid names: {}",
            valid.join(" ")
        ));
    }
    let chosen = |row: &&Row| names.is_empty() || names.iter().any(|n| picks(row, n));
    Ok(ROWS.iter().filter(chosen).collect())
}

fn main() {
    let (args, names) = HarnessArgs::from_env_with_names();
    let rows = select(&names)
        .and_then(|rows| check_h(rows, &args))
        .unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        });
    for row in rows {
        let (header, lines) = row.table(&args);
        let path = args.csv_path(row.csv);
        let mut csv = CsvWriter::create(&path, &header).expect("cannot create the CSV output");
        println!("\n== {} ==\n{header}", row.name);
        for line in &lines {
            println!("{line}");
            csv.row(line).expect("cannot write a CSV row");
        }
        csv.flush().expect("cannot flush the CSV output");
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row, the CSV it writes and its `--quick` point count (Table I: its
    /// rows).  A row dropped or re-gridded by accident fails here by name.
    #[test]
    fn the_row_table_is_pinned() {
        let quick = HarnessArgs::parse_from(["--quick"]).unwrap();
        let table: Vec<(&str, &str, usize)> = ROWS
            .iter()
            .map(|row| {
                let points = match row.grid {
                    ParitySign => ParitySignTable::new().rows().len(),
                    _ => row.specs(&quick).len(),
                };
                (row.name, row.csv, points)
            })
            .collect();
        assert_eq!(
            table,
            [
                ("fig4_5_un", "fig4_5_un.csv", 20),
                ("fig4_5_advg1", "fig4_5_advg1.csv", 20),
                ("fig4_5_advgh", "fig4_5_advgh.csv", 20),
                ("fig6a", "fig6a_mix_throughput.csv", 12),
                ("fig6b", "fig6b_burst_consumption.csv", 12),
                ("fig7_8_un", "fig7_8_un.csv", 16),
                ("fig7_8_advg1", "fig7_8_advg1.csv", 16),
                ("fig7_8_advgh", "fig7_8_advgh.csv", 16),
                ("fig9a", "fig9a_mix_throughput_wh.csv", 9),
                ("fig9b", "fig9b_burst_consumption_wh.csv", 9),
                ("fig10", "fig10_rlm_threshold_un.csv", 12),
                ("fig11", "fig11_rlm_threshold_advg1.csv", 12),
                ("table1", "table1_parity_sign.csv", 16),
                ("interference", "interference.csv", 5),
                ("transient", "transient.csv", 5),
                ("intsweep", "interference_sweep.csv", 36),
                ("churn", "churn_sweep.csv", 6),
            ]
        );
        // No wormhole row runs OLM: it needs Virtual Cut-Through.
        for row in ROWS.iter().filter(|row| row.flow == Wormhole) {
            assert!(row.specs(&quick).iter().all(|spec| spec.routing != Olm));
        }
    }

    /// An `--h` a selected row cannot be built at is a usage error naming the
    /// row and its smallest `h`, raised before any row runs; every other row
    /// builds its points at h = 1.
    #[test]
    fn rows_refuse_an_h_below_their_minimum() {
        let h = |h: &str| HarnessArgs::parse_from(["--quick", "--h", h]).unwrap();
        let err = check_h(select(&[]).unwrap(), &h("1")).err().unwrap();
        assert_eq!(err, "row `churn` needs --h 2 or more (got --h 1)");
        assert!(check_h(select(&["churn".to_string()]).unwrap(), &h("2")).is_ok());
        let h1 = h("1");
        for row in ROWS.iter().filter(|row| row.name != "churn") {
            assert_eq!(row.min_h(), 1, "{}", row.name);
            let _ = row.specs(&h1);
        }
    }

    #[test]
    fn names_select_rows_and_figures() {
        let names = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|n| n.to_string()).collect();
            select(&argv).map(|rows| rows.iter().map(|row| row.name).collect::<Vec<_>>())
        };
        assert_eq!(names(&[]).unwrap().len(), ROWS.len());
        // A figure name selects its rows; rows come back in table order, once.
        assert_eq!(
            names(&["table1", "fig6", "fig4_5_un", "fig6a"]).unwrap(),
            ["fig4_5_un", "fig6a", "fig6b", "table1"]
        );
        assert_eq!(names(&["fig10_11"]).unwrap(), ["fig10", "fig11"]);
        // A study's figure name selects its row (`churn_sweep` runs `churn`).
        assert_eq!(
            names(&["churn_sweep", "interference_sweep"]).unwrap(),
            ["intsweep", "churn"]
        );
        assert_eq!(names(&["interference"]).unwrap(), ["interference"]);
        // An unknown name is an error that lists every valid name.
        let err = names(&["fig4_5", "foo"]).unwrap_err();
        assert!(
            err.starts_with("unknown row `foo`; valid names: fig4_5 fig4_5_un"),
            "{err}"
        );
        assert!(
            err.ends_with(
                "table1 interference transient interference_sweep intsweep churn_sweep churn"
            ),
            "{err}"
        );
    }

    fn named(name: &str) -> &'static Row {
        ROWS.iter().find(|row| row.name == name).unwrap()
    }

    /// One probe prefix per job row at `--quick`: `<row>_<point>`, with the
    /// aggressor load as a fraction of saturation (0.1 × 0.25 at h = 2) and the
    /// churn trace named after its variant and load.
    #[test]
    fn job_rows_pin_their_probe_prefixes() {
        let quick = HarnessArgs::parse_from(["--quick"]).unwrap();
        let prefix = |name: &str, point: usize| {
            let row = named(name);
            row.prefix(&row.specs(&quick)[point])
        };
        assert_eq!(prefix("interference", 0), "interference_minimal");
        assert_eq!(prefix("transient", 2), "transient_par-6-2");
        assert_eq!(prefix("intsweep", 0), "intsweep_minimal_cont_0-0250");
        assert_eq!(prefix("churn", 1), "churn_minimal_frag-0-75");
    }

    /// A job row's CSV prefixes every report row with the point's own columns.
    #[test]
    fn workload_phase_csv_prefixes_rows() {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = Olm;
        spec.traffic = TrafficKind::Jobs(Trace::interference(72, 1, 0.3, 0.1));
        spec.warmup = 300;
        spec.measure = 600;
        spec.drain = 600;
        let report = spec.run_workload();
        let (header, rows) = named("interference").jobs_table(&[spec], &[report]);
        assert_eq!(rows.len(), 2, "one row per (job, phase)");
        assert!(header.starts_with("routing,job,phase,"), "{header}");
        assert!(rows.iter().all(|l| l.starts_with("OLM,")), "{rows:?}");
        // The grid studies name their coordinates, the churn row its lifecycle.
        let header = |name: &str| named(name).jobs_table(&[], &[]).0;
        assert!(header("intsweep").starts_with("routing,placement,aggressor_load,job,phase,"));
        assert_eq!(
            header("churn"),
            format!("routing,trace,{}", JobReport::csv_header())
        );
    }

    /// The 6b/9b burst grows linearly with h up to the paper's 1000 packets at
    /// h = 8; the wormhole burst carries the same payload in 80-phit packets.
    #[test]
    fn burst_scales_linearly_with_h() {
        let burst = |h: usize, flow| {
            burst_packets(
                &HarnessArgs {
                    h,
                    ..HarnessArgs::default()
                },
                flow,
            )
        };
        let vct: Vec<u64> = (2..=8).map(|h| burst(h, Vct)).collect();
        assert_eq!(vct, [250, 375, 500, 625, 750, 875, 1000]);
        let wormhole: Vec<u64> = (2..=8).map(|h| burst(h, Wormhole)).collect();
        assert_eq!(wormhole, [25, 38, 50, 63, 75, 88, 100]);
        assert_eq!(burst(16, Vct), 1000);
        let quick = HarnessArgs::parse_from(["--quick", "--h", "6"]).unwrap();
        assert_eq!(
            (burst_packets(&quick, Vct), burst_packets(&quick, Wormhole)),
            (20, 2)
        );
    }
}
