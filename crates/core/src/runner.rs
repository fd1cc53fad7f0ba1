//! Sweep orchestration: one entry point for every figure/workload sweep.
//!
//! A [`SweepRunner`] takes any list of [`ExperimentSpec`] points — a load sweep, a
//! mechanism × pattern grid, a placement × aggressor-load workload grid — and
//! executes them on scoped worker threads pulling point indices from a shared
//! counter, with
//!
//! * a configurable worker count ([`SweepRunner::jobs`], `None` = all cores;
//!   `Some(1)` is the one-thread run),
//! * deterministic result ordering (results always come back in spec order,
//!   regardless of which worker finished first), and
//! * a progress/ETA line (points done, points/sec, estimated time remaining and
//!   the label of the currently running point) printed to stderr from a
//!   dedicated collector thread fed by a channel, so reporting never contends
//!   with the workers beyond two `send`s per point.
//!
//! Every simulation point is deterministic, so any worker count produces the
//! reports a plain in-order loop over the specs does, byte for byte (pinned by
//! `tests/sweep_equivalence.rs`).
//!
//! [`SweepRunner::run_steady`], [`SweepRunner::run_workloads`] and
//! [`SweepRunner::run_batches`] are the report-typed shorthands;
//! [`SweepRunner::run_with`] takes the protocol and the [`RunOptions`] (shards,
//! probes) explicitly.
//!
//! ```
//! use dragonfly_core::{ExperimentSpec, SweepRunner};
//!
//! let mut spec = ExperimentSpec::new(2);
//! spec.warmup = 200;
//! spec.measure = 400;
//! spec.drain = 400;
//! let specs = vec![spec.clone(), spec];
//! let reports = SweepRunner::new("doc sweep").quiet().run_steady(&specs);
//! assert_eq!(reports.len(), 2);
//! assert_eq!(reports[0], reports[1]);
//! ```

use crate::experiment::{Batch, ExperimentSpec, Jobs, Protocol, RunOptions, Steady};
use crate::parallel;
use dragonfly_probe::ProbeRecorder;
use dragonfly_stats::{BatchReport, SimReport, WorkloadReport};
use std::sync::mpsc;
use std::time::Instant;

/// Orchestrates a set of independent simulation points (see the module docs).
#[derive(Debug, Clone)]
pub struct SweepRunner {
    /// Label prefixed to progress lines (e.g. `"fig4_5_un"`).
    label: String,
    /// Worker-thread count; `None` uses every hardware thread.
    jobs: Option<usize>,
    /// Emit the progress/ETA line on stderr.
    progress: bool,
}

/// The worker count a sweep actually uses: the requested count (or all
/// `cores`), capped so that `workers × shards ≤ cores` when each point is
/// itself sharded across threads — the nested-parallelism budget that keeps a
/// `--jobs N --shards M` sweep from oversubscribing the machine.
pub fn effective_jobs(requested: Option<usize>, shards: usize, cores: usize) -> usize {
    let cores = cores.max(1);
    let requested = requested.unwrap_or(cores).max(1);
    if shards <= 1 {
        requested
    } else {
        requested.min((cores / shards).max(1))
    }
}

impl SweepRunner {
    /// A runner with the default configuration: all cores, progress enabled.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            jobs: None,
            progress: true,
        }
    }

    /// Set the worker-thread count (`None` = all hardware threads).
    pub fn jobs(mut self, jobs: Option<usize>) -> Self {
        self.jobs = jobs;
        self
    }

    /// Disable the progress/ETA line (tests, machine-read output).
    pub fn quiet(mut self) -> Self {
        self.progress = false;
        self
    }

    /// Run every steady-state point (see [`ExperimentSpec::run`]), in spec order.
    pub fn run_steady(&self, specs: &[ExperimentSpec]) -> Vec<SimReport> {
        self.reports(specs, Steady)
    }

    /// Run every job-list point (see [`ExperimentSpec::run_workload`]), in
    /// spec order, returning the per-job breakdowns.
    ///
    /// # Panics
    ///
    /// Panics when any spec's traffic is not [`crate::TrafficKind::Jobs`].
    pub fn run_workloads(&self, specs: &[ExperimentSpec]) -> Vec<WorkloadReport> {
        self.reports(specs, Jobs)
    }

    /// Run every point in burst-consumption mode (see [`ExperimentSpec::run_batch`]),
    /// in spec order.
    pub fn run_batches(
        &self,
        specs: &[ExperimentSpec],
        packets_per_node: u64,
        max_cycles: u64,
    ) -> Vec<BatchReport> {
        let batch = Batch {
            packets_per_node,
            max_cycles,
        };
        self.reports(specs, batch)
    }

    /// Run every point under `protocol` and `options` (see
    /// [`ExperimentSpec::run_with`]), in spec order, returning each point's
    /// report and — with [`RunOptions::probes`] — its recorder.  Neither
    /// option changes a report.  With [`RunOptions::shards`] > 1 the sweep's
    /// worker count is capped so that `workers × shards` never exceeds the
    /// available cores (a note is printed when the cap bites).
    ///
    /// # Panics
    ///
    /// Panics when `protocol` is [`Jobs`] and any spec's traffic is not
    /// [`crate::TrafficKind::Jobs`] (checked up front, before any point runs).
    pub fn run_with<P: Protocol>(
        &self,
        specs: &[ExperimentSpec],
        protocol: P,
        options: &RunOptions,
    ) -> Vec<(P::Report, Option<Box<ProbeRecorder>>)> {
        for spec in specs {
            protocol.check(spec);
        }
        self.execute(
            specs.len(),
            options.shards.unwrap_or(1),
            |i| specs[i].label(),
            |i| specs[i].run_with(protocol, options),
        )
    }

    /// [`SweepRunner::run_with`] under the default options, reports only.
    fn reports<P: Protocol>(&self, specs: &[ExperimentSpec], protocol: P) -> Vec<P::Report> {
        self.run_with(specs, protocol, &RunOptions::default())
            .into_iter()
            .map(|(report, _)| report)
            .collect()
    }

    /// Execute `total` independent points of `shards` threads each, preserving
    /// index order.
    ///
    /// The collector thread owns the progress state; workers send one message
    /// when a point starts (carrying its label, so the line can show what is
    /// currently running) and one when it finishes.
    fn execute<T, L, F>(&self, total: usize, shards: usize, point_label: L, work: F) -> Vec<T>
    where
        T: Send,
        L: Fn(usize) -> String + Sync,
        F: Fn(usize) -> T + Sync,
    {
        let (sender, collector) = if self.progress && total > 0 {
            let (tx, rx) = mpsc::channel::<Progress>();
            let label = self.label.clone();
            let handle = std::thread::spawn(move || collect_progress(&label, total, &rx));
            (Some(tx), Some(handle))
        } else {
            (None, None)
        };

        // The collector may already have exited; failed sends are harmless.
        let notify_start = |i: usize| {
            if let Some(tx) = &sender {
                let _ = tx.send(Progress::Started(point_label(i)));
            }
        };
        let notify = || {
            if let Some(tx) = &sender {
                let _ = tx.send(Progress::Finished);
            }
        };

        // Nested-parallelism budget: with sharded points, cap the worker
        // count so workers × shards never exceeds the available cores.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let workers = effective_jobs(self.jobs, shards, cores);
        if self.progress && shards > 1 && workers < self.jobs.unwrap_or(cores).max(1) {
            eprintln!(
                "  {}: capping sweep workers to {workers} ({shards} shards/point on \
                 {cores} cores)",
                self.label
            );
        }
        let results = parallel::run_indexed(total, workers, |i| {
            notify_start(i);
            let value = work(i);
            notify();
            value
        });

        drop(sender);
        if let Some(handle) = collector {
            let _ = handle.join();
        }
        results
    }
}

/// One progress message from a worker to the collector thread.
enum Progress {
    /// A point started running; the payload is its spec label.
    Started(String),
    /// A point finished.
    Finished,
}

/// Progress loop of the dedicated collector thread: points done, points/sec,
/// the estimated time remaining, and the label of the most recently started
/// (i.e. currently running) point.
fn collect_progress(label: &str, total: usize, rx: &mpsc::Receiver<Progress>) {
    let start = Instant::now();
    let mut done = 0usize;
    let mut current = String::new();
    // Previous line width (in chars), so a shorter line overprints the rest.
    let mut width = 0usize;
    while let Ok(msg) = rx.recv() {
        match msg {
            Progress::Started(point) => current = point,
            Progress::Finished => done += 1,
        }
        let elapsed = start.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let eta = if rate > 0.0 {
            format_eta((total - done) as f64 / rate)
        } else {
            "?".to_string()
        };
        let line = if done == total || current.is_empty() {
            format!("  {label}: {done}/{total} points \u{b7} {rate:.1} pts/s \u{b7} ETA {eta}")
        } else {
            format!(
                "  {label}: {done}/{total} points \u{b7} {rate:.1} pts/s \u{b7} ETA {eta} \
                 \u{b7} running {current}"
            )
        };
        eprint!("\r{line:<width$}");
        width = line.chars().count();
        if done == total {
            break;
        }
    }
    eprintln!();
}

/// Format a duration in seconds as `Ns` / `MmSSs` / `HhMMm` for the ETA column.
fn format_eta(seconds: f64) -> String {
    let s = seconds.round().max(0.0) as u64;
    if s < 60 {
        format!("{s}s")
    } else if s < 3600 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::TrafficKind;
    use dragonfly_routing::RoutingKind;
    use dragonfly_workload::Trace;

    fn quick_spec(routing: RoutingKind, load: f64, seed: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = routing;
        spec.offered_load = load;
        spec.warmup = 300;
        spec.measure = 600;
        spec.drain = 600;
        spec.seed = seed;
        spec
    }

    #[test]
    fn parallel_and_sequential_steady_agree() {
        let specs = vec![
            quick_spec(RoutingKind::Minimal, 0.1, 1),
            quick_spec(RoutingKind::Olm, 0.2, 2),
            quick_spec(RoutingKind::Piggybacking, 0.3, 3),
        ];
        let par = SweepRunner::new("t")
            .quiet()
            .jobs(Some(3))
            .run_steady(&specs);
        let seq: Vec<SimReport> = specs.iter().map(ExperimentSpec::run).collect();
        assert_eq!(par, seq);
        assert_eq!(par[1].routing, "OLM");
    }

    #[test]
    fn workload_points_return_breakdowns_in_order() {
        let workload = Trace::interference(72, 1, 0.3, 0.1);
        let specs: Vec<ExperimentSpec> = [RoutingKind::Minimal, RoutingKind::Olm]
            .into_iter()
            .map(|routing| {
                let mut spec = quick_spec(routing, 0.0, 5);
                spec.traffic = TrafficKind::Jobs(workload.clone());
                spec
            })
            .collect();
        let reports = SweepRunner::new("t").quiet().run_workloads(&specs);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].aggregate.routing, "Minimal");
        assert_eq!(reports[1].aggregate.routing, "OLM");
        assert_eq!(reports[0].jobs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "requires TrafficKind::Jobs")]
    fn run_workloads_rejects_plain_traffic() {
        let specs = vec![quick_spec(RoutingKind::Minimal, 0.1, 1)];
        let _ = SweepRunner::new("t").quiet().run_workloads(&specs);
    }

    #[test]
    fn batches_run_through_the_runner() {
        let specs = vec![
            quick_spec(RoutingKind::Olm, 1.0, 7),
            quick_spec(RoutingKind::Rlm, 1.0, 8),
        ];
        let par = SweepRunner::new("t")
            .quiet()
            .run_batches(&specs, 2, 100_000);
        let seq: Vec<BatchReport> = specs.iter().map(|s| s.run_batch(2, 100_000)).collect();
        assert_eq!(par, seq);
        assert!(par.iter().all(|r| !r.timed_out));
    }

    #[test]
    fn empty_sweep_is_fine() {
        let reports = SweepRunner::new("t").run_steady(&[]);
        assert!(reports.is_empty());
    }

    #[test]
    fn nested_parallelism_budget_caps_workers() {
        // shards = 1: the requested count (or all cores) passes through.
        assert_eq!(effective_jobs(None, 1, 8), 8);
        assert_eq!(effective_jobs(Some(3), 1, 8), 3);
        assert_eq!(effective_jobs(Some(12), 1, 8), 12);
        // shards > 1: workers × shards never exceeds the cores.
        assert_eq!(effective_jobs(None, 2, 8), 4);
        assert_eq!(effective_jobs(None, 4, 8), 2);
        assert_eq!(effective_jobs(Some(8), 4, 8), 2);
        // An explicit request below the cap is honoured as-is.
        assert_eq!(effective_jobs(Some(1), 4, 8), 1);
        // The cap never starves the sweep: at least one worker survives.
        assert_eq!(effective_jobs(None, 8, 4), 1);
        assert_eq!(effective_jobs(Some(2), 16, 4), 1);
        // Degenerate core counts stay sane.
        assert_eq!(effective_jobs(None, 2, 0), 1);
    }

    #[test]
    fn sharded_sweep_points_match_unsharded() {
        let specs = vec![
            quick_spec(RoutingKind::Minimal, 0.1, 1),
            quick_spec(RoutingKind::Olm, 0.2, 2),
        ];
        let plain = SweepRunner::new("t").quiet().run_steady(&specs);
        let options = RunOptions {
            shards: Some(3),
            probes: None,
        };
        let sharded = SweepRunner::new("t")
            .quiet()
            .run_with(&specs, Steady, &options);
        assert!(sharded.iter().all(|(_, probe)| probe.is_none()));
        let sharded: Vec<SimReport> = sharded.into_iter().map(|(report, _)| report).collect();
        assert_eq!(plain, sharded);
    }

    #[test]
    fn probed_sweep_returns_each_points_recorder_in_spec_order() {
        let specs = vec![
            quick_spec(RoutingKind::Minimal, 0.1, 1),
            quick_spec(RoutingKind::Olm, 0.3, 2),
        ];
        let options = RunOptions {
            shards: None,
            probes: Some(dragonfly_probe::ProbeConfig::default()),
        };
        let probed = SweepRunner::new("t")
            .quiet()
            .run_with(&specs, Steady, &options);
        for (spec, (report, probe)) in specs.iter().zip(&probed) {
            let (expected, recorder) = spec.run_with(Steady, &options);
            assert_eq!(report, &expected);
            assert_eq!(
                probe.as_ref().unwrap().column("injected"),
                recorder.unwrap().column("injected")
            );
        }
    }

    #[test]
    fn eta_formatting() {
        assert_eq!(format_eta(0.2), "0s");
        assert_eq!(format_eta(59.4), "59s");
        assert_eq!(format_eta(61.0), "1m01s");
        assert_eq!(format_eta(3_720.0), "1h02m");
    }
}
