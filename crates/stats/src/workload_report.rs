//! Per-job and per-phase reports of a workload run.

use crate::SimReport;

/// Statistics of one phase of one job, attributed by packet generation time.
///
/// Throughput-style quantities (`injected_load`, `accepted_load`) are normalized by
/// the job's node count and by the overlap of the phase's span with the measurement
/// window (`measured_cycles`), so a phase that was only half inside the window still
/// reports loads in phits/(node·cycle).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Job display name.
    pub job: String,
    /// Phase index within the job.
    pub phase: usize,
    /// Pattern display name of the phase (e.g. `"ADVG+1"`).
    pub pattern: String,
    /// Offered load configured for the phase, in phits/(node·cycle).
    pub offered_load: f64,
    /// Absolute cycle at which the phase starts.
    pub start_cycle: u64,
    /// Absolute cycle at which the phase ends (`u64::MAX` = end of run).
    pub end_cycle: u64,
    /// Cycles of the phase inside the measurement window.
    pub measured_cycles: u64,
    /// Injected load during the measured span, in phits/(node·cycle).
    pub injected_load: f64,
    /// Accepted (delivered) load during the measured span, in phits/(node·cycle).
    pub accepted_load: f64,
    /// Mean latency of measured packets generated in this phase, in cycles.
    pub avg_latency_cycles: f64,
    /// 99th-percentile latency in cycles.
    pub p99_latency_cycles: f64,
    /// Maximum observed latency in cycles.
    pub max_latency_cycles: f64,
    /// Mean router-to-router hops.
    pub avg_hops: f64,
    /// Fraction of measured packets that took a global misroute.
    pub global_misroute_fraction: f64,
    /// Fraction of measured packets that took at least one local misroute.
    pub local_misroute_fraction: f64,
    /// Packets generated in this phase (whole run).
    pub packets_generated: u64,
    /// Packets of this phase delivered (whole run).
    pub packets_delivered: u64,
    /// Measured packets (generated inside the window and delivered).
    pub packets_measured: u64,
}

impl PhaseReport {
    /// CSV header matching [`PhaseReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "job,phase,pattern,offered_load,start_cycle,end_cycle,measured_cycles,\
         injected_load,accepted_load,avg_latency,p99_latency,max_latency,avg_hops,\
         global_misroute_frac,local_misroute_frac,packets_generated,packets_delivered,\
         packets_measured"
    }

    /// One CSV row (no trailing newline).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{:.4},{},{},{},{:.4},{:.4},{:.2},{:.2},{:.2},{:.3},{:.4},{:.4},{},{},{}",
            self.job,
            self.phase,
            self.pattern,
            self.offered_load,
            self.start_cycle,
            if self.end_cycle == u64::MAX {
                "end".to_string()
            } else {
                self.end_cycle.to_string()
            },
            self.measured_cycles,
            self.injected_load,
            self.accepted_load,
            self.avg_latency_cycles,
            self.p99_latency_cycles,
            self.max_latency_cycles,
            self.avg_hops,
            self.global_misroute_fraction,
            self.local_misroute_fraction,
            self.packets_generated,
            self.packets_delivered,
            self.packets_measured
        )
    }
}

/// Lifecycle of one dynamically scheduled job: when it arrived, when the scheduler
/// could place it, and when it finished.
///
/// Produced only by trace-driven (churn) runs; jobs of a static workload have no
/// lifecycle (they occupy their nodes for the whole run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobLifecycleReport {
    /// Absolute cycle at which the job arrived (entered the wait queue).
    pub arrival_cycle: u64,
    /// Cycle at which the job was placed onto free nodes (`None` = never placed).
    pub placed_cycle: Option<u64>,
    /// Cycle at which the job completed (`None` = still running at the horizon).
    pub completion_cycle: Option<u64>,
    /// Cycles spent waiting for nodes (`placed - arrival`; `None` = never placed).
    pub wait_cycles: Option<u64>,
    /// (wait + service) / ideal service time, where the ideal is the configured
    /// duration for duration-bound jobs and the injection-limited time
    /// `volume_phits / (nodes · offered_load)` for volume-bound jobs.  1.0 means
    /// the job neither waited nor was slowed by congestion; `None` = incomplete.
    pub slowdown: Option<f64>,
}

impl JobLifecycleReport {
    /// CSV fragment matching [`JobReport::csv_row`]'s lifecycle columns
    /// (`arrival,placed,completion,wait,slowdown`; `na` for absent values).
    fn csv_fragment(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("na".to_string(), |c| c.to_string());
        format!(
            "{},{},{},{},{}",
            self.arrival_cycle,
            opt(self.placed_cycle),
            opt(self.completion_cycle),
            opt(self.wait_cycles),
            self.slowdown
                .map_or("na".to_string(), |s| format!("{s:.3}"))
        )
    }
}

/// Statistics of one job over the whole measurement window, plus its phases.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job display name.
    pub name: String,
    /// Number of nodes the job occupies.
    pub nodes: usize,
    /// Injected load over the measurement window, in phits/(node·cycle).
    pub injected_load: f64,
    /// Accepted load over the measurement window, in phits/(node·cycle).
    pub accepted_load: f64,
    /// Mean latency of the job's measured packets, in cycles.
    pub avg_latency_cycles: f64,
    /// 99th-percentile latency in cycles.
    pub p99_latency_cycles: f64,
    /// Maximum observed latency in cycles.
    pub max_latency_cycles: f64,
    /// Mean router-to-router hops.
    pub avg_hops: f64,
    /// Fraction of measured packets that took a global misroute.
    pub global_misroute_fraction: f64,
    /// Fraction of measured packets that took at least one local misroute.
    pub local_misroute_fraction: f64,
    /// Packets the job generated (whole run).
    pub packets_generated: u64,
    /// Packets of the job delivered (whole run).
    pub packets_delivered: u64,
    /// Measured packets of the job.
    pub packets_measured: u64,
    /// Arrival/placement/completion lifecycle (trace-driven runs only).
    pub lifecycle: Option<JobLifecycleReport>,
    /// Per-phase breakdown, in phase order.
    pub phases: Vec<PhaseReport>,
}

impl JobReport {
    /// CSV header matching [`JobReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "job,nodes,injected_load,accepted_load,avg_latency,p99_latency,max_latency,\
         avg_hops,global_misroute_frac,local_misroute_frac,packets_generated,\
         packets_delivered,packets_measured,arrival,placed,completion,wait,slowdown"
    }

    /// One job-level CSV row (no trailing newline); the lifecycle columns print
    /// `na` for static-workload jobs.
    pub fn csv_row(&self) -> String {
        let lifecycle = self
            .lifecycle
            .map_or_else(|| "na,na,na,na,na".to_string(), |l| l.csv_fragment());
        format!(
            "{},{},{:.4},{:.4},{:.2},{:.2},{:.2},{:.3},{:.4},{:.4},{},{},{},{lifecycle}",
            self.name,
            self.nodes,
            self.injected_load,
            self.accepted_load,
            self.avg_latency_cycles,
            self.p99_latency_cycles,
            self.max_latency_cycles,
            self.avg_hops,
            self.global_misroute_fraction,
            self.local_misroute_fraction,
            self.packets_generated,
            self.packets_delivered,
            self.packets_measured
        )
    }
}

/// The full result of a workload run: the aggregate steady-state report plus the
/// per-job (and nested per-phase) breakdowns.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// The machine-wide steady-state report (same semantics as a plain run).
    pub aggregate: SimReport,
    /// Per-job breakdowns, in job order.
    pub jobs: Vec<JobReport>,
}

impl WorkloadReport {
    /// Look a job up by name.
    pub fn job(&self, name: &str) -> Option<&JobReport> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// All phase rows (CSV body matching [`PhaseReport::csv_header`]).
    pub fn phase_csv_rows(&self) -> Vec<String> {
        self.jobs
            .iter()
            .flat_map(|j| j.phases.iter().map(PhaseReport::csv_row))
            .collect()
    }

    /// All job-level rows (CSV body matching [`JobReport::csv_header`]), including
    /// the lifecycle columns of trace-driven runs.
    pub fn job_csv_rows(&self) -> Vec<String> {
        self.jobs.iter().map(JobReport::csv_row).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase() -> PhaseReport {
        PhaseReport {
            job: "aggressor".into(),
            phase: 0,
            pattern: "ADVG+1".into(),
            offered_load: 0.6,
            start_cycle: 0,
            end_cycle: u64::MAX,
            measured_cycles: 8_000,
            injected_load: 0.58,
            accepted_load: 0.11,
            avg_latency_cycles: 900.0,
            p99_latency_cycles: 4_000.0,
            max_latency_cycles: 6_000.0,
            avg_hops: 2.5,
            global_misroute_fraction: 0.0,
            local_misroute_fraction: 0.0,
            packets_generated: 30_000,
            packets_delivered: 9_000,
            packets_measured: 8_000,
        }
    }

    #[test]
    fn phase_csv_arity_matches_header() {
        let row = phase().csv_row();
        assert_eq!(
            row.split(',').count(),
            PhaseReport::csv_header().split(',').count()
        );
        assert!(row.starts_with("aggressor,0,ADVG+1,"));
        assert!(
            row.contains(",end,"),
            "open-ended phase prints 'end': {row}"
        );
    }

    #[test]
    fn workload_report_job_lookup_and_rows() {
        let report = WorkloadReport {
            aggregate: crate::SimReport {
                routing: "OLM".into(),
                traffic: "WL[x]".into(),
                offered_load: 0.3,
                injected_load: 0.3,
                accepted_load: 0.28,
                avg_latency_cycles: 200.0,
                p99_latency_cycles: 400.0,
                max_latency_cycles: 500.0,
                avg_hops: 2.0,
                global_misroute_fraction: 0.2,
                local_misroute_fraction: 0.1,
                packets_delivered: 1000,
                packets_measured: 900,
                warmup_cycles: 1000,
                measure_cycles: 2000,
                deadlock_detected: false,
                peak_in_flight_packets: 0,
                peak_buffered_phits: 0,
                peak_vc_occupancy: 0,
            },
            jobs: vec![JobReport {
                name: "aggressor".into(),
                nodes: 36,
                injected_load: 0.58,
                accepted_load: 0.11,
                avg_latency_cycles: 900.0,
                p99_latency_cycles: 4_000.0,
                max_latency_cycles: 6_000.0,
                avg_hops: 2.5,
                global_misroute_fraction: 0.0,
                local_misroute_fraction: 0.0,
                packets_generated: 30_000,
                packets_delivered: 9_000,
                packets_measured: 8_000,
                lifecycle: None,
                phases: vec![phase()],
            }],
        };
        assert!(report.job("aggressor").is_some());
        assert!(report.job("victim").is_none());
        assert_eq!(report.phase_csv_rows().len(), 1);
        assert_eq!(report.job_csv_rows().len(), 1);
        // Static workloads print `na` lifecycle columns with the right arity.
        let row = &report.job_csv_rows()[0];
        assert_eq!(
            row.split(',').count(),
            JobReport::csv_header().split(',').count()
        );
        assert!(row.ends_with("na,na,na,na,na"), "{row}");
    }

    #[test]
    fn lifecycle_csv_fragment_formats_absent_values() {
        let complete = JobLifecycleReport {
            arrival_cycle: 100,
            placed_cycle: Some(250),
            completion_cycle: Some(1_250),
            wait_cycles: Some(150),
            slowdown: Some(1.15),
        };
        assert_eq!(complete.csv_fragment(), "100,250,1250,150,1.150");
        let unplaced = JobLifecycleReport {
            arrival_cycle: 100,
            placed_cycle: None,
            completion_cycle: None,
            wait_cycles: None,
            slowdown: None,
        };
        assert_eq!(unplaced.csv_fragment(), "100,na,na,na,na");
    }
}
