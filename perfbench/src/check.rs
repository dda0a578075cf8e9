//! Adapters from the program's types to the auditor's plain integers,
//! and the objective comparison against `MetricsReport`.

use std::time::Instant;

use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_metrics::MetricsReport;
use rsched_sim::SimOutcome;

use crate::audit::{self, Claims, Machine, Objectives, Ran, Submitted};
use crate::report::{Fingerprint, Report};

pub fn machine(cluster: ClusterConfig) -> Machine {
    Machine {
        nodes: u64::from(cluster.nodes),
        memory_gb: cluster.memory_gb,
    }
}

pub fn submitted(jobs: &[JobSpec]) -> Vec<Submitted> {
    jobs.iter()
        .map(|j| Submitted {
            id: j.id.0,
            submit_ms: j.submit.as_millis(),
            runtime_ms: j.duration.as_millis(),
            nodes: u64::from(j.nodes),
            memory_gb: j.memory_gb,
        })
        .collect()
}

/// The program's own objective figures for a finished run.
pub fn reported(report: &MetricsReport) -> Objectives {
    Objectives {
        avg_wait_s: report.avg_wait_secs,
        avg_turnaround_s: report.avg_turnaround_secs,
        makespan_s: report.makespan_secs,
        node_utilization: report.node_utilization,
    }
}

/// Audit a simulator or service outcome against the jobs as submitted,
/// and compare the recomputed objectives with `MetricsReport`. The
/// report is computed here, outside any timed phase; returns the seconds
/// `MetricsReport::compute` took.
pub fn outcome(
    report: &mut Report,
    label: &str,
    cluster: ClusterConfig,
    jobs: &[Submitted],
    outcome: &SimOutcome,
    fcfs: bool,
) -> f64 {
    let ran: Vec<Ran> = outcome
        .records
        .iter()
        .map(|r| Ran {
            id: r.spec.id.0,
            start_ms: r.start.as_millis(),
            end_ms: r.end.as_millis(),
        })
        .collect();
    let claims = Claims {
        node_seconds: Some(outcome.node_seconds),
        fcfs,
    };
    let t = Instant::now();
    let theirs = reported(&MetricsReport::compute(&outcome.records, cluster));
    let report_s = t.elapsed().as_secs_f64();
    match audit::audit(machine(cluster), jobs, &ran, claims) {
        Err(errors) => report.problems(label, errors),
        Ok(mine) => {
            if let Err(e) = audit::check_objectives(label, &mine, &theirs, 0.0) {
                report.problem(e);
            }
        }
    }
    report_s
}

/// Fingerprint a schedule: each job's id, start and end, in id order,
/// plus the kernel's counters.
pub fn fingerprint(outcome: &SimOutcome) -> Fingerprint {
    let mut rows: Vec<(u32, u64, u64)> = outcome
        .records
        .iter()
        .map(|r| (r.spec.id.0, r.start.as_millis(), r.end.as_millis()))
        .collect();
    rows.sort_unstable();
    let mut fp = Fingerprint::default();
    for (id, start, end) in rows {
        fp.add(u64::from(id));
        fp.add(start);
        fp.add(end);
    }
    let s = outcome.stats;
    for v in [
        s.queries,
        s.placements,
        s.backfills,
        s.delays,
        s.rejections,
        s.epochs,
    ] {
        fp.add(v as u64);
    }
    fp
}
