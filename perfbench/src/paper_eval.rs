//! `paper_eval`: the paper's evaluation as its users rerun it. FCFS, SJF,
//! EASY, OR-Tools, Claude-3.7 and O4-Mini on the seven paper scenarios at
//! 10–100 jobs, through the campaign engine on an empty cell cache, with
//! a one-worker pool.
//!
//! Schedules come from a recording decorator; each is audited against the
//! workload generated independently in set-up, its objectives compared
//! with the cell's, and the campaign's Pareto ranks recomputed. A last,
//! untimed pass served from the cell cache must reproduce `summary.json`
//! byte for byte.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rsched_campaign::{Campaign, CampaignOutcome, CampaignSpec, CampaignSummary, CellResult};
use rsched_cluster::{ClusterConfig, JobRecord, JobSpec};
use rsched_metrics::{Metric, MetricsReport};
use rsched_parallel::ThreadPool;
use rsched_registry::names;
use rsched_workloads::names::LEGACY_SEVEN;
use rsched_workloads::{scenario_builtins, ArrivalMode, ScenarioContext};

use crate::audit::{self, Claims, Objectives, Ran};
use crate::decorate::{policy_registry, scenario_registry, CellRecord, Probe, Summary, Watch};
use crate::report::{self, median, mix, per_round, secs, Fingerprint, Hist, Report};
use crate::{check, Args};

const POLICIES: [&str; 6] = [
    names::FCFS,
    names::SJF,
    names::EASY,
    names::OR_TOOLS,
    names::CLAUDE37,
    names::O4_MINI,
];
const JOBS: [usize; 5] = [10, 25, 50, 75, 100];
/// Campaign pool workers. One, which is within the engine's "no more than
/// nproc" and measured about half as spread run to run as two workers on
/// a shared 2-core host (the OR-Tools cells no longer compete for the
/// second core with the engine's own thread).
const WORKERS: usize = 1;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 25;

/// The grid's workloads, generated in set-up: the auditor's reference for
/// what each cell was asked to schedule.
type Reference = HashMap<(String, usize), Vec<JobSpec>>;

/// A recorded schedule's key: policy, policy seed, and the identity of
/// the workload it was built for.
type RecordKey = (String, u64, Vec<(u32, u64)>);

struct Round {
    timed_s: f64,
    jobs: usize,
    print: Fingerprint,
    measured: Summary,
    cells: usize,
    report_s: f64,
    engine_self_s: f64,
}

impl report::Round for Round {
    fn timed_s(&self) -> f64 {
        self.timed_s
    }
    fn print(&self) -> Fingerprint {
        self.print
    }
    fn take_steps(&mut self) -> Hist {
        std::mem::take(&mut self.measured.steps)
    }
}

/// Round `i`'s campaign spec and the workloads its grid will generate.
struct Prepared {
    spec: CampaignSpec,
    reference: Reference,
    setup_s: f64,
    generate_s: f64,
}

/// The set-up a user does before a campaign runs: parse and validate the
/// spec and build the registry; here also every grid workload, generated
/// independently as the auditor's reference.
fn prepare(seed: u64, probe: &Arc<Probe>) -> Result<Prepared, String> {
    let replication = seed >> 34;
    let text = format!(
        "name = \"paper_eval\"\npolicies = [{}]\nscenarios = [{}]\njobs = [{}]\nseeds = [{replication}]\n",
        quoted(&POLICIES),
        quoted(&LEGACY_SEVEN),
        JOBS.map(|j| j.to_string()).join(", "),
    );
    let t = Instant::now();
    let spec = CampaignSpec::parse(&text).map_err(|e| format!("campaign spec: {e}"))?;
    let registry = policy_registry(&POLICIES, watch(false), probe);
    spec.validate(&registry, scenario_builtins())
        .map_err(|e| format!("campaign spec: {e}"))?;
    let cluster = spec.cluster();
    let g = Instant::now();
    let mut reference = Reference::new();
    for scenario in &spec.scenarios {
        for &jobs in &spec.jobs {
            let ctx = ScenarioContext::new(jobs)
                .with_mode(ArrivalMode::Dynamic)
                .with_seed(replication)
                .with_cluster(cluster);
            let w = scenario_builtins()
                .generate(scenario, &ctx)
                .map_err(|e| format!("{scenario}: {e}"))?;
            reference.insert((scenario.clone(), jobs), w.jobs);
        }
    }
    Ok(Prepared {
        generate_s: secs(g),
        setup_s: secs(t),
        spec,
        reference,
    })
}

pub fn run(args: &Args, report: &mut Report) {
    let probe = Probe::new();
    let seed_of = |i: usize| mix(args.seed, 200 + i as u64);
    // Set-up figures: round 0's set-up, repeated.
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    for _ in 0..SETUPS {
        match prepare(seed_of(0), &probe) {
            Ok(p) => {
                setup_s.push(p.setup_s);
                generate_s.push(p.generate_s);
            }
            Err(e) => return report.problem(e),
        }
    }
    let pool = ThreadPool::new(WORKERS);
    let dir_of = |i: usize, traced: bool| args.work.join(format!("round-{i}-{}", u8::from(traced)));

    let (plain, traced, steps) = report::phases(args, report, |i, traced, report| {
        match prepare(seed_of(i), &probe) {
            Ok(p) => play(
                &p.spec,
                &p.reference,
                &pool,
                &dir_of(i, traced),
                traced,
                &probe,
                report,
            ),
            Err(e) => {
                report.problem(e);
                Round {
                    timed_s: 0.0,
                    jobs: 0,
                    print: Fingerprint::default(),
                    measured: Summary::default(),
                    cells: 0,
                    report_s: 0.0,
                    engine_self_s: 0.0,
                }
            }
        }
    });
    report.attempted = plain.iter().chain(&traced).map(|r| r.cells as u64).sum();
    if let Ok(p) = prepare(seed_of(0), &probe) {
        reserve_from_cache(&p.spec, &dir_of(0, false), &probe, &pool, report);
    }

    let rate = |r: &Round| r.jobs as f64 / r.timed_s;
    if !args.trace {
        report.set("jobs_per_s", per_round(&plain, rate));
        report.set("setup_s", median(&setup_s));
        report.set("peak_rss_mb", report::peak_rss_mb());
        report.set("tick_p50_us", steps.quantile_us(0.5));
        report.set("tick_p99_us", steps.quantile_us(0.99));
        return;
    }
    report.set("workloads.generate_s", median(&generate_s));
    report.set(
        "sim.self_s",
        per_round(&traced, |r| {
            let m = &r.measured;
            m.cells_s - m.generate_s - m.policy_s
        }),
    );
    let first = &traced[0].measured;
    report.set("sim.queries", first.queries as f64);
    report.set("sim.epochs", first.epochs as f64);
    report.set("sim.rejections", first.rejections as f64);
    report.set(
        "schedulers.decide_s",
        per_round(&traced, |r| r.measured.decide_s[0]),
    );
    report.set(
        "schedulers.decide_p99_us",
        per_round(&traced, |r| r.measured.decide_p99_us),
    );
    report.set(
        "cpsolver.plan_s",
        per_round(&traced, |r| r.measured.decide_s[1]),
    );
    report.set(
        "core.decide_self_s",
        per_round(&traced, |r| {
            r.measured.decide_s[2] - r.measured.llm_complete_s
        }),
    );
    report.set("core.prompt_bytes", first.prompt_bytes as f64);
    report.set(
        "llm.complete_s",
        per_round(&traced, |r| r.measured.llm_complete_s),
    );
    report.set("llm.calls", first.llm_calls as f64);
    report.set("llm.failures", first.llm_failures as f64);
    report.set("metrics.report_s", per_round(&traced, |r| r.report_s));
    report.set(
        "campaign.cell_p50_ms",
        per_round(&traced, |r| r.measured.cell_p50_ms),
    );
    report.set(
        "campaign.engine_self_s",
        per_round(&traced, |r| r.engine_self_s),
    );
    report.set("telemetry.traced_jobs_per_s", per_round(&traced, rate));
    report.set("telemetry.untraced_jobs_per_s", per_round(&plain, rate));
}

fn watch(timed: bool) -> Watch {
    Watch {
        timed,
        record: true,
    }
}

fn quoted(names: &[&str]) -> String {
    names
        .iter()
        .map(|n| format!("\"{n}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// One campaign on an empty cache, then its audit.
fn play(
    spec: &CampaignSpec,
    reference: &Reference,
    pool: &ThreadPool,
    dir: &Path,
    traced: bool,
    probe: &Arc<Probe>,
    report: &mut Report,
) -> Round {
    let mut campaign = Campaign::new(spec.clone())
        .out_root(dir)
        .policies(Arc::new(policy_registry(&POLICIES, watch(traced), probe)));
    if traced {
        campaign = campaign.scenarios(Arc::new(scenario_registry(&LEGACY_SEVEN, probe)));
    }
    let cells = campaign.grid().len();
    let cluster = spec.cluster();
    let start = Instant::now();
    let outcome = campaign.run(pool);
    let timed_s = secs(start);
    let end = Instant::now();
    let measured = probe.take();
    let mut round = Round {
        timed_s,
        jobs: 0,
        print: Fingerprint::default(),
        cells,
        report_s: 0.0,
        engine_self_s: timed_s - covered(&measured.cells, start, end),
        measured: Summary::default(),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            report.failed += cells as u64;
            report.problem(format!("campaign: {e}"));
            return round;
        }
    };
    if outcome.ran != cells || outcome.cached != 0 {
        report.problem(format!(
            "an empty cache ran {} of {cells} cells and served {}",
            outcome.ran, outcome.cached
        ));
    }
    round.jobs = outcome.results.iter().map(|r| r.cell.jobs).sum();
    let records: HashMap<RecordKey, &CellRecord> = measured
        .records
        .iter()
        .map(|r| ((r.policy.clone(), r.seed, identity(&r.jobs)), r))
        .collect();
    let mut report_time = 0.0;
    for result in &outcome.results {
        let cell = &result.cell;
        let label = cell.label();
        let jobs = &reference[&(cell.scenario.clone(), cell.jobs)];
        let Some(record) = records.get(&(cell.policy.clone(), cell.policy_seed(), identity(jobs)))
        else {
            report.problem(format!(
                "{label}: no schedule was recorded for this cell's workload"
            ));
            continue;
        };
        audit_cell(report, &label, cluster, jobs, record, result);
        for &(id, start) in &record.starts {
            round.print.add(u64::from(id));
            round.print.add(start.as_millis());
        }
        for m in result.metrics {
            round.print.add(m.to_bits());
        }
        if traced {
            let records: Vec<JobRecord> = start_records(jobs, record);
            let t = Instant::now();
            std::hint::black_box(MetricsReport::compute(&records, cluster));
            report_time += secs(t);
        }
    }
    check_pareto(report, &outcome);
    if traced {
        let t = Instant::now();
        std::hint::black_box(CampaignSummary::compute(spec, &outcome.results));
        report_time += secs(t);
    }
    round.report_s = report_time;
    round.measured = measured.summary();
    round
}

/// What identifies a workload: each job's id and submit time, in order.
fn identity(jobs: &[JobSpec]) -> Vec<(u32, u64)> {
    jobs.iter()
        .map(|j| (j.id.0, j.submit.as_millis()))
        .collect()
}

fn start_records(jobs: &[JobSpec], record: &CellRecord) -> Vec<JobRecord> {
    let starts: HashMap<u32, _> = record.starts.iter().copied().collect();
    jobs.iter()
        .filter_map(|j| starts.get(&j.id.0).map(|&s| JobRecord::new(j.clone(), s)))
        .collect()
}

/// Audit one cell's recorded schedule and compare its objectives with
/// the cell's (rounded to six decimals by the campaign).
fn audit_cell(
    report: &mut Report,
    label: &str,
    cluster: ClusterConfig,
    jobs: &[JobSpec],
    record: &CellRecord,
    result: &CellResult,
) {
    if record.jobs != jobs {
        report.problem(format!(
            "{label}: the policy was built for another workload"
        ));
        return;
    }
    let runtime: HashMap<u32, u64> = jobs
        .iter()
        .map(|j| (j.id.0, j.duration.as_millis()))
        .collect();
    let ran: Vec<Ran> = record
        .starts
        .iter()
        .map(|&(id, start)| Ran {
            id,
            start_ms: start.as_millis(),
            end_ms: start.as_millis() + runtime.get(&id).copied().unwrap_or(0),
        })
        .collect();
    let claims = Claims {
        node_seconds: None,
        fcfs: record.policy == names::FCFS,
    };
    match audit::audit(
        check::machine(cluster),
        &check::submitted(jobs),
        &ran,
        claims,
    ) {
        Err(errors) => report.problems(label, errors),
        Ok(mine) => {
            let theirs = Objectives {
                avg_wait_s: result.metric(Metric::AvgWait),
                avg_turnaround_s: result.metric(Metric::AvgTurnaround),
                makespan_s: result.metric(Metric::Makespan),
                node_utilization: result.metric(Metric::NodeUtilization),
            };
            if let Err(e) = audit::check_objectives(label, &mine, &theirs, 1e-6) {
                report.problem(e);
            }
            if result.placements != jobs.len() as u64 {
                report.problem(format!(
                    "{label}: {} placements for {} jobs",
                    result.placements,
                    jobs.len()
                ));
            }
        }
    }
}

/// Six-decimal rounding, as the campaign documents for every artifact.
fn six(v: f64) -> f64 {
    if v.is_finite() {
        format!("{v:.6}").parse().unwrap_or(v)
    } else {
        v
    }
}

/// Recompute each group's Pareto ranks by direct dominance over the
/// seed-averaged, min–max normalised cell objectives, and compare them
/// with the campaign summary.
fn check_pareto(report: &mut Report, outcome: &CampaignOutcome) {
    let summary = &outcome.summary;
    for group in &summary.fronts {
        let vectors: Vec<Vec<f64>> = group
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<&CellResult> = outcome
                    .results
                    .iter()
                    .filter(|r| {
                        r.cell.policy == row.policy
                            && r.cell.scenario == group.scenario
                            && r.cell.jobs == group.jobs
                    })
                    .collect();
                summary
                    .objectives
                    .iter()
                    .map(|&m| {
                        let mean = six(
                            cells.iter().map(|c| c.metric(m)).sum::<f64>() / cells.len() as f64
                        );
                        if m.higher_is_better() {
                            -mean
                        } else {
                            mean
                        }
                    })
                    .collect()
            })
            .collect();
        if vectors.iter().flatten().any(|v| !v.is_finite()) {
            continue;
        }
        let dims = summary.objectives.len();
        let mut normalized = vec![vec![0.0; dims]; vectors.len()];
        for d in 0..dims {
            let lo = vectors.iter().map(|v| v[d]).fold(f64::INFINITY, f64::min);
            let hi = vectors
                .iter()
                .map(|v| v[d])
                .fold(f64::NEG_INFINITY, f64::max);
            for (i, v) in vectors.iter().enumerate() {
                normalized[i][d] = if hi > lo {
                    six((v[d] - lo) / (hi - lo))
                } else {
                    0.0
                };
            }
        }
        let ranks = audit::pareto_ranks(&normalized);
        for (row, rank) in group.rows.iter().zip(ranks) {
            if row.rank != rank {
                report.problem(format!(
                    "{}/{}: {} has Pareto rank {} in the summary, {rank} by direct dominance",
                    group.scenario, group.jobs, row.policy, row.rank
                ));
            }
        }
    }
}

/// Host time within `[start, end]` covered by at least one cell.
fn covered(cells: &[(Instant, Instant)], start: Instant, end: Instant) -> f64 {
    let mut spans: Vec<(Instant, Instant)> = cells
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    spans.sort();
    let mut total = 0.0;
    let mut current: Option<(Instant, Instant)> = None;
    for (a, b) in spans {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            _ => {
                if let Some((ca, cb)) = current {
                    total += cb.duration_since(ca).as_secs_f64();
                }
                current = Some((a, b));
            }
        }
    }
    if let Some((ca, cb)) = current {
        total += cb.duration_since(ca).as_secs_f64();
    }
    total
}

/// Serve the campaign again from the cells the first round wrote: every
/// cell must come from the cache, and `summary.json` must come out byte
/// for byte as the cold run wrote it.
fn reserve_from_cache(
    spec: &CampaignSpec,
    dir: &Path,
    probe: &Arc<Probe>,
    pool: &ThreadPool,
    report: &mut Report,
) {
    let summary = dir.join(&spec.name).join("summary.json");
    let Ok(cold) = std::fs::read(&summary) else {
        return report.problem(format!("{} was not written", summary.display()));
    };
    let campaign = Campaign::new(spec.clone())
        .out_root(dir)
        .policies(Arc::new(policy_registry(&POLICIES, watch(false), probe)));
    match campaign.run(pool) {
        Err(e) => report.problem(format!("cache re-serve: {e}")),
        Ok(outcome) => {
            if outcome.ran != 0 {
                report.problem(format!(
                    "cache re-serve ran {} cells instead of reading them",
                    outcome.ran
                ));
            }
            match std::fs::read(&summary) {
                Ok(warm) if warm == cold => {}
                _ => report.problem(
                    "summary.json served from the cache differs from the cold run's".to_string(),
                ),
            }
        }
    }
    probe.take();
}
