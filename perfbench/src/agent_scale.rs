//! `agent_scale`: the two simulated ReAct agents on the paper scenarios
//! with queues of several hundred to a thousand jobs, one run after
//! another on one thread. At this scale the agent's own cost (prompt
//! rendering, the simulated model's reasoning, parsing) dominates; there
//! is no solver and little kernel work.

use std::sync::Arc;
use std::time::Instant;

use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_registry::{names, PolicyContext};
use rsched_sim::{Simulation, TelemetrySink};
use rsched_workloads::names::LEGACY_SEVEN;
use rsched_workloads::{scenario_builtins, ArrivalMode, ScenarioContext};

use crate::audit::Submitted;
use crate::decorate::{policy_registry, Probe, Summary, Watch};
use crate::report::{self, median, mix, per_round, quantile_us, secs, Fingerprint, Hist, Report};
use crate::{check, Args};

const AGENTS: [&str; 2] = [names::CLAUDE37, names::O4_MINI];
/// Jobs per scenario, in `LEGACY_SEVEN` order.
const JOBS: [usize; 7] = [250, 300, 400, 500, 600, 800, 1000];
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 25;

struct Input {
    name: &'static str,
    jobs: Vec<JobSpec>,
    submitted: Vec<Submitted>,
}

struct Round {
    timed_s: f64,
    jobs: usize,
    print: Fingerprint,
    measured: Summary,
    report_s: f64,
    epoch_us: [f64; 2],
    queries: usize,
    epochs: usize,
    rejections: usize,
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

/// Generate the seven workloads for scenario seed `seed`.
fn generate(seed: u64, cluster: ClusterConfig) -> Result<Vec<Input>, String> {
    LEGACY_SEVEN
        .iter()
        .zip(&JOBS)
        .map(|(&name, &n)| {
            let ctx = ScenarioContext::new(n)
                .with_mode(ArrivalMode::Dynamic)
                .with_seed(seed)
                .with_cluster(cluster);
            let jobs = scenario_builtins()
                .generate(name, &ctx)
                .map_err(|e| format!("{name}: {e}"))?
                .jobs;
            Ok(Input {
                name,
                submitted: check::submitted(&jobs),
                jobs,
            })
        })
        .collect()
}

pub fn run(args: &Args, report: &mut Report) {
    let cluster = ClusterConfig::paper_default();
    let seed_of = |i: usize| mix(args.seed, 300 + i as u64) >> 34;

    // Set-up figures: generating round 0's workloads, repeated.
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let generated = generate(seed_of(0), cluster);
        setup_s.push(secs(t));
        if let Err(e) = generated {
            return report.problem(e);
        }
    }

    let probe = Probe::new();
    let (plain, traced, steps) = report::phases(args, report, |i, traced, report| {
        let seed = seed_of(i);
        let inputs = generate(seed, cluster).unwrap_or_else(|e| {
            report.problem(e);
            Vec::new()
        });
        play(&inputs, cluster, seed, traced, &probe, report)
    });
    report.attempted = ((plain.len() + traced.len()) * JOBS.len() * AGENTS.len()) as u64;

    let rate = |r: &Round| r.jobs as f64 / r.timed_s;
    if !args.trace {
        report.set("jobs_per_s", per_round(&plain, rate));
        report.set("setup_s", median(&setup_s));
        report.set("peak_rss_mb", report::peak_rss_mb());
        report.set("tick_p50_us", steps.quantile_us(0.5));
        report.set("tick_p99_us", steps.quantile_us(0.99));
        return;
    }
    report.set("workloads.generate_s", median(&setup_s));
    report.set(
        "sim.self_s",
        per_round(&traced, |r| r.timed_s - r.measured.policy_s),
    );
    report.set("sim.queries", traced[0].queries as f64);
    report.set("sim.epochs", traced[0].epochs as f64);
    report.set("sim.rejections", traced[0].rejections as f64);
    report.set(
        "core.decide_self_s",
        per_round(&traced, |r| {
            r.measured.decide_s[2] - r.measured.llm_complete_s
        }),
    );
    report.set("core.prompt_bytes", traced[0].measured.prompt_bytes as f64);
    report.set(
        "llm.complete_s",
        per_round(&traced, |r| r.measured.llm_complete_s),
    );
    report.set("llm.calls", traced[0].measured.llm_calls as f64);
    report.set("llm.failures", traced[0].measured.llm_failures as f64);
    report.set("sim.epoch_p50_us", per_round(&traced, |r| r.epoch_us[0]));
    report.set("sim.epoch_p99_us", per_round(&traced, |r| r.epoch_us[1]));
    report.set("metrics.report_s", per_round(&traced, |r| r.report_s));
    report.set("telemetry.traced_jobs_per_s", per_round(&traced, rate));
    report.set("telemetry.untraced_jobs_per_s", per_round(&plain, rate));
}

/// Run both agents on every workload once.
fn play(
    inputs: &[Input],
    cluster: ClusterConfig,
    seed: u64,
    traced: bool,
    probe: &Arc<Probe>,
    report: &mut Report,
) -> Round {
    let watch = Watch {
        timed: traced,
        record: false,
    };
    let registry = policy_registry(&AGENTS, watch, probe);
    let mut round = Round {
        timed_s: 0.0,
        jobs: 0,
        print: Fingerprint::default(),
        measured: Summary::default(),
        report_s: 0.0,
        epoch_us: [0.0; 2],
        queries: 0,
        epochs: 0,
        rejections: 0,
    };
    let mut epoch_ns = Vec::new();
    for input in inputs {
        for name in AGENTS {
            let t = Instant::now();
            let mut policy = registry
                .build(
                    name,
                    &PolicyContext::new(&input.jobs, cluster).with_seed(seed),
                )
                .expect("registered above");
            let sink = if traced {
                TelemetrySink::recording_with_wall()
            } else {
                TelemetrySink::disabled()
            };
            let outcome = Simulation::new(cluster)
                .jobs(&input.jobs)
                .telemetry(&sink)
                .run(policy.as_mut());
            if let Some(spans) = sink.spans() {
                epoch_ns.extend(
                    spans
                        .iter()
                        .filter(|s| s.name == "kernel.epoch")
                        .map(|s| s.wall_nanos),
                );
            }
            round.timed_s += secs(t);
            drop(policy);
            let label = format!("{name} on {}/{}", input.name, input.jobs.len());
            let outcome = match outcome {
                Ok(o) => o,
                Err(e) => {
                    report.failed += 1;
                    report.problem(format!("{label}: {e}"));
                    continue;
                }
            };
            round.jobs += outcome.records.len();
            round.report_s +=
                check::outcome(report, &label, cluster, &input.submitted, &outcome, false);
            round.print.add(check::fingerprint(&outcome).0);
            round.queries += outcome.stats.queries;
            round.epochs += outcome.stats.epochs;
            round.rejections += outcome.stats.rejections;
        }
    }
    round.measured = probe.take().summary();
    round.epoch_us = [quantile_us(&epoch_ns, 0.5), quantile_us(&epoch_ns, 0.99)];
    round
}
