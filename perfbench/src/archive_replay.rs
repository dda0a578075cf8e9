//! `archive_replay`: seeded `polaris_synth` SWF archives written to files,
//! streamed back through `SwfReader`, and replayed under FCFS, SJF, EASY
//! and Conservative on the 560-node Polaris machine.
//!
//! The archives are long enough that FCFS's wait queue passes
//! `PARALLEL_SCAN_MIN`, and the scan worker count is left at its default,
//! so the cost of the sharded placement scans shows in the figures.

use std::sync::Arc;
use std::time::Instant;

use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_registry::{names, PolicyContext};
use rsched_sim::{SimOptions, Simulation, TelemetrySink, PARALLEL_SCAN_MIN};
use rsched_telemetry::SpanRecord;
use rsched_workloads::names::POLARIS_SYNTH_PREFIX;
use rsched_workloads::swf::SwfReader;
use rsched_workloads::synth::polaris_synth_text;
use rsched_workloads::{scenario_builtins, ScenarioContext};

use crate::decorate::{hist, policy_registry, Probe, Watch};
use crate::report::{self, median, mix, per_round, quantile_us, secs, Fingerprint, Hist, Report};
use crate::{check, Args};

/// Usable jobs per archive.
const JOBS: usize = 40_000;
/// Times each archive is streamed in; `setup_s` is the median.
const INGESTS: usize = 2;

const POLICIES: [(&str, &str); 4] = [
    (names::FCFS, "sim.replay_fcfs_jobs_per_s"),
    (names::SJF, "sim.replay_sjf_jobs_per_s"),
    (names::EASY, "sim.replay_easy_jobs_per_s"),
    (names::CONSERVATIVE, "sim.replay_conservative_jobs_per_s"),
];

/// One round: its archive under every policy.
#[derive(Default)]
struct Round {
    timed_s: f64,
    jobs: usize,
    policy_s: [f64; 4],
    print: Fingerprint,
    ingest_s: Vec<f64>,
    /// Step times, bucketed: a round keeps a few kilobytes of counts
    /// instead of its hundreds of thousands of raw samples.
    steps: Hist,
    policy_ns: u64,
    baseline_ns: u64,
    decide_p99_us: f64,
    epoch_us: [f64; 2],
    reservation_ns: u64,
    report_s: f64,
    generate_s: f64,
    queries: usize,
    epochs: usize,
    rejections: usize,
    log_records: usize,
    queue_max: usize,
}

impl report::Round for Round {
    fn timed_s(&self) -> f64 {
        self.timed_s
    }
    fn print(&self) -> Fingerprint {
        self.print
    }
    fn take_steps(&mut self) -> Hist {
        std::mem::take(&mut self.steps)
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let cluster = ClusterConfig::polaris();
    let probe = Probe::new();
    let (plain, traced, steps) = report::phases(args, report, |i, traced, report| {
        let seed = mix(args.seed, 100 + i as u64);
        match archive(args, i, seed, report) {
            Some((jobs, ingest_s, generate_s)) => {
                let mut r = play(&jobs, cluster, seed, traced, &probe, report);
                r.ingest_s = ingest_s;
                r.generate_s = generate_s;
                r
            }
            None => Round::default(),
        }
    });
    report.attempted = ((plain.len() + traced.len()) * POLICIES.len()) as u64;
    let deepest = plain.iter().map(|r| r.queue_max).max().unwrap_or(0);
    println!(
        "archive_replay: deepest wait queue {deepest} jobs (PARALLEL_SCAN_MIN = {PARALLEL_SCAN_MIN}){}",
        if deepest > PARALLEL_SCAN_MIN { "" } else { ": the sharded scan path was not reached" }
    );
    let ingest_s: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.ingest_s.iter().copied())
        .collect();
    let rate = |r: &Round| r.jobs as f64 / r.timed_s;
    if !args.trace {
        report.set("jobs_per_s", per_round(&plain, rate));
        report.set("setup_s", median(&ingest_s));
        report.set("peak_rss_mb", report::peak_rss_mb());
        report.set("tick_p50_us", steps.quantile_us(0.5));
        report.set("tick_p99_us", steps.quantile_us(0.99));
        return;
    }
    report.set("workloads.ingest_s", median(&ingest_s));
    for (i, &(_, key)) in POLICIES.iter().enumerate() {
        report.set(
            key,
            per_round(&plain, |r| (r.jobs / POLICIES.len()) as f64 / r.policy_s[i]),
        );
    }
    report.set(
        "sim.self_s",
        per_round(&traced, |r| r.timed_s - r.policy_ns as f64 / 1e9),
    );
    report.set("sim.epoch_p50_us", per_round(&traced, |r| r.epoch_us[0]));
    report.set("sim.epoch_p99_us", per_round(&traced, |r| r.epoch_us[1]));
    report.set("sim.queries", traced[0].queries as f64);
    report.set("sim.epochs", traced[0].epochs as f64);
    report.set("sim.rejections", traced[0].rejections as f64);
    report.set("sim.log_records", traced[0].log_records as f64);
    report.set("sim.queue_depth_max", traced[0].queue_max as f64);
    report.set(
        "schedulers.decide_s",
        per_round(&traced, |r| r.baseline_ns as f64 / 1e9),
    );
    report.set(
        "schedulers.decide_p99_us",
        per_round(&traced, |r| r.decide_p99_us),
    );
    report.set(
        "schedulers.reservation_pass_s",
        per_round(&traced, |r| r.reservation_ns as f64 / 1e9),
    );
    report.set("metrics.report_s", per_round(&traced, |r| r.report_s));
    report.set("workloads.generate_s", per_round(&plain, |r| r.generate_s));
    report.set("telemetry.traced_jobs_per_s", per_round(&traced, rate));
    report.set("telemetry.untraced_jobs_per_s", per_round(&plain, rate));
}

/// Write round `i`'s archive, stream it back `INGESTS` times, and check it
/// against the workload the scenario registry generates for the same
/// seed. Untimed: the ingest times are the set-up figure; the registry's
/// generation time is returned too.
fn archive(
    args: &Args,
    i: usize,
    seed: u64,
    report: &mut Report,
) -> Option<(Vec<JobSpec>, Vec<f64>, f64)> {
    let path = args.work.join(format!("archive-{i}.swf"));
    if let Err(e) = std::fs::write(&path, polaris_synth_text(JOBS, seed)) {
        report.problem(format!("cannot write {}: {e}", path.display()));
        return None;
    }
    let path = path.to_string_lossy().into_owned();
    let mut ingest_s = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..INGESTS {
        let t = Instant::now();
        let streamed = SwfReader::open(&path).and_then(|r| r.into_jobs(0));
        ingest_s.push(secs(t));
        match streamed {
            Ok(j) => jobs = j,
            Err(e) => {
                report.problem(format!("{path}: {e}"));
                return None;
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    let t = Instant::now();
    let generated = scenario_builtins().generate(
        &format!("{POLARIS_SYNTH_PREFIX}{JOBS}"),
        &ScenarioContext::new(JOBS).with_seed(seed),
    );
    let generate_s = secs(t);
    match generated {
        Ok(w) if w.jobs == jobs => {}
        Ok(_) => report.problem(format!(
            "{path}: the streamed archive differs from the generator's workload"
        )),
        Err(e) => report.problem(format!("{POLARIS_SYNTH_PREFIX}{JOBS}: {e}")),
    }
    Some((jobs, ingest_s, generate_s))
}

/// Replay the archive under every policy once.
fn play(
    jobs: &[JobSpec],
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
    let registry = policy_registry(&POLICIES.map(|p| p.0), watch, probe);
    let mut round = Round::default();
    let mut epoch_ns = Vec::new();
    let submitted = check::submitted(jobs);
    let options = SimOptions {
        max_queries: jobs.len() * 16 + 1_000_000,
        ..SimOptions::default()
    };
    for (i, &(name, _)) in POLICIES.iter().enumerate() {
        let sink = if traced {
            TelemetrySink::recording_with_wall()
        } else {
            TelemetrySink::disabled()
        };
        let t = Instant::now();
        let mut policy = registry
            .build(name, &PolicyContext::new(jobs, cluster).with_seed(seed))
            .expect("registered above");
        let outcome = Simulation::new(cluster)
            .jobs(jobs)
            .options(options)
            .telemetry(&sink)
            .run(policy.as_mut());
        let elapsed = secs(t);
        drop(policy);
        round.timed_s += elapsed;
        round.policy_s[i] += elapsed;
        let label = format!("archive (seed {seed}) under {name}");
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                report.failed += 1;
                report.problem(format!("{label}: {e}"));
                continue;
            }
        };
        round.jobs += outcome.records.len();
        round.report_s += check::outcome(
            report,
            &label,
            cluster,
            &submitted,
            &outcome,
            name == names::FCFS,
        );
        let fp = check::fingerprint(&outcome);
        round.print.add(fp.0);
        round.queries += outcome.stats.queries;
        round.epochs += outcome.stats.epochs;
        round.rejections += outcome.stats.rejections;
        round.log_records += outcome.decisions.len() + outcome.epochs.len();
        let deepest = outcome
            .decisions
            .iter()
            .map(|d| d.queue_len)
            .max()
            .unwrap_or(0);
        round.queue_max = round.queue_max.max(deepest);
        if let Some(spans) = sink.spans() {
            epoch_ns.extend(
                spans
                    .iter()
                    .filter(|s| s.name == "kernel.epoch")
                    .map(|s| s.wall_nanos),
            );
            round.reservation_ns += self_time(&spans, "conservative.reservation_pass");
        }
    }
    let m = probe.take();
    round.steps = hist(&m.steps_ns);
    round.policy_ns = m.policy_ns;
    round.baseline_ns = m.decide_ns[0];
    round.decide_p99_us = quantile_us(&m.baseline_calls_ns, 0.99);
    round.epoch_us = [quantile_us(&epoch_ns, 0.5), quantile_us(&epoch_ns, 0.99)];
    round
}

/// Total self time of the spans named `name`: each span's wall time minus
/// the wall time of the spans nested directly inside it.
pub fn self_time(spans: &[SpanRecord], name: &str) -> u64 {
    let mut total = 0u64;
    for (i, span) in spans.iter().enumerate() {
        if span.name != name {
            continue;
        }
        let children: u64 = spans[i + 1..]
            .iter()
            .take_while(|s| s.depth > span.depth)
            .filter(|s| s.depth == span.depth + 1)
            .map(|s| s.wall_nanos)
            .sum();
        total += span.wall_nanos.saturating_sub(children);
    }
    total
}
