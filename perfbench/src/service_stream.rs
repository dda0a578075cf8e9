//! `service_stream`: a multi-tenant arrival stream fed through
//! `ServiceCore`'s front door. Each job goes `SubmitHandle::submit` →
//! admission (token buckets, queue caps and fair share all on, sized so
//! nothing is refused) → ranked queue → ticks.
//!
//! The stream is an open loop in virtual time on this one thread: before
//! each tick every job whose submit time has come is submitted, then the
//! core ticks; the next tick is one tick interval later, or the next
//! arrival or completion if that is further away. The daemon thread is not
//! used.

use std::sync::Arc;
use std::time::Instant;

use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_registry::{names, PolicyContext};
use rsched_service::{
    FairShareConfig, RateLimit, ServiceConfig, ServiceCore, SubmitHandle, TenantConfig, TenantId,
};
use rsched_sim::TelemetrySink;
use rsched_simkit::SimTime;
use rsched_workloads::names::LONG_TAIL;
use rsched_workloads::{scenario_builtins, ArrivalMode, ScenarioContext};

use crate::audit::Submitted;
use crate::decorate::{hist, policy_registry, Probe, Watch};
use crate::report::{
    self, median, mix, per_round, quantile, quantile_us, secs, Fingerprint, Hist, Report,
};
use crate::{check, Args};

/// Jobs in the stream.
const JOBS: usize = 20_000;
/// Tenants; a job belongs to tenant `user % TENANTS`.
const TENANTS: u32 = 8;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 9;

struct Round {
    timed_s: f64,
    completed: usize,
    print: Fingerprint,
    /// Tick time quantiles (p50, p99) in µs, total tick time, tick count
    /// and median queue depth; raw samples are not kept across rounds.
    ticks_hist: Hist,
    ticks_ns: u64,
    ticks: usize,
    depth_p50: f64,
    submit_ns: u64,
    policy_ns: u64,
    decide_p99_us: f64,
    epoch_us: [f64; 2],
    epoch_self_ns: u64,
    report_s: f64,
    queries: usize,
    epochs: usize,
    rejections: usize,
}

fn config(cluster: ClusterConfig) -> ServiceConfig {
    let mut config = ServiceConfig::new(cluster);
    config.admission.fair_share = FairShareConfig {
        enabled: true,
        ..FairShareConfig::default()
    };
    config
}

/// Every tenant gets a token bucket and a queue cap, both wide enough
/// that the whole stream could arrive at once, and a weight of 1–4.
fn core(
    cluster: ClusterConfig,
    policy: Box<dyn rsched_sim::SchedulingPolicy>,
) -> (ServiceCore, SubmitHandle) {
    let (mut core, handle) = ServiceCore::new(config(cluster), policy, SimTime::ZERO);
    for t in 0..TENANTS {
        core.admission_mut().set_tenant(
            TenantId(t),
            TenantConfig {
                rate: Some(RateLimit {
                    burst: JOBS as u32,
                    per_sec: JOBS as u32,
                }),
                max_queued: Some(JOBS),
                weight: 1 + t % 4,
            },
        );
    }
    (core, handle)
}

impl report::Round for Round {
    fn timed_s(&self) -> f64 {
        self.timed_s
    }
    fn print(&self) -> Fingerprint {
        self.print
    }
    fn take_steps(&mut self) -> Hist {
        std::mem::take(&mut self.ticks_hist)
    }
}

/// The arrival stream for scenario seed `seed`, in submission order.
fn stream(seed: u64, cluster: ClusterConfig) -> Result<Vec<JobSpec>, String> {
    let ctx = ScenarioContext::new(JOBS)
        .with_mode(ArrivalMode::Dynamic)
        .with_seed(seed)
        .with_cluster(cluster);
    let mut jobs = scenario_builtins()
        .generate(LONG_TAIL, &ctx)
        .map_err(|e| format!("{LONG_TAIL}: {e}"))?
        .jobs;
    jobs.sort_by_key(|j| (j.submit, j.id));
    Ok(jobs)
}

pub fn run(args: &Args, report: &mut Report) {
    let cluster = ClusterConfig::paper_default();
    let seed_of = |i: usize| mix(args.seed, 400 + i as u64) >> 34;
    let probe = Probe::new();

    // Set-up figures: generating round 0's stream and constructing a core,
    // repeated.
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        if let Err(e) = stream(seed_of(0), cluster) {
            return report.problem(e);
        }
        generate_s.push(secs(t));
        let registry = policy_registry(
            &[names::EASY],
            Watch {
                timed: false,
                record: false,
            },
            &probe,
        );
        let policy = registry
            .build(names::EASY, &PolicyContext::new(&[], cluster))
            .expect("registered above");
        std::hint::black_box(core(cluster, policy));
        setup_s.push(secs(t));
    }
    probe.take();

    let (plain, traced, steps) = report::phases(args, report, |i, traced, report| {
        let jobs = stream(seed_of(i), cluster).unwrap_or_else(|e| {
            report.problem(e);
            Vec::new()
        });
        play(&jobs, cluster, traced, &probe, report)
    });
    report.attempted = ((plain.len() + traced.len()) * JOBS) as u64;

    let rate = |r: &Round| r.completed as f64 / r.timed_s;
    if !args.trace {
        report.set("jobs_per_s", per_round(&plain, rate));
        report.set("setup_s", median(&setup_s));
        report.set("peak_rss_mb", report::peak_rss_mb());
        report.set("tick_p50_us", steps.quantile_us(0.5));
        report.set("tick_p99_us", steps.quantile_us(0.99));
        return;
    }
    let s = |ns: u64| ns as f64 / 1e9;
    report.set("workloads.generate_s", median(&generate_s));
    report.set("sim.self_s", per_round(&traced, |r| s(r.epoch_self_ns)));
    report.set("sim.epoch_p50_us", per_round(&traced, |r| r.epoch_us[0]));
    report.set("sim.epoch_p99_us", per_round(&traced, |r| r.epoch_us[1]));
    report.set("sim.queries", traced[0].queries as f64);
    report.set("sim.epochs", traced[0].epochs as f64);
    report.set("sim.rejections", traced[0].rejections as f64);
    report.set(
        "schedulers.decide_s",
        per_round(&traced, |r| s(r.policy_ns)),
    );
    report.set(
        "schedulers.decide_p99_us",
        per_round(&traced, |r| r.decide_p99_us),
    );
    report.set("service.submit_s", per_round(&traced, |r| s(r.submit_ns)));
    report.set(
        "service.tick_self_s",
        per_round(&traced, |r| s(r.ticks_ns) - s(r.policy_ns)),
    );
    report.set("service.ticks", traced[0].ticks as f64);
    report.set("service.queue_depth_p50", traced[0].depth_p50);
    report.set("metrics.report_s", per_round(&traced, |r| r.report_s));
    report.set("telemetry.traced_jobs_per_s", per_round(&traced, rate));
    report.set("telemetry.untraced_jobs_per_s", per_round(&plain, rate));
}

/// Feed the whole stream through a fresh core and drain it.
fn play(
    stream: &[JobSpec],
    cluster: ClusterConfig,
    traced: bool,
    probe: &Arc<Probe>,
    report: &mut Report,
) -> Round {
    let watch = Watch {
        timed: traced,
        record: false,
    };
    let registry = policy_registry(&[names::EASY], watch, probe);
    let policy = registry
        .build(names::EASY, &PolicyContext::new(&[], cluster))
        .expect("registered above");
    let (mut core, handle) = core(cluster, policy);
    let sink = if traced {
        TelemetrySink::recording_with_wall()
    } else {
        TelemetrySink::disabled()
    };
    if traced {
        core.set_telemetry(&sink);
    }
    let tick = config(cluster).tick;
    let mut round = Round {
        timed_s: 0.0,
        completed: 0,
        print: Fingerprint::default(),
        ticks_hist: Hist::default(),
        ticks_ns: 0,
        ticks: 0,
        depth_p50: 0.0,
        submit_ns: 0,
        policy_ns: 0,
        decide_p99_us: 0.0,
        epoch_us: [0.0; 2],
        epoch_self_ns: 0,
        report_s: 0.0,
        queries: 0,
        epochs: 0,
        rejections: 0,
    };
    // Each job's submit time as the service restamps it: the tick at
    // which it was ingested.
    let mut admitted_at: Vec<Submitted> = check::submitted(stream);
    let mut ticks_ns: Vec<u64> = Vec::with_capacity(4 * stream.len());
    let mut depths: Vec<f64> = Vec::with_capacity(4 * stream.len());
    let mut refused = 0usize;
    let mut next = 0usize;
    let mut now = stream.first().map_or(SimTime::ZERO, |j| j.submit);
    let mut draining = false;

    let start = Instant::now();
    loop {
        while next < stream.len() && stream[next].submit <= now {
            let job = &stream[next];
            let tenant = TenantId(job.user.0 % TENANTS);
            let t = traced.then(Instant::now);
            if handle.submit(tenant, job.clone()).is_err() {
                refused += 1;
            }
            if let Some(t) = t {
                round.submit_ns += t.elapsed().as_nanos() as u64;
            }
            admitted_at[next].submit_ms = now.as_millis();
            next += 1;
        }
        if next == stream.len() && !draining {
            draining = handle.drain().is_ok();
        }
        let t = Instant::now();
        let stats = core.tick(now, &mut []);
        ticks_ns.push(t.elapsed().as_nanos() as u64);
        match stats {
            Ok(stats) => {
                refused += stats.rejected;
                depths.push(stats.queue_depth as f64);
            }
            Err(e) => {
                report.problem(format!("service tick at {now}: {e}"));
                break;
            }
        }
        if core.finished() {
            break;
        }
        let mut target = now + tick;
        let arrival = stream.get(next).map(|j| j.submit);
        let event = core.kernel().next_event_time();
        let soonest = match (arrival, event) {
            (Some(a), Some(e)) => Some(a.min(e)),
            (a, e) => a.or(e),
        };
        // Nothing can change before the next arrival or completion.
        if let Some(soonest) = soonest {
            target = target.max(soonest);
        }
        now = target;
    }
    round.timed_s = secs(start);
    round.ticks_hist = hist(&ticks_ns);
    round.ticks_ns = ticks_ns.iter().sum();
    round.ticks = ticks_ns.len();
    round.depth_p50 = quantile(&depths, 0.5);
    drop(handle);
    report.failed += refused as u64;

    let outcome = core.into_outcome();
    round.completed = outcome.records.len();
    round.report_s = check::outcome(
        report,
        "service_stream",
        cluster,
        &admitted_at,
        &outcome,
        false,
    );
    round.print = check::fingerprint(&outcome);
    round.queries = outcome.stats.queries;
    round.epochs = outcome.stats.epochs;
    round.rejections = outcome.stats.rejections;
    let m = probe.take();
    round.policy_ns = m.policy_ns;
    round.decide_p99_us = quantile_us(&m.baseline_calls_ns, 0.99);
    if let Some(spans) = sink.spans() {
        let epoch_ns: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "kernel.epoch")
            .map(|s| s.wall_nanos)
            .collect();
        round.epoch_us = [quantile_us(&epoch_ns, 0.5), quantile_us(&epoch_ns, 0.99)];
        let epochs: u64 = epoch_ns.iter().sum();
        round.epoch_self_ns = epochs.saturating_sub(m.policy_ns);
    }
    round
}
