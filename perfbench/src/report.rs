//! Shared pieces: the round loop, statistics, the metric catalogue and
//! the final JSON line.

use std::process::ExitCode;
use std::time::Instant;

use crate::Args;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("tick_p50_us", "us"),
    ("tick_p99_us", "us"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not exercise reads 0.
const PER_LAYER: [(&str, &str); 32] = [
    ("workloads.ingest_s", "s"),
    ("workloads.generate_s", "s"),
    ("sim.replay_fcfs_jobs_per_s", "1/s"),
    ("sim.replay_sjf_jobs_per_s", "1/s"),
    ("sim.replay_easy_jobs_per_s", "1/s"),
    ("sim.replay_conservative_jobs_per_s", "1/s"),
    ("sim.self_s", "s"),
    ("sim.epoch_p50_us", "us"),
    ("sim.epoch_p99_us", "us"),
    ("sim.queries", "count"),
    ("sim.epochs", "count"),
    ("sim.rejections", "count"),
    ("sim.log_records", "count"),
    ("sim.queue_depth_max", "jobs"),
    ("schedulers.decide_s", "s"),
    ("schedulers.decide_p99_us", "us"),
    ("schedulers.reservation_pass_s", "s"),
    ("cpsolver.plan_s", "s"),
    ("core.decide_self_s", "s"),
    ("core.prompt_bytes", "bytes"),
    ("llm.complete_s", "s"),
    ("llm.calls", "count"),
    ("llm.failures", "count"),
    ("metrics.report_s", "s"),
    ("campaign.cell_p50_ms", "ms"),
    ("campaign.engine_self_s", "s"),
    ("service.submit_s", "s"),
    ("service.tick_self_s", "s"),
    ("service.ticks", "count"),
    ("service.queue_depth_p50", "jobs"),
    ("telemetry.traced_jobs_per_s", "1/s"),
    ("telemetry.untraced_jobs_per_s", "1/s"),
];

/// What one run found: operations, failed checks, and metric values.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Record a failed correctness check.
    pub fn problem(&mut self, message: String) {
        eprintln!("CHECK FAILED: {message}");
        self.problems.push(message);
    }

    /// Record every message of a failed audit, labelled.
    pub fn problems(&mut self, label: &str, messages: Vec<String>) {
        for m in messages {
            self.problem(format!("{label}: {m}"));
        }
    }

    /// Set a metric by catalogue name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Print every metric, the operations and the verdict, then the JSON
    /// line last.
    pub fn finish(mut self, args: &Args) -> ExitCode {
        let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for &(name, unit) in catalogue {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |m| m.1);
            if !value.is_finite() {
                self.problems.push(format!("metric {name} is not finite"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            println!("metric {name} = {value} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        println!(
            "operations {}: attempted {}, failed {}",
            args.workload, self.attempted, self.failed
        );
        let correct = self.problems.is_empty() && self.attempted > 0;
        println!(
            "checks: {}",
            if correct {
                "all passed".to_string()
            } else {
                format!("{} failed", self.problems.len().max(1))
            }
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn json_number(v: f64) -> String {
    // Display prints the shortest form that round-trips, never an
    // exponent, so it is valid JSON for finite values.
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Print the host block: what the figures depend on besides the code.
pub fn print_host(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = std::env::var("RSCHED_SCAN_WORKERS").unwrap_or_else(|_| "unset (default)".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!("host nproc = {nproc}");
    println!("host RSCHED_SCAN_WORKERS = {workers}");
    println!("host git_rev = {}", git_rev());
    println!("host build_profile = {profile}");
    println!(
        "run workload = {}, seed = {}, seconds = {}, trace = {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
}

/// The checked-out commit, read from `.git` in the working directory
/// only (the benchmark reads nothing outside its checkout).
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a workload's round reports to the round loop.
pub trait Round {
    /// Seconds of the round's timed part.
    fn timed_s(&self) -> f64;
    /// Fingerprint of every schedule the round produced.
    fn print(&self) -> Fingerprint;
    /// Hand over the round's step-time histogram.
    fn take_steps(&mut self) -> Hist;
}

/// The timed phase. Round `i` runs the inputs made from `(seed, i)`, so
/// a run covers as many input sets as fit in its time. Without
/// `--trace`, rounds repeat until their timed parts add up to
/// `--seconds` (at least one). With `--trace 1`, untraced rounds fill
/// half the time and the same rounds then run traced; each traced round
/// must schedule exactly as its untraced twin. Also returns the untraced
/// rounds' step times merged into one histogram, which keeps a run's
/// memory independent of how many rounds it ran.
pub fn phases<R: Round>(
    args: &Args,
    report: &mut Report,
    mut round: impl FnMut(usize, bool, &mut Report) -> R,
) -> (Vec<R>, Vec<R>, Hist) {
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut plain: Vec<R> = Vec::new();
    let mut steps = Hist::default();
    let mut timed = 0.0;
    while plain.is_empty() || timed < budget {
        let mut r = round(plain.len(), false, report);
        timed += r.timed_s();
        steps.merge(&r.take_steps());
        plain.push(r);
    }
    let mut traced = Vec::new();
    if args.trace {
        for (i, twin) in plain.iter().enumerate() {
            let mut r = round(i, true, report);
            r.take_steps();
            if r.print() != twin.print() {
                report.problem(format!(
                    "round {i} scheduled differently traced and untraced"
                ));
            }
            traced.push(r);
        }
    }
    (plain, traced, steps)
}

/// Median over rounds of `f`.
pub fn per_round<R>(rounds: &[R], f: impl Fn(&R) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation between closest
/// ranks (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `q` quantile of nanosecond samples, in microseconds.
pub fn quantile_us(ns: &[u64], q: f64) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1000.0).collect();
    quantile(&v, q)
}

/// Step times of a whole run in fixed memory: log-spaced buckets 0.5%
/// wide, so the tick quantiles cover every round's samples, not a
/// median of per-round quantiles.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

const BUCKET_RATIO: f64 = 1.005;

impl Hist {
    pub fn add(&mut self, ns: u64) {
        let i = if ns == 0 {
            0
        } else {
            1 + ((ns as f64).ln() / BUCKET_RATIO.ln()) as usize
        };
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q` quantile in µs, interpolated geometrically within its
    /// bucket by rank (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n > 0 && (below + n) as f64 > rank {
                if i == 0 {
                    return 0.0;
                }
                let lo = BUCKET_RATIO.powi(i as i32 - 1);
                let frac = (rank - below as f64 + 0.5) / n as f64;
                return lo * BUCKET_RATIO.powf(frac.min(1.0)) / 1000.0;
            }
            below += n;
        }
        0.0
    }
}

/// A 64-bit mix (splitmix64) for deriving input seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a stream of integers: fingerprints schedules so the
/// traced rounds can be compared with the untraced ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_match_exact_ones_within_a_bucket() {
        let ns: Vec<u64> = (1..=10_000u64).map(|i| i * 1_000).collect();
        let mut h = Hist::default();
        let mut a = Hist::default();
        let mut b = Hist::default();
        for (i, &n) in ns.iter().enumerate() {
            h.add(n);
            if i % 2 == 0 {
                a.add(n)
            } else {
                b.add(n)
            }
        }
        a.merge(&b);
        for q in [0.5, 0.99] {
            let exact = quantile_us(&ns, q);
            for hist in [&h, &a] {
                let got = hist.quantile_us(q);
                assert!((got / exact - 1.0).abs() < 0.006, "q={q}: {got} vs {exact}");
            }
        }
        assert_eq!(Hist::default().quantile_us(0.5), 0.0);
    }
}
