//! Outside-in instrumentation: decorators over the public
//! `SchedulingPolicy` and `LanguageModel` traits, registered in a
//! `PolicyRegistry` under the builtin names, plus a timed scenario
//! registry for campaign cells.
//!
//! Every decorator forwards each trait method unchanged, so a decorated
//! run must schedule exactly as a plain one; the benchmark checks that.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rsched_cluster::JobSpec;
use rsched_core::LlmSchedulingPolicy;
use rsched_llm::{Completion, LanguageModel, LlmError, SimulatedLlm};
use rsched_registry::{names, PolicyContext, PolicyRegistry};
use rsched_sim::{Action, ActionOutcome, OverheadReport, SchedulingPolicy, SystemView};
use rsched_simkit::SimTime;
use rsched_telemetry::DelayReason;
use rsched_workloads::{scenario_builtins, ScenarioContext, ScenarioRegistry, Workload};

use crate::report::{quantile, quantile_us, Hist};

/// Which crate a policy's `decide` time belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// `rsched-schedulers` baselines (FCFS, SJF, EASY, Conservative).
    Baseline,
    /// The OR-Tools substitute in `rsched-cpsolver`: its first `decide`
    /// runs the offline solve.
    Solver,
    /// The ReAct agent in `rsched-core` over an `rsched-llm` model.
    Agent,
}

impl Layer {
    fn of(name: &str) -> Layer {
        if name.eq_ignore_ascii_case(names::OR_TOOLS) {
            Layer::Solver
        } else if names::LLM_PAIR.iter().any(|n| n.eq_ignore_ascii_case(name)) {
            Layer::Agent
        } else {
            Layer::Baseline
        }
    }
}

/// The schedule one decorated policy produced in a campaign cell: the
/// workload it was built for and each job's start time.
#[derive(Debug, Clone)]
pub struct CellRecord {
    pub policy: String,
    pub seed: u64,
    pub jobs: Vec<JobSpec>,
    pub starts: Vec<(u32, SimTime)>,
}

/// Everything the decorators measured, merged as each decorator drops.
#[derive(Debug, Default)]
pub struct Measured {
    /// Host time of each scheduling step: the gap between the first
    /// `decide` calls of consecutive decision epochs.
    pub steps_ns: Vec<u64>,
    /// Time inside the decorated policy's calls, by layer.
    pub decide_ns: [u64; 3],
    /// Time inside any forwarded policy call (decide, observe, provenance).
    pub policy_ns: u64,
    /// `decide` calls, decision epochs and rejected actions, as the
    /// policy saw them.
    pub queries: u64,
    pub epochs: u64,
    pub rejections: u64,
    /// Each baseline `decide` call, for its tail.
    pub baseline_calls_ns: Vec<u64>,
    pub llm_complete_ns: u64,
    pub llm_calls: u64,
    pub llm_failures: u64,
    pub prompt_bytes: u64,
    pub generate_ns: u64,
    /// Campaign cells: host interval from workload generation to the
    /// policy's drop at the end of the cell.
    pub cells: Vec<(Instant, Instant)>,
    pub records: Vec<CellRecord>,
}

/// One round's figures from [`Measured`], without the raw samples.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Scheduling-step times.
    pub steps: Hist,
    /// `decide` time by [`Layer`], s.
    pub decide_s: [f64; 3],
    pub policy_s: f64,
    pub decide_p99_us: f64,
    pub llm_complete_s: f64,
    pub llm_calls: u64,
    pub llm_failures: u64,
    pub prompt_bytes: u64,
    pub generate_s: f64,
    /// Campaign cells: total and median host time.
    pub cells_s: f64,
    pub cell_p50_ms: f64,
    pub queries: u64,
    pub epochs: u64,
    pub rejections: u64,
}

impl Measured {
    pub fn summary(&self) -> Summary {
        let s = |ns: u64| ns as f64 / 1e9;
        let cells_ms: Vec<f64> = self
            .cells
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
            .collect();
        Summary {
            steps: hist(&self.steps_ns),
            decide_s: self.decide_ns.map(s),
            policy_s: s(self.policy_ns),
            decide_p99_us: quantile_us(&self.baseline_calls_ns, 0.99),
            llm_complete_s: s(self.llm_complete_ns),
            llm_calls: self.llm_calls,
            llm_failures: self.llm_failures,
            prompt_bytes: self.prompt_bytes,
            generate_s: s(self.generate_ns),
            cells_s: cells_ms.iter().sum::<f64>() / 1e3,
            cell_p50_ms: quantile(&cells_ms, 0.5),
            queries: self.queries,
            epochs: self.epochs,
            rejections: self.rejections,
        }
    }
}

/// A histogram of nanosecond samples.
pub fn hist(ns: &[u64]) -> Hist {
    let mut h = Hist::default();
    for &n in ns {
        h.add(n);
    }
    h
}

/// Shared collector for decorators that may run on pool workers.
#[derive(Debug, Default)]
pub struct Probe(Mutex<Measured>);

impl Probe {
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    fn merge(&self, f: impl FnOnce(&mut Measured)) {
        // A poisoned lock means a worker panicked; the campaign re-raises
        // that panic itself, so the lost figures do not matter.
        if let Ok(mut m) = self.0.lock() {
            f(&mut m);
        }
    }

    /// Take everything measured so far, leaving the probe empty.
    pub fn take(&self) -> Measured {
        self.0
            .lock()
            .map(|mut m| std::mem::take(&mut *m))
            .unwrap_or_default()
    }
}

thread_local! {
    /// When the current campaign cell on this worker started generating
    /// its workload.
    static CELL_START: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// How much a decorated policy records.
#[derive(Debug, Clone, Copy)]
pub struct Watch {
    /// Time every forwarded call (the traced run).
    pub timed: bool,
    /// Keep the schedule (`CellRecord`) for the auditor.
    pub record: bool,
}

/// A `SchedulingPolicy` decorator.
struct Watched {
    inner: Box<dyn SchedulingPolicy>,
    layer: Layer,
    watch: Watch,
    probe: Arc<Probe>,
    last_now: Option<SimTime>,
    last_stamp: Option<Instant>,
    steps_ns: Vec<u64>,
    decide_ns: u64,
    policy_ns: u64,
    calls_ns: Vec<u64>,
    counts: [u64; 3],
    record: Option<CellRecord>,
    cell_start: Option<Instant>,
}

impl Watched {
    /// Wrap `inner`, built under the registry name `name` for `ctx`.
    fn new(
        inner: Box<dyn SchedulingPolicy>,
        name: &str,
        ctx: &PolicyContext<'_>,
        watch: Watch,
        probe: &Arc<Probe>,
    ) -> Self {
        let layer = Layer::of(name);
        let record = watch.record.then(|| CellRecord {
            policy: name.to_string(),
            seed: ctx.seed,
            jobs: ctx.jobs.to_vec(),
            starts: Vec::with_capacity(ctx.jobs.len()),
        });
        Watched {
            inner,
            layer,
            watch,
            probe: Arc::clone(probe),
            last_now: None,
            last_stamp: None,
            steps_ns: Vec::new(),
            decide_ns: 0,
            policy_ns: 0,
            calls_ns: Vec::new(),
            counts: [0; 3],
            record,
            cell_start: CELL_START.with(Cell::take),
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn SchedulingPolicy) -> R) -> (R, u64) {
        if !self.watch.timed {
            return (f(self.inner.as_mut()), 0);
        }
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        let ns = t.elapsed().as_nanos() as u64;
        self.policy_ns += ns;
        (r, ns)
    }
}

impl SchedulingPolicy for Watched {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        if self.last_now != Some(view.now) {
            let now = Instant::now();
            if let Some(prev) = self.last_stamp {
                self.steps_ns
                    .push(now.duration_since(prev).as_nanos() as u64);
            }
            self.last_stamp = Some(now);
            self.last_now = Some(view.now);
            self.counts[1] += 1;
        }
        self.counts[0] += 1;
        let (action, ns) = self.timed(|p| p.decide(view));
        if self.watch.timed {
            self.decide_ns += ns;
            if self.layer == Layer::Baseline {
                self.calls_ns.push(ns);
            }
        }
        action
    }

    fn observe(&mut self, outcome: &ActionOutcome) {
        self.counts[2] += u64::from(!outcome.accepted());
        if let Some(record) = &mut self.record {
            if outcome.accepted() {
                if let Some(id) = outcome.action.job_id() {
                    record.starts.push((id.0, outcome.time));
                }
            }
        }
        self.timed(|p| p.observe(outcome));
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn overhead_report(&self) -> Option<OverheadReport> {
        self.inner.overhead_report()
    }

    fn provenance(&mut self) -> Option<DelayReason> {
        self.timed(|p| p.provenance()).0
    }
}

impl Drop for Watched {
    fn drop(&mut self) {
        let end = Instant::now();
        let layer = self.layer as usize;
        let steps = std::mem::take(&mut self.steps_ns);
        let calls = std::mem::take(&mut self.calls_ns);
        let record = self.record.take();
        let (decide_ns, policy_ns, cell_start) = (self.decide_ns, self.policy_ns, self.cell_start);
        let [queries, epochs, rejections] = self.counts;
        self.probe.merge(|m| {
            m.queries += queries;
            m.epochs += epochs;
            m.rejections += rejections;
            m.steps_ns.extend(steps);
            m.baseline_calls_ns.extend(calls);
            m.decide_ns[layer] += decide_ns;
            m.policy_ns += policy_ns;
            m.records.extend(record);
            if let Some(start) = cell_start {
                m.cells.push((start, end));
            }
        });
    }
}

/// A `LanguageModel` decorator timing each completion.
struct TimedLlm {
    inner: Box<dyn LanguageModel>,
    probe: Arc<Probe>,
    complete_ns: u64,
    calls: u64,
    failures: u64,
    prompt_bytes: u64,
}

impl TimedLlm {
    fn new(inner: Box<dyn LanguageModel>, probe: &Arc<Probe>) -> Self {
        TimedLlm {
            inner,
            probe: Arc::clone(probe),
            complete_ns: 0,
            calls: 0,
            failures: 0,
            prompt_bytes: 0,
        }
    }
}

impl LanguageModel for TimedLlm {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn complete(&mut self, prompt: &str) -> Result<Completion, LlmError> {
        let t = Instant::now();
        let result = self.inner.complete(prompt);
        self.complete_ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.failures += u64::from(result.is_err());
        self.prompt_bytes += prompt.len() as u64;
        result
    }
}

impl Drop for TimedLlm {
    fn drop(&mut self) {
        let (ns, calls, failures, bytes) = (
            self.complete_ns,
            self.calls,
            self.failures,
            self.prompt_bytes,
        );
        self.probe.merge(|m| {
            m.llm_complete_ns += ns;
            m.llm_calls += calls;
            m.llm_failures += failures;
            m.prompt_bytes += bytes;
        });
    }
}

/// A registry holding `policies` under their builtin names, each built as
/// the builtin registry builds it and wrapped in [`Watched`]. With
/// `watch.timed`, the agents' simulated models are wrapped in [`TimedLlm`]
/// inside `LlmSchedulingPolicy::new`, as the builtin factories do.
pub fn policy_registry(
    policies: &[&'static str],
    watch: Watch,
    probe: &Arc<Probe>,
) -> PolicyRegistry {
    let mut registry = PolicyRegistry::new();
    for &name in policies {
        let probe = Arc::clone(probe);
        registry
            .register(name, move |ctx| {
                let inner = build(name, ctx, watch, &probe);
                Box::new(Watched::new(inner, name, ctx, watch, &probe))
            })
            .expect("policy names are distinct");
    }
    registry
}

/// Build one policy as the builtin registry would, with a timed model
/// inside the agents when `watch.timed`.
fn build(
    name: &str,
    ctx: &PolicyContext<'_>,
    watch: Watch,
    probe: &Arc<Probe>,
) -> Box<dyn SchedulingPolicy> {
    let model: Option<Box<dyn LanguageModel>> = if !watch.timed {
        None
    } else if name == names::CLAUDE37 {
        Some(Box::new(SimulatedLlm::claude37(ctx.seed)))
    } else if name == names::O4_MINI {
        Some(Box::new(SimulatedLlm::o4mini(ctx.seed)))
    } else {
        None
    };
    match model {
        Some(model) => Box::new(LlmSchedulingPolicy::new(Box::new(TimedLlm::new(
            model, probe,
        )))),
        None => rsched_registry::builtins()
            .build(name, ctx)
            .expect("builtin policy name"),
    }
}

/// A scenario registry holding `scenarios` under their builtin names, each
/// generated by the builtin registry and timed.
pub fn scenario_registry(scenarios: &[&'static str], probe: &Arc<Probe>) -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    for &name in scenarios {
        let probe = Arc::clone(probe);
        registry
            .register(name, move |ctx: &ScenarioContext| -> Workload {
                let start = Instant::now();
                CELL_START.with(|c| c.set(Some(start)));
                let workload = scenario_builtins()
                    .generate(name, ctx)
                    .expect("builtin scenario name");
                let ns = start.elapsed().as_nanos() as u64;
                probe.merge(|m| m.generate_ns += ns);
                workload
            })
            .expect("scenario names are distinct");
    }
    registry
}
