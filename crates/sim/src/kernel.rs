//! The driver-agnostic decision kernel.
//!
//! [`KernelState`] owns everything a scheduling run needs between clock
//! ticks — the cluster ledger, the event queue, the sorted
//! rank-ordered wait queue, the running-summary mirror, utilization
//! integrals, and the decision log — and exposes the one operation both
//! drivers share: [`KernelState::run_epoch`], the validated
//! propose/apply/record loop of paper §2.4.
//!
//! Two drivers sit on top:
//!
//! * the **virtual-time simulator**
//!   ([`simulate`](crate::simulator), via [`Simulation`](crate::Simulation))
//!   pre-loads arrivals as events and jumps the clock to the next event —
//!   time is free, so a 100k-job year replays in a fraction of a second
//!   and a 1M-job synthetic Polaris stream in seconds (the wait queue is
//!   struct-of-arrays with dense demand columns, so a flat-topology
//!   placement scan is one serial pass over two packed columns — see
//!   [`crate::store::JobStore`]);
//! * the **service driver** (`rsched-service`) feeds arrivals from a live
//!   submission channel and ticks on a real (or manually advanced) clock,
//!   optionally tagging each arrival with a fair-share *rank* that the
//!   queue folds into its ordering.
//!
//! Both produce bit-identical decision sequences when fed the same stream
//! at the same instants: the kernel is the single source of truth, the
//! drivers only decide *when* it runs and *how* jobs reach it.

use rsched_cluster::reservation::Demand;
use rsched_cluster::{
    backfill_is_safe, classed_overlap_fits, nodes_per_slot, shadow_start, ClusterConfig,
    ClusterState, JobId, JobRecord, JobSpec, StartError, StepIntegral, MAX_CLASSES,
};
use rsched_simkit::{EventQueue, SimTime};
use rsched_telemetry::{DelayReason, EpochOutcome, EpochTrace, TelemetrySink};

use crate::events::SimEvent;
use crate::outcome::{DecisionRecord, SimOutcome, SimStats};
use crate::policy::{Action, ActionOutcome, RejectReason, SchedulingPolicy};
use crate::profile::CapacityLedger;
use crate::queue::{RunningSet, WaitQueue};
use crate::simulator::{SimError, SimOptions};
use crate::view::{RunningSummary, SystemView};

/// The scheduling state machine shared by the virtual-time simulator and
/// the wall-clock service daemon.
///
/// A driver's contract, per tick at time `now`:
///
/// 1. deliver arrivals ([`arrive`](Self::arrive) /
///    [`arrive_ranked`](Self::arrive_ranked)) and completions
///    ([`complete`](Self::complete), at each job's **exact** end time —
///    pop [`Completion`](SimEvent::Completion) events via
///    [`pop_events_at`](Self::pop_events_at));
/// 2. [`observe_time`](Self::observe_time) to advance the utilization
///    integrals;
/// 3. if [`should_query`](Self::should_query), call
///    [`run_epoch`](Self::run_epoch) and stream the new suffix of
///    [`decisions`](Self::decisions) to its observers.
///
/// Determinism: given the same (time, arrivals, completions) sequence and
/// a deterministic policy, every field of the kernel evolves identically
/// regardless of which driver is ticking it.
#[derive(Debug)]
pub struct KernelState {
    cluster: ClusterState,
    events: EventQueue<SimEvent>,
    queue: WaitQueue,
    running: RunningSet,
    ledger: CapacityLedger,
    node_integral: StepIntegral,
    mem_integral: StepIntegral,
    decisions: Vec<DecisionRecord>,
    stats: SimStats,
    stopped: bool,
    telemetry: TelemetrySink,
    epochs: Vec<EpochTrace>,
}

impl KernelState {
    /// A fresh kernel on an empty cluster, with the utilization integrals
    /// anchored at `start`.
    pub fn new(config: ClusterConfig, start: SimTime) -> Self {
        KernelState {
            cluster: ClusterState::new(config),
            events: EventQueue::new(),
            queue: WaitQueue::new(),
            running: RunningSet::new(),
            ledger: CapacityLedger::new(),
            node_integral: StepIntegral::new(start, 0.0),
            mem_integral: StepIntegral::new(start, 0.0),
            decisions: Vec::new(),
            stats: SimStats::default(),
            stopped: false,
            telemetry: TelemetrySink::disabled(),
            epochs: Vec::new(),
        }
    }

    /// Same, with the event queue pre-sized for a known workload.
    pub fn with_event_capacity(config: ClusterConfig, start: SimTime, capacity: usize) -> Self {
        KernelState {
            events: EventQueue::with_capacity(capacity),
            ..KernelState::new(config, start)
        }
    }

    // ---- event plumbing -------------------------------------------------

    /// Schedule a future event (the virtual driver pre-loads arrivals this
    /// way; completions are scheduled internally by placements).
    pub fn schedule_event(&mut self, at: SimTime, event: SimEvent) {
        self.events.push(at, event);
    }

    /// Time of the earliest pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Pop every event scheduled exactly at `at`, in FIFO order.
    pub fn pop_events_at(&mut self, at: SimTime) -> Vec<SimEvent> {
        self.events.pop_at(at)
    }

    /// `true` when no events remain scheduled.
    pub fn events_is_empty(&self) -> bool {
        self.events.is_empty()
    }

    // ---- state transitions ----------------------------------------------

    /// A job joins the waiting queue at the default rank 0 — pure
    /// `(submit, id)` order, the simulator's (and the paper's) behaviour.
    pub fn arrive(&mut self, job: JobSpec) {
        self.queue.insert(job);
        self.ledger.queue_changed();
    }

    /// A job joins the waiting queue with a fair-share `rank` (lower sorts
    /// earlier; ties fall back to `(submit, id)`). The service daemon's
    /// multi-tenant path; rank 0 reduces to [`arrive`](Self::arrive).
    pub fn arrive_ranked(&mut self, job: JobSpec, rank: u64) {
        self.queue.insert_ranked(job, rank);
        self.ledger.queue_changed();
    }

    /// A running job finishes at `now`, releasing its resources.
    ///
    /// # Panics
    /// Panics (in the cluster ledger) if `now` is not the job's exact end
    /// time, or the job is not running — drivers must deliver completions
    /// from [`pop_events_at`](Self::pop_events_at) at the event's own time.
    pub fn complete(&mut self, id: JobId, now: SimTime) {
        self.cluster.complete_job(id, now);
        if let Some(expected_end) = self.running.get(id).map(|s| s.expected_end) {
            // Completions release at their exact end time, so the actual
            // release key is `now`; the estimated key is what was recorded
            // at start.
            self.ledger.job_completed(id, expected_end, now);
        }
        self.running.remove(id);
    }

    /// Fold the cluster's current occupancy into the node/memory
    /// utilization integrals at time `now`. Call once per tick, after
    /// completions and before the epoch.
    pub fn observe_time(&mut self, now: SimTime) {
        self.node_integral
            .update(now, self.cluster.busy_nodes() as f64);
        self.mem_integral
            .update(now, self.cluster.busy_memory_gb() as f64);
    }

    /// Should the policy be consulted this tick?
    ///
    /// Mirrors the paper's query discipline (§3.7.1): under
    /// [`query_only_when_placeable`](SimOptions::query_only_when_placeable),
    /// saturated states (jobs waiting but nothing fits) skip the query —
    /// the queue's min-demand watermark proves most of them in O(1) — and
    /// an empty queue is only queried once nothing more is pending, to
    /// offer the final `Stop`. A kernel that has stopped never queries.
    ///
    /// `pending_arrivals` is the driver's count of jobs known to be still
    /// on their way (unsent workload jobs for the simulator; a nonzero
    /// sentinel for a live daemon that cannot know).
    ///
    /// When the watermark short-circuit fires (jobs waiting, nothing fits)
    /// a [`EpochOutcome::Saturated`] provenance record is appended at `now`
    /// so the trace explains the skipped query — recorded whether or not a
    /// telemetry sink is attached, keeping [`epochs`](Self::epochs)
    /// deterministic.
    pub fn should_query(
        &mut self,
        now: SimTime,
        pending_arrivals: usize,
        options: &SimOptions,
    ) -> bool {
        if self.stopped {
            return false;
        }
        let placeable = self.queue.any_fits(&self.cluster);
        if options.query_only_when_placeable {
            if placeable || (self.queue.is_empty() && pending_arrivals == 0) {
                true
            } else {
                if !self.queue.is_empty() {
                    let queue_len = self.queue.len() as u32;
                    let trace = EpochTrace {
                        time: now,
                        outcome: EpochOutcome::Saturated,
                        reason: Some(DelayReason::WatermarkSaturated { queue_len }),
                        queue_len,
                        queries: 0,
                    };
                    self.epochs.push(trace);
                    self.telemetry.count_epoch(&trace);
                }
                false
            }
        } else {
            !self.queue.is_empty() || pending_arrivals == 0
        }
    }

    /// One decision epoch at time `now`: query the policy, validate and
    /// apply each action, log a [`DecisionRecord`] per query, until the
    /// epoch closes with a `Delay`, `Stop`, or saturation.
    ///
    /// The caller should note [`decisions_len`](Self::decisions_len) before
    /// and stream the new suffix after — **even when this returns an
    /// error**, so observers see everything that happened before failure.
    pub fn run_epoch(
        &mut self,
        now: SimTime,
        pending_arrivals: usize,
        total_jobs: usize,
        policy: &mut dyn SchedulingPolicy,
        options: &SimOptions,
    ) -> Result<(), SimError> {
        self.stats.epochs += 1;
        let _epoch_span = self.telemetry.span("kernel.epoch", now);
        let mut consecutive_invalid = 0usize;
        let mut epoch_placements = 0u32;
        let mut epoch_backfills = 0u32;
        let mut epoch_queries = 0u32;
        let close = loop {
            if self.stats.queries >= options.max_queries {
                return Err(SimError::QueryBudgetExhausted {
                    limit: options.max_queries,
                });
            }
            // Zero-copy snapshot: every collection is borrowed from the
            // incrementally-maintained state, the aggregate is a Copy.
            let view = SystemView {
                now,
                config: self.cluster.config(),
                free_nodes: self.cluster.free_nodes(),
                free_memory_gb: self.cluster.free_memory_gb(),
                free_by_class: self.cluster.free_by_class(),
                waiting: self.queue.as_slice(),
                running: self.running.as_slice(),
                completed: self.cluster.completed(),
                completed_stats: self.cluster.completed_stats(),
                pending_arrivals,
                total_jobs,
                calendar: Some(&self.ledger),
                telemetry: Some(&self.telemetry),
            };
            let action = policy.decide(&view);
            self.stats.queries += 1;
            epoch_queries += 1;

            let verdict = self.validate_and_apply(now, pending_arrivals, options, action);
            // One clone of the rejection reason, shared by the outcome
            // (moved into the record below).
            let outcome = ActionOutcome {
                time: now,
                action,
                rejected: verdict.as_ref().err().cloned(),
            };
            policy.observe(&outcome);
            self.decisions.push(DecisionRecord {
                time: now,
                action,
                rejected: outcome.rejected,
                queue_len: self.queue.len(),
                free_nodes: self.cluster.free_nodes(),
                free_memory_gb: self.cluster.free_memory_gb(),
            });

            match verdict {
                Ok(Applied::Placement) => {
                    consecutive_invalid = 0;
                    self.stats.placements += 1;
                    epoch_placements += 1;
                    if matches!(action, Action::BackfillJob(_)) {
                        self.stats.backfills += 1;
                        epoch_backfills += 1;
                    }
                    // Same-timestep continuation: more jobs may fit now.
                    if self.queue.is_empty() && pending_arrivals > 0 {
                        break EpochClose::Placed;
                    }
                    if options.query_only_when_placeable
                        && !self.queue.is_empty()
                        && !self.queue.any_fits(&self.cluster)
                    {
                        // Saturated again: skip the redundant Delay round-trip.
                        break EpochClose::Placed;
                    }
                    // Otherwise loop on — including the empty-queue case,
                    // which offers the policy its Stop query.
                }
                Ok(Applied::Delay) => {
                    self.stats.delays += 1;
                    break EpochClose::Delay;
                }
                Ok(Applied::Stop) => {
                    self.stopped = true;
                    break EpochClose::Stop;
                }
                Err(_) => {
                    self.stats.rejections += 1;
                    consecutive_invalid += 1;
                    if consecutive_invalid >= options.max_invalid_per_epoch {
                        // Force a delay: the policy is confused; move time on.
                        self.stats.delays += 1;
                        break EpochClose::Forced;
                    }
                }
            }
        };

        // Provenance: one record per epoch, always — the trace must stay
        // deterministic whether or not a sink is attached.
        let outcome = if epoch_placements > 0 {
            EpochOutcome::Placements {
                count: epoch_placements,
                backfills: epoch_backfills,
            }
        } else {
            match close {
                EpochClose::Delay => EpochOutcome::Delay,
                EpochClose::Forced => EpochOutcome::ForcedDelay,
                EpochClose::Stop => EpochOutcome::Stop,
                // Placed only breaks after a placement.
                EpochClose::Placed => EpochOutcome::Placements {
                    count: 0,
                    backfills: 0,
                },
            }
        };
        let reason = if epoch_placements > 0 {
            None
        } else {
            match close {
                EpochClose::Delay => {
                    Some(policy.provenance().unwrap_or(if self.queue.is_empty() {
                        DelayReason::QueueEmpty
                    } else {
                        DelayReason::PolicyChoice
                    }))
                }
                EpochClose::Forced => Some(DelayReason::InvalidActions {
                    rejections: consecutive_invalid as u32,
                }),
                EpochClose::Stop | EpochClose::Placed => None,
            }
        };
        let trace = EpochTrace {
            time: now,
            outcome,
            reason,
            queue_len: self.queue.len() as u32,
            queries: epoch_queries,
        };
        self.epochs.push(trace);
        if self.telemetry.is_enabled() {
            self.telemetry.count_epoch(&trace);
            self.harvest_counters();
        }
        Ok(())
    }

    /// Mirror the kernel's aggregate counters into the attached sink's
    /// metrics registry (absolute sets, so the namespace always shows run
    /// totals). Called at the close of every epoch when a sink is attached.
    fn harvest_counters(&self) {
        let t = &self.telemetry;
        t.set_counter("sim_epochs_total", self.stats.epochs as u64);
        t.set_counter("sim_queries_total", self.stats.queries as u64);
        t.set_counter("sim_placements_total", self.stats.placements as u64);
        t.set_counter("sim_backfills_total", self.stats.backfills as u64);
        t.set_counter("sim_delays_total", self.stats.delays as u64);
        t.set_counter("sim_rejections_total", self.stats.rejections as u64);
        let (rebuilds, hits) = self.ledger.calendar_counters();
        t.set_counter("sim_calendar_rebuilds_total", rebuilds);
        t.set_counter("sim_calendar_cache_hits_total", hits);
        t.set_gauge("sim_queue_depth", self.queue.len() as i64);
        t.set_gauge("sim_running_jobs", self.cluster.running_count() as i64);
    }

    fn validate_and_apply(
        &mut self,
        now: SimTime,
        pending_arrivals: usize,
        options: &SimOptions,
        action: Action,
    ) -> Result<Applied, RejectReason> {
        match action {
            Action::Delay => Ok(Applied::Delay),
            Action::Stop => {
                if self.queue.is_empty() && pending_arrivals == 0 {
                    Ok(Applied::Stop)
                } else {
                    Err(RejectReason::StopWithPendingJobs {
                        waiting: self.queue.len(),
                        pending_arrivals,
                    })
                }
            }
            Action::StartJob(id) => {
                let (at, spec) = lookup_waiting(self.queue.as_slice(), id)?;
                self.start_waiting_job(now, at, &spec)?;
                Ok(Applied::Placement)
            }
            Action::BackfillJob(id) => {
                let (at, spec) = lookup_waiting(self.queue.as_slice(), id)?;
                // The queue is sorted, so the head is O(1).
                let head = self
                    .queue
                    .as_slice()
                    .first()
                    .cloned()
                    .expect("waiting non-empty: spec was found in it");
                if head.id != spec.id && options.strict_backfill {
                    if !self.cluster.can_fit(&spec) {
                        return Err(insufficient(&self.cluster, &spec));
                    }
                    // Validate against the ledger's cached *actual-end*
                    // calendar instead of re-sweeping `cluster.running()`
                    // per proposal: the shadow is the head's earliest fit
                    // on that skyline, and the overlap check reads the
                    // skyline level at the shadow. Debug builds pin both
                    // against the original cluster sweep.
                    let topology = self.cluster.config().topology;
                    let calendar = self.ledger.actual(
                        now,
                        self.cluster.free_nodes(),
                        self.cluster.free_memory_gb(),
                        self.cluster.free_by_class(),
                    );
                    let head_demand = Demand::from(&head);
                    let shadow = if topology.is_flat() {
                        calendar.earliest_fit_flat(head_demand.nodes, head_demand.memory_gb)
                    } else {
                        calendar.earliest_fit_classed(&topology, &head_demand)
                    };
                    debug_assert_eq!(
                        shadow,
                        shadow_start(&self.cluster, now, head_demand),
                        "calendar shadow diverged from the cluster sweep"
                    );
                    let safe = shadow == SimTime::MAX
                        || now + spec.walltime <= shadow
                        || if topology.is_flat() {
                            let at = calendar.at(shadow);
                            at.free_nodes >= spec.nodes + head.nodes
                                && at.free_memory_gb >= spec.memory_gb + head.memory_gb
                        } else {
                            classed_overlap_fits(
                                &topology,
                                &self.cluster.free_by_class(),
                                calendar.at(shadow).free_by_class,
                                &Demand::from(&spec),
                                &head_demand,
                            )
                        };
                    debug_assert_eq!(
                        safe,
                        backfill_is_safe(&self.cluster, now, &spec, &head),
                        "calendar backfill validation diverged from the cluster math"
                    );
                    if !safe {
                        return Err(RejectReason::WouldDelayHead {
                            job: spec.id,
                            head: head.id,
                            shadow,
                        });
                    }
                }
                self.start_waiting_job(now, at, &spec)?;
                Ok(Applied::Placement)
            }
        }
    }

    fn start_waiting_job(
        &mut self,
        now: SimTime,
        queue_index: usize,
        spec: &JobSpec,
    ) -> Result<(), RejectReason> {
        let topology = self.cluster.config().topology;
        match self.cluster.start_job(spec, now) {
            Ok(started) => {
                let end = started.end;
                // The memory the cluster actually debited: equals the
                // request on flat clusters, but classed clusters charge the
                // hosting classes' capacity — and the summary must mirror
                // the debit so policies' release math conserves capacity.
                let held_memory_gb = started.allocation.memory_gb;
                // Per-class release columns for the calendar: which class
                // slots this placement's nodes return to at completion.
                let released_by_class = if topology.is_flat() {
                    [0; MAX_CLASSES]
                } else {
                    nodes_per_slot(&topology, &started.allocation.nodes)
                };
                self.events.push(end, SimEvent::Completion(spec.id));
                self.queue.remove_at(queue_index);
                // Maintain the running mirror incrementally — never rebuilt.
                self.running.insert(RunningSummary {
                    id: spec.id,
                    user: spec.user,
                    nodes: spec.nodes,
                    memory_gb: held_memory_gb,
                    start: now,
                    submit: spec.submit,
                    expected_end: now + spec.walltime,
                    class: spec.class,
                });
                self.ledger.job_started(
                    spec.id,
                    now + spec.walltime,
                    end,
                    spec.nodes,
                    held_memory_gb,
                    released_by_class,
                );
                self.node_integral
                    .update(now, self.cluster.busy_nodes() as f64);
                self.mem_integral
                    .update(now, self.cluster.busy_memory_gb() as f64);
                // The full ledger audit walks every running job; at 10k+
                // placements per run that O(R) sweep dominates the apply
                // path, so release builds trust the incremental counters.
                if cfg!(debug_assertions) {
                    self.cluster.check_invariants();
                }
                Ok(())
            }
            Err(StartError::InsufficientResources { .. }) => Err(insufficient(&self.cluster, spec)),
            Err(StartError::ExceedsCapacity) => Err(RejectReason::ExceedsCapacity(spec.id)),
            Err(StartError::AlreadyRunning) | Err(StartError::AlreadyCompleted) => {
                // Unreachable: the job was found in the waiting queue.
                Err(RejectReason::NotInQueue(spec.id))
            }
        }
    }

    // ---- inspection ------------------------------------------------------

    /// The waiting queue in decision order.
    pub fn waiting(&self) -> &[JobSpec] {
        self.queue.as_slice()
    }

    /// Number of waiting jobs.
    pub fn waiting_len(&self) -> usize {
        self.queue.len()
    }

    /// Completed-job records, in completion order.
    pub fn completed(&self) -> &[JobRecord] {
        self.cluster.completed()
    }

    /// Number of completed jobs.
    pub fn completed_len(&self) -> usize {
        self.cluster.completed().len()
    }

    /// Number of currently running jobs.
    pub fn running_count(&self) -> usize {
        self.cluster.running_count()
    }

    /// The underlying cluster ledger.
    pub fn cluster(&self) -> &ClusterState {
        &self.cluster
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The full decision log so far.
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// Length of the decision log (note before an epoch, stream the suffix
    /// after).
    pub fn decisions_len(&self) -> usize {
        self.decisions.len()
    }

    /// `true` once the policy has issued an accepted `Stop`.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    // ---- telemetry -------------------------------------------------------

    /// Attach a telemetry sink. The kernel spans its epochs, counts epoch
    /// outcomes, and mirrors its aggregate counters into the sink's metrics
    /// registry. A disabled sink (the default) costs one pointer check per
    /// call site.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// The attached telemetry sink (disabled by default).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Per-epoch provenance records so far — recorded deterministically,
    /// with or without a sink.
    pub fn epochs(&self) -> &[EpochTrace] {
        &self.epochs
    }

    /// Drain and return the provenance log, leaving it empty. Long-running
    /// daemons call this per tick so the log stays bounded (mirrors
    /// [`drain_decisions`](Self::drain_decisions)).
    pub fn drain_epochs(&mut self) -> Vec<EpochTrace> {
        std::mem::take(&mut self.epochs)
    }

    /// A borrowed policy-facing snapshot at `now` — what
    /// [`run_epoch`](Self::run_epoch) shows the policy, for telemetry and
    /// external inspection.
    pub fn view(&self, now: SimTime, pending_arrivals: usize, total_jobs: usize) -> SystemView<'_> {
        SystemView {
            now,
            config: self.cluster.config(),
            free_nodes: self.cluster.free_nodes(),
            free_memory_gb: self.cluster.free_memory_gb(),
            free_by_class: self.cluster.free_by_class(),
            waiting: self.queue.as_slice(),
            running: self.running.as_slice(),
            completed: self.cluster.completed(),
            completed_stats: self.cluster.completed_stats(),
            pending_arrivals,
            total_jobs,
            calendar: Some(&self.ledger),
            telemetry: Some(&self.telemetry),
        }
    }

    // ---- long-running-service memory bounds ------------------------------

    /// Drain and return the decision log, leaving it empty (counters in
    /// [`stats`](Self::stats) are unaffected). Long-running daemons call
    /// this per tick so the log stays bounded.
    pub fn drain_decisions(&mut self) -> Vec<DecisionRecord> {
        std::mem::take(&mut self.decisions)
    }

    /// Finish the run: consume the kernel into a [`SimOutcome`] with the
    /// utilization integrals closed at `end_time`.
    pub fn into_outcome(self, policy_name: String, end_time: SimTime) -> SimOutcome {
        SimOutcome {
            policy_name,
            records: self.cluster.completed().to_vec(),
            decisions: self.decisions,
            stats: self.stats,
            end_time,
            node_seconds: self.node_integral.integral_through(end_time),
            memory_gb_seconds: self.mem_integral.integral_through(end_time),
            epochs: self.epochs,
        }
    }
}

/// How an accepted action advanced the epoch.
enum Applied {
    Placement,
    Delay,
    Stop,
}

/// How an epoch's decision loop ended (feeds the provenance record).
enum EpochClose {
    /// Broke after a placement (saturated again, or awaiting arrivals).
    Placed,
    /// The policy delayed.
    Delay,
    /// The kernel forced a delay after repeated invalid actions.
    Forced,
    /// The policy stopped the run.
    Stop,
}

fn lookup_waiting(waiting: &[JobSpec], id: JobId) -> Result<(usize, JobSpec), RejectReason> {
    waiting
        .iter()
        .position(|j| j.id == id)
        .map(|at| (at, waiting[at].clone()))
        .ok_or(RejectReason::NotInQueue(id))
}

fn insufficient(cluster: &ClusterState, spec: &JobSpec) -> RejectReason {
    RejectReason::InsufficientResources {
        job: spec.id,
        needed_nodes: spec.nodes,
        needed_memory_gb: spec.memory_gb,
        free_nodes: cluster.free_nodes(),
        free_memory_gb: cluster.free_memory_gb(),
    }
}
