//! The system snapshot handed to scheduling policies.
//!
//! This is the observable state `S_t` of the paper's formulation (§2.1):
//! current time, free resources, the waiting queue with job metadata, and
//! summaries of running and completed jobs. The ReAct agent renders this
//! snapshot into its prompt; baseline policies read it directly.
//!
//! Since the zero-copy kernel refactor, [`SystemView`] **borrows** the
//! simulator's incrementally-maintained state instead of cloning it:
//! `waiting`, `running`, and `completed` are slices, so building a view is
//! O(1) regardless of queue depth, and a 100k-job trace no longer pays an
//! O(n) deep copy per policy query. Policies that only need completed-job
//! aggregates read the O(1) [`CompletedStats`] and never touch the record
//! slice at all. Callers that genuinely need an owned snapshot (the PR-2
//! era API) can still get one through the deprecated
//! [`to_owned`](SystemView::to_owned) compatibility path.
//!
//! Placement queries are serial scans in queue order: a greedy first-fit
//! policy takes `eligible_now().next()`, which stops at the first fit.

use rsched_cluster::{
    ClusterConfig, Demand, JobId, JobRecord, JobSpec, NodeClass, UserId, MAX_CLASSES,
};
use rsched_simkit::SimTime;

pub use rsched_cluster::CompletedStats;

/// A running job as visible to a policy: its demands and *estimated* end
/// time (start + requested walltime). True durations stay hidden, as in a
/// real scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunningSummary {
    /// Job id.
    pub id: JobId,
    /// Owning user.
    pub user: UserId,
    /// Nodes held.
    pub nodes: u32,
    /// Memory held (GB) — what the cluster debited, which equals the
    /// request on flat clusters but the hosting classes' capacity on
    /// classed ones. Summing this over `running` always restores
    /// [`free_memory_gb`](SystemView::free_memory_gb) to the machine
    /// total, so policies can do release arithmetic with it.
    pub memory_gb: u64,
    /// When the job started.
    pub start: SimTime,
    /// Submission time.
    pub submit: SimTime,
    /// `start + walltime`: when the scheduler expects it to finish.
    pub expected_end: SimTime,
    /// The node class the job asked for, `None` when class-agnostic (always
    /// `None` on flat clusters).
    pub class: Option<NodeClass>,
}

/// The full snapshot a policy decides from — borrowed from the simulator's
/// live state for the duration of one `decide` call.
///
/// # Invariants
///
/// Views built by the simulator guarantee:
///
/// * `waiting` is sorted ascending by `(submit, id)` — arrival order with
///   id tie-break — so [`head_of_queue`](SystemView::head_of_queue) is the
///   first element;
/// * `running` is sorted ascending by job id;
/// * `completed_stats` equals the fold of `completed`.
///
/// Hand-built views (tests, harnesses) must uphold the same ordering for
/// the helper methods to be meaningful.
#[derive(Debug, Clone)]
pub struct SystemView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Machine capacity.
    pub config: ClusterConfig,
    /// Free nodes at `now`.
    pub free_nodes: u32,
    /// Free memory (GB) at `now`.
    pub free_memory_gb: u64,
    /// Free nodes per topology class slot at `now`. All zeros on flat
    /// clusters, where [`free_nodes`](Self::free_nodes) is the whole story.
    pub free_by_class: [u32; MAX_CLASSES],
    /// Arrived, not-yet-started jobs — eligible for `StartJob`/`BackfillJob`.
    /// Ordered by arrival (submit time, then id).
    pub waiting: &'a [JobSpec],
    /// Currently executing jobs, ordered by id.
    pub running: &'a [RunningSummary],
    /// Completed job records so far, in completion order.
    pub completed: &'a [JobRecord],
    /// O(1) aggregates over `completed` (count, wait/turnaround sums,
    /// node-seconds) — maintained incrementally, never recomputed.
    pub completed_stats: CompletedStats,
    /// Jobs known to the workload but not yet arrived.
    pub pending_arrivals: usize,
    /// Total jobs in the workload instance.
    pub total_jobs: usize,
    /// The kernel's capacity ledger, when this view was built by a kernel —
    /// gives policies the cached per-epoch
    /// [`CapacityCalendar`](crate::profile::CapacityCalendar) through
    /// [`capacity_calendar`](Self::capacity_calendar). Hand-built views
    /// (tests, harnesses) leave it `None` and the accessor falls back to an
    /// equivalent calendar built from `running`.
    pub calendar: Option<&'a crate::profile::CapacityLedger>,
    /// The kernel's telemetry sink, when this view was built by a kernel
    /// with one attached. Policies record spans and counters through
    /// [`sink`](Self::sink); hand-built views leave it `None` and the
    /// accessor hands back an inert disabled sink.
    pub telemetry: Option<&'a rsched_telemetry::TelemetrySink>,
}

impl<'a> SystemView<'a> {
    /// The telemetry sink for this view — a cheap clone of the kernel's
    /// sink, or a disabled (no-op) sink when none is attached, so policies
    /// can instrument unconditionally.
    pub fn sink(&self) -> rsched_telemetry::TelemetrySink {
        self.telemetry.cloned().unwrap_or_default()
    }

    /// The waiting job with the given id.
    pub fn waiting_job(&self, id: JobId) -> Option<&'a JobSpec> {
        self.waiting.iter().find(|j| j.id == id)
    }

    /// The head of the queue: the earliest-submitted waiting job
    /// (ties broken by id). `None` when the queue is empty.
    ///
    /// O(1): `waiting` is sorted by `(submit, id)`, so the head is the
    /// first element.
    pub fn head_of_queue(&self) -> Option<&'a JobSpec> {
        self.waiting.first()
    }

    /// `true` if the job fits the free resources right now.
    ///
    /// Flat clusters keep the paper's two scalar checks; classed clusters
    /// ask whether some class-compatible slot has enough free nodes whose
    /// per-node capacity covers the job's vector demand.
    pub fn fits_now(&self, spec: &JobSpec) -> bool {
        self.fits(self.config.topology.is_flat(), spec)
    }

    /// Waiting jobs that fit right now, in queue order. The topology test
    /// runs once per call, not once per job, so on a flat cluster each
    /// probe is just the two scalar comparisons.
    pub fn eligible_now(&self) -> impl Iterator<Item = &'a JobSpec> + '_ {
        let flat = self.config.topology.is_flat();
        self.waiting.iter().filter(move |j| self.fits(flat, j))
    }

    /// [`fits_now`](Self::fits_now) with the topology test already made.
    fn fits(&self, flat: bool, spec: &JobSpec) -> bool {
        if flat {
            spec.nodes <= self.free_nodes && spec.memory_gb <= self.free_memory_gb
        } else {
            Demand::from(spec).fits_classes(&self.config.topology, &self.free_by_class)
        }
    }

    /// `true` once every job has arrived and been started (the paper's
    /// condition for a valid `Stop`).
    pub fn all_jobs_started(&self) -> bool {
        self.waiting.is_empty() && self.pending_arrivals == 0
    }

    /// `true` once every job has completed.
    pub fn all_jobs_completed(&self) -> bool {
        self.completed.len() == self.total_jobs
    }

    /// How long the given waiting job has been queued.
    pub fn wait_so_far(&self, spec: &JobSpec) -> rsched_simkit::SimDuration {
        self.now.saturating_since(spec.submit)
    }

    /// Users that have at least one running or completed job.
    pub fn users_served(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = self
            .running
            .iter()
            .map(|r| r.user)
            .chain(self.completed.iter().map(|c| c.spec.user))
            .collect();
        users.sort();
        users.dedup();
        users
    }

    /// The earliest expected completion among running jobs.
    pub fn next_expected_completion(&self) -> Option<SimTime> {
        self.running.iter().map(|r| r.expected_end).min()
    }

    /// The **estimated** free-capacity skyline for this epoch: releases at
    /// each running job's `expected_end`, starting from the current free
    /// level — what reservation-list backfill policies plan over.
    ///
    /// Kernel-built views answer from the ledger's per-epoch cache
    /// (rebuilt only when `(now, queue-version, running-version)` moves);
    /// hand-built views pay an O(R log R) construction from `running`,
    /// yielding bit-identical scalar columns.
    pub fn capacity_calendar(&self) -> crate::profile::CalendarRef<'a> {
        match self.calendar {
            Some(ledger) => crate::profile::CalendarRef::cached(ledger.estimated(
                self.now,
                self.free_nodes,
                self.free_memory_gb,
                self.free_by_class,
            )),
            None => {
                crate::profile::CalendarRef::owned(crate::profile::CapacityCalendar::from_running(
                    self.now,
                    self.free_nodes,
                    self.free_memory_gb,
                    self.running,
                ))
            }
        }
    }

    /// Deep-copy this snapshot into the PR-2 era owned form.
    ///
    /// O(n) in queue/record counts — exactly the per-query cost the
    /// borrowed view exists to avoid. Only for callers that must outlive
    /// the `decide` borrow (e.g. policies that defer work to another
    /// thread).
    ///
    /// Note this inherent method deliberately **shadows** the std
    /// [`ToOwned`] blanket impl (`SystemView` derives [`Clone`]):
    /// `view.to_owned()` resolves here and returns an
    /// [`OwnedSystemView`](crate::compat::OwnedSystemView), while generic
    /// code bound on `T: ToOwned` still gets a `SystemView` clone. The
    /// shadowing is the compatibility point — PR-2 era call sites written
    /// against the owned snapshot keep compiling — and the deprecation
    /// warning marks every such call site for migration.
    #[deprecated(note = "the borrowed SystemView<'_> is zero-copy; clone into an \
                OwnedSystemView only when the snapshot must outlive `decide`")]
    #[allow(deprecated)]
    pub fn to_owned(&self) -> crate::compat::OwnedSystemView {
        crate::compat::OwnedSystemView {
            now: self.now,
            config: self.config,
            free_nodes: self.free_nodes,
            free_memory_gb: self.free_memory_gb,
            free_by_class: self.free_by_class,
            waiting: self.waiting.to_vec(),
            running: self.running.to_vec(),
            completed: self.completed.to_vec(),
            pending_arrivals: self.pending_arrivals,
            total_jobs: self.total_jobs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_simkit::SimDuration;

    fn spec(id: u32, user: u32, submit_s: u64, nodes: u32, mem: u64) -> JobSpec {
        JobSpec::new(
            id,
            user,
            SimTime::from_secs(submit_s),
            SimDuration::from_secs(60),
            nodes,
            mem,
        )
    }

    /// Owns the state a view borrows from — the test-side stand-in for the
    /// simulator's incremental structures.
    struct Fixture {
        waiting: Vec<JobSpec>,
        running: Vec<RunningSummary>,
        completed: Vec<JobRecord>,
        pending_arrivals: usize,
    }

    fn fixture() -> Fixture {
        // Sorted by (submit, id), as the simulator maintains.
        Fixture {
            waiting: vec![
                spec(1, 0, 10, 32, 128),
                spec(2, 1, 10, 64, 600),
                spec(3, 1, 50, 128, 256),
            ],
            running: vec![RunningSummary {
                id: JobId(9),
                user: UserId(2),
                nodes: 192,
                memory_gb: 1536,
                start: SimTime::from_secs(90),
                submit: SimTime::ZERO,
                expected_end: SimTime::from_secs(200),
                class: None,
            }],
            completed: vec![JobRecord::new(spec(7, 3, 0, 1, 1), SimTime::ZERO)],
            pending_arrivals: 2,
        }
    }

    impl Fixture {
        fn view(&self) -> SystemView<'_> {
            SystemView {
                now: SimTime::from_secs(100),
                config: ClusterConfig::paper_default(),
                free_nodes: 64,
                free_memory_gb: 512,
                free_by_class: [0; MAX_CLASSES],
                waiting: &self.waiting,
                running: &self.running,
                completed: &self.completed,
                completed_stats: CompletedStats::from_records(&self.completed),
                pending_arrivals: self.pending_arrivals,
                total_jobs: 6,
                calendar: None,
                telemetry: None,
            }
        }
    }

    #[test]
    fn head_of_queue_is_earliest_submit_then_lowest_id() {
        let f = fixture();
        let v = f.view();
        assert_eq!(v.head_of_queue().map(|j| j.id), Some(JobId(1)));
    }

    #[test]
    fn fits_and_eligible() {
        let f = fixture();
        let v = f.view();
        assert!(v.fits_now(&spec(1, 0, 0, 32, 128)));
        assert!(!v.fits_now(&spec(3, 0, 0, 128, 256)), "too many nodes");
        assert!(!v.fits_now(&spec(2, 0, 0, 64, 600)), "too much memory");
        let eligible: Vec<JobId> = v.eligible_now().map(|j| j.id).collect();
        assert_eq!(eligible, vec![JobId(1)]);
    }

    #[test]
    fn classed_fits_now_consults_class_watermarks() {
        use rsched_cluster::{NodeClass, ResourceVec};
        let f = fixture();
        let mut v = f.view();
        v.config = ClusterConfig::mixed_256();
        // Only one gpu node is free anywhere on the machine.
        v.free_nodes = 1;
        v.free_by_class = [0, 1, 0, 0];
        let small = spec(1, 0, 0, 1, 4);
        assert!(v.fits_now(&small), "one free gpu node hosts a 1-node job");
        assert!(
            !v.fits_now(&spec(2, 0, 0, 2, 4)),
            "no class has 2 free nodes"
        );
        assert!(
            !v.fits_now(&small.clone().with_class(NodeClass::BigMem)),
            "class pin overrides the free gpu node"
        );
        assert!(
            v.fits_now(&small.with_per_node(ResourceVec::new(0, 4, 32, 1))),
            "gpu demand lands on the gpu class"
        );
    }

    #[test]
    fn lookup_and_waits() {
        let f = fixture();
        let v = f.view();
        assert!(v.waiting_job(JobId(2)).is_some());
        assert!(v.waiting_job(JobId(99)).is_none());
        let j1 = v.waiting_job(JobId(1)).cloned().expect("present");
        assert_eq!(v.wait_so_far(&j1), SimDuration::from_secs(90));
    }

    #[test]
    fn stop_condition_tracking() {
        let mut f = fixture();
        assert!(!f.view().all_jobs_started());
        f.waiting.clear();
        assert!(!f.view().all_jobs_started(), "arrivals still pending");
        f.pending_arrivals = 0;
        assert!(f.view().all_jobs_started());
        assert!(!f.view().all_jobs_completed());
    }

    #[test]
    fn users_served_deduplicates() {
        let f = fixture();
        assert_eq!(f.view().users_served(), vec![UserId(2), UserId(3)]);
    }

    #[test]
    fn next_expected_completion() {
        let f = fixture();
        assert_eq!(
            f.view().next_expected_completion(),
            Some(SimTime::from_secs(200))
        );
    }

    #[test]
    fn completed_stats_reflect_the_borrowed_slice() {
        let f = fixture();
        let v = f.view();
        assert_eq!(v.completed_stats.count, v.completed.len());
        assert_eq!(v.completed_stats, CompletedStats::from_records(v.completed));
    }
}
