//! The **backfill differential harness**: the capacity-calendar rewrite of
//! the backfilling policy family is pinned bit-identical to the
//! rebuild-per-decide implementations it replaced.
//!
//! * `RefEasy` / `RefConservative` below are the pre-calendar policies,
//!   kept verbatim as straight-line references: `RefEasy` re-finds every
//!   rejected job in the waiting queue per dominance check; and
//!   `RefConservative` rebuilds the free-capacity profile from the whole
//!   running set on every `decide` and places reservations with the
//!   O(profile²) candidate loop.
//! * Every cell of EASY / EASY-SJBF / Conservative / Conservative-SJBF ×
//!   scenarios (flat paper machine, the classed `mixed_256` machine, a
//!   Polaris synthetic stream) × 2 seeds runs both implementations through
//!   the same kernel and compares [`SimOutcome`]s field-for-field, down to
//!   the f64 bit patterns of the integrated utilization curves.
//! * Proptests pin the [`CapacityCalendar`] itself against a naive model:
//!   build/reserve sequences against a recompute-from-scratch profile, and
//!   `earliest_window` against the quadratic candidate loop, on
//!   arbitrarily reserved (non-monotone) skylines.
//! * An `#[ignore]`d release-mode `polaris_synth:50000` stream pins the
//!   EASY family on an archive-length stream, plus a 5k-job Conservative cell (the quadratic reference makes 50k
//!   intractable): `cargo test --release --test backfill_equivalence --
//!   --ignored`.

use proptest::prelude::*;
use reasoned_scheduler::cluster::{ClusterConfig, JobId, JobSpec};
use reasoned_scheduler::prelude::*;
use reasoned_scheduler::sim::{CapacityCalendar, ReservationProfile};
use reasoned_scheduler::workloads::scenario_builtins;
use reasoned_scheduler::workloads::{ArrivalMode, ScenarioContext};

// ------------------------------------------------------------------------
// Straight-line reference policies (pre-calendar implementations, verbatim)
// ------------------------------------------------------------------------

/// The pre-calendar EASY: rejected ids in a plain `Vec`, dominance checks
/// re-finding each rejected job in the waiting queue (`waiting_job`) per
/// candidate, serial candidate iteration.
#[derive(Debug, Clone, Default)]
struct RefEasy {
    rejected_this_epoch: Vec<JobId>,
    last_time: Option<SimTime>,
    shortest_first: bool,
}

impl RefEasy {
    fn sjbf() -> Self {
        RefEasy {
            shortest_first: true,
            ..Self::default()
        }
    }

    fn dominated_by_rejection(&self, candidate: &JobSpec, view: &SystemView<'_>) -> bool {
        self.rejected_this_epoch.iter().any(|&rid| {
            if rid == candidate.id {
                return true;
            }
            let Some(r) = view.waiting_job(rid) else {
                return false;
            };
            candidate.class == r.class
                && candidate.nodes >= r.nodes
                && candidate.memory_gb >= r.memory_gb
                && candidate.walltime >= r.walltime
                && candidate.per_node.dominates(&r.per_node)
        })
    }
}

impl SchedulingPolicy for RefEasy {
    fn name(&self) -> &str {
        if self.shortest_first {
            "EASY-SJBF"
        } else {
            "EASY"
        }
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        if self.last_time != Some(view.now) {
            self.last_time = Some(view.now);
            self.rejected_this_epoch.clear();
        }
        if view.all_jobs_started() {
            return Action::Stop;
        }
        let Some(head) = view.head_of_queue() else {
            return Action::Delay;
        };
        if view.fits_now(head) {
            return Action::StartJob(head.id);
        }
        let mut eligible = view
            .waiting
            .iter()
            .filter(|j| j.id != head.id)
            .filter(|j| view.fits_now(j))
            .filter(|j| !self.dominated_by_rejection(j, view));
        let candidate: Option<&JobSpec> = if self.shortest_first {
            eligible.min_by_key(|j| (j.walltime, j.submit, j.id))
        } else {
            eligible.next()
        };
        match candidate {
            Some(j) => Action::BackfillJob(j.id),
            None => Action::Delay,
        }
    }

    fn observe(&mut self, outcome: &reasoned_scheduler::sim::ActionOutcome) {
        if !outcome.accepted() {
            if let Some(id) = outcome.action.job_id() {
                self.rejected_this_epoch.push(id);
            }
        }
    }
}

const RESERVATION_DEPTH: usize = 64;

/// A step function of free capacity over time, as the pre-calendar
/// conservative policy kept it: `(time, free_nodes, free_memory_gb)`.
type Profile = Vec<(SimTime, u32, u64)>;

/// The free-capacity profile implied by the running set's estimated ends —
/// rebuilt from scratch, exactly as the old policy did per `decide`.
fn free_profile(
    now: SimTime,
    free_nodes: u32,
    free_memory_gb: u64,
    running: &[RunningSummary],
) -> Profile {
    let mut ends: Vec<(SimTime, u32, u64)> = running
        .iter()
        .map(|r| (r.expected_end, r.nodes, r.memory_gb))
        .collect();
    ends.sort_unstable();
    let mut points: Profile = vec![(now, free_nodes, free_memory_gb)];
    for (t, nodes, mem) in ends {
        let &(last_t, last_n, last_m) = points.last().expect("non-empty");
        let (free_n, free_m) = (last_n + nodes, last_m + mem);
        if t <= last_t {
            let last = points.last_mut().expect("non-empty");
            last.1 = free_n;
            last.2 = free_m;
        } else {
            points.push((t, free_n, free_m));
        }
    }
    points
}

/// The old quadratic placement loop: try each profile point as a start and
/// rescan the window; first window with capacity throughout wins.
fn earliest_start(points: &Profile, nodes: u32, memory_gb: u64, walltime: SimDuration) -> SimTime {
    'candidate: for i in 0..points.len() {
        let start = points[i].0;
        let end = start + walltime;
        for &(t, free_n, free_m) in &points[i..] {
            if t >= end {
                break;
            }
            if free_n < nodes || free_m < memory_gb {
                continue 'candidate;
            }
        }
        return start;
    }
    unreachable!("the final profile point is the fully-free machine")
}

fn insert_boundary(points: &mut Profile, t: SimTime) {
    match points.binary_search_by_key(&t, |p| p.0) {
        Ok(_) => {}
        Err(0) => {}
        Err(i) => {
            let (_, n, m) = points[i - 1];
            points.insert(i, (t, n, m));
        }
    }
}

/// Reservation subtraction as the old policy did it: a full scan over the
/// profile, clamping each covered point.
fn reserve(points: &mut Profile, start: SimTime, end: SimTime, nodes: u32, mem: u64) {
    insert_boundary(points, start);
    insert_boundary(points, end);
    for p in points.iter_mut() {
        if p.0 >= start && p.0 < end {
            p.1 = p.1.saturating_sub(nodes);
            p.2 = p.2.saturating_sub(mem);
        }
    }
}

/// The pre-calendar conservative backfill: profile rebuilt per decide,
/// quadratic reservation placement, linear rejected-set membership.
#[derive(Debug, Clone, Default)]
struct RefConservative {
    rejected_this_epoch: Vec<JobId>,
    last_time: Option<SimTime>,
    shortest_first: bool,
}

impl RefConservative {
    fn sjbf() -> Self {
        RefConservative {
            shortest_first: true,
            ..Self::default()
        }
    }
}

impl SchedulingPolicy for RefConservative {
    fn name(&self) -> &str {
        if self.shortest_first {
            "Conservative-SJBF"
        } else {
            "Conservative"
        }
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        if self.last_time != Some(view.now) {
            self.last_time = Some(view.now);
            self.rejected_this_epoch.clear();
        }
        if view.all_jobs_started() {
            return Action::Stop;
        }
        if view.waiting.is_empty() {
            return Action::Delay;
        }
        let mut points = free_profile(view.now, view.free_nodes, view.free_memory_gb, view.running);
        let mut startable: Vec<&JobSpec> = Vec::new();
        for job in view.waiting.iter().take(RESERVATION_DEPTH) {
            let start = earliest_start(&points, job.nodes, job.memory_gb, job.walltime);
            if start <= view.now
                && view.fits_now(job)
                && !self.rejected_this_epoch.contains(&job.id)
            {
                startable.push(job);
            }
            reserve(
                &mut points,
                start,
                start + job.walltime,
                job.nodes,
                job.memory_gb,
            );
        }
        let head_id = view.head_of_queue().map(|h| h.id);
        let pick = if self.shortest_first {
            startable
                .into_iter()
                .min_by_key(|j| (j.walltime, j.submit, j.id))
        } else {
            startable.into_iter().next()
        };
        match pick {
            Some(j) if Some(j.id) == head_id => Action::StartJob(j.id),
            Some(j) => Action::BackfillJob(j.id),
            None => Action::Delay,
        }
    }

    fn observe(&mut self, outcome: &reasoned_scheduler::sim::ActionOutcome) {
        if !outcome.accepted() {
            if let Some(id) = outcome.action.job_id() {
                self.rejected_this_epoch.push(id);
            }
        }
    }
}

// ------------------------------------------------------------------------
// Outcome comparison
// ------------------------------------------------------------------------

/// Bit-level outcome comparison: every integer field must be equal and
/// every float field must carry the identical bit pattern.
fn assert_outcomes_identical(a: &SimOutcome, b: &SimOutcome, label: &str) {
    assert_eq!(a.policy_name, b.policy_name, "{label}: policy name");
    assert_eq!(a.records, b.records, "{label}: job records");
    assert_eq!(a.decisions, b.decisions, "{label}: decision log");
    assert_eq!(a.stats, b.stats, "{label}: stats");
    assert_eq!(a.end_time, b.end_time, "{label}: end time");
    assert_eq!(
        a.node_seconds.to_bits(),
        b.node_seconds.to_bits(),
        "{label}: node-seconds bits"
    );
    assert_eq!(
        a.memory_gb_seconds.to_bits(),
        b.memory_gb_seconds.to_bits(),
        "{label}: memory-GB-seconds bits"
    );
}

/// Provenance pin for the calendar policies: every epoch that ended
/// without a placement must carry a machine-readable [`DelayReason`], and
/// never the kernel's `policy_choice` fallback — the backfill family
/// reports its own exit reasons (head-shadow veto, reservation block,
/// head blocked, empty queue) on every `Delay` it returns.
fn assert_delays_explained(outcome: &SimOutcome, label: &str) {
    for epoch in &outcome.epochs {
        let explained = match epoch.outcome {
            EpochOutcome::Delay | EpochOutcome::ForcedDelay | EpochOutcome::Saturated => {
                epoch.reason.is_some()
            }
            EpochOutcome::Placements { .. } | EpochOutcome::Stop => epoch.reason.is_none(),
        };
        assert!(
            explained,
            "{label}: epoch at {} ({}) has wrong provenance: {:?}",
            epoch.time,
            epoch.outcome.code(),
            epoch.reason
        );
        if matches!(epoch.outcome, EpochOutcome::Delay) {
            let code = epoch.reason.as_ref().expect("checked above").code();
            assert_ne!(
                code, "policy_choice",
                "{label}: calendar policy fell back to the generic reason at {}",
                epoch.time
            );
        }
    }
}

/// A calendar policy, its straight-line reference, and the
/// `strict_backfill` setting to compare them under.
type PolicyPair = (Box<dyn SchedulingPolicy>, Box<dyn SchedulingPolicy>, bool);

/// The calendar policies paired with their straight-line references.
/// `strict_backfill` follows the kernel-equivalence convention: on for the
/// EASY family (the simulator veto is part of the algorithm), off for the
/// conservative family (its reservation list is the safety argument).
fn policy_pairs() -> Vec<PolicyPair> {
    vec![
        (
            Box::new(EasyBackfill::new()) as Box<dyn SchedulingPolicy>,
            Box::new(RefEasy::default()) as Box<dyn SchedulingPolicy>,
            true,
        ),
        (
            Box::new(EasyBackfill::sjbf()),
            Box::new(RefEasy::sjbf()),
            true,
        ),
        (
            Box::new(ConservativeBackfill::new()),
            Box::new(RefConservative::default()),
            false,
        ),
        (
            Box::new(ConservativeBackfill::sjbf()),
            Box::new(RefConservative::sjbf()),
            false,
        ),
    ]
}

fn run_pair(cluster: ClusterConfig, jobs: &[JobSpec], label_prefix: &str) {
    for (mut calendar, mut reference, strict) in policy_pairs() {
        let label = format!("{label_prefix}/{}", calendar.name());
        let options = SimOptions {
            strict_backfill: strict,
            ..SimOptions::default()
        };
        let a = run_simulation(cluster, jobs, calendar.as_mut(), &options)
            .unwrap_or_else(|e| panic!("{label} (calendar): {e}"));
        let b = run_simulation(cluster, jobs, reference.as_mut(), &options)
            .unwrap_or_else(|e| panic!("{label} (reference): {e}"));
        assert_outcomes_identical(&a, &b, &label);
        assert_delays_explained(&a, &label);
    }
}

// ------------------------------------------------------------------------
// Differential grid
// ------------------------------------------------------------------------

/// 4 policies × 3 flat scenarios × 2 seeds on the paper machine.
#[test]
fn calendar_backfill_matches_reference_on_flat_scenarios() {
    let scenarios = ["heterogeneous_mix", "long_tail", "adversarial"];
    let cluster = ClusterConfig::paper_default();
    for scenario in scenarios {
        for seed in 1u64..=2 {
            let jobs = scenario_builtins()
                .generate(
                    scenario,
                    &ScenarioContext::new(96)
                        .with_mode(ArrivalMode::Dynamic)
                        .with_seed(seed),
                )
                .expect("builtin scenario")
                .jobs;
            run_pair(cluster, &jobs, &format!("{scenario}/seed {seed}"));
        }
    }
}

/// 4 policies × 2 seeds on the classed `mixed_256` machine, where the
/// flat fast paths must stand down and the per-class `fits_now` gate does
/// real work.
#[test]
fn calendar_backfill_matches_reference_on_the_classed_machine() {
    let cluster = ClusterConfig::mixed_256();
    for seed in 1u64..=2 {
        let jobs = scenario_builtins()
            .generate(
                "gpu_skewed_hetmix",
                &ScenarioContext::new(96)
                    .with_mode(ArrivalMode::Dynamic)
                    .with_seed(seed),
            )
            .expect("builtin scenario")
            .jobs;
        run_pair(cluster, &jobs, &format!("gpu_skewed_hetmix/seed {seed}"));
    }
}

/// 4 policies × 2 seeds on a Polaris synthetic stream sized to keep the
/// quadratic reference tractable in debug builds; the 50k-deep version
/// lives in the `#[ignore]`d release test below.
#[test]
fn calendar_backfill_matches_reference_on_a_polaris_stream() {
    let cluster = ClusterConfig::polaris();
    for seed in [7u64, 8] {
        let jobs = scenario_builtins()
            .generate(
                "polaris_synth:400",
                &ScenarioContext::new(400).with_seed(seed),
            )
            .expect("builtin scenario")
            .jobs;
        run_pair(cluster, &jobs, &format!("polaris_synth:400/seed {seed}"));
    }
}

/// Release-mode deep-stream differential — the EASY family over a
/// `polaris_synth:50000` stream (the serial candidate scan against the
/// straight-line reference on an archive-length queue), plus a 5k Conservative cell (the O(profile²)
/// reference cannot face 50k):
///
/// ```text
/// cargo test --release --test backfill_equivalence -- --ignored
/// ```
#[test]
#[ignore = "deep-stream differential: run in release mode via -- --ignored"]
fn deep_polaris_stream_matches_reference_in_release() {
    let cluster = ClusterConfig::polaris();
    let jobs = scenario_builtins()
        .generate(
            "polaris_synth:50000",
            &ScenarioContext::new(50_000).with_seed(7),
        )
        .expect("builtin scenario")
        .jobs;
    let options = SimOptions {
        strict_backfill: true,
        max_queries: 16_000_000,
        ..SimOptions::default()
    };
    for (mut calendar, mut reference) in [
        (
            Box::new(EasyBackfill::new()) as Box<dyn SchedulingPolicy>,
            Box::new(RefEasy::default()) as Box<dyn SchedulingPolicy>,
        ),
        (Box::new(EasyBackfill::sjbf()), Box::new(RefEasy::sjbf())),
    ] {
        let label = format!("polaris_synth:50000/{}", calendar.name());
        let a = run_simulation(cluster, &jobs, calendar.as_mut(), &options)
            .unwrap_or_else(|e| panic!("{label} (calendar): {e}"));
        let b = run_simulation(cluster, &jobs, reference.as_mut(), &options)
            .unwrap_or_else(|e| panic!("{label} (reference): {e}"));
        assert_outcomes_identical(&a, &b, &label);
    }
    let jobs = scenario_builtins()
        .generate(
            "polaris_synth:5000",
            &ScenarioContext::new(5_000).with_seed(7),
        )
        .expect("builtin scenario")
        .jobs;
    run_pair(cluster, &jobs, "polaris_synth:5000");
}

// ------------------------------------------------------------------------
// Calendar proptests: the incremental structure vs naive recompute
// ------------------------------------------------------------------------

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

/// Naive skyline from a release list — fold in time order with the same
/// equal-time/overrun merge the policies always used.
fn naive_build(
    now: SimTime,
    free_nodes: u32,
    free_memory_gb: u64,
    releases: &[(SimTime, u32, u64)],
) -> Profile {
    let mut sorted = releases.to_vec();
    sorted.sort_unstable();
    let mut points: Profile = vec![(now, free_nodes, free_memory_gb)];
    for &(rt, nodes, mem) in &sorted {
        let &(last_t, last_n, last_m) = points.last().expect("non-empty");
        let (free_n, free_m) = (last_n + nodes, last_m + mem);
        if rt <= last_t {
            let last = points.last_mut().expect("non-empty");
            last.1 = free_n;
            last.2 = free_m;
        } else {
            points.push((rt, free_n, free_m));
        }
    }
    points
}

fn scalar_points(cal: &CapacityCalendar) -> Profile {
    cal.points()
        .iter()
        .map(|p| (p.time, p.free_nodes, p.free_memory_gb))
        .collect()
}

/// A release list strategy: up to 12 running jobs with ends straddling
/// `now` (overruns included), small node/memory grants.
fn releases() -> impl Strategy<Value = Vec<(u64, u32, u64)>> {
    prop::collection::vec((0u64..200, 1u32..8, 1u64..32), 0..12)
}

/// Reservations over the same horizon: `(start, len, nodes, mem)`.
fn reservations() -> impl Strategy<Value = Vec<(u64, u64, u32, u64)>> {
    prop::collection::vec((0u64..250, 1u64..80, 1u32..8, 1u64..32), 0..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `CapacityCalendar::build` + a `reserve` sequence stays point-for-
    /// point equal to the naive rebuild-and-full-scan profile.
    #[test]
    fn calendar_build_and_reserve_match_naive_profile(
        rel in releases(),
        res in reservations(),
    ) {
        let now = t(50);
        let (free_nodes, free_memory_gb) = (16u32, 128u64);
        let rel: Vec<(SimTime, u32, u64)> =
            rel.into_iter().map(|(s, n, m)| (t(s), n, m)).collect();

        let mut sorted = rel.clone();
        sorted.sort_unstable();
        let mut cal = CapacityCalendar::build(
            now,
            free_nodes,
            free_memory_gb,
            [0; reasoned_scheduler::cluster::MAX_CLASSES],
            sorted.iter().map(|&(rt, n, m)| {
                (rt, n, m, [0; reasoned_scheduler::cluster::MAX_CLASSES])
            }),
        );
        let mut naive = naive_build(now, free_nodes, free_memory_gb, &rel);
        prop_assert_eq!(scalar_points(&cal), naive.clone());

        for (start_s, len_s, nodes, mem) in res {
            let (start, end) = (t(start_s), t(start_s + len_s));
            cal.reserve(start, end, nodes, mem);
            reserve(&mut naive, start, end, nodes, mem);
            prop_assert_eq!(scalar_points(&cal), naive.clone());
        }
    }

    /// The monotone-cursor `earliest_window` equals the quadratic
    /// candidate loop on arbitrarily reserved (non-monotone) skylines.
    #[test]
    fn earliest_window_matches_quadratic_candidate_loop(
        rel in releases(),
        res in reservations(),
        demands in prop::collection::vec((1u32..20, 1u64..160, 1u64..120), 1..8),
    ) {
        let now = t(50);
        let rel: Vec<(SimTime, u32, u64)> =
            rel.into_iter().map(|(s, n, m)| (t(s), n, m)).collect();
        let mut sorted = rel.clone();
        sorted.sort_unstable();
        let mut cal = CapacityCalendar::build(
            now,
            16,
            128,
            [0; reasoned_scheduler::cluster::MAX_CLASSES],
            sorted.iter().map(|&(rt, n, m)| {
                (rt, n, m, [0; reasoned_scheduler::cluster::MAX_CLASSES])
            }),
        );
        let mut naive = naive_build(now, 16, 128, &rel);
        for (start_s, len_s, nodes, mem) in res {
            cal.reserve(t(start_s), t(start_s + len_s), nodes, mem);
            reserve(&mut naive, t(start_s), t(start_s + len_s), nodes, mem);
        }
        for (nodes, mem, wall_s) in demands {
            // Demands are capped at machine capacity: both placement loops
            // assume the final (fully-free) point admits the job.
            let nodes = nodes.min(16);
            let mem = mem.min(128);
            let wall = SimDuration::from_secs(wall_s);
            prop_assert_eq!(
                cal.earliest_window(nodes, mem, wall),
                earliest_start(&naive, nodes, mem, wall)
            );
        }
    }

    /// The `ReservationProfile` overlay (what the conservative pass
    /// actually mutates) stays bit-identical to a cloned
    /// `CapacityCalendar` under interleaved window queries and reserves:
    /// same placements, same effective levels.
    #[test]
    fn overlay_matches_a_cloned_calendar(
        rel in releases(),
        res in reservations(),
        demands in prop::collection::vec((1u32..20, 1u64..160, 1u64..120), 1..8),
    ) {
        let now = t(50);
        let rel: Vec<(SimTime, u32, u64)> =
            rel.into_iter().map(|(s, n, m)| (t(s), n, m)).collect();
        let mut sorted = rel.clone();
        sorted.sort_unstable();
        let base = CapacityCalendar::build(
            now,
            16,
            128,
            [0; reasoned_scheduler::cluster::MAX_CLASSES],
            sorted.iter().map(|&(rt, n, m)| {
                (rt, n, m, [0; reasoned_scheduler::cluster::MAX_CLASSES])
            }),
        );
        let mut cloned = base.clone();
        let mut overlay = ReservationProfile::new();
        for (start_s, len_s, nodes, mem) in res {
            // Query before each reserve the way the policy does, with the
            // demand capped at machine capacity (both placement loops
            // assume the final point admits the job).
            for &(n, m, wall_s) in &demands {
                let wall = SimDuration::from_secs(wall_s);
                prop_assert_eq!(
                    overlay.earliest_window(&base, n.min(16), m.min(128), wall),
                    cloned.earliest_window(n.min(16), m.min(128), wall)
                );
            }
            let (start, end) = (t(start_s), t(start_s + len_s));
            cloned.reserve(start, end, nodes, mem);
            overlay.reserve(start, end, nodes, mem);
            // Effective levels agree at every boundary of either side.
            for &(pt, pn, pm) in &scalar_points(&cloned) {
                let (res_n, res_m) = overlay.reserved_at(pt);
                let eff = base.at(pt);
                prop_assert_eq!(
                    (pn, pm),
                    (eff.free_nodes.saturating_sub(res_n),
                     eff.free_memory_gb.saturating_sub(res_m))
                );
            }
        }
    }
}
