//! FCFS with EASY backfilling — an ablation baseline.
//!
//! Not part of the paper's comparison set, but essential for interpreting
//! it: the LLM agent's biggest wins come from backfilling around blocked
//! heads, and this policy isolates exactly that mechanism without any
//! multiobjective reasoning.
//!
//! Each decision is one serial pass over the waiting queue: the same
//! iterator chain on flat and classed machines, at any queue depth.

use rsched_cluster::{JobId, JobSpec, NodeClass, ResourceVec};
use rsched_sim::{Action, DelayReason, SchedulingPolicy, SystemView};
use rsched_simkit::{SimDuration, SimTime};

/// A rejected candidate's demand, snapshotted when the rejection was
/// observed — the epoch's **rejection demand frontier**. Dominance checks
/// compare against these stored fields directly instead of re-finding the
/// job in the waiting queue per candidate (the old `waiting_job` lookup
/// made the filter O(rejected × queue) per candidate).
#[derive(Debug, Clone)]
struct RejectedDemand {
    id: JobId,
    /// The demand at proposal time; `None` if the rejection arrived for an
    /// action this policy has no snapshot for (defensive only — every
    /// proposal stashes one), in which case the dominance check falls back
    /// to the queue lookup.
    demand: Option<DemandSnapshot>,
}

/// The dominance-relevant fields of a [`JobSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DemandSnapshot {
    nodes: u32,
    memory_gb: u64,
    walltime: SimDuration,
    per_node: ResourceVec,
    class: Option<NodeClass>,
}

impl DemandSnapshot {
    fn of(spec: &JobSpec) -> Self {
        DemandSnapshot {
            nodes: spec.nodes,
            memory_gb: spec.memory_gb,
            walltime: spec.walltime,
            per_node: spec.per_node,
            class: spec.class,
        }
    }
}

/// `true` if `candidate`'s demand dominates `r` in every dimension (same
/// class pin, ≥ nodes/memory/walltime, per-node vector dominance) — so a
/// shadow-time veto against `r` applies to `candidate` a fortiori.
fn dominates(candidate: &JobSpec, r: &DemandSnapshot) -> bool {
    candidate.class == r.class
        && candidate.nodes >= r.nodes
        && candidate.memory_gb >= r.memory_gb
        && candidate.walltime >= r.walltime
        && candidate.per_node.dominates(&r.per_node)
}

/// `true` if proposing `candidate` is pointless given this timestep's
/// rejection frontier: it was itself rejected, or it dominates a rejected
/// demand.
fn dominated_by_rejection(
    rejected: &[RejectedDemand],
    waiting: &[JobSpec],
    candidate: &JobSpec,
) -> bool {
    rejected.iter().any(|r| {
        if r.id == candidate.id {
            return true;
        }
        match &r.demand {
            Some(d) => dominates(candidate, d),
            None => waiting
                .iter()
                .find(|j| j.id == r.id)
                .is_some_and(|j| dominates(candidate, &DemandSnapshot::of(j))),
        }
    })
}

/// FCFS head-first; when the head is blocked, backfill the first (arrival
/// order) waiting job that fits now — relying on the simulator's
/// shadow-time validation (served from the kernel's capacity calendar) to
/// reject unsafe picks, after which the policy tries the next candidate.
///
/// Rejections are remembered for the rest of the timestep as a demand
/// frontier, and the skip is **demand-aware**: a candidate whose demand
/// dominates an already-rejected candidate's in every dimension (nodes,
/// memory, walltime, per-node vector, same class pin) would draw the same
/// veto, so it is skipped without wasting a policy query on it.
///
/// Candidates come from one serial pass over the queue in arrival order,
/// on every topology and at every depth: the first survivor of the
/// filter, or under SJBF the shortest one.
///
/// The [`sjbf`](EasyBackfill::sjbf) variant orders backfill candidates by
/// shortest requested walltime first (SJBF) instead of arrival order — the
/// classic walltime-estimate-aware refinement.
#[derive(Debug, Clone, Default)]
pub struct EasyBackfill {
    /// Demands rejected at the current timestep (reset when time moves).
    rejected_this_epoch: Vec<RejectedDemand>,
    /// The job proposed by the most recent `decide`, snapshotted so a
    /// veto in `observe` can be recorded with its demand attached.
    last_proposed: Option<(JobId, DemandSnapshot)>,
    last_time: Option<SimTime>,
    /// Order backfill candidates by shortest walltime instead of arrival.
    shortest_first: bool,
    /// Why the most recent `decide` returned [`Action::Delay`]; harvested
    /// by the kernel through [`SchedulingPolicy::provenance`].
    last_delay: Option<DelayReason>,
}

impl EasyBackfill {
    /// A fresh policy with arrival-order backfilling.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shortest-job-backfilled-first variant (`EASY-SJBF`).
    pub fn sjbf() -> Self {
        EasyBackfill {
            shortest_first: true,
            ..Self::default()
        }
    }

    fn propose(&mut self, spec: &JobSpec, action: Action) -> Action {
        self.last_proposed = Some((spec.id, DemandSnapshot::of(spec)));
        action
    }
}

impl SchedulingPolicy for EasyBackfill {
    fn name(&self) -> &str {
        if self.shortest_first {
            "EASY-SJBF"
        } else {
            "EASY"
        }
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        self.last_delay = None;
        if self.last_time != Some(view.now) {
            self.last_time = Some(view.now);
            self.rejected_this_epoch.clear();
        }
        if view.all_jobs_started() {
            return Action::Stop;
        }
        let Some(head) = view.head_of_queue() else {
            self.last_delay = Some(DelayReason::QueueEmpty);
            return Action::Delay;
        };
        if view.fits_now(head) {
            return self.propose(head, Action::StartJob(head.id));
        }
        // Head blocked: backfill candidates in arrival order (or shortest
        // walltime first under SJBF).
        let mut eligible = view
            .eligible_now()
            .filter(|j| j.id != head.id)
            .filter(|j| !dominated_by_rejection(&self.rejected_this_epoch, view.waiting, j));
        let candidate = if self.shortest_first {
            eligible.min_by_key(|j| (j.walltime, j.submit, j.id))
        } else {
            eligible.next()
        };
        match candidate {
            Some(j) => self.propose(j, Action::BackfillJob(j.id)),
            None => {
                // The head is blocked and no surviving candidate fits; any
                // same-epoch vetoes are folded into the rejection frontier.
                self.last_delay = Some(DelayReason::HeadBlocked { head: head.id });
                Action::Delay
            }
        }
    }

    fn provenance(&mut self) -> Option<DelayReason> {
        self.last_delay.take()
    }

    fn observe(&mut self, outcome: &rsched_sim::ActionOutcome) {
        if !outcome.accepted() {
            if let Some(id) = outcome.action.job_id() {
                let demand = match &self.last_proposed {
                    Some((pid, snap)) if *pid == id => Some(*snap),
                    _ => None,
                };
                self.rejected_this_epoch.push(RejectedDemand { id, demand });
            }
        }
    }

    fn reset(&mut self) {
        self.rejected_this_epoch.clear();
        self.last_proposed = None;
        self.last_time = None;
        self.last_delay = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::{ClusterConfig, JobId, JobSpec};
    use rsched_sim::{run_simulation, SimOptions};
    use rsched_simkit::{SimDuration, SimTime};

    fn spec(id: u32, submit_s: u64, dur_s: u64, nodes: u32) -> JobSpec {
        JobSpec::new(
            id,
            id % 3,
            SimTime::from_secs(submit_s),
            SimDuration::from_secs(dur_s),
            nodes,
            1,
        )
    }

    fn run(jobs: &[JobSpec]) -> rsched_sim::SimOutcome {
        run_with(jobs, EasyBackfill::new())
    }

    fn run_with(jobs: &[JobSpec], mut policy: EasyBackfill) -> rsched_sim::SimOutcome {
        run_simulation(
            ClusterConfig::new(8, 64),
            jobs,
            &mut policy,
            &SimOptions {
                strict_backfill: true,
                ..SimOptions::default()
            },
        )
        .expect("completes")
    }

    #[test]
    fn backfills_small_jobs_around_blocked_head() {
        let jobs = vec![
            spec(0, 0, 100, 6),  // running, leaves 2 nodes
            spec(1, 5, 1000, 8), // head, blocked until t=100
            spec(2, 6, 10, 1),   // backfill candidate (ends t<=100: safe)
        ];
        let out = run(&jobs);
        let small = out.records.iter().find(|r| r.spec.id == JobId(2)).unwrap();
        assert_eq!(small.start, SimTime::from_secs(6), "EASY backfills");
        assert!(out.stats.backfills >= 1);
    }

    #[test]
    fn unsafe_backfill_is_skipped_after_rejection() {
        let jobs = vec![
            spec(0, 0, 100, 6),  // running, 2 nodes free
            spec(1, 5, 50, 8),   // head blocked until t=100
            spec(2, 6, 1000, 2), // would overlap shadow & steal nodes: unsafe
            spec(3, 7, 10, 1),   // safe alternative
        ];
        let out = run(&jobs);
        // Job 2 (2 nodes, very long) would leave only 6 free at shadow time
        // t=100 where head needs 8 → rejected; job 3 backfills instead.
        let safe = out.records.iter().find(|r| r.spec.id == JobId(3)).unwrap();
        assert_eq!(safe.start, SimTime::from_secs(7));
        let unsafe_job = out.records.iter().find(|r| r.spec.id == JobId(2)).unwrap();
        assert!(unsafe_job.start >= SimTime::from_secs(100));
        assert!(out.stats.rejections >= 1, "the unsafe pick was vetoed");
    }

    #[test]
    fn dominating_candidates_are_skipped_without_a_second_rejection() {
        let jobs = vec![
            spec(0, 0, 100, 6),  // running, 2 nodes free
            spec(1, 5, 50, 8),   // head blocked until t=100
            spec(2, 6, 1000, 2), // unsafe: rejected once
            spec(3, 7, 2000, 2), // dominates job 2 → skipped, never proposed
            spec(4, 8, 10, 1),   // safe: backfills
        ];
        let out = run(&jobs);
        // Job 2 is re-proposed once per timestep (the rejection memory
        // resets when time moves), but job 3 — which dominates it in every
        // dimension — must never be proposed at all: every veto names job 2.
        assert!(out.stats.rejections >= 1);
        for d in &out.decisions {
            if d.rejected.is_some() {
                assert_eq!(
                    d.action,
                    Action::BackfillJob(JobId(2)),
                    "only the non-dominated candidate may be rejected: {d:#?}"
                );
            }
            assert_ne!(
                d.action,
                Action::BackfillJob(JobId(3)),
                "dominated candidate was proposed: {:#?}",
                out.decisions
            );
        }
        let safe = out.records.iter().find(|r| r.spec.id == JobId(4)).unwrap();
        assert_eq!(safe.start, SimTime::from_secs(8), "safe job still lands");
        for id in [2u32, 3] {
            let r = out.records.iter().find(|r| r.spec.id == JobId(id)).unwrap();
            assert!(r.start >= SimTime::from_secs(100), "unsafe job {id} waited");
        }
    }

    #[test]
    fn sjbf_prefers_the_shortest_backfill_candidate() {
        let jobs = vec![
            spec(0, 0, 100, 6), // running, 2 nodes free
            spec(1, 5, 50, 8),  // head blocked until t=100
            spec(2, 6, 80, 1),  // arrival-order pick (safe: ends t=86)
            spec(3, 6, 10, 1),  // same arrival, shortest — SJBF's pick
        ];
        let arrival = run(&jobs);
        let sjbf = run_with(&jobs, EasyBackfill::sjbf());
        // Both candidates fit side by side and end up backfilled at t=6;
        // what differs is which one each variant proposes first.
        let first_backfill = |o: &rsched_sim::SimOutcome| {
            o.decisions
                .iter()
                .find_map(|d| match d.action {
                    Action::BackfillJob(id) => Some(id),
                    _ => None,
                })
                .expect("backfilled")
        };
        assert_eq!(first_backfill(&arrival), JobId(2));
        assert_eq!(first_backfill(&sjbf), JobId(3));
        for out in [&arrival, &sjbf] {
            for id in [2u32, 3] {
                let r = out.records.iter().find(|r| r.spec.id == JobId(id)).unwrap();
                assert_eq!(r.start, SimTime::from_secs(6), "job {id} backfilled");
            }
        }
    }

    #[test]
    fn behaves_like_fcfs_when_no_backfill_possible() {
        let jobs = vec![spec(0, 0, 50, 8), spec(1, 1, 20, 8), spec(2, 2, 20, 8)];
        let easy = run(&jobs);
        let fcfs = run_simulation(
            ClusterConfig::new(8, 64),
            &jobs,
            &mut crate::fcfs::Fcfs::default(),
            &SimOptions::default(),
        )
        .expect("completes");
        let starts = |o: &rsched_sim::SimOutcome| {
            let mut v: Vec<(JobId, u64)> = o
                .records
                .iter()
                .map(|r| (r.spec.id, r.start.as_secs()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(starts(&easy), starts(&fcfs));
    }

    #[test]
    fn frontier_snapshot_matches_the_queue_lookup_semantics() {
        // The frontier stores the demand at proposal time; the job stays
        // in the waiting queue for the rest of the epoch, so the stored
        // snapshot and a fresh lookup must agree.
        let job = spec(7, 3, 500, 4);
        let snap = DemandSnapshot::of(&job);
        assert!(dominates(&spec(8, 4, 600, 5), &snap), "wider job dominated");
        assert!(!dominates(&spec(9, 4, 10, 5), &snap), "shorter walltime");
        let frontier = [RejectedDemand {
            id: JobId(7),
            demand: Some(snap),
        }];
        let waiting = [job.clone(), spec(8, 4, 600, 5)];
        assert!(dominated_by_rejection(&frontier, &waiting, &job), "self");
        assert!(dominated_by_rejection(&frontier, &waiting, &waiting[1]));
        // A `None` demand falls back to the queue lookup — same answer.
        let lazy = [RejectedDemand {
            id: JobId(7),
            demand: None,
        }];
        assert!(dominated_by_rejection(&lazy, &waiting, &waiting[1]));
        let gone: [JobSpec; 0] = [];
        assert!(
            !dominated_by_rejection(&lazy, &gone, &spec(8, 4, 600, 5)),
            "lookup miss means no dominance, as before"
        );
    }
}
