//! Incrementally-maintained simulator state: the sorted waiting queue with
//! its min-demand watermark, and the running-summary cache.
//!
//! These are the data structures behind the zero-copy kernel, shared by
//! **both drivers** since the service split: the virtual-time simulator and
//! the wall-clock scheduler daemon drive the same [`WaitQueue`] and
//! [`RunningSet`] through [`KernelState`](crate::kernel::KernelState). The
//! old kernel re-sorted the waiting queue on every event-loop iteration and
//! rebuilt the running-summary vector (plus a full clone of the completed
//! records) on every policy query — O(n) per query, O(n²) per run. Here:
//!
//! * [`WaitQueue`] keeps jobs sorted by `(rank, submit, id)` via
//!   binary-search insertion, pops the head in O(1) amortized via a head
//!   offset, and short-circuits "does anything fit?" with conservative
//!   min-demand watermarks, else answers it with one serial scan at any
//!   queue depth. The **rank** is a fair-share priority tag:
//!   the virtual-time simulator always inserts at rank 0, which makes the
//!   order exactly the paper's `(submit, id)` arrival order; the
//!   multi-tenant service daemon inserts with usage-decayed tenant ranks so
//!   low-usage tenants sort ahead without any per-query re-sort;
//! * [`RunningSet`] mirrors the cluster's running jobs as
//!   [`RunningSummary`]s sorted by id, updated on start/complete instead of
//!   rebuilt per query.
//!
//! Both expose their contents as slices, which is what lets
//! [`SystemView`](crate::SystemView) borrow instead of clone.

use rsched_cluster::{ClusterState, JobId, JobSpec};
use rsched_simkit::SimTime;

use crate::store::JobStore;
use crate::view::RunningSummary;

/// The waiting queue: jobs sorted ascending by `(rank, submit, id)`.
///
/// With every rank 0 (the simulator's only mode) this is exactly the
/// `(submit, id)` arrival order the paper's policies assume.
#[derive(Debug, Default)]
pub(crate) struct WaitQueue {
    /// SoA-packed backing storage; the live queue is `jobs[head..]`.
    /// The store's dense demand columns feed the flat-cluster fit scan.
    jobs: JobStore,
    /// Fair-share rank per job, aligned with the store (same head offset).
    ranks: Vec<u64>,
    /// Index of the logical front. Head removals (the FCFS common case)
    /// just advance this; the buffer is compacted when the dead prefix
    /// outgrows the live queue.
    head: usize,
    /// Conservative lower bound on the minimum node demand over the queue:
    /// never above the true minimum (insertions tighten it, removals may
    /// leave it stale-low), so `free < watermark` soundly proves nothing
    /// fits. Reset when the queue drains.
    min_nodes: u32,
    /// Same, for memory.
    min_memory_gb: u64,
}

impl WaitQueue {
    pub(crate) fn new() -> Self {
        WaitQueue {
            jobs: JobStore::new(),
            ranks: Vec::new(),
            head: 0,
            min_nodes: u32::MAX,
            min_memory_gb: u64::MAX,
        }
    }

    pub(crate) fn as_slice(&self) -> &[JobSpec] {
        &self.jobs.specs()[self.head..]
    }

    pub(crate) fn len(&self) -> usize {
        self.jobs.len() - self.head
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.jobs.len()
    }

    /// Position of `(rank, submit, id)` in the live queue, whether or not
    /// it is present (`Result` as in `slice::binary_search`).
    fn position(&self, key: (u64, SimTime, JobId)) -> Result<usize, usize> {
        let live = self.as_slice();
        let ranks = &self.ranks[self.head..];
        let mut lo = 0usize;
        let mut hi = live.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mid_key = (ranks[mid], live[mid].submit, live[mid].id);
            match mid_key.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Insert at rank 0, preserving `(submit, id)` order — the virtual-time
    /// simulator's path. Arrivals are popped in time order, so this is an
    /// O(log n) search that lands at the back and an O(1) append.
    pub(crate) fn insert(&mut self, job: JobSpec) {
        self.insert_ranked(job, 0);
    }

    /// Insert preserving `(rank, submit, id)` order — the service daemon's
    /// path, with `rank` a usage-decayed fair-share tag (lower sorts
    /// earlier).
    pub(crate) fn insert_ranked(&mut self, job: JobSpec, rank: u64) {
        self.min_nodes = self.min_nodes.min(job.nodes);
        self.min_memory_gb = self.min_memory_gb.min(job.memory_gb);
        let at = match self.position((rank, job.submit, job.id)) {
            Ok(_) => unreachable!("duplicate job ids are rejected before insertion"),
            Err(at) => at,
        };
        self.jobs.insert(self.head + at, job);
        self.ranks.insert(self.head + at, rank);
    }

    /// Remove the job at `index` of [`as_slice`](Self::as_slice), returning
    /// it. O(1) amortized at the head, O(index) elsewhere — interior
    /// removals are backfills, which sit within the schedulers'
    /// reservation depth of the head, so the prefix left of the removed
    /// job is short while the tail right of it can span the whole queue.
    /// Rotating the prefix right and advancing the head offset removes
    /// the job without ever touching that tail.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub(crate) fn remove_at(&mut self, index: usize) -> JobSpec {
        assert!(index < self.len(), "WaitQueue::remove_at out of bounds");
        if index > 0 {
            let at = self.head + index;
            self.ranks[self.head..=at].rotate_right(1);
            self.jobs.rotate_right_prefix(self.head, at);
        }
        let job = self.jobs.specs()[self.head].clone();
        self.head += 1;
        // Compact once the dead prefix dominates, keeping amortized
        // O(1) head pops without unbounded memory retention.
        if self.head > 32 && self.head * 2 > self.jobs.len() {
            self.jobs.drain_front(self.head);
            self.ranks.drain(..self.head);
            self.head = 0;
        }
        if self.is_empty() {
            self.jobs.clear();
            self.ranks.clear();
            self.head = 0;
            self.min_nodes = u32::MAX;
            self.min_memory_gb = u64::MAX;
        }
        job
    }

    /// `true` if at least one waiting job fits the cluster's free resources
    /// right now. The watermarks prove the common saturated case in O(1);
    /// otherwise the scan early-exits at the first fit.
    ///
    /// A scan that walks the *whole* queue without finding a fit has seen
    /// every job, so it re-tightens the (possibly stale-low) watermarks to
    /// the exact minima as a side effect, for free — removals can therefore
    /// only degrade the short-circuit until the next saturated scan, never
    /// permanently.
    ///
    /// The watermarks stay sound on classed clusters: a class's free count
    /// never exceeds the machine-wide free total, and classed memory is
    /// charged per whole node, so `free_nodes < min_nodes` or
    /// `free_memory_gb < min_memory_gb` still proves nothing can place.
    pub(crate) fn any_fits(&mut self, cluster: &ClusterState) -> bool {
        if self.is_empty() {
            return false;
        }
        let free_nodes = cluster.free_nodes();
        let free_memory_gb = cluster.free_memory_gb();
        if free_nodes < self.min_nodes || free_memory_gb < self.min_memory_gb {
            return false;
        }
        // Flat clusters admit the dense-column scan: `can_fit` is exactly
        // the two column comparisons, so the store's SoA mirror gives the
        // same answer as probing the full specs.
        if cluster.config().is_flat() {
            return match first_fit_flat(
                &self.jobs.nodes()[self.head..],
                &self.jobs.memory_gb()[self.head..],
                free_nodes,
                free_memory_gb,
            ) {
                // Early exit: a partial scan's minima would not be a sound
                // watermark, so only complete (no-fit) scans update it.
                Ok(_) => true,
                Err((min_nodes, min_memory_gb)) => {
                    self.min_nodes = min_nodes;
                    self.min_memory_gb = min_memory_gb;
                    false
                }
            };
        }
        let mut min_nodes = u32::MAX;
        let mut min_memory_gb = u64::MAX;
        for job in self.as_slice() {
            if cluster.can_fit(job) {
                // Early exit, as above.
                return true;
            }
            min_nodes = min_nodes.min(job.nodes);
            min_memory_gb = min_memory_gb.min(job.memory_gb);
        }
        self.min_nodes = min_nodes;
        self.min_memory_gb = min_memory_gb;
        false
    }
}

/// The left-to-right fit scan over aligned dense demand columns:
/// `Ok(index)` of the first job with `nodes ≤ free_nodes` and
/// `memory_gb ≤ free_memory_gb` (early exit), or `Err((min_nodes,
/// min_memory_gb))`, the exact column minima, when nothing fits — a scan
/// that early-exits has not seen every job, so it yields no minima.
fn first_fit_flat(
    nodes: &[u32],
    memory_gb: &[u64],
    free_nodes: u32,
    free_memory_gb: u64,
) -> Result<usize, (u32, u64)> {
    debug_assert_eq!(nodes.len(), memory_gb.len());
    let mut min_nodes = u32::MAX;
    let mut min_memory_gb = u64::MAX;
    for (i, (&n, &m)) in nodes.iter().zip(memory_gb).enumerate() {
        if n <= free_nodes && m <= free_memory_gb {
            return Ok(i);
        }
        min_nodes = min_nodes.min(n);
        min_memory_gb = min_memory_gb.min(m);
    }
    Err((min_nodes, min_memory_gb))
}

/// The running-job mirror: [`RunningSummary`]s sorted ascending by id,
/// maintained on start/complete. Bounded by the node count (every running
/// job holds ≥ 1 node), so the O(len) `Vec` shifts are trivially cheap.
#[derive(Debug, Default)]
pub(crate) struct RunningSet {
    jobs: Vec<RunningSummary>,
}

impl RunningSet {
    pub(crate) fn new() -> Self {
        RunningSet { jobs: Vec::new() }
    }

    pub(crate) fn as_slice(&self) -> &[RunningSummary] {
        &self.jobs
    }

    pub(crate) fn insert(&mut self, summary: RunningSummary) {
        match self.jobs.binary_search_by_key(&summary.id, |r| r.id) {
            Ok(_) => unreachable!("a job starts at most once"),
            Err(at) => self.jobs.insert(at, summary),
        }
    }

    pub(crate) fn remove(&mut self, id: JobId) {
        if let Ok(at) = self.jobs.binary_search_by_key(&id, |r| r.id) {
            self.jobs.remove(at);
        }
    }

    /// The summary for a running job, if present. O(log n) — used by the
    /// kernel to recover a completing job's `expected_end` for the
    /// capacity-ledger release bookkeeping.
    pub(crate) fn get(&self, id: JobId) -> Option<&RunningSummary> {
        self.jobs
            .binary_search_by_key(&id, |r| r.id)
            .ok()
            .map(|at| &self.jobs[at])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::{ClusterConfig, UserId};
    use rsched_simkit::{SimDuration, SimTime};

    fn spec(id: u32, submit_s: u64, nodes: u32, mem: u64) -> JobSpec {
        JobSpec::new(
            id,
            0,
            SimTime::from_secs(submit_s),
            SimDuration::from_secs(60),
            nodes,
            mem,
        )
    }

    /// Live-queue index of the job with this id (tests only).
    fn index_of(q: &WaitQueue, id: u32) -> Option<usize> {
        q.as_slice().iter().position(|j| j.id == JobId(id))
    }

    fn remove_id(q: &mut WaitQueue, id: u32) -> Option<JobSpec> {
        index_of(q, id).map(|at| q.remove_at(at))
    }

    #[test]
    fn insert_keeps_submit_then_id_order() {
        let mut q = WaitQueue::new();
        for j in [spec(5, 10, 1, 1), spec(2, 10, 1, 1), spec(9, 3, 1, 1)] {
            q.insert(j);
        }
        let ids: Vec<u32> = q.as_slice().iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![9, 2, 5], "submit asc, then id asc");
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn ranked_insert_sorts_by_rank_before_submit() {
        let mut q = WaitQueue::new();
        // Tenant with heavy usage (rank 500) submitted earliest; light
        // tenants (rank 0) later — light tenants still sort first.
        q.insert_ranked(spec(1, 0, 1, 1), 500);
        q.insert_ranked(spec(2, 10, 1, 1), 0);
        q.insert_ranked(spec(3, 5, 1, 1), 0);
        q.insert_ranked(spec(4, 1, 1, 1), 500);
        let ids: Vec<u32> = q.as_slice().iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![3, 2, 1, 4], "rank asc, then submit, then id");
    }

    #[test]
    fn head_removal_is_offset_based_and_compacts() {
        let mut q = WaitQueue::new();
        for i in 0..100u32 {
            q.insert(spec(i, i as u64, 1, 1));
        }
        for i in 0..100u32 {
            let j = q.remove_at(0);
            assert_eq!(j.id, JobId(i));
        }
        assert!(q.is_empty());
        assert_eq!(q.head, 0, "drained queue was compacted");
        assert!(q.ranks.is_empty(), "rank column drained with the jobs");
    }

    #[test]
    fn middle_removal_preserves_order() {
        let mut q = WaitQueue::new();
        for i in 0..5u32 {
            q.insert(spec(i, 0, 1, 1));
        }
        remove_id(&mut q, 2).expect("present");
        let ids: Vec<u32> = q.as_slice().iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![0, 1, 3, 4]);
        assert!(remove_id(&mut q, 2).is_none(), "gone");
    }

    #[test]
    fn watermark_short_circuits_saturated_states_soundly() {
        let cluster = ClusterState::new(ClusterConfig::new(8, 64));
        let mut busy = cluster.clone();
        busy.start_job(&spec(99, 0, 6, 32), SimTime::ZERO).unwrap();

        let mut q = WaitQueue::new();
        assert!(!q.any_fits(&busy), "empty queue never fits");
        q.insert(spec(1, 0, 4, 8)); // needs 4 nodes; only 2 free
        q.insert(spec(2, 0, 8, 8));
        assert!(!q.any_fits(&busy), "watermark (min 4 nodes) proves it");
        assert!(q.any_fits(&cluster), "idle cluster fits job 1");

        // Removal leaves the watermark stale-low — still sound (it can only
        // fail to short-circuit, never wrongly claim saturation).
        remove_id(&mut q, 1).unwrap();
        assert!(!q.any_fits(&busy), "only the 8-node job remains");
        assert!(q.any_fits(&cluster));

        // Draining resets the watermark so a tiny later job isn't masked.
        remove_id(&mut q, 2).unwrap();
        q.insert(spec(3, 0, 1, 1));
        assert!(q.any_fits(&busy), "1-node job fits the 2 free nodes");
    }

    #[test]
    fn failed_full_scan_re_tightens_stale_watermark() {
        let mut busy = ClusterState::new(ClusterConfig::new(8, 64));
        busy.start_job(&spec(99, 0, 7, 32), SimTime::ZERO).unwrap();
        // 1 node / 32 GB free.

        let mut q = WaitQueue::new();
        q.insert(spec(1, 0, 1, 8)); // the small job that pins the watermark
        q.insert(spec(2, 0, 4, 8));
        q.insert(spec(3, 0, 6, 8));
        remove_id(&mut q, 1).unwrap();
        // Stale: watermark still (1 node, 8 GB) though the true min is 4.
        assert_eq!(q.min_nodes, 1);

        // Free nodes (1) ≥ stale watermark (1) → full scan; nothing fits,
        // so the scan re-tightens the watermark to the exact minima.
        assert!(!q.any_fits(&busy));
        assert_eq!(q.min_nodes, 4);
        assert_eq!(q.min_memory_gb, 8);
        // From now on the same saturated state is proved in O(1).
        assert!(!q.any_fits(&busy));
    }

    fn columns(demands: &[(u32, u64)]) -> (Vec<u32>, Vec<u64>) {
        demands.iter().copied().unzip()
    }

    #[test]
    fn serial_finds_first_fit_in_scan_order() {
        let (n, m) = columns(&[(8, 64), (4, 32), (2, 8), (1, 4)]);
        let out = first_fit_flat(&n, &m, 4, 32);
        assert_eq!(out, Ok(1), "job 0 too wide, job 1 fits");
    }

    #[test]
    fn serial_no_fit_yields_exact_minima() {
        let (n, m) = columns(&[(8, 64), (4, 512), (6, 32)]);
        assert_eq!(first_fit_flat(&n, &m, 2, 16), Err((4, 32)));
    }

    #[test]
    fn empty_columns_scan_to_nothing() {
        let out = first_fit_flat(&[], &[], 100, 100);
        assert_eq!(out, Err((u32::MAX, u64::MAX)));
    }

    /// The watermark contract at depth. Random sequences of `insert`,
    /// `insert_ranked` and `remove_at` (head pops through the lazy offset,
    /// near-head prefix rotations, compactions) against random free levels
    /// on a flat cluster: `any_fits` always agrees with a plain scan of the
    /// live queue, the watermarks never exceed the live minima, a `false`
    /// that came from a full scan leaves them exact, and the queue keeps
    /// its `(rank, submit, id)` order. One case grows
    /// the queue past 12k rows and must miss on full scans that deep.
    #[test]
    fn any_fits_and_watermarks_match_a_naive_scan_at_depth() {
        const NODES: u32 = 64;
        const MEMORY_GB: u64 = 512;
        /// Steps, and the percent of them that insert.
        type Phase = (usize, u64);
        // (seed, a growth then a drain phase, depth the case must reach).
        let cases: [(u64, [Phase; 2], usize); 3] = [
            (0x2545_F491_4F6C_DD1D, [(400, 60), (400, 40)], 50),
            (0x9E37_79B9_7F4A_7C15, [(2_000, 55), (2_000, 30)], 100),
            (0xD1B5_4A32_D192_ED03, [(13_500, 96), (8_000, 5)], 12_000),
        ];
        for (seed, phases, min_depth) in cases {
            let mut x = seed;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            // Free levels: an idle machine plus blockers holding random
            // shares of up to three quarters of it (about one level in
            // four then leaves room for none of the demands below).
            let idle = ClusterState::new(ClusterConfig::new(NODES, MEMORY_GB));
            let mut levels = vec![idle.clone()];
            for b in 0..15 {
                let mut busy = idle.clone();
                let nodes = 1 + (next() % u64::from(NODES * 3 / 4)) as u32;
                let blocker = spec(u32::MAX - b, 0, nodes, 1 + next() % (MEMORY_GB * 3 / 4));
                busy.start_job(&blocker, SimTime::ZERO).unwrap();
                levels.push(busy);
            }
            let mut q = WaitQueue::new();
            let (mut next_id, mut submit) = (0u32, 0u64);
            let (mut deepest, mut offset_used, mut compactions) = (0, false, 0);
            let mut deep_full_misses = 0;
            // `(rank, submit, id)` of the live jobs, kept sorted: the order
            // the queue must hold through offsets and compactions.
            let mut model: Vec<(u64, u64, u32)> = Vec::new();
            for (steps, insert_pct) in phases {
                for step in 0..steps {
                    if q.is_empty() || next() % 100 < insert_pct {
                        // Anti-correlated demands (narrow jobs are memory
                        // heavy), so nothing may fit although the free
                        // levels clear both watermarks: a full scan.
                        let nodes = 1 + (next() % u64::from(NODES)) as u32;
                        let mem = u64::from(NODES + 1 - nodes) * 8 - next() % 8;
                        submit += next() % 3;
                        let job = spec(next_id, submit, nodes, mem);
                        let rank = if next() % 4 == 0 { next() % 4 } else { 0 };
                        let key = (rank, submit, next_id);
                        model.insert(model.partition_point(|k| *k < key), key);
                        next_id += 1;
                        if rank == 0 {
                            q.insert(job);
                        } else {
                            q.insert_ranked(job, rank);
                        }
                    } else {
                        // Mostly head pops and near-head backfills.
                        let len = q.len() as u64;
                        let at = if next() % 8 == 0 {
                            next() % len
                        } else {
                            next() % len.min(4)
                        };
                        let head = q.head;
                        let removed = q.remove_at(at as usize);
                        assert_eq!(removed.id.0, model.remove(at as usize).2);
                        offset_used |= q.head > 0;
                        if q.head < head && !q.is_empty() {
                            compactions += 1;
                        }
                    }
                    deepest = deepest.max(q.len());
                    if step % 64 == 0 {
                        let ids = q.as_slice().iter().map(|j| j.id.0);
                        assert!(ids.eq(model.iter().map(|k| k.2)), "queue order");
                    }

                    let cluster = &levels[(next() % levels.len() as u64) as usize];
                    let short_circuit = cluster.free_nodes() < q.min_nodes
                        || cluster.free_memory_gb() < q.min_memory_gb;
                    let expect = q.as_slice().iter().any(|j| cluster.can_fit(j));
                    assert_eq!(q.any_fits(cluster), expect, "seed {seed:#x}");
                    if !expect {
                        let exact = q.as_slice().iter().fold((u32::MAX, u64::MAX), |(n, m), j| {
                            (n.min(j.nodes), m.min(j.memory_gb))
                        });
                        let marks = (q.min_nodes, q.min_memory_gb);
                        assert!(
                            marks.0 <= exact.0 && marks.1 <= exact.1,
                            "watermark {marks:?} above the live minima {exact:?}"
                        );
                        if !short_circuit {
                            assert_eq!(marks, exact, "a full no-fit scan is exact");
                            deep_full_misses += usize::from(q.len() > min_depth);
                        }
                    }
                }
            }
            assert!(deepest > min_depth, "seed {seed:#x} reached {deepest}");
            assert!(offset_used && compactions > 0, "seed {seed:#x}");
            assert!(
                deep_full_misses > 0,
                "seed {seed:#x}: no full scan at depth"
            );
        }
    }

    #[test]
    fn running_set_stays_sorted_by_id() {
        let mut r = RunningSet::new();
        for id in [7u32, 3, 9, 1] {
            r.insert(RunningSummary {
                id: JobId(id),
                user: UserId(0),
                nodes: 1,
                memory_gb: 1,
                start: SimTime::ZERO,
                submit: SimTime::ZERO,
                expected_end: SimTime::from_secs(10),
                class: None,
            });
        }
        let ids: Vec<u32> = r.as_slice().iter().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![1, 3, 7, 9]);
        r.remove(JobId(7));
        r.remove(JobId(42)); // absent: no-op
        let ids: Vec<u32> = r.as_slice().iter().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![1, 3, 9]);
    }

    #[test]
    fn rank_zero_path_matches_pure_submit_id_order() {
        // The virtual-time driver's invariant: with all ranks 0, the queue
        // order is exactly the PR-4 era (submit, id) order.
        let mut q = WaitQueue::new();
        let mut expect: Vec<(u64, u32)> = Vec::new();
        for i in 0..40u32 {
            let submit = (i as u64 * 37) % 17;
            q.insert(spec(i, submit, 1, 1));
            expect.push((submit, i));
        }
        expect.sort();
        let got: Vec<(u64, u32)> = q
            .as_slice()
            .iter()
            .map(|j| (j.submit.as_secs(), j.id.0))
            .collect();
        assert_eq!(got, expect);
    }
}
