//! The [`Simulation`] builder — the public entry point for running a
//! policy through the validated decision loop.
//!
//! ```
//! use rsched_cluster::{ClusterConfig, JobSpec};
//! use rsched_sim::{CountingObserver, Simulation, SchedulingPolicy, SystemView, Action};
//! use rsched_simkit::{SimDuration, SimTime};
//!
//! struct Greedy;
//! impl SchedulingPolicy for Greedy {
//!     fn name(&self) -> &str { "greedy" }
//!     fn decide(&mut self, view: &SystemView<'_>) -> Action {
//!         if view.all_jobs_started() { return Action::Stop; }
//!         match view.eligible_now().next() {
//!             Some(j) => Action::StartJob(j.id),
//!             None => Action::Delay,
//!         }
//!     }
//! }
//!
//! let jobs = vec![JobSpec::new(1, 0, SimTime::ZERO, SimDuration::from_secs(60), 2, 8)];
//! let mut counter = CountingObserver::new();
//! let outcome = Simulation::new(ClusterConfig::new(8, 64))
//!     .jobs(&jobs)
//!     .observer(&mut counter)
//!     .run(&mut Greedy)
//!     .expect("completes");
//! assert_eq!(outcome.records.len(), 1);
//! assert_eq!(counter.completions, 1);
//! ```

use rsched_cluster::{ClusterConfig, JobSpec};

use crate::observer::SimObserver;
use crate::outcome::SimOutcome;
use crate::policy::SchedulingPolicy;
use crate::simulator::{SimError, SimOptions};

/// Builder for one simulation run: cluster, workload, knobs, and any
/// number of streaming [`SimObserver`]s.
///
/// [`run_simulation`](crate::run_simulation) remains as a thin wrapper for
/// callers that need none of the builder's extras.
pub struct Simulation<'a> {
    config: ClusterConfig,
    jobs: &'a [JobSpec],
    options: SimOptions,
    observers: Vec<&'a mut dyn SimObserver>,
    telemetry: rsched_telemetry::TelemetrySink,
}

impl<'a> Simulation<'a> {
    /// Start describing a run on a cluster of the given configuration.
    pub fn new(config: ClusterConfig) -> Self {
        Simulation {
            config,
            jobs: &[],
            options: SimOptions::default(),
            observers: Vec::new(),
            telemetry: rsched_telemetry::TelemetrySink::disabled(),
        }
    }

    /// The workload to schedule (borrowed; nothing is cloned).
    pub fn jobs(mut self, jobs: &'a [JobSpec]) -> Self {
        self.jobs = jobs;
        self
    }

    /// Override the simulator knobs (defaults to [`SimOptions::default`]).
    pub fn options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Attach a streaming observer. May be called repeatedly; observers are
    /// notified in attachment order and can be inspected after the run.
    pub fn observer(mut self, observer: &'a mut dyn SimObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Attach a telemetry sink (a cheap clone of the caller's handle). The
    /// kernel spans its epochs and mirrors its counters into the sink's
    /// metrics registry; policies see the same sink through
    /// [`SystemView::sink`](crate::SystemView::sink). The default is a
    /// disabled sink, which costs one pointer check per call site.
    pub fn telemetry(mut self, sink: &rsched_telemetry::TelemetrySink) -> Self {
        self.telemetry = sink.clone();
        self
    }

    /// Drive `policy` over the configured workload until every job
    /// completes (or the run fails), streaming callbacks to the attached
    /// observers along the way.
    pub fn run(mut self, policy: &mut dyn SchedulingPolicy) -> Result<SimOutcome, SimError> {
        crate::simulator::simulate_with_telemetry(
            self.config,
            self.jobs,
            policy,
            &self.options,
            &mut self.observers,
            self.telemetry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CountingObserver;
    use crate::policy::Action;
    use crate::view::SystemView;
    use rsched_simkit::{SimDuration, SimTime};

    struct Greedy;
    impl SchedulingPolicy for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }
        fn decide(&mut self, view: &SystemView<'_>) -> Action {
            if view.all_jobs_started() {
                return Action::Stop;
            }
            match view.eligible_now().next() {
                Some(j) => Action::StartJob(j.id),
                None => Action::Delay,
            }
        }
    }

    fn jobs() -> Vec<JobSpec> {
        (0..4)
            .map(|i| {
                JobSpec::new(
                    i,
                    i % 2,
                    SimTime::from_secs(u64::from(i) * 5),
                    SimDuration::from_secs(30),
                    2,
                    8,
                )
            })
            .collect()
    }

    #[test]
    fn builder_matches_bare_run_simulation() {
        let jobs = jobs();
        let config = ClusterConfig::new(8, 64);
        let a = Simulation::new(config)
            .jobs(&jobs)
            .run(&mut Greedy)
            .expect("builder run completes");
        let b = crate::run_simulation(config, &jobs, &mut Greedy, &SimOptions::default())
            .expect("wrapper run completes");
        assert_eq!(a.records, b.records);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn observers_stream_during_the_run() {
        let jobs = jobs();
        let mut first = CountingObserver::new();
        let mut second = CountingObserver::new();
        let outcome = Simulation::new(ClusterConfig::new(8, 64))
            .jobs(&jobs)
            .observer(&mut first)
            .observer(&mut second)
            .run(&mut Greedy)
            .expect("completes");
        for obs in [&first, &second] {
            assert_eq!(obs.completions, 1, "on_complete fires exactly once");
            assert_eq!(obs.decisions, outcome.decisions.len());
            // One arrival per job plus one completion per job.
            assert_eq!(obs.events, 2 * jobs.len());
            assert_eq!(obs.placements, outcome.stats.placements);
            assert!(obs.time_ordered, "callbacks arrive in time order");
        }
    }

    #[test]
    fn failed_runs_do_not_fire_on_complete() {
        // Duplicate ids fail validation before the loop starts.
        let mut dup = jobs();
        dup.push(dup[0].clone());
        let mut counter = CountingObserver::new();
        let err = Simulation::new(ClusterConfig::new(8, 64))
            .jobs(&dup)
            .observer(&mut counter)
            .run(&mut Greedy);
        assert!(err.is_err());
        assert_eq!(counter.completions, 0);
    }
}
