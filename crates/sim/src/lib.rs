//! # rsched-sim
//!
//! The discrete-event HPC scheduling simulator of paper §3.1.
//!
//! *"The simulator operates as a discrete event system, advancing simulation
//! time only at key events such as job arrivals and job completions. At each
//! step, the simulator injects any newly arrived jobs into the waiting
//! queue, updates the status of running jobs (releasing resources for those
//! that have finished), and then determines the next scheduling action. If
//! there are jobs ready to be scheduled, the agent queries the LLM for a
//! decision; otherwise, it advances time to the next event."*
//!
//! The simulator drives any [`SchedulingPolicy`] — the baselines in
//! `rsched-schedulers` or the ReAct agent in `rsched-core` — through exactly
//! that loop, validating every proposed action against the live cluster
//! ledger (the constraint-enforcement module of paper §2.4) and reporting
//! structured rejection reasons that the agent renders as natural-language
//! feedback.
//!
//! The public entry point is the [`Simulation`] builder, which attaches any
//! number of streaming [`SimObserver`]s to the run; [`run_simulation`] is a
//! thin compatibility wrapper over it.
//!
//! The kernel is zero-copy: policies receive a lifetime-parameterized
//! [`SystemView`] that *borrows* the simulator's incrementally-maintained
//! queue/running/completed state (plus the O(1) [`CompletedStats`]
//! aggregate), so a policy query costs nothing in allocation no matter how
//! deep the queue is. The pre-refactor owned snapshot survives as the
//! deprecated [`compat::OwnedSystemView`].

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod builder;
pub mod compat;
pub mod events;
pub mod kernel;
pub mod observer;
pub mod outcome;
pub mod policy;
pub mod profile;
mod queue;
pub mod simulator;
pub mod store;
pub mod view;

pub use builder::Simulation;
#[allow(deprecated)]
pub use compat::OwnedSystemView;
pub use events::SimEvent;
pub use kernel::KernelState;
pub use observer::{CountingObserver, ProgressObserver, SimObserver};
pub use outcome::{DecisionRecord, SimOutcome, SimStats};
pub use policy::{Action, ActionOutcome, OverheadReport, RejectReason, SchedulingPolicy};
pub use profile::{
    CalendarPoint, CalendarRef, CalendarStamp, CapacityCalendar, CapacityLedger,
    ReservationProfile, ReservedStep,
};
pub use simulator::{job_is_feasible, run_simulation, validate_workload, SimError, SimOptions};
pub use store::JobStore;
pub use view::{CompletedStats, RunningSummary, SystemView};

// Telemetry vocabulary re-exported so policies and drivers can name the
// provenance/sink types without a direct `rsched-telemetry` dependency.
pub use rsched_telemetry::{DelayReason, EpochOutcome, EpochTrace, TelemetrySink};

/// A wait-queue depth of 8192 jobs. No scheduling code reads it: every
/// placement scan is one serial left-to-right pass at any depth. It stays
/// only so the repository benchmark can label how deep its archive
/// replays drive the wait queue.
pub const PARALLEL_SCAN_MIN: usize = 8192;
