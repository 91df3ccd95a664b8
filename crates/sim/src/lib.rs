//! # viampi-sim — deterministic virtual-time simulation engine
//!
//! The substrate under the whole `viampi` stack. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time;
//! * [`EventQueue`] — a `(time, sequence)`-ordered binary heap;
//! * [`Engine`] / [`ProcCtx`] / [`World`] — a cooperative scheduler where
//!   every simulated process runs as a stackful fiber on the thread that
//!   called [`Engine::run`] (pooled, guard-paged stacks; x86_64/aarch64
//!   only) and only one runs at a real instant, picked by smallest virtual
//!   clock; hardware activity is expressed as timestamped events handled
//!   by the [`World`];
//! * deadlock detection (the original paper's correctness arguments about
//!   connection progress are exercised by tests that *expect* deadlocks when
//!   the rules are broken);
//! * [`SplitMix64`] — a tiny deterministic RNG for device-model jitter;
//! * [`metrics`] — the cross-layer metrics registry every layer of the
//!   stack publishes into (the engine's own set lands in
//!   [`Outcome::metrics`]).
//!
//! The design follows the "sequential process-oriented discrete event
//! simulation" pattern (as in SimGrid/LogGOPSim): simulation results are a
//! pure function of the configuration, which makes every experiment in the
//! reproduction exactly repeatable.
//!
//! ## Example
//!
//! ```
//! use viampi_sim::{Engine, World, Api, SimDuration, SimTime};
//!
//! struct Counter { hits: u32 }
//! enum Ev { Hit }
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle_event(&mut self, _: Ev, _: &mut Api<'_, Ev>) { self.hits += 1; }
//! }
//!
//! let mut eng = Engine::new(Counter { hits: 0 });
//! eng.spawn("p0", |ctx| {
//!     ctx.with_world(|_, api| api.schedule(SimDuration::micros(10), Ev::Hit));
//!     ctx.advance(SimDuration::micros(20));
//! });
//! let (world, outcome) = eng.run().unwrap();
//! assert_eq!(world.hits, 1);
//! assert_eq!(outcome.end_time, SimTime(20_000));
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the `fiber` module (context switch + stack mapping)
// carries the crate's only `allow(unsafe_code)`, with the safety protocol
// documented at the top of that file. Every other module remains
// unsafe-free.
#![deny(unsafe_code)]

mod engine;
mod error;
mod fiber;
pub mod metrics;
pub mod pool;
mod queue;
mod rng;
pub mod sync;
mod time;

pub use engine::{engine_totals, Api, Engine, EngineTotals, Outcome, ProcCtx, ProcId, World};
pub use error::{BlockedProc, SimError};
pub use fiber::{stack_pool_metrics, STACK_POOL_CAP};
pub use metrics::{MetricEntry, MetricsSnapshot, Registry};
pub use pool::{BufferPool, PoolStats, PooledBuf};
pub use queue::EventQueue;
pub use rng::SplitMix64;
pub use time::{SimDuration, SimTime};
