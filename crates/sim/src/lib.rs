//! # manet-sim
//!
//! A from-scratch discrete-event MANET simulator (docs/ARCHITECTURE.md,
//! "Channel & spatial index" and the "Engine internals" sections): the
//! substrate the paper's authors would have had in ns-2-era tooling.
//!
//! * [`engine`] — deterministic event loop and node lifecycle, composed
//!   from [`ctx`] (the protocol window), `wheel` (the event store),
//!   `queue` (events, in-window heap, timer table), `grid` (uniform
//!   spatial index), and [`link`]
//!   (transmit/deliver channel logic, neighborhood queries);
//! * [`radio`] — unit-disk channel with loss, latency and bandwidth;
//! * [`mobility`] — random waypoint + deterministic placements;
//! * [`metrics`] / [`trace`] — measurement and protocol-trace capture;
//! * [`runner`] — rayon-parallel experiment sweeps over (param, seed)
//!   grids.
//!
//! The engine is intentionally protocol-agnostic: everything MANET-secure
//! lives in the `manet-secure` crate behind the [`engine::Protocol`]
//! trait.

pub mod ctx;
pub mod engine;
pub mod fxhash;
pub mod geom;
mod grid;
pub mod link;
pub mod mem;
pub mod metrics;
pub mod mobility;
mod queue;
pub mod radio;
pub mod runner;
pub mod time;
pub mod trace;
mod wheel;

pub use engine::{Ctx, Engine, EngineConfig, ExecMode, LinkDst, NodeId, Protocol, TimerHandle};
pub use geom::{Field, Pos};
pub use metrics::{LinkCounter, Metrics, Series};
pub use mobility::{placement, Mobility};
pub use radio::RadioConfig;
pub use time::{SimDuration, SimTime};
pub use trace::{Dir, TraceEvent, Tracer};
