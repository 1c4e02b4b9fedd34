//! # skipper-sim — deterministic discrete-event simulation substrate
//!
//! The Skipper paper evaluates a multi-tenant storage system whose dominant
//! latencies are *seconds to tens of seconds* (MAID group switches). Running
//! those experiments in wall-clock time is intractable, and the paper's own
//! testbed already emulates the cold storage device by injecting artificial
//! delays into OpenStack Swift's GET path. This crate provides the virtual
//! time base that replaces those injected `sleep()`s:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-resolution virtual clock.
//! * `event` — the deterministic future-event list with stable
//!   tie-breaking, so every experiment is exactly reproducible:
//!   [`CalendarQueue`], a binary heap plus one sorted run of the events
//!   scheduled before the first pop.
//! * [`trace`] — activity spans recorded by the device model, used to
//!   attribute blocked client time to *switch* vs *transfer* stalls
//!   (Figure 9 and Table 3 of the paper). [`TraceMode`] selects between
//!   the full span log and no span log (bounded memory);
//!   [`StallClock`] splits a fleet's blocked time online, in O(1) per
//!   interval, and [`MergedTimeline`] is its offline reference over the
//!   kept span lists.
//! * [`stats`] — scheduling metrics: stretch, L2-norm of stretch
//!   (Figure 12), and the streaming quantile sketch.
//! * [`timeline`] — ASCII Gantt rendering of device activity for
//!   debugging and the examples.
//! * [`rng`] — seed-splitting helpers so independent generators never share
//!   RNG streams.
//!
//! Everything here is intentionally independent of the database domain; the
//! CSD model (`skipper-csd`) and the query engines (`skipper-core`) build on
//! top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod event;
pub mod rng;
pub mod stats;
pub(crate) mod time;
pub mod timeline;
pub mod trace;

pub use event::CalendarQueue;
pub use stats::QuantileSketch;
pub use time::{SimDuration, SimTime};
pub use trace::{
    Activity, ActivityTrace, Attribution, MergedTimeline, StallClock, StallReading, TraceMode,
};
