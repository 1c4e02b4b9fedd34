//! Physical operators.
//!
//! * [`scan`] — filtered segment scans.
//! * [`index`] — per-segment hash indexes (the building block of
//!   symmetric n-ary joins).
//! * [`nary`] — n-ary probe execution over one segment combination; used
//!   by Skipper's MJoin for subplan execution and by the whole-query
//!   reference executor that cross-checks both engines
//!   (`skipper-testkit`'s `ops::reference`).
//! * [`binary`] — classic blocking left-deep binary hash joins: the
//!   vanilla-PostgreSQL-style baseline.

pub mod binary;
pub mod index;
pub mod nary;
pub mod scan;
