//! # skipper-relational — minimal relational engine substrate
//!
//! The Skipper paper compares two query-execution strategies over data
//! striped across a cold storage device: classic *pull-based* execution
//! with blocking binary hash joins (vanilla PostgreSQL) and *push-based*
//! out-of-order execution with a cache-aware multi-way join (Skipper).
//! Both strategies need a real relational engine underneath: rows,
//! schemas, predicates, hash tables, joins and aggregation. This crate is
//! that substrate, built from scratch and shared by the baseline and by
//! Skipper's MJoin so that result correctness can be cross-checked.
//!
//! Design notes:
//! * A [`Segment`] stores its rows column by column: typed vectors, a
//!   string dictionary and a null bitmap. Operators read columns in
//!   place; a row is a [`RowRef`] (segment and position) whose values
//!   are borrowed [`ValueRef`]s, and an owned [`Row`] of [`Value`]s is
//!   built only for results and group keys.
//! * Hashing uses an FxHash-style hasher ([`hash`]) — the guide-recommended
//!   idiom for integer-keyed join tables.
//! * A [`Segment`] is the unit of storage and transfer:
//!   it corresponds to one "object" on the cold storage device (the
//!   paper's 1 GB PostgreSQL relation segments stored as Swift objects).
//! * [`query::QuerySpec`] is a declarative join-query description consumed
//!   by both engines; [`join_graph`] plans n-ary probe orders over it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub(crate) mod error;
pub mod expr;
pub mod hash;
pub mod join_graph;
pub mod ops;
pub mod query;
pub mod schema;
pub mod segment;
pub mod tuple;
pub mod value;

pub use catalog::{Catalog, TableDef};
pub use error::RelationalError;
pub use expr::Expr;
pub use query::{AggFunc, AggSpec, JoinCond, QualifiedCol, QuerySpec};
pub use schema::{DataType, Field, Schema};
pub use segment::{RowRef, Segment};
pub use tuple::Row;
pub use value::{Value, ValueRef};
