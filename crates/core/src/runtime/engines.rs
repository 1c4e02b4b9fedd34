//! The engine layer: per-tenant query-engine construction.
//!
//! Every tenant carries its own [`EngineFactory`]: a builder producing
//! a fresh [`QueryEngine`] for each query, so a single scenario can mix
//! Skipper and Vanilla tenants — each with its own cache capacity,
//! eviction policy, and pruning setting — against one shared device.

use skipper_csd::SchedPolicy;
use skipper_datagen::Dataset;
use skipper_relational::query::QuerySpec;

use crate::cache::EvictionPolicy;
use crate::config::CostModel;
use crate::engine::QueryEngine;
use crate::state_manager::SkipperEngine;
use crate::vanilla::VanillaEngine;

/// Builds one [`QueryEngine`] per query for one tenant.
///
/// Implementations are small config carriers ([`SkipperFactory`],
/// [`VanillaFactory`]); scenarios hold them behind `Arc<dyn _>` so
/// heterogeneous fleets are just a `Vec` of workloads.
pub trait EngineFactory {
    /// Report label ("skipper" / "vanilla" / custom).
    fn label(&self) -> &'static str;

    /// Builds the engine executing `spec` for `tenant` over `dataset`.
    fn build(
        &self,
        tenant: u16,
        dataset: &Dataset,
        spec: QuerySpec,
        cost: CostModel,
    ) -> Box<dyn QueryEngine>;

    /// The device scheduling policy this engine expects from a stock
    /// deployment (§4.4): object-FCFS for pull-based clients, the
    /// rank-based query-aware scheduler for Skipper.
    fn preferred_scheduler(&self) -> SchedPolicy;
}

/// Factory for the pull-based baseline engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct VanillaFactory;

impl EngineFactory for VanillaFactory {
    fn label(&self) -> &'static str {
        "vanilla"
    }

    fn build(
        &self,
        tenant: u16,
        dataset: &Dataset,
        spec: QuerySpec,
        cost: CostModel,
    ) -> Box<dyn QueryEngine> {
        Box::new(VanillaEngine::new(tenant, dataset, spec, cost))
    }

    fn preferred_scheduler(&self) -> SchedPolicy {
        SchedPolicy::FcfsObject
    }
}

/// Factory for Skipper's cache-aware MJoin engine, with per-tenant cache
/// configuration.
#[derive(Clone, Copy, Debug)]
pub struct SkipperFactory {
    /// MJoin buffer-cache capacity in bytes.
    pub cache_bytes: u64,
    /// Cache-eviction policy.
    pub eviction: EvictionPolicy,
    /// The §5.2.4 subplan-pruning optimization.
    pub prune_empty: bool,
}

impl Default for SkipperFactory {
    /// Paper defaults: 30 GiB cache, maximal-progress eviction, no
    /// pruning.
    fn default() -> Self {
        SkipperFactory {
            cache_bytes: 30 << 30,
            eviction: EvictionPolicy::MaximalProgress,
            prune_empty: false,
        }
    }
}

impl SkipperFactory {
    /// Sets the buffer-cache capacity.
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Sets the eviction policy.
    pub fn eviction(mut self, policy: EvictionPolicy) -> Self {
        self.eviction = policy;
        self
    }

    /// Enables/disables subplan pruning.
    pub fn prune_empty(mut self, on: bool) -> Self {
        self.prune_empty = on;
        self
    }
}

impl EngineFactory for SkipperFactory {
    fn label(&self) -> &'static str {
        "skipper"
    }

    fn build(
        &self,
        tenant: u16,
        dataset: &Dataset,
        spec: QuerySpec,
        cost: CostModel,
    ) -> Box<dyn QueryEngine> {
        Box::new(SkipperEngine::new(
            tenant,
            dataset,
            spec,
            self.cache_bytes,
            self.eviction,
            cost,
            self.prune_empty,
        ))
    }

    fn preferred_scheduler(&self) -> SchedPolicy {
        SchedPolicy::RankBased
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factories_report_engine_labels_and_schedulers() {
        let v = VanillaFactory;
        assert_eq!(v.label(), "vanilla");
        assert_eq!(v.preferred_scheduler(), SchedPolicy::FcfsObject);
        let s = SkipperFactory::default()
            .cache_bytes(1 << 30)
            .prune_empty(true);
        assert_eq!(s.label(), "skipper");
        assert_eq!(s.preferred_scheduler(), SchedPolicy::RankBased);
        assert_eq!(s.cache_bytes, 1 << 30);
        assert!(s.prune_empty);
    }
}
