//! Data placement across disk groups — and across devices.
//!
//! The database has no control over where a shared CSD places its data
//! (§3.2): the device may spread a tenant — or even a single relation —
//! across disk groups for load balancing, failure recovery or incremental
//! arrival. The experiments in §5.2.3 probe exactly this dimension with
//! four canned layouts, reproduced here, plus arbitrary custom maps.
//!
//! A production archive outgrows one CSD: [`PlacementPolicy`] is the
//! device-level analogue of [`LayoutPolicy`], deciding which *shard*
//! (device) of a fleet stores each object before the per-device group
//! layout is built.

use std::collections::HashMap;

use skipper_sim::rng::splitmix64;

use crate::object::{GroupId, ObjectId};

/// The canned placement policies of the paper's layout-sensitivity
/// experiment (Figure 11a), applied to per-tenant datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutPolicy {
    /// `Allin1`: every tenant's data in one group — the no-switch ideal
    /// (also how the paper emulates the HDD capacity tier).
    AllInOne,
    /// `2perG`: two consecutive tenants share each group.
    TwoClientsPerGroup,
    /// `1perG`: each tenant gets a private group (the default layout of
    /// the scalability experiments).
    OneClientPerGroup,
    /// `Increm.`: each tenant's data is split in two halves stored on
    /// *different* groups, interleaved with its neighbours: group g holds
    /// the first half of tenant g and the second half of tenant g-1
    /// (C1.1+C4.2 / C1.2+C2.1 / ... in the paper's notation).
    Incremental,
}

impl LayoutPolicy {
    /// Human-readable label matching the paper's figure axis.
    pub fn label(self) -> &'static str {
        match self {
            LayoutPolicy::AllInOne => "Allin1",
            LayoutPolicy::TwoClientsPerGroup => "2perG",
            LayoutPolicy::OneClientPerGroup => "1perG",
            LayoutPolicy::Incremental => "Increm.",
        }
    }
}

/// How a fleet of CSD shards divides objects among devices.
///
/// Placement happens at layout time — before any request is issued — so
/// the shard map is a pure function of the stored object set, never of
/// runtime state. Every policy is deterministic: the same objects and
/// shard count always produce the same map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Objects of each tenant alternate across shards in storage order
    /// (object `i` of a tenant lands on shard `i mod n`): spreads every
    /// tenant's working set over the whole fleet.
    RoundRobin,
    /// Shard chosen by a deterministic hash of the full object id:
    /// statistically balanced, placement-stable under object additions.
    HashObject,
    /// `k`-way replication: `base` places the *primary* shard and the
    /// remaining `k - 1` replicas land on the consecutively following
    /// shards — the [`replica_run`] of the primary. The primary is the
    /// preferred replica; the fleet fails reads over to the next live
    /// replica in this order when the primary is down. A layer that
    /// needs the replicas keeps only the primary and derives the rest.
    Replicated {
        /// Replica count (`1 ≤ k ≤ shards`; `k = 1` collapses to
        /// `base` exactly).
        k: usize,
        /// The policy placing the primary replica.
        base: BasePlacement,
    },
}

/// The non-replicated policies a [`PlacementPolicy::Replicated`]
/// placement can use for its primary replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BasePlacement {
    /// See [`PlacementPolicy::RoundRobin`].
    RoundRobin,
    /// See [`PlacementPolicy::HashObject`].
    HashObject,
}

/// The replica run of an object whose primary is `primary`: the `k`
/// shards `(primary + r) mod shards` for `r` in `0..k`, preferred
/// replica first. The one statement of the replication rule; placement,
/// assembly and routing all ask it.
///
/// # Panics
/// Panics when the fleet has fewer than `k` shards.
pub fn replica_run(primary: usize, k: usize, shards: usize) -> impl Iterator<Item = usize> {
    assert!(
        k <= shards,
        "Replicated placement wants {k} replicas but the fleet has {shards} shard(s)"
    );
    (0..k).map(move |r| (primary + r) % shards)
}

impl BasePlacement {
    fn shard_of(self, obj: ObjectId, ordinal: usize, shards: usize) -> usize {
        match self {
            BasePlacement::RoundRobin => ordinal % shards,
            BasePlacement::HashObject => {
                // SplitMix64 over the packed id: deterministic forever,
                // independent of std's hasher keys.
                let mut key =
                    ((obj.tenant as u64) << 48) | ((obj.table as u64) << 32) | obj.segment as u64;
                (splitmix64(&mut key) % shards as u64) as usize
            }
        }
    }
}

impl PlacementPolicy {
    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::HashObject => "hash-object",
            PlacementPolicy::Replicated { base, .. } => match base {
                BasePlacement::RoundRobin => "replicated/round-robin",
                BasePlacement::HashObject => "replicated/hash-object",
            },
        }
    }

    /// Number of replicas each object gets (1 for the plain policies).
    pub fn replicas(self) -> usize {
        match self {
            PlacementPolicy::Replicated { k, .. } => k,
            _ => 1,
        }
    }

    /// The *primary* shard storing `obj`, where `ordinal` is the
    /// object's position in its tenant's storage order.
    ///
    /// The ordinal is the deterministic tie-break: [`RoundRobin`]
    /// (and replicated round-robin primaries) place by `ordinal mod
    /// shards`, so two objects with identical ids in different storage
    /// positions would land on different shards — while
    /// [`HashObject`] ignores the ordinal entirely and depends only on
    /// the object id. Callers must therefore pass the storage-order
    /// position, not an arbitrary counter, for round-robin placements
    /// to partition evenly.
    ///
    /// [`RoundRobin`]: PlacementPolicy::RoundRobin
    /// [`HashObject`]: PlacementPolicy::HashObject
    ///
    /// # Panics
    /// Panics with a clear message when `shards` is zero (a
    /// modulo-by-zero would otherwise surface as an arithmetic panic
    /// deep in the policy arm), and when a [`Replicated`] placement has
    /// `k = 0`.
    ///
    /// [`Replicated`]: PlacementPolicy::Replicated
    pub fn shard_of(self, obj: ObjectId, ordinal: usize, shards: usize) -> usize {
        assert!(shards > 0, "a fleet needs at least one shard");
        match self {
            PlacementPolicy::RoundRobin => BasePlacement::RoundRobin.shard_of(obj, ordinal, shards),
            PlacementPolicy::HashObject => BasePlacement::HashObject.shard_of(obj, ordinal, shards),
            PlacementPolicy::Replicated { k, base } => {
                assert!(k >= 1, "a Replicated placement needs k >= 1");
                base.shard_of(obj, ordinal, shards)
            }
        }
    }

    /// The full replica set storing `obj`, preferred (primary) replica
    /// first: the [`replica_run`] of [`PlacementPolicy::shard_of`].
    /// Plain policies yield a single shard.
    ///
    /// # Panics
    /// Panics when `shards` is zero or a replicated placement asks for
    /// more replicas than the fleet has shards.
    pub fn replica_shards(
        self,
        obj: ObjectId,
        ordinal: usize,
        shards: usize,
    ) -> impl Iterator<Item = usize> {
        replica_run(self.shard_of(obj, ordinal, shards), self.replicas(), shards)
    }

    /// Builds the full object → replica-set map for `tenant_objects`
    /// (indexed as in [`Layout::build`]: `tenant_objects[t]` lists
    /// tenant `t`'s objects in storage order), each set ordered
    /// preferred replica first (see [`PlacementPolicy::replica_shards`]).
    pub fn assign_replicas(
        self,
        tenant_objects: &[Vec<ObjectId>],
        shards: usize,
    ) -> HashMap<ObjectId, Vec<usize>> {
        tenant_objects
            .iter()
            .flat_map(|objs| {
                objs.iter()
                    .enumerate()
                    .map(move |(i, &obj)| (obj, self.replica_shards(obj, i, shards).collect()))
            })
            .collect()
    }
}

/// A concrete object → disk-group assignment.
#[derive(Clone, Debug, Default)]
pub struct Layout {
    map: HashMap<ObjectId, GroupId>,
    num_groups: u32,
}

impl Layout {
    /// Builds a layout by applying `policy` to `tenant_objects`, where
    /// `tenant_objects[t]` lists every object of tenant `t` in storage
    /// order.
    pub fn build(policy: LayoutPolicy, tenant_objects: &[Vec<ObjectId>]) -> Layout {
        let tenants = tenant_objects.len() as u32;
        let mut layout = Layout::default();
        for (t, objs) in tenant_objects.iter().enumerate() {
            let t = t as u32;
            for (i, &obj) in objs.iter().enumerate() {
                let group = match policy {
                    LayoutPolicy::AllInOne => 0,
                    LayoutPolicy::TwoClientsPerGroup => t / 2,
                    LayoutPolicy::OneClientPerGroup => t,
                    LayoutPolicy::Incremental => {
                        // First half with the tenant's own group, second
                        // half rolls over to the next tenant's group.
                        if i < objs.len().div_ceil(2) {
                            t
                        } else {
                            (t + 1) % tenants.max(1)
                        }
                    }
                };
                layout.place(obj, group);
            }
        }
        layout
    }

    /// Builds a layout from explicit `(object, group)` pairs.
    #[cfg(test)]
    pub(crate) fn from_pairs(pairs: impl IntoIterator<Item = (ObjectId, GroupId)>) -> Layout {
        let mut layout = Layout::default();
        for (obj, group) in pairs {
            layout.place(obj, group);
        }
        layout
    }

    /// Assigns `obj` to `group` (last assignment wins).
    pub(crate) fn place(&mut self, obj: ObjectId, group: GroupId) {
        self.num_groups = self.num_groups.max(group + 1);
        self.map.insert(obj, group);
    }

    /// The group housing `obj`.
    ///
    /// # Panics
    /// Panics for unknown objects: requesting an object that was never
    /// placed is a harness bug.
    pub fn group_of(&self, obj: ObjectId) -> GroupId {
        *self
            .map
            .get(&obj)
            .unwrap_or_else(|| panic!("object {obj} was never placed on the device"))
    }

    /// Whether `obj` has a placement.
    pub fn contains(&self, obj: ObjectId) -> bool {
        self.map.contains_key(&obj)
    }

    /// Number of groups referenced by the layout (max group id + 1).
    pub fn num_groups(&self) -> u32 {
        self.num_groups
    }

    /// Number of placed objects.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is placed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates all `(object, group)` placements (unordered).
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ObjectId, GroupId)> + '_ {
        self.map.iter().map(|(&o, &g)| (o, g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four tenants with four objects each (two tables × two segments).
    fn tenant_objects(tenants: u16, objects_each: u32) -> Vec<Vec<ObjectId>> {
        (0..tenants)
            .map(|t| {
                (0..objects_each)
                    .map(|i| ObjectId::new(t, (i / 2) as u16, i % 2))
                    .collect()
            })
            .collect()
    }

    /// The primary shard of every object of `objs`.
    fn primaries(
        policy: PlacementPolicy,
        objs: &[Vec<ObjectId>],
        shards: usize,
    ) -> HashMap<ObjectId, usize> {
        let sets = policy.assign_replicas(objs, shards);
        sets.into_iter().map(|(o, r)| (o, r[0])).collect()
    }

    #[test]
    fn all_in_one_uses_single_group() {
        let layout = Layout::build(LayoutPolicy::AllInOne, &tenant_objects(4, 4));
        assert_eq!(layout.num_groups(), 1);
        assert!(layout.iter().all(|(_, g)| g == 0));
    }

    #[test]
    fn one_client_per_group_isolates_tenants() {
        let layout = Layout::build(LayoutPolicy::OneClientPerGroup, &tenant_objects(4, 4));
        assert_eq!(layout.num_groups(), 4);
        for (obj, g) in layout.iter() {
            assert_eq!(g, obj.tenant as u32);
        }
    }

    #[test]
    fn two_clients_per_group_pairs_tenants() {
        let layout = Layout::build(LayoutPolicy::TwoClientsPerGroup, &tenant_objects(4, 4));
        assert_eq!(layout.num_groups(), 2);
        for (obj, g) in layout.iter() {
            assert_eq!(g, obj.tenant as u32 / 2);
        }
    }

    #[test]
    fn incremental_matches_paper_example() {
        // Paper (§5.2.3, 4 clients): G1 stores C1.1 and C4.2, G2 stores
        // C1.2 and C2.1, G3 stores C2.2 and C3.1, G4 stores C3.2 and C4.1.
        // 0-based: tenant t first half → group t, second half → (t+1)%4.
        let objs = tenant_objects(4, 4);
        let layout = Layout::build(LayoutPolicy::Incremental, &objs);
        assert_eq!(layout.num_groups(), 4);
        for (t, tenant_objs) in objs.iter().enumerate() {
            let (first, second) = tenant_objs.split_at(2);
            for &o in first {
                assert_eq!(layout.group_of(o), t as u32);
            }
            for &o in second {
                assert_eq!(layout.group_of(o), (t as u32 + 1) % 4);
            }
        }
    }

    #[test]
    fn incremental_odd_object_count_rounds_up_first_half() {
        let objs = vec![(0..5).map(|i| ObjectId::new(0, 0, i)).collect::<Vec<_>>()];
        let layout = Layout::build(LayoutPolicy::Incremental, &objs);
        // div_ceil(5,2)=3 objects in the first half; single tenant ⇒ both
        // halves land in group 0.
        assert!(objs[0].iter().all(|&o| layout.group_of(o) == 0));
    }

    #[test]
    fn from_pairs_and_contains() {
        let a = ObjectId::new(0, 0, 0);
        let b = ObjectId::new(0, 0, 1);
        let layout = Layout::from_pairs([(a, 2), (b, 0)]);
        assert_eq!(layout.group_of(a), 2);
        assert_eq!(layout.num_groups(), 3);
        assert!(layout.contains(b));
        assert!(!layout.contains(ObjectId::new(9, 9, 9)));
        assert_eq!(layout.len(), 2);
    }

    #[test]
    #[should_panic(expected = "never placed")]
    fn unknown_object_panics() {
        Layout::default().group_of(ObjectId::new(0, 0, 0));
    }

    #[test]
    fn placement_covers_all_objects_exactly_once() {
        let objs = tenant_objects(3, 4);
        for policy in [PlacementPolicy::RoundRobin, PlacementPolicy::HashObject] {
            for shards in 1..=5 {
                let map = primaries(policy, &objs, shards);
                assert_eq!(map.len(), 12, "{policy:?} lost objects");
                assert!(
                    map.values().all(|&s| s < shards),
                    "{policy:?} placed outside the fleet"
                );
            }
        }
    }

    #[test]
    fn single_shard_placement_is_trivial() {
        let objs = tenant_objects(2, 4);
        for policy in [PlacementPolicy::RoundRobin, PlacementPolicy::HashObject] {
            assert!(primaries(policy, &objs, 1).values().all(|&s| s == 0));
        }
    }

    #[test]
    fn round_robin_alternates_within_each_tenant() {
        let objs = tenant_objects(2, 4);
        let map = primaries(PlacementPolicy::RoundRobin, &objs, 2);
        for tenant_objs in &objs {
            for (i, obj) in tenant_objs.iter().enumerate() {
                assert_eq!(map[obj], i % 2);
            }
        }
    }

    #[test]
    fn hash_placement_is_deterministic_and_ordinal_free() {
        let objs = tenant_objects(3, 4);
        let a = primaries(PlacementPolicy::HashObject, &objs, 4);
        let b = primaries(PlacementPolicy::HashObject, &objs, 4);
        assert_eq!(a, b);
        // Ordinal is irrelevant for hashing: shard_of agrees regardless.
        let o = ObjectId::new(1, 0, 1);
        assert_eq!(
            PlacementPolicy::HashObject.shard_of(o, 0, 4),
            PlacementPolicy::HashObject.shard_of(o, 99, 4)
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        PlacementPolicy::RoundRobin.shard_of(ObjectId::new(0, 0, 0), 0, 0);
    }

    #[test]
    fn replicated_produces_k_distinct_consecutive_shards() {
        let objs = tenant_objects(3, 4);
        for base in [BasePlacement::RoundRobin, BasePlacement::HashObject] {
            for k in 1..=3 {
                let policy = PlacementPolicy::Replicated { k, base };
                let map = policy.assign_replicas(&objs, 4);
                assert_eq!(map.len(), 12);
                for (obj, replicas) in &map {
                    assert_eq!(replicas.len(), k, "{base:?} k={k}");
                    let primary = replicas[0];
                    for (r, &shard) in replicas.iter().enumerate() {
                        assert_eq!(shard, (primary + r) % 4, "replicas must be consecutive");
                    }
                    let mut distinct = replicas.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    assert_eq!(distinct.len(), k, "{obj} has duplicate replicas");
                }
            }
        }
    }

    #[test]
    fn replicated_primary_matches_base_policy() {
        let objs = tenant_objects(2, 4);
        let replicated = PlacementPolicy::Replicated {
            k: 2,
            base: BasePlacement::HashObject,
        };
        let primary = primaries(replicated, &objs, 4);
        assert_eq!(primary, primaries(PlacementPolicy::HashObject, &objs, 4));
        // k = 1 collapses to the base policy's single-shard map.
        let single = PlacementPolicy::Replicated {
            k: 1,
            base: BasePlacement::HashObject,
        };
        for (obj, replicas) in single.assign_replicas(&objs, 4) {
            assert_eq!(replicas, vec![primary[&obj]]);
        }
    }

    #[test]
    fn plain_policies_are_single_replica() {
        let o = ObjectId::new(0, 0, 0);
        assert_eq!(PlacementPolicy::RoundRobin.replicas(), 1);
        let run: Vec<usize> = PlacementPolicy::RoundRobin
            .replica_shards(o, 3, 2)
            .collect();
        assert_eq!(run, vec![1]);
    }

    #[test]
    #[should_panic(expected = "wants 3 replicas")]
    fn over_replication_rejected() {
        let _ = PlacementPolicy::Replicated {
            k: 3,
            base: BasePlacement::RoundRobin,
        }
        .replica_shards(ObjectId::new(0, 0, 0), 0, 2);
    }

    #[test]
    #[should_panic(expected = "needs k >= 1")]
    fn zero_replicas_rejected() {
        PlacementPolicy::Replicated {
            k: 0,
            base: BasePlacement::RoundRobin,
        }
        .shard_of(ObjectId::new(0, 0, 0), 0, 2);
    }

    #[test]
    fn placement_labels() {
        assert_eq!(PlacementPolicy::RoundRobin.label(), "round-robin");
        assert_eq!(PlacementPolicy::HashObject.label(), "hash-object");
        assert_eq!(
            PlacementPolicy::Replicated {
                k: 2,
                base: BasePlacement::RoundRobin
            }
            .label(),
            "replicated/round-robin"
        );
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(LayoutPolicy::AllInOne.label(), "Allin1");
        assert_eq!(LayoutPolicy::TwoClientsPerGroup.label(), "2perG");
        assert_eq!(LayoutPolicy::OneClientPerGroup.label(), "1perG");
        assert_eq!(LayoutPolicy::Incremental.label(), "Increm.");
    }
}
