//! Differential test of the rank policy's waiting table.
//!
//! The model below keeps `W_q` in a hashed map: each switch stamps every
//! pending query with the switch generation, then sweeps the entries
//! left with an older stamp. Seeded switch sequences, in which queries
//! appear, drain and come back between switches, drive the model and
//! [`RankBased`] over both queue implementations. After every switch
//! `waiting_of` must agree for every query id, and so must `ranks()`
//! and the group `decide` picks once the loaded group has drained,
//! against a brute-force pick over the model's ranks. Requests land on
//! random groups, so a later group often holds a smaller query id than
//! an earlier one: the policy's forward cursor then falls back to a
//! search, and the sweep checks that this happened, as did rank ties.

use std::collections::HashMap;

use skipper_csd::sched::{
    Decision, GroupScheduler, InFlight, PendingRequest, QueueView, RankBased, RequestIndex,
    RequestQueue,
};
use skipper_csd::{GroupId, IntraGroupOrder, ObjectId, QueryId};
use skipper_sim::rng::splitmix64;
use skipper_testkit::sched::naive::NaiveQueue;

/// The stamped hash-map waiting table.
#[derive(Default)]
struct StampedWaiting {
    waiting: HashMap<QueryId, (u64, u64)>,
    generation: u64,
}

impl StampedWaiting {
    fn on_switch_complete(&mut self, queue: &dyn QueueView, loaded: GroupId) {
        self.generation += 1;
        let generation = self.generation;
        let waiting = &mut self.waiting;
        queue.for_each_query_presence(loaded, &mut |q, on_loaded| {
            let e = waiting.entry(q).or_insert((0, generation));
            e.1 = generation;
            e.0 = if on_loaded { 0 } else { e.0 + 1 };
        });
        self.waiting
            .retain(|_, &mut (_, stamp)| stamp == generation);
    }

    fn waiting_of(&self, q: QueryId) -> u64 {
        self.waiting.get(&q).map_or(0, |&(w, _)| w)
    }

    /// `R(g) = N_g + ΣW_q(g)` per group, ascending group id.
    fn ranks(&self, queue: &dyn QueueView) -> Vec<(GroupId, u64)> {
        let mut out = Vec::new();
        queue.for_each_group(&mut |g, lens| {
            let w: u64 = lens.queries.iter().map(|&q| self.waiting_of(q)).sum();
            out.push((g, lens.queries.len() as u64 + w));
        });
        out
    }

    /// The decision for a drained `active` group: the highest rank,
    /// and on equal ranks the group holding the older request.
    fn decide(&self, queue: &dyn QueueView, active: GroupId) -> Decision {
        let ranks = self.ranks(queue);
        let best = ranks.iter().copied().reduce(|best, next| {
            let older = queue.oldest_seq_on(next.0) < queue.oldest_seq_on(best.0);
            if next.1 > best.1 || (next.1 == best.1 && older) {
                next
            } else {
                best
            }
        });
        match best {
            None => Decision::Idle,
            Some((g, _)) if g == active => Decision::ServeActive,
            Some((g, _)) => Decision::SwitchTo(g),
        }
    }
}

/// What one sweep exercised, for the coverage checks.
#[derive(Debug, Default, PartialEq)]
struct Coverage {
    /// Queries that came back after draining.
    returned: usize,
    /// Decisions whose highest rank was held by two or more groups.
    ties: usize,
    /// Rank folds that met a query id below one an earlier group held.
    out_of_order: usize,
}

/// True when the fold over `queue`'s groups meets a query id at or
/// below the largest one an earlier group listed.
fn folds_out_of_order(queue: &dyn QueueView) -> bool {
    let (mut furthest, mut behind) = (None, false);
    queue.for_each_group(&mut |_, lens| {
        for &q in lens.queries {
            behind |= furthest.is_some_and(|f| q <= f);
        }
        furthest = furthest.max(lens.queries.last().copied());
    });
    behind
}

/// One seeded switch sequence over queue `Q`, returning what it
/// covered.
fn waiting_matches_stamped_model<Q: RequestIndex>(seed: u64) -> Coverage {
    let mut state = seed;
    let mut draw = |n: u64| splitmix64(&mut state) % n;
    let (tenants, qseqs, groups) = (4u16, 3u32, 5u64);
    let every_query: Vec<QueryId> = (0..tenants)
        .flat_map(|t| (0..qseqs).map(move |s| QueryId::new(t, s)))
        .collect();
    let mut queue = Q::new(IntraGroupOrder::ArrivalOrder);
    let (mut policy, mut model) = (RankBased::new(), StampedWaiting::default());
    let (mut seq, mut drained, mut covered) = (0u64, Vec::new(), Coverage::default());
    for _ in 0..300 {
        for _ in 0..draw(4) {
            let query = every_query[draw(every_query.len() as u64) as usize];
            if draw(3) == 0 {
                if queue.cancel_query(query, &mut |_| {}) > 0 {
                    drained.push(query);
                }
                continue;
            }
            if let Some(at) = drained.iter().position(|&d| d == query) {
                drained.swap_remove(at);
                covered.returned += 1;
            }
            queue.insert(PendingRequest {
                object: ObjectId::new(query.tenant, 0, seq as u32),
                query,
                client: query.tenant as usize,
                group: draw(groups) as GroupId,
                bytes: 0,
                slot: 0,
                seq,
            });
            seq += 1;
        }
        let loaded = draw(groups) as GroupId;
        policy.on_switch_complete(&queue, loaded);
        model.on_switch_complete(&queue, loaded);
        for &q in &every_query {
            assert_eq!(policy.waiting_of(q), model.waiting_of(q), "{q:?}");
        }
        let ranks = model.ranks(&queue);
        assert_eq!(policy.ranks(&queue), ranks);
        // `loaded` holds no armed residency, so it counts as drained.
        assert_eq!(
            policy.decide(&queue, Some(loaded), InFlight::NONE),
            model.decide(&queue, loaded)
        );
        let top = ranks.iter().map(|&(_, r)| r).max();
        if ranks.iter().filter(|&&(_, r)| Some(r) == top).count() > 1 {
            covered.ties += 1;
        }
        if folds_out_of_order(&queue) {
            covered.out_of_order += 1;
        }
    }
    covered
}

#[test]
fn waiting_matches_stamped_model_on_both_queues() {
    for seed in 0..8 {
        let indexed = waiting_matches_stamped_model::<RequestQueue>(seed);
        let naive = waiting_matches_stamped_model::<NaiveQueue>(seed);
        assert_eq!(indexed, naive, "seed {seed}: the queues saw different runs");
        assert!(indexed.returned > 20, "seed {seed}: {indexed:?}");
        assert!(indexed.ties > 0, "seed {seed}: {indexed:?}");
        assert!(indexed.out_of_order > 0, "seed {seed}: {indexed:?}");
    }
}
