//! Differential test of the rank policy's waiting table.
//!
//! The model below keeps `W_q` in a hashed map: each switch stamps every
//! pending query with the switch generation, then sweeps the entries
//! left with an older stamp. Seeded switch sequences, in which queries
//! appear, drain and come back between switches, drive the model and
//! [`RankBased`] over both queue implementations. After every switch
//! `waiting_of` must agree for every query id, and so must `ranks()`.

use std::collections::HashMap;

use skipper_csd::sched::{
    GroupScheduler, PendingRequest, QueueView, RankBased, RequestIndex, RequestQueue,
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
}

/// One seeded switch sequence over queue `Q`. Returns how many queries
/// came back after draining, for the coverage check.
fn waiting_matches_stamped_model<Q: RequestIndex>(seed: u64) -> usize {
    let mut state = seed;
    let mut draw = |n: u64| splitmix64(&mut state) % n;
    let (tenants, qseqs, groups) = (4u16, 3u32, 5u64);
    let every_query: Vec<QueryId> = (0..tenants)
        .flat_map(|t| (0..qseqs).map(move |s| QueryId::new(t, s)))
        .collect();
    let mut queue = Q::new(IntraGroupOrder::ArrivalOrder);
    let (mut policy, mut model) = (RankBased::new(), StampedWaiting::default());
    let (mut seq, mut drained, mut returned) = (0u64, Vec::new(), 0);
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
                returned += 1;
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
        assert_eq!(policy.ranks(&queue), model.ranks(&queue));
    }
    returned
}

#[test]
fn waiting_matches_stamped_model_on_both_queues() {
    for seed in 0..8 {
        let indexed = waiting_matches_stamped_model::<RequestQueue>(seed);
        let naive = waiting_matches_stamped_model::<NaiveQueue>(seed);
        assert_eq!(indexed, naive, "seed {seed}: the queues saw different runs");
        assert!(
            indexed > 20,
            "seed {seed}: only {indexed} queries came back"
        );
    }
}
