//! Model-checking property tests: core data structures against
//! brute-force reference models.
//!
//! Randomized scripts are drawn from a seeded RNG (deterministic
//! stand-in for the original proptest strategies), so every case is
//! reproducible by its loop index.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

use skipper::core::analysis::{CacheAdvisor, ReissueModel};
use skipper::core::subplan::SubplanTracker;

/// A brute-force mirror of the subplan tracker: explicit sets.
struct BruteForce {
    seg_counts: Vec<u32>,
    executed: HashSet<Vec<u32>>,
    pruned: HashSet<(usize, u32)>,
}

impl BruteForce {
    fn new(seg_counts: &[u32]) -> Self {
        BruteForce {
            seg_counts: seg_counts.to_vec(),
            executed: HashSet::new(),
            pruned: HashSet::new(),
        }
    }

    fn all_combos(&self) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = vec![vec![]];
        for (r, &c) in self.seg_counts.iter().enumerate() {
            let mut next = Vec::new();
            for base in &out {
                for s in 0..c {
                    if self.pruned.contains(&(r, s)) {
                        continue;
                    }
                    let mut combo = base.clone();
                    combo.push(s);
                    next.push(combo);
                }
            }
            out = next;
        }
        out
    }

    fn pending(&self) -> Vec<Vec<u32>> {
        self.all_combos()
            .into_iter()
            .filter(|c| !self.executed.contains(c))
            .collect()
    }

    fn pending_count(&self, obj: (usize, u32)) -> u64 {
        if self.pruned.contains(&obj) {
            return 0;
        }
        self.pending().iter().filter(|c| c[obj.0] == obj.1).count() as u64
    }

    fn prune(&mut self, obj: (usize, u32)) -> u64 {
        if self.pruned.contains(&obj) {
            return 0;
        }
        let removed = self.pending_count(obj);
        self.pruned.insert(obj);
        self.executed.retain(|c| c[obj.0] != obj.1);
        removed
    }
}

/// A small random geometry: 2-3 relations of 1-3 segments each.
fn geometry(rng: &mut StdRng) -> Vec<u32> {
    let n = rng.gen_range(2usize..4);
    (0..n).map(|_| rng.gen_range(1u32..4)).collect()
}

/// Tracker counts equal the brute-force model's under random
/// execute/prune interleavings.
#[test]
fn tracker_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0x7AC8);
    for case in 0..96 {
        let seg_counts = geometry(&mut rng);
        let script_len = rng.gen_range(0usize..40);
        let script: Vec<(bool, usize)> = (0..script_len)
            .map(|_| (rng.gen_bool(0.5), rng.gen_range(0usize..64)))
            .collect();
        let mut tracker = SubplanTracker::new(&seg_counts);
        let mut model = BruteForce::new(&seg_counts);
        for (is_prune, pick) in script {
            if is_prune {
                // Prune a pseudo-random object.
                let rel = pick % seg_counts.len();
                let seg = (pick / seg_counts.len()) as u32 % seg_counts[rel];
                // Skip prunes that would empty a relation (the engine
                // never prunes the last live segment of a relation it
                // still needs; tracker allows it but counts degenerate).
                let live_in_rel = (0..seg_counts[rel])
                    .filter(|&s| !model.pruned.contains(&(rel, s)))
                    .count();
                if live_in_rel <= 1 {
                    continue;
                }
                let a = tracker.prune((rel, seg));
                let b = model.prune((rel, seg));
                assert_eq!(a, b, "case {case}: prune count mismatch");
            } else {
                // Execute a pseudo-random pending combo.
                let pending = model.pending();
                if pending.is_empty() {
                    continue;
                }
                let combo = pending[pick % pending.len()].clone();
                assert!(tracker.mark_executed(&combo));
                model.executed.insert(combo);
            }
            // Invariants after every step.
            assert_eq!(tracker.pending_total(), model.pending().len() as u64);
            for (r, &count) in seg_counts.iter().enumerate() {
                for s in 0..count {
                    assert_eq!(
                        tracker.pending_count((r, s)),
                        model.pending_count((r, s)),
                        "case {case}: pending_count({r}, {s})"
                    );
                }
            }
            let mut tracker_pending = tracker.pending_objects();
            tracker_pending.sort_unstable();
            let mut model_pending: Vec<(usize, u32)> = (0..seg_counts.len())
                .flat_map(|r| (0..seg_counts[r]).map(move |s| (r, s)))
                .filter(|&o| model.pending_count(o) > 0)
                .collect();
            model_pending.sort_unstable();
            assert_eq!(tracker_pending, model_pending);
            // first_pending agrees with the model's lexicographic minimum.
            let mut model_first = model.pending();
            model_first.sort();
            assert_eq!(tracker.first_pending(), model_first.first().cloned());
        }
    }
}

/// `runnable_with` returns exactly the unexecuted cache-resident
/// combos containing the fixed object.
#[test]
fn runnable_with_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0x2BF5);
    for case in 0..96 {
        let seg_counts = geometry(&mut rng);
        let n_exec = rng.gen_range(0usize..12);
        let cache_bits = rng.gen_range(0u64..4096);
        let mut tracker = SubplanTracker::new(&seg_counts);
        let mut model = BruteForce::new(&seg_counts);
        for _ in 0..n_exec {
            let pending = model.pending();
            if pending.is_empty() {
                break;
            }
            let combo = pending[rng.gen_range(0usize..64) % pending.len()].clone();
            tracker.mark_executed(&combo);
            model.executed.insert(combo);
        }
        // Random cache subset; ensure the fixed object is "cached".
        let mut cached: Vec<Vec<u32>> = Vec::new();
        let mut bit = 0;
        for &c in &seg_counts {
            let mut segs = Vec::new();
            for s in 0..c {
                if (cache_bits >> bit) & 1 == 1 {
                    segs.push(s);
                }
                bit += 1;
            }
            cached.push(segs);
        }
        let fixed = (0usize, 0u32);
        if !cached[0].contains(&0) {
            cached[0].push(0);
            cached[0].sort_unstable();
        }
        let mut keys = Vec::new();
        tracker.runnable_with(&cached, fixed, &mut keys);
        let got: HashSet<Vec<u32>> = keys
            .iter()
            .map(|&key| {
                (0..seg_counts.len())
                    .map(|r| SubplanTracker::segment_of(key, r))
                    .collect()
            })
            .collect();
        assert_eq!(got.len(), keys.len(), "case {case}: a combo listed twice");
        let expect: HashSet<Vec<u32>> = model
            .pending()
            .into_iter()
            .filter(|combo| {
                combo[0] == 0
                    && combo
                        .iter()
                        .enumerate()
                        .all(|(r, &s)| cached[r].contains(&s))
            })
            .collect();
        assert_eq!(got, expect, "case {case}");
    }
}

/// The §5.2.4 closed form is monotone and the advisor inverts it for
/// arbitrary query shapes.
#[test]
fn analysis_model_laws() {
    let mut rng = StdRng::seed_from_u64(0x51D4);
    for _ in 0..96 {
        let n = rng.gen_range(1usize..7);
        let counts: Vec<u32> = (0..n).map(|_| rng.gen_range(1u32..100)).collect();
        let factor = rng.gen_range(1.0f64..50.0);
        let model = ReissueModel::from_segment_counts(&counts);
        // Monotone non-increasing in cache size.
        let mut prev = f64::INFINITY;
        for c in (model.min_capacity() as u64)..=(model.total_objects) {
            let f = model.reissue_factor(c);
            assert!(f <= prev + 1e-9);
            assert!(f >= 1.0);
            prev = f;
        }
        // Advisor produces a capacity meeting the target.
        let advisor = CacheAdvisor::new(model);
        let c = advisor.capacity_for_factor(factor);
        assert!(model.reissue_factor(c) <= factor + 1e-6);
        // No reissues at the derived hash-join-equivalence capacity.
        let c0 = advisor.capacity_for_no_reissues();
        assert!(model.reissue_factor(c0) <= 1.0 + 1e-9);
    }
}

/// Activity-trace attribution always conserves time: any interval's
/// switch + transfer + idle sums exactly to its length.
#[test]
fn trace_attribution_conserves_time() {
    use skipper::sim::{Activity, ActivityTrace, SimTime};
    let mut rng = StdRng::seed_from_u64(0x7123);
    for _ in 0..96 {
        let n_spans = rng.gen_range(1usize..20);
        let mut trace = ActivityTrace::new();
        let mut t = 0u64;
        for _ in 0..n_spans {
            let len = rng.gen_range(1u64..50);
            // One draw in three leaves an idle gap.
            let activity = match rng.gen_range(0usize..3) {
                0 => Some(Activity::Switching),
                1 => Some(Activity::Transferring { client: 0 }),
                _ => None,
            };
            if let Some(activity) = activity {
                trace.record(SimTime::from_secs(t), SimTime::from_secs(t + len), activity);
            }
            t += len;
        }
        let from = rng.gen_range(0u64..500);
        let len = rng.gen_range(1u64..200);
        let a = SimTime::from_secs(from);
        let b = SimTime::from_secs(from + len);
        let attr = trace.attribute(a, b);
        assert_eq!(attr.total().as_micros(), b.since(a).as_micros());
    }
}
