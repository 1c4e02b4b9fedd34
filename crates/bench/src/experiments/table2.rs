//! Table 2: the data-layout / subplan worked example (§3.3, §4.1).
//!
//! Three relations A, B, C of two segments each, spread over three disk
//! groups: g1 = {A.1, B.1, C.1}, g2 = {A.2, B.2}, g3 = {C.3}. The example
//! shows (a) the 8 subplans MJoin enumerates, and (b) that batching all
//! requests upfront retrieves everything with 2 group switches while the
//! pull-based order C, B, A pays 5.

use std::collections::BTreeMap;

use skipper_core::subplan::SubplanTracker;
use skipper_csd::{
    CsdConfig, CsdDevice, IntraGroupOrder, ObjectId, ObjectStore, QueryId, SchedPolicy,
};
use skipper_sim::{SimDuration, SimTime};

use crate::report::Table;

/// The example's object universe: `(label, object, group)`.
/// Tables: A=0, B=1, C=2; the paper's segment names A.1/A.2 map to
/// segment ids 0/1 (C.1/C.3 likewise).
pub fn example_objects() -> Vec<(&'static str, ObjectId, u32)> {
    vec![
        ("A.1", ObjectId::new(0, 0, 0), 0),
        ("B.1", ObjectId::new(0, 1, 0), 0),
        ("C.1", ObjectId::new(0, 2, 0), 0),
        ("A.2", ObjectId::new(0, 0, 1), 1),
        ("B.2", ObjectId::new(0, 1, 1), 1),
        ("C.3", ObjectId::new(0, 2, 1), 2),
    ]
}

fn device() -> CsdDevice<&'static str> {
    let mut store = ObjectStore::new();
    for (_, id, group) in example_objects() {
        store.put(id, 1, group, "seg");
    }
    CsdDevice::new(
        CsdConfig {
            switch_latency: SimDuration::from_secs(8),
            bandwidth_bytes_per_sec: 0.0, // latency-free transfers: count switches only
            parallel_streams: 1,
            ..CsdConfig::default()
        },
        store,
        SchedPolicy::MaxQueries.build(),
        IntraGroupOrder::SemanticRoundRobin,
    )
}

/// Serves a request schedule to completion, returning the switch count.
/// `batches` are submitted one after another, each only after the
/// previous batch completed (pull-based = one object per batch).
pub fn switches_for(batches: &[Vec<ObjectId>]) -> u64 {
    let mut dev = device();
    let mut now = SimTime::ZERO;
    let mut done = Vec::new();
    for batch in batches {
        dev.submit(now, 0, QueryId::new(0, 0), batch);
        while let Some(t) = dev.kick(now) {
            now = t;
            done.clear();
            dev.complete_into(now, &mut done);
        }
    }
    dev.metrics().group_switches
}

/// The 8 subplans of the example, as label strings.
pub fn subplans() -> Vec<String> {
    let tracker = SubplanTracker::new(&[2, 2, 2]);
    let names: BTreeMap<(usize, u32), &str> = [
        ((0usize, 0u32), "A.1"),
        ((0, 1), "A.2"),
        ((1, 0), "B.1"),
        ((1, 1), "B.2"),
        ((2, 0), "C.1"),
        ((2, 1), "C.3"),
    ]
    .into_iter()
    .collect();
    let mut out = Vec::new();
    for a in 0..tracker.seg_count(0) {
        for b in 0..tracker.seg_count(1) {
            for c in 0..tracker.seg_count(2) {
                out.push(format!(
                    "{},{},{}",
                    names[&(0, a)],
                    names[&(1, b)],
                    names[&(2, c)]
                ));
            }
        }
    }
    out
}

/// Table 2 as a printable table, plus the switch-count comparison.
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table 2: data layout and execution subplans (g1={A.1,B.1,C.1} g2={A.2,B.2} g3={C.3})",
        &["id", "subplan"],
    );
    for (i, s) in subplans().iter().enumerate() {
        t.push_row(vec![(i + 1).to_string(), s.clone()]);
    }
    // The access-order comparison of §3.3.
    let objs = example_objects();
    let by_label = |l: &str| objs.iter().find(|(n, ..)| *n == l).unwrap().1;
    let batched = vec![objs.iter().map(|(_, id, _)| *id).collect::<Vec<_>>()];
    let pull: Vec<Vec<ObjectId>> = ["C.1", "C.3", "B.1", "B.2", "A.1", "A.2"]
        .iter()
        .map(|l| vec![by_label(l)])
        .collect();
    t.push_row(vec![
        "switches".into(),
        format!(
            "batched upfront: {} | pull-based C,B,A: {}",
            switches_for(&batched),
            switches_for(&pull)
        ),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_exactly_eight_subplans() {
        let s = subplans();
        assert_eq!(s.len(), 8);
        assert_eq!(s[0], "A.1,B.1,C.1");
        assert!(s.contains(&"A.2,B.2,C.3".to_string()));
    }

    #[test]
    fn batched_needs_two_switches_pull_needs_five() {
        let objs = example_objects();
        let by_label = |l: &str| objs.iter().find(|(n, ..)| *n == l).unwrap().1;
        // "all three tables can be retrieved from the CSD with just two
        // group switches"
        let batched = vec![objs.iter().map(|(_, id, _)| *id).collect::<Vec<_>>()];
        assert_eq!(switches_for(&batched), 2);
        // "fetching relations C, B, A, in that order leads to 5 switches
        // instead of 2"
        let pull: Vec<Vec<ObjectId>> = ["C.1", "C.3", "B.1", "B.2", "A.1", "A.2"]
            .iter()
            .map(|l| vec![by_label(l)])
            .collect();
        assert_eq!(switches_for(&pull), 5);
    }
}
