//! Object identifiers and metadata.
//!
//! Each tenant's database is striped over the shared CSD as a set of
//! objects, one per 1 GB relation segment, named after the PostgreSQL
//! filenode they back. An [`ObjectId`] identifies one such object:
//! `(tenant, table, segment)`. [`QueryId`] is the semantic tag the client
//! proxy attaches to every GET so the scheduler can group requests by
//! query (§4.3 — "the client proxy shares semantic information with
//! Swift").

use std::fmt;

/// A disk-group index within the CSD.
pub type GroupId = u32;

/// Globally unique identifier of one stored object (a relation segment of
/// one tenant's database).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId {
    /// The owning tenant (client) — each VM's database is a separate
    /// dataset on the shared device.
    pub tenant: u16,
    /// Table index within the tenant's catalog.
    pub table: u16,
    /// Segment index within the table.
    pub segment: u32,
}

impl ObjectId {
    /// Creates an object id.
    pub const fn new(tenant: u16, table: u16, segment: u32) -> Self {
        ObjectId {
            tenant,
            table,
            segment,
        }
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}/t{}.{}", self.tenant, self.table, self.segment)
    }
}

/// Identifier of one query execution, unique across the whole simulation.
/// The pair `(tenant, seq)` makes ids readable in traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId {
    /// Issuing tenant.
    pub tenant: u16,
    /// Per-tenant query sequence number.
    pub seq: u32,
}

impl QueryId {
    /// Creates a query id.
    pub const fn new(tenant: u16, seq: u32) -> Self {
        QueryId { tenant, seq }
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}-{}", self.tenant, self.seq)
    }
}

/// A dense `ObjectId → u32` index: the one lookup structure of every
/// per-GET object table (the store's slots, the fleet's primary shards,
/// the shard caches' residency).
///
/// A tenant's objects are `(table, segment)` pairs whose segments count
/// densely from 0, so the index is three flat arrays: each tenant's run
/// of table spans, each table's run of values, and the values. A lookup
/// is bounds-checked arithmetic plus three loads; an id past a range,
/// of an unknown tenant or table, or in a hole of a range reads `None`.
///
/// [`ObjectIndex::with_extents`] lays the arrays out once from the
/// segment counts. Inserting past a span grows it in place when it ends
/// its array and otherwise moves it to the end at twice the size, so
/// building incrementally costs amortised O(1) per insert.
#[derive(Clone, Debug, Default)]
pub struct ObjectIndex {
    /// Per tenant: its table spans inside `tables`.
    tenants: Vec<Span>,
    /// Per `(tenant, table)`: its segment values inside `values`.
    tables: Vec<Span>,
    /// One value per covered segment; [`ABSENT`] marks a hole.
    values: Vec<u32>,
    /// Number of present values.
    len: usize,
}

/// A run `base..base + len` of one of an [`ObjectIndex`]'s arrays.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    base: u32,
    len: u32,
}

/// The value of an id that was never inserted (or was removed).
const ABSENT: u32 = u32::MAX;

/// `n` as an array position of an [`ObjectIndex`].
fn position(n: usize) -> u32 {
    u32::try_from(n).expect("object index outgrew u32 positions")
}

impl Span {
    /// The array position of element `i`, if the span covers it.
    #[inline]
    fn at(self, i: u32) -> Option<usize> {
        (i < self.len).then(|| self.base as usize + i as usize)
    }

    /// Makes the span cover element `i` of `array` and returns its
    /// position. A span that ends the array grows in place; any other
    /// moves to the end at `max(i + 1, 2 × len)` elements, leaving its
    /// old run unused.
    fn cover<T: Copy>(&mut self, i: u32, array: &mut Vec<T>, empty: T) -> usize {
        if i >= self.len {
            let end = self.base as usize + self.len as usize;
            let len = if end == array.len() {
                i + 1
            } else {
                let old = self.base as usize..end;
                self.base = position(array.len());
                array.extend_from_within(old);
                (i + 1).max(self.len.saturating_mul(2))
            };
            array.resize(self.base as usize + len as usize, empty);
            self.len = len;
        }
        self.base as usize + i as usize
    }
}

impl ObjectIndex {
    /// An empty index laid out for `extents[tenant][table]` segments
    /// per table: inserting ids inside the extents allocates nothing.
    pub fn with_extents(extents: &[Vec<u32>]) -> ObjectIndex {
        let mut tenants = Vec::with_capacity(extents.len());
        let mut tables = Vec::with_capacity(extents.iter().map(Vec::len).sum());
        let mut values = 0;
        for segments in extents {
            tenants.push(Span {
                base: position(tables.len()),
                len: position(segments.len()),
            });
            for &len in segments {
                tables.push(Span {
                    base: position(values),
                    len,
                });
                values += len as usize;
            }
        }
        ObjectIndex {
            tenants,
            tables,
            values: vec![ABSENT; values],
            len: 0,
        }
    }

    /// The value of `id`, or `None` when it was never inserted.
    #[inline]
    pub fn get(&self, id: ObjectId) -> Option<u32> {
        let tenant = *self.tenants.get(id.tenant as usize)?;
        let table = self.tables[tenant.at(id.table as u32)?];
        let value = self.values[table.at(id.segment)?];
        (value != ABSENT).then_some(value)
    }

    /// Sets `id` to `value`, returning the value it replaced.
    ///
    /// # Panics
    /// Panics when `value` is `u32::MAX`, the absent marker.
    pub fn insert(&mut self, id: ObjectId, value: u32) -> Option<u32> {
        assert!(value != ABSENT, "u32::MAX marks an absent object");
        let tenant = id.tenant as usize;
        if tenant >= self.tenants.len() {
            self.tenants.resize(tenant + 1, Span::default());
        }
        let table = self.tenants[tenant].cover(id.table as u32, &mut self.tables, Span::default());
        let at = self.tables[table].cover(id.segment, &mut self.values, ABSENT);
        let old = std::mem::replace(&mut self.values[at], value);
        if old == ABSENT {
            self.len += 1;
            None
        } else {
            Some(old)
        }
    }

    /// Removes `id`, returning its value.
    pub fn remove(&mut self, id: ObjectId) -> Option<u32> {
        let tenant = *self.tenants.get(id.tenant as usize)?;
        let table = self.tables[tenant.at(id.table as u32)?];
        let value = std::mem::replace(&mut self.values[table.at(id.segment)?], ABSENT);
        (value != ABSENT).then(|| {
            self.len -= 1;
            value
        })
    }

    /// Number of present ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no id is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every id but keeps the layout: re-inserting ids it
    /// covered allocates nothing.
    pub fn clear(&mut self) {
        self.values.fill(ABSENT);
        self.len = 0;
    }
}

/// Placement and sizing metadata for one stored object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectMeta {
    /// The object.
    pub id: ObjectId,
    /// Logical size in bytes (1 GB for full segments); transfer time =
    /// `logical_bytes / bandwidth`.
    pub logical_bytes: u64,
    /// The disk group housing the object.
    pub group: GroupId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_ordering_is_lexicographic() {
        let a = ObjectId::new(0, 0, 1);
        let b = ObjectId::new(0, 1, 0);
        let c = ObjectId::new(1, 0, 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ObjectId::new(2, 1, 7).to_string(), "c2/t1.7");
        assert_eq!(QueryId::new(3, 4).to_string(), "q3-4");
    }

    #[test]
    fn index_inserts_replaces_and_removes() {
        let mut index = ObjectIndex::default();
        let (a, b) = (ObjectId::new(0, 0, 0), ObjectId::new(2, 1, 7));
        assert_eq!(index.insert(a, 5), None);
        assert_eq!(index.insert(b, 9), None);
        assert_eq!(
            (index.get(a), index.get(b), index.len()),
            (Some(5), Some(9), 2)
        );
        assert_eq!(
            index.insert(a, 6),
            Some(5),
            "a replace returns the old value"
        );
        assert_eq!((index.get(a), index.len()), (Some(6), 2));
        assert_eq!(index.remove(a), Some(6));
        assert_eq!(index.remove(a), None);
        assert_eq!(
            (index.get(a), index.get(b), index.len()),
            (None, Some(9), 1)
        );
    }

    #[test]
    fn index_reads_holes_and_out_of_range_ids_as_none() {
        let sized = ObjectIndex::with_extents(&[vec![6, 0], vec![]]);
        for mut index in [ObjectIndex::default(), sized] {
            for s in [1, 3, 5] {
                index.insert(ObjectId::new(0, 0, s), s);
            }
            assert_eq!(index.len(), 3);
            for s in [1, 3, 5] {
                assert_eq!(index.get(ObjectId::new(0, 0, s)), Some(s));
            }
            let absent = [
                ObjectId::new(0, 0, 0), // holes
                ObjectId::new(0, 0, 2),
                ObjectId::new(0, 0, 4),
                ObjectId::new(0, 0, 6), // past the extent
                ObjectId::new(0, 0, u32::MAX),
                ObjectId::new(0, 1, 0), // an empty table, an unknown one
                ObjectId::new(0, 2, 0),
                ObjectId::new(1, 0, 1), // unknown tenants
                ObjectId::new(u16::MAX, 0, 0),
            ];
            for id in absent {
                assert_eq!(index.get(id), None, "{id}");
                assert_eq!(index.remove(id), None, "{id}");
            }
            assert_eq!(index.len(), 3);
        }
    }

    #[test]
    fn index_sized_from_extents_does_not_grow() {
        let mut index = ObjectIndex::with_extents(&[vec![4, 2], vec![3]]);
        let sizes = |i: &ObjectIndex| (i.tenants.len(), i.tables.len(), i.values.len());
        let before = sizes(&index);
        assert_eq!(before, (2, 3, 9));
        let ids = [(0, 0, 3), (0, 1, 1), (1, 0, 0), (0, 0, 0), (1, 0, 2)];
        for (v, &(tenant, table, seg)) in ids.iter().enumerate() {
            index.insert(ObjectId::new(tenant, table, seg), v as u32);
        }
        assert_eq!(sizes(&index), before);
        assert_eq!(index.get(ObjectId::new(1, 0, 2)), Some(4));
        // Past the extents the index still grows.
        index.insert(ObjectId::new(0, 0, 4), 7);
        index.insert(ObjectId::new(3, 2, 1), 8);
        assert_eq!(index.get(ObjectId::new(0, 0, 4)), Some(7));
        assert_eq!(index.get(ObjectId::new(3, 2, 1)), Some(8));
        assert_eq!(
            index.get(ObjectId::new(0, 0, 3)),
            Some(0),
            "a moved span keeps its values"
        );
        assert_eq!(index.len(), 7);
    }

    #[test]
    fn index_clear_keeps_the_layout() {
        let mut index = ObjectIndex::with_extents(&vec![vec![4]; 3]);
        let ids: Vec<ObjectId> = (0..3)
            .flat_map(|t| (0..4).map(move |s| ObjectId::new(t, 0, s)))
            .collect();
        for (v, &id) in ids.iter().enumerate() {
            index.insert(id, v as u32);
        }
        assert_eq!(index.len(), 12);
        let capacity = index.values.capacity();
        index.clear();
        assert!(index.is_empty());
        assert!(ids.iter().all(|&id| index.get(id).is_none()));
        index.insert(ids[5], 1);
        assert_eq!((index.get(ids[5]), index.len()), (Some(1), 1));
        assert_eq!(index.values.capacity(), capacity);
    }

    #[test]
    fn index_built_in_any_order_agrees_with_a_map() {
        use std::collections::HashMap;
        let mut index = ObjectIndex::default();
        let mut model = HashMap::new();
        let mut state = 33u64;
        for v in 0..4_000u32 {
            let r = skipper_sim::rng::splitmix64(&mut state);
            let id = ObjectId::new((r % 6) as u16, (r >> 8) as u16 % 5, (r >> 16) as u32 % 400);
            if r >> 60 == 0 {
                assert_eq!(index.remove(id), model.remove(&id));
            } else {
                assert_eq!(index.insert(id, v), model.insert(id, v));
            }
        }
        assert_eq!(index.len(), model.len());
        for (&id, &v) in &model {
            assert_eq!(index.get(id), Some(v));
        }
    }

    #[test]
    fn usable_as_map_keys() {
        use std::collections::HashMap;
        let mut objs = HashMap::new();
        objs.insert(ObjectId::new(0, 0, 0), 1);
        let mut queries = HashMap::new();
        queries.insert(QueryId::new(0, 0), 2);
        assert_eq!(objs.len() + queries.len(), 2);
    }
}
