//! The object store: placement + sizing, plus an optional payload.
//!
//! Plays the role of OpenStack Swift in the paper's testbed: a flat
//! key–value store of GB-sized blobs fronting the MAID array. The store
//! is generic over the payload type so this crate stays domain-free.
//! The core runtime stores `()`: its engines read the bytes from their
//! tenant's dataset, and the store holds only what the device model
//! needs (size and group). Tests store strings; the full-stack
//! benchmark's replay mirror stores `Arc<Segment>`s.
//!
//! Entries sit in a dense `Vec` behind one `ObjectId → slot` hash index.
//! The device resolves each GET once, at submit ([`ObjectStore::resolve`]),
//! and carries the slot with the request, so the completion reads the
//! payload by index ([`ObjectStore::payload`]) instead of probing again.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use skipper_sim::SimDuration;

use crate::layout::Layout;
use crate::object::{GroupId, ObjectId, ObjectMeta};

/// A fast, deterministic hasher for small fixed-width simulator keys
/// ([`ObjectId`], `QueryId`, `GroupId`).
///
/// Every map probed per simulated GET — the store's id index (one probe
/// per submit), the shard caches, the rank policy's
/// waiting table, the fleet's routing maps — is built on it through
/// [`FastBuild`]. SipHash's per-lookup cost is measurable at
/// million-request scale and buys nothing here: keys are trusted ids
/// minted by the simulator, not attacker-controlled strings. FNV-1a
/// over the written words, finished with a SplitMix64 mix, hashes an
/// id in a few cycles and is identical across runs, so table growth —
/// and with it the allocation count of a run — repeats exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut state = self.0;
        skipper_sim::rng::splitmix64(&mut state)
    }
}

/// The [`std::hash::BuildHasher`] of every per-GET map in the
/// simulator: `HashMap<K, V, FastBuild>` (see [`FastHasher`]).
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// An object store mapping [`ObjectId`]s to `(metadata, payload)`.
///
/// Each object lives at a *slot*: a dense index into the entry array,
/// stable for the store's lifetime (objects are only ever added or
/// replaced in place, never removed).
#[derive(Clone, Debug, Default)]
pub struct ObjectStore<P> {
    entries: Vec<(ObjectMeta, P)>,
    slots: HashMap<ObjectId, u32, FastBuild>,
}

impl<P> ObjectStore<P> {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore {
            entries: Vec::new(),
            slots: HashMap::default(),
        }
    }

    /// Inserts an object with explicit placement. Putting an id that is
    /// already stored replaces its entry in place, keeping its slot.
    ///
    /// # Panics
    /// Panics if the store outgrows `u32` slots.
    pub fn put(&mut self, id: ObjectId, logical_bytes: u64, group: GroupId, payload: P) {
        let meta = ObjectMeta {
            id,
            logical_bytes,
            group,
        };
        match self.slots.entry(id) {
            Entry::Occupied(slot) => self.entries[*slot.get() as usize] = (meta, payload),
            Entry::Vacant(slot) => {
                slot.insert(u32::try_from(self.entries.len()).expect("store outgrew u32 slots"));
                self.entries.push((meta, payload));
            }
        }
    }

    /// Inserts an object, resolving its group from `layout`.
    ///
    /// # Panics
    /// Panics if the layout does not place `id`.
    pub fn put_with_layout(
        &mut self,
        id: ObjectId,
        logical_bytes: u64,
        layout: &Layout,
        payload: P,
    ) {
        self.put(id, logical_bytes, layout.group_of(id), payload);
    }

    /// The slot and metadata of `id`, if stored: the one hash probe a
    /// GET pays. Later reads go through [`ObjectStore::payload`].
    pub fn resolve(&self, id: ObjectId) -> Option<(u32, &ObjectMeta)> {
        let slot = *self.slots.get(&id)?;
        Some((slot, &self.entries[slot as usize].0))
    }

    /// The payload at `slot` (from [`ObjectStore::resolve`]).
    ///
    /// # Panics
    /// Panics if `slot` is out of range — a slot resolved by another
    /// store.
    pub fn payload(&self, slot: u32) -> &P {
        &self.entries[slot as usize].1
    }

    /// Metadata of `id`, if stored.
    pub fn meta(&self, id: ObjectId) -> Option<&ObjectMeta> {
        self.resolve(id).map(|(_, m)| m)
    }

    /// Payload of `id`, if stored (a GET without the latency model —
    /// timing is the device's job).
    pub fn get(&self, id: ObjectId) -> Option<&P> {
        self.resolve(id).map(|(slot, _)| self.payload(slot))
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total logical bytes stored.
    pub fn total_logical_bytes(&self) -> u64 {
        self.entries.iter().map(|(m, _)| m.logical_bytes).sum()
    }

    /// Iterates all stored metadata (in slot order).
    pub fn iter_meta(&self) -> impl Iterator<Item = &ObjectMeta> {
        self.entries.iter().map(|(m, _)| m)
    }
}

/// Transfer time of an object at `bandwidth_bytes_per_sec`.
///
/// Zero or non-finite bandwidth means "free" (used by the ideal/local
/// configurations in Table 3's component breakdown).
pub fn transfer_time(logical_bytes: u64, bandwidth_bytes_per_sec: f64) -> SimDuration {
    if !(bandwidth_bytes_per_sec.is_finite() && bandwidth_bytes_per_sec > 0.0) {
        return SimDuration::ZERO;
    }
    SimDuration::from_secs_f64(logical_bytes as f64 / bandwidth_bytes_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn put_get_roundtrip() {
        let mut store: ObjectStore<&str> = ObjectStore::new();
        let id = ObjectId::new(0, 1, 2);
        store.put(id, GIB, 3, "payload");
        assert_eq!(store.get(id), Some(&"payload"));
        let meta = store.meta(id).unwrap();
        assert_eq!(meta.group, 3);
        assert_eq!(meta.logical_bytes, GIB);
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_logical_bytes(), GIB);
    }

    #[test]
    fn missing_objects_are_none() {
        let store: ObjectStore<u8> = ObjectStore::new();
        assert!(store.get(ObjectId::new(0, 0, 0)).is_none());
        assert!(store.meta(ObjectId::new(0, 0, 0)).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn layout_resolution() {
        let id = ObjectId::new(1, 0, 0);
        let layout = Layout::from_pairs([(id, 7)]);
        let mut store: ObjectStore<()> = ObjectStore::new();
        store.put_with_layout(id, GIB, &layout, ());
        assert_eq!(store.meta(id).unwrap().group, 7);
    }

    #[test]
    fn resolved_slot_reads_back_the_payload() {
        let mut store: ObjectStore<&str> = ObjectStore::new();
        let ids = [
            ObjectId::new(0, 0, 0),
            ObjectId::new(1, 2, 3),
            ObjectId::new(4, 0, 9),
        ];
        for (i, &id) in ids.iter().enumerate() {
            store.put(id, GIB, i as u32, ["a", "b", "c"][i]);
        }
        for id in ids {
            let (slot, meta) = store.resolve(id).unwrap();
            assert_eq!(meta.id, id);
            assert_eq!(store.payload(slot), store.get(id).unwrap());
        }
        assert!(store.resolve(ObjectId::new(9, 9, 9)).is_none());
    }

    #[test]
    fn second_put_replaces_in_place() {
        let mut store: ObjectStore<&str> = ObjectStore::new();
        let (a, b) = (ObjectId::new(0, 0, 0), ObjectId::new(0, 0, 1));
        store.put(a, GIB, 1, "old");
        store.put(b, GIB, 1, "other");
        let (slot, _) = store.resolve(a).unwrap();
        store.put(a, 2 * GIB, 5, "new");
        assert_eq!(store.len(), 2);
        let (again, meta) = store.resolve(a).unwrap();
        assert_eq!(again, slot);
        assert_eq!((meta.logical_bytes, meta.group), (2 * GIB, 5));
        assert_eq!(store.payload(slot), &"new");
        assert_eq!(store.get(b), Some(&"other"));
        assert_eq!(store.total_logical_bytes(), 3 * GIB);
    }

    #[test]
    fn iter_meta_and_totals_cover_every_object() {
        let mut store: ObjectStore<()> = ObjectStore::new();
        for seg in 0..10u32 {
            store.put(
                ObjectId::new(0, 0, seg),
                (seg as u64 + 1) * GIB,
                seg % 3,
                (),
            );
        }
        store.put(ObjectId::new(0, 0, 4), GIB, 0, ()); // replaced, not added
        let mut ids: Vec<ObjectId> = store.iter_meta().map(|m| m.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..10).map(|s| ObjectId::new(0, 0, s)).collect::<Vec<_>>()
        );
        assert_eq!(store.total_logical_bytes(), (55 - 4) * GIB);
        assert_eq!(
            store.total_logical_bytes(),
            store.iter_meta().map(|m| m.logical_bytes).sum::<u64>()
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn foreign_slot_is_rejected() {
        let store: ObjectStore<()> = ObjectStore::new();
        store.payload(0);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        // 1 GiB at 128 MiB/s = 8 s.
        let t = transfer_time(GIB, (128 * 1024 * 1024) as f64);
        assert_eq!(t, SimDuration::from_secs(8));
        assert!(transfer_time(GIB, 0.0).is_zero());
        assert!(transfer_time(GIB, f64::INFINITY).is_zero());
    }
}
