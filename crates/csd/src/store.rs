//! The object store: placement + sizing, plus an optional payload.
//!
//! Plays the role of OpenStack Swift in the paper's testbed: a flat
//! key–value store of GB-sized blobs fronting the MAID array. The store
//! is generic over the payload type so this crate stays domain-free.
//! The core runtime stores `()`: its engines read the bytes from their
//! tenant's dataset, and the store holds only what the device model
//! needs (size and group). Tests store strings; the full-stack
//! benchmark's replay mirror stores `Arc<Segment>`s.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use skipper_sim::SimDuration;

use crate::layout::Layout;
use crate::object::{GroupId, ObjectId, ObjectMeta};

/// A fast, deterministic hasher for small fixed-width simulator keys
/// ([`ObjectId`], `QueryId`, `GroupId`).
///
/// Every map probed per simulated GET — the store (submit metadata,
/// the completion's payload probe), the shard caches, the rank policy's
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
#[derive(Clone, Debug, Default)]
pub struct ObjectStore<P> {
    objects: HashMap<ObjectId, (ObjectMeta, P), FastBuild>,
}

impl<P> ObjectStore<P> {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore {
            objects: HashMap::default(),
        }
    }

    /// Inserts an object with explicit placement.
    pub fn put(&mut self, id: ObjectId, logical_bytes: u64, group: GroupId, payload: P) {
        let meta = ObjectMeta {
            id,
            logical_bytes,
            group,
        };
        self.objects.insert(id, (meta, payload));
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

    /// Metadata of `id`, if stored.
    pub fn meta(&self, id: ObjectId) -> Option<&ObjectMeta> {
        self.objects.get(&id).map(|(m, _)| m)
    }

    /// Payload of `id`, if stored (a GET without the latency model —
    /// timing is the device's job).
    pub fn get(&self, id: ObjectId) -> Option<&P> {
        self.objects.get(&id).map(|(_, p)| p)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Total logical bytes stored.
    pub fn total_logical_bytes(&self) -> u64 {
        self.objects.values().map(|(m, _)| m.logical_bytes).sum()
    }

    /// Iterates all stored metadata (unordered).
    pub fn iter_meta(&self) -> impl Iterator<Item = &ObjectMeta> {
        self.objects.values().map(|(m, _)| m)
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
    fn transfer_time_scales_with_size() {
        // 1 GiB at 128 MiB/s = 8 s.
        let t = transfer_time(GIB, (128 * 1024 * 1024) as f64);
        assert_eq!(t, SimDuration::from_secs(8));
        assert!(transfer_time(GIB, 0.0).is_zero());
        assert!(transfer_time(GIB, f64::INFINITY).is_zero());
    }
}
