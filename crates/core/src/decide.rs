//! The sub-20ns decision hot path (ROADMAP item 4).
//!
//! Serving decisions used to cost ~155 ns (mirror) / ~68 ns (adaptive)
//! per pick: a `RwLock`-guarded `HashMap` probe, an `Instant::now`
//! pair, a latency-histogram record and a linear shipped-set scan on
//! every single call. This module provides the flat, open-addressed
//! tables that replace those map lookups:
//!
//! * [`ShapeTable`] — a fixed-size, lock-free L1 in front of the
//!   sharded decision cache. One `Acquire` generation load, a short
//!   linear probe over atomic key words and two `Relaxed` counter
//!   bumps answer the common pick; everything else (the model run, the
//!   LRU-touched shard insert, per-decision latency sampling) stays on
//!   the existing slow path. Invalidation is free: each published
//!   value carries the cache generation it was decided under, so the
//!   O(1) generation bump the drift path already performs makes every
//!   L1 entry unreadable at once.
//! * [`ClusterTable`] — an open-addressed replacement for the online
//!   layer's `HashMap<[i64; 3], ClusterState>`. It lives under the
//!   existing bandit mutex, so it is plain (non-atomic) storage; the
//!   win is the flat probe sequence and allocation-free steady state.
//! * [`cost`] — a deterministic operation-count model of the fast
//!   path. Wall-clock nanoseconds are noisy enough that the bench gate
//!   must band them at 300%; the op counts (table probes + atomic RMWs
//!   per pick) are exact and banded at 15%, so a "small" structural
//!   regression cannot hide inside timing noise.
//!
//! The decide path operates on `u16` configuration indices end-to-end
//! (`KernelConfig::index_u16`: the space has 640 points), halving the
//! packed-entry footprint and keeping the whole L1 slot in one
//! `AtomicU64`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of L1 slots in a default [`ShapeTable`]: comfortably above
/// the paper's 170-shape working set at a load factor where probe
/// sequences stay short, and small enough (32 KiB of key+value words)
/// to live in L2 cache.
pub const DEFAULT_SLOTS: usize = 2048;

/// Probe-sequence cap. A lookup or install that does not resolve
/// within this many slots falls through to the slow path instead of
/// scanning further — the table never degrades into a linear search.
pub const MAX_PROBES: usize = 16;

/// Shipped-slot sentinel for configurations outside the shipped set
/// (they are counted but own no `picks` slot).
pub const NO_SLOT: u16 = u16::MAX;

const VALID: u64 = 1 << 63;
const GEN_MASK: u64 = 0x7FFF_FFFF;
/// `stable_hash` output 0 is remapped to this constant so the key word
/// 0 can mean "never claimed" (the golden-ratio odd constant used by
/// splitmix-style mixers).
const ZERO_HASH_REMAP: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn pack(generation: u64, slot: u16, config: u16) -> u64 {
    VALID | ((generation & GEN_MASK) << 32) | ((slot as u64) << 16) | config as u64
}

/// A lock-free, fixed-size, open-addressed decision table: the L1 of
/// the decide path.
///
/// Keys are shape hashes (`GemmShape::stable_hash`, remapped away from
/// 0); values pack `valid | generation | shipped-slot | config` into
/// one word. A probe is a hit only if the stored generation matches
/// the live cache generation, so `ShardedCache::bump_generation` —
/// the drift-invalidation path — implicitly empties this table too.
///
/// Concurrency: keys are claimed once with a CAS and never change
/// (linear probing stays stable), values are republished with plain
/// `Release` stores. Within one cache generation a shape's decision
/// is a pure function of the selector, so racing installers write the
/// same value; across generations the generation tag arbitrates.
#[derive(Debug)]
pub struct ShapeTable {
    mask: u64,
    keys: Box<[AtomicU64]>,
    values: Box<[AtomicU64]>,
}

impl ShapeTable {
    /// A table with [`DEFAULT_SLOTS`] slots.
    pub fn new() -> Self {
        Self::with_slots(DEFAULT_SLOTS)
    }

    /// A table with at least `slots` slots (rounded up to a power of
    /// two, minimum 64 so [`MAX_PROBES`] never wraps past the start).
    pub fn with_slots(slots: usize) -> Self {
        let cap = slots.max(64).next_power_of_two();
        ShapeTable {
            mask: (cap - 1) as u64,
            keys: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            values: (0..cap).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Slot count (a power of two).
    pub fn slots(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn remap(hash: u64) -> u64 {
        if hash == 0 {
            ZERO_HASH_REMAP
        } else {
            hash
        }
    }

    /// Probe for `hash` under `generation`. Returns the packed
    /// `(config, shipped_slot)` on a generation-current hit, `None` on
    /// a miss, a stale generation, or an over-long probe sequence.
    #[inline]
    pub fn probe(&self, hash: u64, generation: u64) -> Option<(u16, u16)> {
        let hash = Self::remap(hash);
        let mut idx = (hash & self.mask) as usize;
        for _ in 0..MAX_PROBES {
            let key = self.keys.get(idx)?.load(Ordering::Acquire); // atomic:role(publish)
            if key == hash {
                let value = self.values.get(idx)?.load(Ordering::Acquire); // atomic:role(publish)
                if value & VALID != 0 && (value >> 32) & GEN_MASK == generation & GEN_MASK {
                    return Some(((value & 0xFFFF) as u16, ((value >> 16) & 0xFFFF) as u16));
                }
                return None;
            }
            if key == 0 {
                return None;
            }
            idx = ((idx as u64 + 1) & self.mask) as usize;
        }
        None
    }

    /// Publish `(config, slot)` for `hash` under `generation`. Returns
    /// `false` (and publishes nothing) if the probe window is already
    /// full of other keys — the slow path stays correct without the
    /// memoisation.
    pub fn install(&self, hash: u64, generation: u64, config: u16, slot: u16) -> bool {
        let hash = Self::remap(hash);
        let mut idx = (hash & self.mask) as usize;
        for _ in 0..MAX_PROBES {
            let Some(key) = self.keys.get(idx) else {
                return false;
            };
            let current = key.load(Ordering::Acquire); // atomic:role(publish)
            let owned = current == hash
                || (current == 0
                    // atomic:role(publish)
                    && match key.compare_exchange(0, hash, Ordering::AcqRel, Ordering::Acquire) {
                        Ok(_) => true,
                        Err(actual) => actual == hash,
                    });
            if owned {
                if let Some(value) = self.values.get(idx) {
                    // atomic:role(publish)
                    value.store(pack(generation, slot, config), Ordering::Release);
                    return true;
                }
                return false;
            }
            idx = ((idx as u64 + 1) & self.mask) as usize;
        }
        false
    }

    /// Drop the published value for `hash`, if present. Used when the
    /// underlying cache entry is overwritten or evicted out-of-band
    /// (direct `ShardedCache::insert`), so the L1 cannot serve a
    /// decision the L2 no longer holds.
    pub fn invalidate_key(&self, hash: u64) {
        let hash = Self::remap(hash);
        let mut idx = (hash & self.mask) as usize;
        for _ in 0..MAX_PROBES {
            let Some(key) = self.keys.get(idx) else {
                return;
            };
            let current = key.load(Ordering::Acquire); // atomic:role(publish)
            if current == hash {
                if let Some(value) = self.values.get(idx) {
                    value.store(0, Ordering::Release); // atomic:role(publish)
                }
                return;
            }
            if current == 0 {
                return;
            }
            idx = ((idx as u64 + 1) & self.mask) as usize;
        }
    }

    /// Unpublish every value (keys stay claimed so concurrent probes
    /// stay wait-free). Cold path: full-clear and snapshot-restore,
    /// where the cache generation does *not* change but the cached
    /// decisions do.
    pub fn invalidate_all(&self) {
        for value in self.values.iter() {
            value.store(0, Ordering::Release); // atomic:role(publish)
        }
    }

    /// Deterministic probe length for `hash`: how many key words a
    /// [`ShapeTable::probe`] inspects before resolving (hit or
    /// definitive miss). `None` if the probe window is exhausted.
    /// This feeds the [`cost`] proxy the bench gate bands at 15%.
    pub fn probe_length(&self, hash: u64) -> Option<u64> {
        let hash = Self::remap(hash);
        let mut idx = (hash & self.mask) as usize;
        for step in 0..MAX_PROBES {
            let key = self.keys.get(idx)?.load(Ordering::Acquire); // atomic:role(publish)
            if key == hash || key == 0 {
                return Some(step as u64 + 1);
            }
            idx = ((idx as u64 + 1) & self.mask) as usize;
        }
        None
    }
}

impl Default for ShapeTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Deterministic operation-count model of the decide fast path.
///
/// The bench gate's wall-clock band is 300% (timing noise on shared
/// CI runners); these counts are exact, so `micro_decide` records
/// them alongside the nanoseconds and bands them at 15%. Any change
/// that adds a probe step or an atomic RMW to the common pick moves
/// the proxy even when the ns column happens to look flat.
pub mod cost {
    /// Atomic loads on an L1 hit beyond the key probes: the value word
    /// and the cache-generation word.
    pub const HIT_EXTRA_LOADS: u64 = 2;
    /// Atomic RMWs a single L1-hit `decide` performs: the `hits`
    /// counter and the per-shipped-slot pick counter.
    pub const SINGLE_HIT_RMWS: u64 = 2;
}

fn hash_cluster_key(key: &[i64; 3]) -> u64 {
    // FNV-1a over the three coordinates, matching the spirit of
    // `GemmShape::stable_hash` (stable across platforms and runs).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &coord in key {
        let mut v = coord as u64;
        for _ in 0..8 {
            h ^= v & 0xFF;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
            v >>= 8;
        }
    }
    h
}

/// An open-addressed map from shape-cluster lattice points (`[i64; 3]`
/// quantised log-features) to per-cluster values, replacing the online
/// layer's `HashMap`.
///
/// It lives under the bandit mutex, so there is no interior atomicity;
/// the point is the flat storage: probes walk a contiguous slot array,
/// the steady state allocates nothing, and `clear` (the drift reset)
/// retains capacity instead of rebuilding the map.
#[derive(Debug)]
pub struct ClusterTable<V> {
    slots: Vec<Option<([i64; 3], V)>>,
    len: usize,
}

impl<V> ClusterTable<V> {
    /// An empty table with a small initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// An empty table able to hold at least `capacity` clusters before
    /// growing.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two() * 2;
        ClusterTable {
            slots: (0..cap).map(|_| None).collect(),
            len: 0,
        }
    }

    /// Number of clusters stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no cluster is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    #[inline]
    fn find(&self, key: &[i64; 3]) -> std::result::Result<usize, usize> {
        let mask = self.mask();
        let mut idx = hash_cluster_key(key) as usize & mask;
        loop {
            match self.slots.get(idx) {
                Some(Some((k, _))) if k == key => return Ok(idx),
                Some(None) => return Err(idx),
                Some(Some(_)) => idx = (idx + 1) & mask,
                // Unreachable: idx is masked to the slot count, but the
                // decide path proves totality instead of panicking.
                None => return Err(0),
            }
        }
    }

    /// Shared lookup.
    pub fn get(&self, key: &[i64; 3]) -> Option<&V> {
        match self.find(key) {
            Ok(idx) => self.slots.get(idx).and_then(|s| s.as_ref()).map(|(_, v)| v),
            Err(_) => None,
        }
    }

    /// Exclusive lookup.
    pub fn get_mut(&mut self, key: &[i64; 3]) -> Option<&mut V> {
        match self.find(key) {
            Ok(idx) => self
                .slots
                .get_mut(idx)
                .and_then(|s| s.as_mut())
                .map(|(_, v)| v),
            Err(_) => None,
        }
    }

    /// The entry for `key`, created with `make` if absent — the
    /// bandit's `cluster_entry` operation. Amortised allocation-free:
    /// growth only happens when the live load factor crosses 1/2.
    pub fn get_or_insert_with(&mut self, key: [i64; 3], make: impl FnOnce() -> V) -> &mut V {
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        // `find` lands on either the key's own slot or the first empty
        // probe slot; the clamp keeps the index total (the table is
        // never empty, so `len - 1` cannot underflow).
        let idx = match self.find(&key) {
            Ok(idx) => idx,
            Err(idx) => idx,
        }
        .min(self.slots.len() - 1);
        // lint:allow(no-index) idx clamped to slots.len() - 1 above
        let slot = &mut self.slots[idx];
        if slot.is_none() {
            self.len += 1;
        }
        &mut slot.get_or_insert_with(|| (key, make())).1
    }

    /// Insert `value` under `key`, replacing and returning any previous
    /// value (used by the snapshot-restore path).
    pub fn insert(&mut self, key: [i64; 3], value: V) -> Option<V> {
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let idx = match self.find(&key) {
            Ok(idx) => idx,
            Err(idx) => idx,
        }
        .min(self.slots.len() - 1);
        // lint:allow(no-index) idx clamped to slots.len() - 1 above
        let slot = &mut self.slots[idx];
        let previous = slot.replace((key, value)).map(|(_, v)| v);
        if previous.is_none() {
            self.len += 1;
        }
        previous
    }

    // lint:allow-fn(no-alloc) growth is amortised over many inserts, off the common pick
    #[cold]
    fn grow(&mut self) {
        let next_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(
            &mut self.slots,
            (0..next_cap).map(|_| None).collect::<Vec<_>>(),
        );
        self.len = 0;
        for (key, value) in old.into_iter().flatten() {
            self.insert(key, value);
        }
    }

    /// Iterate over `(key, value)` pairs in slot order (callers that
    /// need determinism sort, exactly as they did over the `HashMap`).
    pub fn iter(&self) -> impl Iterator<Item = (&[i64; 3], &V)> {
        self.slots
            .iter()
            .filter_map(|slot| slot.as_ref().map(|(k, v)| (k, v)))
    }

    /// Drop every cluster, retaining capacity — the drift reset.
    pub fn clear(&mut self) {
        for slot in self.slots.iter_mut() {
            *slot = None;
        }
        self.len = 0;
    }
}

impl<V> Default for ClusterTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_table_probe_install_roundtrip() {
        let table = ShapeTable::with_slots(128);
        assert_eq!(table.slots(), 128);
        assert_eq!(table.probe(42, 0), None);
        assert!(table.install(42, 0, 617, 3));
        assert_eq!(table.probe(42, 0), Some((617, 3)));
        // A generation bump invalidates without any table write.
        assert_eq!(table.probe(42, 1), None);
        // Republish under the new generation.
        assert!(table.install(42, 1, 12, NO_SLOT));
        assert_eq!(table.probe(42, 1), Some((12, NO_SLOT)));
        assert_eq!(table.probe(42, 0), None);
    }

    #[test]
    fn shape_table_remaps_zero_hash() {
        let table = ShapeTable::with_slots(64);
        assert!(table.install(0, 0, 7, 0));
        assert_eq!(table.probe(0, 0), Some((7, 0)));
        // The remap constant and 0 are the same key.
        assert_eq!(table.probe(ZERO_HASH_REMAP, 0), Some((7, 0)));
    }

    #[test]
    fn shape_table_linear_probing_resolves_collisions() {
        let table = ShapeTable::with_slots(64);
        // Same masked start slot, distinct keys.
        let base = 5u64;
        for i in 0..8u64 {
            let key = base + i * 64;
            assert!(table.install(key, 0, i as u16, NO_SLOT));
        }
        for i in 0..8u64 {
            let key = base + i * 64;
            assert_eq!(table.probe(key, 0), Some((i as u16, NO_SLOT)));
            assert_eq!(table.probe_length(key), Some(i + 1));
        }
    }

    #[test]
    fn shape_table_full_window_falls_through() {
        let table = ShapeTable::with_slots(64);
        for i in 0..MAX_PROBES as u64 {
            assert!(table.install(5 + i * 64, 0, 0, NO_SLOT));
        }
        // The probe window for this start slot is now full of other
        // keys: install declines, probe and probe_length report misses.
        assert!(!table.install(5 + 99 * 64, 0, 1, NO_SLOT));
        assert_eq!(table.probe(5 + 99 * 64, 0), None);
        assert_eq!(table.probe_length(5 + 99 * 64), None);
    }

    #[test]
    fn shape_table_invalidation() {
        let table = ShapeTable::with_slots(64);
        assert!(table.install(9, 4, 100, 1));
        table.invalidate_key(9);
        assert_eq!(table.probe(9, 4), None);
        assert!(table.install(9, 4, 101, 1));
        table.invalidate_all();
        assert_eq!(table.probe(9, 4), None);
        // Keys stay claimed: reinstall lands on the same slot.
        assert!(table.install(9, 4, 102, 1));
        assert_eq!(table.probe(9, 4), Some((102, 1)));
    }

    #[test]
    fn cluster_table_behaves_like_a_map() {
        let mut table: ClusterTable<u32> = ClusterTable::with_capacity(4);
        assert!(table.is_empty());
        assert_eq!(table.insert([1, 2, 3], 10), None);
        assert_eq!(table.insert([1, 2, 3], 11), Some(10));
        assert_eq!(table.get(&[1, 2, 3]), Some(&11));
        assert_eq!(table.get(&[0, 0, 0]), None);
        *table.get_or_insert_with([4, 5, 6], || 20) += 1;
        assert_eq!(table.get(&[4, 5, 6]), Some(&21));
        assert_eq!(table.len(), 2);
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.get(&[1, 2, 3]), None);
    }

    #[test]
    fn cluster_table_survives_growth() {
        let mut table: ClusterTable<i64> = ClusterTable::with_capacity(4);
        for i in 0..500i64 {
            table.insert([i, -i, i * 7], i);
        }
        assert_eq!(table.len(), 500);
        for i in 0..500i64 {
            assert_eq!(table.get(&[i, -i, i * 7]), Some(&i), "key {i}");
        }
        assert_eq!(table.iter().count(), 500);
        let sum: i64 = table.iter().map(|(_, v)| *v).sum();
        assert_eq!(sum, (0..500).sum::<i64>());
    }

    #[test]
    fn cluster_table_negative_and_extreme_keys() {
        let mut table: ClusterTable<&'static str> = ClusterTable::new();
        let keys = [
            [i64::MIN, 0, i64::MAX],
            [-1, -1, -1],
            [0, 0, 0],
            [i64::MAX, i64::MAX, i64::MAX],
        ];
        for (i, key) in keys.iter().enumerate() {
            table.insert(*key, ["a", "b", "c", "d"][i]);
        }
        assert_eq!(table.get(&keys[0]), Some(&"a"));
        assert_eq!(table.get(&keys[3]), Some(&"d"));
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn shape_table_concurrent_install_probe() {
        use std::sync::Arc;
        let table = Arc::new(ShapeTable::with_slots(1024));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let table = Arc::clone(&table);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let hash = 1 + i; // all threads install the same keyset
                        table.install(hash, 0, (i % 640) as u16, NO_SLOT);
                        if let Some((config, _)) = table.probe(hash, 0) {
                            assert_eq!(config, (i % 640) as u16, "thread {t}");
                        }
                    }
                });
            }
        });
        for i in 0..200u64 {
            assert_eq!(table.probe(1 + i, 0), Some(((i % 640) as u16, NO_SLOT)));
        }
    }
}
