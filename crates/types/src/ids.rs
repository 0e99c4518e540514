//! Strongly-typed identifiers for the entities of the BAD platform.
//!
//! Every entity that flows between the data cluster, the brokers and the
//! subscribers carries its own newtype identifier so that, e.g., a
//! [`FrontendSubId`] can never be passed where a [`BackendSubId`] is
//! expected — the distinction between the two is the heart of the broker's
//! subscription-merging logic.

use std::fmt;
use std::marker::PhantomData;

/// Defines a `u64`-backed identifier newtype with the common trait set.
macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        define_id!(@type $(#[$meta])* $name);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
    (@type $(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u64);

        impl $name {
            /// Creates an identifier from its raw integer representation.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw integer behind this identifier.
            pub const fn as_u64(self) -> u64 {
                self.0
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.0
            }
        }
    };
}

define_id!(
    /// An end user ("BAD client") connected to a broker.
    SubscriberId,
    "sub-"
);
define_id!(
    /// A data source publishing records into the data cluster.
    PublisherId,
    "pub-"
);
define_id!(
    /// A parameterized channel registered in the data cluster.
    ChannelId,
    "ch-"
);
define_id!(
    /// A merged, deduplicated subscription the broker holds against the
    /// data cluster. Each backend subscription owns one result cache.
    BackendSubId,
    "bsub-"
);
define_id!(
    @type
    /// An individual subscriber-facing subscription; many frontend
    /// subscriptions may share one [`BackendSubId`].
    ///
    /// The broker's subscription table mints it as `generation << 32 |
    /// slot`: the slot it occupies, and how many times that slot was
    /// freed before, so a handle to a freed subscription never names
    /// the one that reused its slot.
    FrontendSubId
);

impl FrontendSubId {
    /// The id of `slot` at `generation`.
    pub const fn from_parts(slot: u32, generation: u32) -> Self {
        Self(((generation as u64) << 32) | slot as u64)
    }

    /// The slot: the low 32 bits.
    pub const fn slot(self) -> u32 {
        self.0 as u32
    }

    /// The generation: the high 32 bits.
    pub const fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// `fsub-<slot>`, with `.<generation>` appended once the slot was reused.
impl fmt::Display for FrontendSubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.generation() {
            0 => write!(f, "fsub-{}", self.slot()),
            generation => write!(f, "fsub-{}.{generation}", self.slot()),
        }
    }
}

define_id!(
    /// A result object produced by the data cluster for one backend
    /// subscription.
    ObjectId,
    "obj-"
);

/// The splitmix64 finalizer: a bijection on `u64` whose every output
/// bit depends on every input bit, so consecutive identifiers spread
/// evenly whichever bits a consumer reads. Routes caches to shards
/// and drives [`crate::rng::Rng`].
pub const fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A table keyed by an identifier the system mints (a [`BackendSubId`]
/// off the cluster's counter, say): a `Vec` indexed by the raw id, so a
/// lookup is one bounds check — no hash, no tree walk — and iteration
/// is in id order.
///
/// A lookup never grows the slab: an id nobody minted, even
/// `u64::MAX`, reads as absent. Only [`IdSlab::insert`] and
/// [`IdSlab::get_or_insert_with`] grow it, to the id they are given, so
/// they must only ever see ids off the system's own counters. A removed
/// entry leaves its slot behind (`size_of::<Option<V>>()` bytes); box
/// `V` when it is large.
///
/// # Examples
///
/// ```
/// use bad_types::ids::IdSlab;
/// use bad_types::BackendSubId;
///
/// let mut slab: IdSlab<BackendSubId, &str> = IdSlab::new();
/// slab.insert(BackendSubId::new(3), "c");
/// slab.insert(BackendSubId::new(1), "a");
/// assert_eq!(slab.get(BackendSubId::new(3)), Some(&"c"));
/// assert_eq!(slab.get(BackendSubId::new(u64::MAX)), None);
/// let ids: Vec<u64> = slab.iter().map(|(id, _)| id.as_u64()).collect();
/// assert_eq!(ids, [1, 3]);
/// ```
#[derive(Clone)]
pub struct IdSlab<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    key: PhantomData<fn(K) -> K>,
}

impl<K, V> Default for IdSlab<K, V> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            len: 0,
            key: PhantomData,
        }
    }
}

impl<K: Copy + Into<u64> + From<u64>, V> IdSlab<K, V> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot index of `id`, if it fits the address space.
    fn index(id: K) -> Option<usize> {
        usize::try_from(id.into()).ok()
    }

    /// The value under `id`, if any.
    pub fn get(&self, id: K) -> Option<&V> {
        self.slots.get(Self::index(id)?)?.as_ref()
    }

    /// The value under `id`, mutably, if any.
    pub fn get_mut(&mut self, id: K) -> Option<&mut V> {
        self.slots.get_mut(Self::index(id)?)?.as_mut()
    }

    /// The slot of a minted `id` in `slots`, growing them up to it.
    fn slot_in(slots: &mut Vec<Option<V>>, id: K) -> &mut Option<V> {
        let index = Self::index(id).expect("a minted id fits the address space");
        if index >= slots.len() {
            slots.resize_with(index + 1, || None);
        }
        &mut slots[index]
    }

    /// Stores `value` under the minted `id`, returning what it replaced.
    pub fn insert(&mut self, id: K, value: V) -> Option<V> {
        let old = Self::slot_in(&mut self.slots, id).replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value under the minted `id`, stored first from `make` when
    /// the slot is empty.
    pub fn get_or_insert_with(&mut self, id: K, make: impl FnOnce() -> V) -> &mut V {
        let slot = Self::slot_in(&mut self.slots, id);
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(make)
    }

    /// Takes the value out of `id`'s slot; the slot stays, empty.
    pub fn remove(&mut self, id: K) -> Option<V> {
        let old = self.slots.get_mut(Self::index(id)?)?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The occupied slots, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((K::from(i as u64), slot.as_ref()?)))
    }

    /// The occupied slots, mutably, in id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| Some((K::from(i as u64), slot.as_mut()?)))
    }

    /// The values, in id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// The values, mutably, in id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }
}

impl<K: Copy + Into<u64> + From<u64> + fmt::Debug, V: fmt::Debug> fmt::Debug for IdSlab<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A monotonically increasing generator for any of the identifier types.
///
/// # Examples
///
/// ```
/// use bad_types::ids::IdGen;
/// use bad_types::ObjectId;
///
/// let mut gen = IdGen::new();
/// let a: ObjectId = gen.next_id();
/// let b: ObjectId = gen.next_id();
/// assert_ne!(a, b);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdGen {
    next: u64,
}

impl IdGen {
    /// Creates a generator starting at zero.
    pub const fn new() -> Self {
        Self { next: 0 }
    }

    /// Creates a generator whose first identifier is `start`.
    pub const fn starting_at(start: u64) -> Self {
        Self { next: start }
    }

    /// Returns the next identifier, converting into any `From<u64>` id type.
    pub fn next_id<T: From<u64>>(&mut self) -> T {
        let raw = self.next;
        self.next += 1;
        T::from(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_prefix() {
        assert_eq!(SubscriberId::new(7).to_string(), "sub-7");
        assert_eq!(BackendSubId::new(0).to_string(), "bsub-0");
    }

    #[test]
    fn roundtrip_u64() {
        let id = ObjectId::from(42u64);
        assert_eq!(u64::from(id), 42);
        assert_eq!(id.as_u64(), 42);
    }

    #[test]
    fn idgen_is_monotonic() {
        let mut g = IdGen::new();
        let ids: Vec<ObjectId> = (0..100).map(|_| g.next_id()).collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn idgen_starting_at() {
        let mut g = IdGen::starting_at(10);
        let id: ChannelId = g.next_id();
        assert_eq!(id.as_u64(), 10);
    }

    #[test]
    fn slab_lookups_never_grow_it() {
        let mut slab: IdSlab<BackendSubId, u32> = IdSlab::new();
        slab.insert(BackendSubId::new(2), 20);
        for raw in [0, 1, 3, 1 << 40, u64::MAX] {
            assert_eq!(slab.get(BackendSubId::new(raw)), None);
            assert_eq!(slab.get_mut(BackendSubId::new(raw)), None);
            assert_eq!(slab.remove(BackendSubId::new(raw)), None);
        }
        assert_eq!(slab.slots.len(), 3);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn slab_is_a_map_in_id_order() {
        let mut slab: IdSlab<BackendSubId, u32> = IdSlab::new();
        for raw in [5u64, 1, 3] {
            assert_eq!(slab.insert(BackendSubId::new(raw), raw as u32), None);
        }
        assert_eq!(slab.insert(BackendSubId::new(3), 30), Some(3));
        assert_eq!(slab.len(), 3);
        *slab.get_or_insert_with(BackendSubId::new(1), || 99) += 10;
        *slab.get_or_insert_with(BackendSubId::new(0), || 7) += 1;
        assert_eq!(slab.len(), 4);
        let all: Vec<(u64, u32)> = slab.iter().map(|(id, &v)| (id.as_u64(), v)).collect();
        assert_eq!(all, [(0, 8), (1, 11), (3, 30), (5, 5)]);
        assert_eq!(slab.remove(BackendSubId::new(1)), Some(11));
        assert_eq!(slab.get(BackendSubId::new(1)), None);
        assert_eq!(slab.len(), 3);
        for v in slab.values_mut() {
            *v += 1;
        }
        assert_eq!(slab.values().copied().collect::<Vec<_>>(), [9, 31, 6]);
        assert_eq!(
            format!("{slab:?}"),
            "{BackendSubId(0): 9, BackendSubId(3): 31, BackendSubId(5): 6}"
        );
    }

    #[test]
    fn frontend_ids_pack_slot_and_generation() {
        let id = FrontendSubId::from_parts(7, 0);
        assert_eq!((id.slot(), id.generation()), (7, 0));
        assert_eq!(id, FrontendSubId::new(7));
        assert_eq!(id.to_string(), "fsub-7");
        let reused = FrontendSubId::from_parts(7, 3);
        assert_eq!(reused.as_u64(), (3 << 32) | 7);
        assert_eq!((reused.slot(), reused.generation()), (7, 3));
        assert_eq!(reused.to_string(), "fsub-7.3");
        assert_eq!(FrontendSubId::new(u64::MAX).slot(), u32::MAX);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(SubscriberId::new(1));
        set.insert(SubscriberId::new(1));
        set.insert(SubscriberId::new(2));
        assert_eq!(set.len(), 2);
        assert!(SubscriberId::new(1) < SubscriberId::new(2));
    }
}
