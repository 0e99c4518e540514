//! Strongly-typed identifiers for the entities of the BAD platform.
//!
//! Every entity that flows between the data cluster, the brokers and the
//! subscribers carries its own newtype identifier so that, e.g., a
//! [`FrontendSubId`] can never be passed where a [`BackendSubId`] is
//! expected — the distinction between the two is the heart of the broker's
//! subscription-merging logic.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::marker::PhantomData;

/// Defines a `u64`-backed identifier newtype with the common trait set.
macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
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

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
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
    /// An individual subscriber-facing subscription; many frontend
    /// subscriptions may share one [`BackendSubId`].
    FrontendSubId,
    "fsub-"
);
define_id!(
    /// A result object produced by the data cluster for one backend
    /// subscription.
    ObjectId,
    "obj-"
);

/// The splitmix64 finalizer: a bijection on `u64` whose every output
/// bit depends on every input bit, so consecutive identifiers spread
/// evenly whichever bits a consumer reads. Routes caches to shards,
/// drives [`crate::rng::Rng`] and hashes [`IdMap`] keys.
pub const fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A [`Hasher`] for identifier keys: each `u64` written goes through
/// [`mix64`] together with the state so far, so the parts of a tuple
/// key chain (`(a, b)` and `(b, a)` hash differently). Unkeyed — see
/// [`IdMap`] for which tables may use it.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Identifiers the system mints itself, from an [`IdGen`] counter a
/// client cannot steer: the only keys an [`IdMap`] accepts.
pub trait MintedId {}

impl MintedId for FrontendSubId {}
impl MintedId for BackendSubId {}
impl MintedId for ObjectId {}

/// Builds [`IdHasher`]s — but only for [`MintedId`] keys, which is what
/// keeps an `IdMap<SubscriberId, _>` from compiling.
pub struct IdBuildHasher<K>(PhantomData<fn(K)>);

impl<K: MintedId> BuildHasher for IdBuildHasher<K> {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher::default()
    }
}

impl<K: MintedId> Default for IdBuildHasher<K> {
    fn default() -> Self {
        Self(PhantomData)
    }
}

impl<K> Clone for IdBuildHasher<K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K> Copy for IdBuildHasher<K> {}

impl<K> fmt::Debug for IdBuildHasher<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("IdBuildHasher")
    }
}

/// A `HashMap` hashed by [`IdHasher`] instead of SipHash, for tables on
/// the per-request path whose keys are all [`MintedId`]s.
///
/// The rule: splitmix64 is a public bijection, so whoever chooses the
/// keys can choose the buckets. A table keyed — even in part — by a
/// value a client supplies ([`SubscriberId`], channel names, parameter
/// strings) must stay on the keyed default hasher; `IdMap` is for keys
/// that come off the system's own counters and nothing else.
///
/// ```compile_fail
/// use bad_types::ids::IdMap;
/// use bad_types::SubscriberId;
///
/// // A client picks its own subscriber id: not a minted key.
/// let mut by_subscriber: IdMap<SubscriberId, u32> = IdMap::default();
/// by_subscriber.insert(SubscriberId::new(1), 1);
/// ```
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher<K>>;

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

    fn id_hash<T: std::hash::Hash>(key: T) -> u64 {
        let mut hasher = IdHasher::default();
        key.hash(&mut hasher);
        hasher.finish()
    }

    /// Pearson's χ² of `counts` against a uniform spread.
    fn chi_squared(counts: &[u32]) -> f64 {
        let total: u32 = counts.iter().sum();
        let expected = f64::from(total) / counts.len() as f64;
        counts
            .iter()
            .map(|&c| (f64::from(c) - expected).powi(2) / expected)
            .sum()
    }

    /// hashbrown picks the bucket from the low bits of the hash and the
    /// control byte from its top seven, so both ends must spread the
    /// ids an [`IdGen`] hands out: 0, 1, 2, … Bound: five standard
    /// deviations above the mean of a χ² with `buckets − 1` degrees of
    /// freedom (mean `d`, variance `2d`).
    #[test]
    fn sequential_ids_spread_over_low_and_top_bits() {
        const IDS: u64 = 1 << 16;
        let bound = |buckets: usize| {
            let d = (buckets - 1) as f64;
            d + 5.0 * (2.0 * d).sqrt()
        };
        for k in [4u32, 8, 10, 12] {
            let mut low = vec![0u32; 1 << k];
            for raw in 0..IDS {
                low[(id_hash(BackendSubId::new(raw)) & ((1 << k) - 1)) as usize] += 1;
            }
            let chi = chi_squared(&low);
            assert!(chi < bound(1 << k), "low {k} bits: χ² = {chi}");
        }
        let mut top = vec![0u32; 128];
        for raw in 0..IDS {
            top[(id_hash(FrontendSubId::new(raw)) >> 57) as usize] += 1;
        }
        let chi = chi_squared(&top);
        assert!(chi < bound(128), "top 7 bits: χ² = {chi}");
    }

    #[test]
    fn id_hash_is_the_mix_and_tuple_parts_chain() {
        assert_eq!(id_hash(ObjectId::new(5)), mix64(5));
        let (a, b) = (FrontendSubId::new(1), FrontendSubId::new(2));
        assert_eq!(id_hash((a, b)), mix64(mix64(1) ^ 2));
        assert_ne!(id_hash((a, b)), id_hash((b, a)));
        // Bytes fold through the same mix, a word at a time.
        let mut hasher = IdHasher::default();
        hasher.write(&7u64.to_le_bytes());
        assert_eq!(hasher.finish(), mix64(7));
    }

    #[test]
    fn id_map_is_a_hash_map_over_minted_keys() {
        let mut map: IdMap<BackendSubId, u32> = IdMap::default();
        for raw in 0..1000 {
            map.insert(BackendSubId::new(raw), raw as u32);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&BackendSubId::new(999)), Some(&999));
        assert_eq!(map.remove(&BackendSubId::new(0)), Some(0));
        assert!(!map.contains_key(&BackendSubId::new(0)));
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
