//! Equality as BQL's `==` sees it, and maps keyed by it.
//!
//! `==` is structural except that two numbers compare by their `f64`
//! value, so `3 == 3.0` and `-0.0 == 0`. The channel matcher partitions
//! subscriptions by a bound value and the enrichment join indexes rows
//! by a field's value; both use an [`EqMap`], so a lookup finds every
//! value `==` could call equal.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use crate::value::DataValue;

/// BQL's `==`: structural equality with int/float numeric coercion.
pub fn values_equal(l: &DataValue, r: &DataValue) -> bool {
    match (l, r) {
        (DataValue::Int(_) | DataValue::Float(_), DataValue::Int(_) | DataValue::Float(_)) => {
            l.as_f64() == r.as_f64()
        }
        _ => l == r,
    }
}

/// A value's key under [`values_equal`]. Values `==` calls equal always
/// share a key. Numbers and strings sharing a key are equal, except
/// `NaN`, which equals nothing; anything else only narrows, and `==`
/// decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EqKey<'a> {
    /// A number, by its `f64` bits with `-0.0` folded into `0.0`.
    Number(u64),
    /// A string, by content.
    Str(&'a str),
    /// Anything else, by a structural hash.
    Other(u64),
}

impl<'a> EqKey<'a> {
    /// The key of `value`. Numbers and strings allocate nothing.
    fn of(value: &'a DataValue) -> Self {
        match value {
            DataValue::Int(_) | DataValue::Float(_) => EqKey::Number(number_bits(value)),
            DataValue::Str(s) => EqKey::Str(s),
            other => {
                let mut hasher = DefaultHasher::new();
                hash_structure(other, &mut hasher);
                EqKey::Other(hasher.finish())
            }
        }
    }
}

fn number_bits(value: &DataValue) -> u64 {
    let x = value.as_f64().expect("numeric");
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// Feeds `value` to `hasher` so that values equal under the derived
/// `==` (which calls `0.0` and `-0.0` equal) hash alike.
fn hash_structure(value: &DataValue, hasher: &mut DefaultHasher) {
    match value {
        DataValue::Null => 0u8.hash(hasher),
        DataValue::Bool(b) => (1u8, b).hash(hasher),
        DataValue::Int(_) | DataValue::Float(_) => (2u8, number_bits(value)).hash(hasher),
        DataValue::Str(s) => (3u8, s).hash(hasher),
        DataValue::Array(items) => {
            (4u8, items.len()).hash(hasher);
            items.iter().for_each(|item| hash_structure(item, hasher));
        }
        DataValue::Object(map) => {
            (5u8, map.len()).hash(hasher);
            for (k, v) in map.iter() {
                k.hash(hasher);
                hash_structure(v, hasher);
            }
        }
    }
}

/// A map from values, keyed as [`values_equal`] compares them: numbers
/// by their `f64` bits with `-0.0` folded into `0.0`, strings by
/// content, anything else by a structural hash. `get(v)` is the entry of
/// every value that shares `v`'s key, which holds every value `==` `v`;
/// for numbers other than `NaN` and for strings it holds nothing else,
/// for the rest the caller compares. Each kind of key has its own
/// `BTreeMap`, so iteration order is deterministic.
#[derive(Clone, Debug)]
pub struct EqMap<V> {
    numbers: BTreeMap<u64, V>,
    strings: BTreeMap<String, V>,
    others: BTreeMap<u64, V>,
}

impl<V> Default for EqMap<V> {
    fn default() -> Self {
        Self {
            numbers: BTreeMap::new(),
            strings: BTreeMap::new(),
            others: BTreeMap::new(),
        }
    }
}

impl<V> EqMap<V> {
    /// The entry of `value`'s key. Allocates nothing.
    pub fn get(&self, value: &DataValue) -> Option<&V> {
        match EqKey::of(value) {
            EqKey::Number(bits) => self.numbers.get(&bits),
            EqKey::Str(s) => self.strings.get(s),
            EqKey::Other(hash) => self.others.get(&hash),
        }
    }

    /// The entry of `value`'s key, created empty if missing.
    pub fn get_or_default(&mut self, value: &DataValue) -> &mut V
    where
        V: Default,
    {
        match EqKey::of(value) {
            EqKey::Number(bits) => self.numbers.entry(bits).or_default(),
            EqKey::Str(s) => {
                // Looked up first so an existing string key is not copied.
                if !self.strings.contains_key(s) {
                    self.strings.insert(s.to_owned(), V::default());
                }
                self.strings.get_mut(s).expect("inserted above")
            }
            EqKey::Other(hash) => self.others.entry(hash).or_default(),
        }
    }

    /// Every entry: numbers, then strings, then the rest.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.numbers
            .values()
            .chain(self.strings.values())
            .chain(self.others.values())
    }

    /// Every entry, mutably, in [`EqMap::values`] order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.numbers
            .values_mut()
            .chain(self.strings.values_mut())
            .chain(self.others.values_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(v: DataValue) -> DataValue {
        DataValue::object([("a", v)])
    }

    #[test]
    fn equal_values_share_a_key() {
        let pairs = [
            (DataValue::from(3i64), DataValue::from(3.0)),
            (DataValue::from(0i64), DataValue::from(-0.0)),
            (DataValue::from("x"), DataValue::from("x")),
            (DataValue::Null, DataValue::Null),
            (obj(DataValue::from(0.0)), obj(DataValue::from(-0.0))),
            (
                DataValue::array([DataValue::from(true)]),
                DataValue::array([DataValue::from(true)]),
            ),
        ];
        for (a, b) in &pairs {
            assert!(values_equal(a, b), "{a} == {b}");
            assert_eq!(EqKey::of(a), EqKey::of(b), "{a} and {b}");
        }
    }

    #[test]
    fn numbers_and_strings_are_exact_keys() {
        assert_ne!(
            EqKey::of(&DataValue::from(3i64)),
            EqKey::of(&DataValue::from(3.5))
        );
        assert_ne!(
            EqKey::of(&DataValue::from("3")),
            EqKey::of(&DataValue::from(3i64))
        );
        // NaN shares its key with itself but equals nothing.
        let nan = DataValue::from(f64::NAN);
        assert_eq!(EqKey::of(&nan), EqKey::of(&nan));
        assert!(!values_equal(&nan, &nan));
    }

    #[test]
    fn map_finds_every_equal_value() {
        let mut map: EqMap<Vec<u32>> = EqMap::default();
        for (i, v) in [
            DataValue::from(3i64),
            DataValue::from("3"),
            DataValue::from(3.0),
            obj(DataValue::from(1i64)),
        ]
        .iter()
        .enumerate()
        {
            map.get_or_default(v).push(i as u32);
        }
        assert_eq!(map.get(&DataValue::from(3.0)), Some(&vec![0, 2]));
        assert_eq!(map.get(&DataValue::from("3")), Some(&vec![1]));
        assert_eq!(map.get(&obj(DataValue::from(1i64))), Some(&vec![3]));
        assert_eq!(map.get(&DataValue::from(4i64)), None);
        assert_eq!(map.values().count(), 3);
    }
}
