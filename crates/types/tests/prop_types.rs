//! Property tests for the foundation types: each property runs on
//! `CASES` generated inputs, one seeded [`Rng`] per case; a failing case
//! names its seed.

use std::collections::BTreeMap;
use std::fmt;

use bad_types::eq::{values_equal, EqMap};
use bad_types::rng::Rng;
use bad_types::{ByteSize, DataValue, SimDuration, TimeRange, Timestamp};

const CASES: u64 = 256;

/// A string of up to `max_len` characters drawn by `char` (a draw that
/// is not a character is skipped).
fn string(rng: &mut Rng, max_len: u64, mut char: impl FnMut(&mut Rng) -> Option<char>) -> String {
    (0..rng.range(0, max_len))
        .filter_map(|_| char(rng))
        .collect()
}

/// An arbitrary leaf value.
fn leaf(rng: &mut Rng) -> DataValue {
    match rng.below(6) {
        0 => DataValue::Null,
        1 => DataValue::Bool(rng.below(2) == 1),
        2 => DataValue::Int(rng.next_u64() as i64),
        // Finite floats only: NaN breaks equality, infinities serialize as null.
        3 => DataValue::Float(rng.uniform(-1e12, 1e12)),
        4 => DataValue::from(string(rng, 20, |rng| {
            char::from_u32(rng.range(0x20, 0x7e) as u32)
        })),
        // Strings with escapes and unicode.
        _ => DataValue::from(string(rng, 7, |rng| {
            char::from_u32(rng.below(0x11_0000) as u32)
        })),
    }
}

/// An arbitrary `DataValue` tree at most `depth` containers deep, each
/// container holding up to five children.
fn value(rng: &mut Rng, depth: u32) -> DataValue {
    if depth == 0 || rng.below(3) == 0 {
        return leaf(rng);
    }
    let len = rng.below(6);
    if rng.below(2) == 0 {
        DataValue::array((0..len).map(|_| value(rng, depth - 1)))
    } else {
        let mut fields = BTreeMap::new();
        for _ in 0..len {
            let key = string(rng, 6, |rng| char::from_u32(rng.range(0x61, 0x7a) as u32));
            fields.insert(key, value(rng, depth - 1));
        }
        DataValue::object(fields)
    }
}

/// Printing then parsing a value yields the same value (floats are
/// constrained to a range where `{}` formatting round-trips exactly).
#[test]
fn json_roundtrip() {
    for seed in 0..CASES {
        let v = value(&mut Rng::new(seed), 3);
        let back = DataValue::parse_json(&v.to_json_string()).unwrap();
        assert_eq!(back, v, "seed {seed}");
    }
}

/// The size estimate never panics and grows when a value is wrapped.
#[test]
fn size_estimate_monotone_under_wrapping() {
    for seed in 0..CASES {
        let v = value(&mut Rng::new(seed), 3);
        let inner = v.estimated_size();
        let wrapped = DataValue::object([("w", v)]).estimated_size();
        assert!(wrapped > inner, "seed {seed}");
    }
}

/// A generated value as written: an object keeps its `(name, child)`
/// pairs in order, a name possibly more than once.
enum Raw {
    Leaf(DataValue),
    Array(Vec<Raw>),
    Object(Vec<(String, Raw)>),
}

/// What a [`Raw`] means, objects being `BTreeMap`s: the representation
/// `Fields` replaced, kept as the oracle. Its `==` is the one
/// `DataValue` derived over `BTreeMap` objects.
#[derive(Clone, PartialEq)]
enum Model {
    Leaf(DataValue),
    Array(Vec<Model>),
    Object(BTreeMap<String, Model>),
}

/// `Debug` as `DataValue` derived it over `BTreeMap` objects.
impl fmt::Debug for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Model::Leaf(v) => fmt::Debug::fmt(v, f),
            Model::Array(items) => f.debug_tuple("Array").field(items).finish(),
            Model::Object(map) => f.debug_tuple("Object").field(map).finish(),
        }
    }
}

/// A field name: often one of a few one- or two-letter names, so an
/// object repeats some, else up to six letters.
fn name(rng: &mut Rng) -> String {
    if rng.below(2) == 0 {
        string(rng, 2, |rng| char::from_u32(rng.range(0x61, 0x63) as u32))
    } else {
        string(rng, 6, |rng| char::from_u32(rng.range(0x61, 0x7a) as u32))
    }
}

/// A [`Raw`] tree at most `depth` containers deep, each container
/// holding up to five children; one object in eight holds 33 to 80
/// leaf pairs instead.
fn raw(rng: &mut Rng, depth: u32) -> Raw {
    if depth == 0 || rng.below(3) == 0 {
        return Raw::Leaf(leaf(rng));
    }
    match rng.below(8) {
        0 => Raw::Object(
            (0..rng.range(33, 80))
                .map(|_| (name(rng), Raw::Leaf(leaf(rng))))
                .collect(),
        ),
        1..=3 => Raw::Array((0..rng.below(6)).map(|_| raw(rng, depth - 1)).collect()),
        _ => Raw::Object(
            (0..rng.below(6))
                .map(|_| (name(rng), raw(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// `raw` built through `DataValue::object`.
fn build(raw: &Raw) -> DataValue {
    match raw {
        Raw::Leaf(v) => v.clone(),
        Raw::Array(items) => DataValue::array(items.iter().map(build)),
        Raw::Object(pairs) => DataValue::object(pairs.iter().map(|(k, c)| (k.clone(), build(c)))),
    }
}

/// `raw`'s meaning: of a repeated name the last pair wins.
fn model(raw: &Raw) -> Model {
    match raw {
        Raw::Leaf(v) => Model::Leaf(v.clone()),
        Raw::Array(items) => Model::Array(items.iter().map(model).collect()),
        Raw::Object(pairs) => {
            Model::Object(pairs.iter().map(|(k, c)| (k.clone(), model(c))).collect())
        }
    }
}

/// `raw` as JSON text, every pair in document order.
fn text(raw: &Raw) -> String {
    match raw {
        Raw::Leaf(v) => v.to_json_string(),
        Raw::Array(items) => format!("[{}]", items.iter().map(text).collect::<Vec<_>>().join(",")),
        Raw::Object(pairs) => {
            let pairs: Vec<String> = (pairs.iter())
                .map(|(k, c)| format!("{}: {}", DataValue::from(k.as_str()), text(c)))
                .collect();
            format!("{{ {} }}", pairs.join(", "))
        }
    }
}

/// `model` spelled another way: each object's pairs in reverse order,
/// after a decoy `null` under some of its names that the real pair,
/// coming later, overrides.
fn respell(model: &Model, rng: &mut Rng) -> Raw {
    match model {
        Model::Leaf(v) => Raw::Leaf(v.clone()),
        Model::Array(items) => Raw::Array(items.iter().map(|m| respell(m, rng)).collect()),
        Model::Object(map) => {
            let decoys: Vec<(String, Raw)> = (map.keys())
                .filter(|_| rng.below(2) == 0)
                .map(|k| (k.clone(), Raw::Leaf(DataValue::Null)))
                .collect();
            let real: Vec<(String, Raw)> = (map.iter().rev())
                .map(|(k, m)| (k.clone(), respell(m, rng)))
                .collect();
            Raw::Object(decoys.into_iter().chain(real).collect())
        }
    }
}

/// Compact JSON of `model`, objects in name order.
fn json(model: &Model) -> String {
    match model {
        Model::Leaf(v) => v.to_json_string(),
        Model::Array(items) => {
            format!("[{}]", items.iter().map(json).collect::<Vec<_>>().join(","))
        }
        Model::Object(map) => {
            let pairs: Vec<String> = (map.iter())
                .map(|(k, m)| format!("{}:{}", DataValue::from(k.as_str()), json(m)))
                .collect();
            format!("{{{}}}", pairs.join(","))
        }
    }
}

/// `DataValue::estimated_size` of `model`.
fn size(model: &Model) -> u64 {
    match model {
        Model::Leaf(v) => v.estimated_size(),
        Model::Array(items) => 2 + items.iter().map(size).sum::<u64>(),
        Model::Object(map) => {
            2 + map
                .iter()
                .map(|(k, m)| 3 + k.len() as u64 + size(m))
                .sum::<u64>()
        }
    }
}

/// Asserts that `value` is `model`, reading every object through the
/// `Fields` API: `len`, `is_empty`, iteration both ways, `keys`,
/// `values`, and `get` and `contains_key` on every name and on absent
/// ones.
fn assert_same(value: &DataValue, model: &Model, seed: u64) {
    match model {
        Model::Leaf(v) => assert_eq!(value, v, "seed {seed}"),
        Model::Array(items) => {
            let got = value.as_array().expect("an array");
            assert_eq!(got.len(), items.len(), "seed {seed}");
            got.iter()
                .zip(items)
                .for_each(|(v, m)| assert_same(v, m, seed));
        }
        Model::Object(map) => {
            let fields = value.as_object().expect("an object");
            assert_eq!(fields.len(), map.len(), "seed {seed}");
            assert_eq!(fields.is_empty(), map.is_empty(), "seed {seed}");
            assert_eq!(fields.iter().len(), map.len(), "seed {seed}");
            assert!(fields.keys().eq(map.keys()), "seed {seed}");
            assert!(
                (fields.iter().rev().map(|(k, _)| k)).eq(map.keys().rev()),
                "seed {seed}"
            );
            for ((k, v), (mk, m)) in fields.iter().zip(map) {
                assert_eq!(k, mk, "seed {seed}");
                assert_same(v, m, seed);
            }
            for (v, (k, m)) in fields.values().zip(map) {
                assert_same(v, m, seed);
                assert_same(fields.get(k).expect("a present name"), m, seed);
                assert!(fields.contains_key(k), "seed {seed}: {k:?}");
            }
            for absent in ["", "a", "ab", "zzzzzzz"] {
                if !map.contains_key(absent) {
                    assert_eq!(fields.get(absent), None, "seed {seed}: {absent:?}");
                    assert!(!fields.contains_key(absent), "seed {seed}: {absent:?}");
                }
            }
        }
    }
}

/// `values_equal` as it reads `model`s: numbers by value, the rest by
/// the model's `==`.
fn model_values_equal(a: &Model, b: &Model) -> bool {
    match (a, b) {
        (Model::Leaf(a), Model::Leaf(b)) if a.as_f64().is_some() && b.as_f64().is_some() => {
            a.as_f64() == b.as_f64()
        }
        _ => a == b,
    }
}

/// `Fields` against a `BTreeMap` model on random nested objects, built
/// by `DataValue::object` and by `parse_json`, with repeated names
/// (the last value wins): lookups, iteration order, length, `==`,
/// `values_equal` and the `EqMap` key, `Debug` plain and pretty, JSON,
/// the size estimate, and an edit by `Fields::with`.
#[test]
fn fields_match_a_btreemap_model() {
    let mut previous: Option<(DataValue, Model)> = None;
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let raw = raw(&mut rng, 3);
        let (value, model) = (build(&raw), model(&raw));
        let parsed = DataValue::parse_json(&text(&raw)).unwrap();
        for v in [&value, &parsed] {
            assert_same(v, &model, seed);
            assert_eq!(format!("{v:?}"), format!("{model:?}"), "seed {seed}");
            assert_eq!(format!("{v:#?}"), format!("{model:#?}"), "seed {seed}");
            assert_eq!(v.to_json_string(), json(&model), "seed {seed}");
            assert_eq!(v.estimated_size(), size(&model), "seed {seed}");
        }

        // The same meaning spelled otherwise is `==`, `values_equal`
        // and keyed alike; the previous case's value is none of these
        // unless its model is equal.
        let respelled = build(&respell(&model, &mut rng));
        let mut keyed: EqMap<Vec<u64>> = EqMap::default();
        keyed.get_or_default(&value).push(seed);
        for other in [&parsed, &respelled] {
            assert!(other == &value, "seed {seed}");
            assert!(values_equal(other, &value), "seed {seed}");
            assert_eq!(keyed.get(other), Some(&vec![seed]), "seed {seed}");
        }
        if let Some((prev, prev_model)) = &previous {
            let equal = prev_model == &model;
            assert_eq!(prev == &value, equal, "seed {seed}");
            assert_eq!(
                values_equal(prev, &value),
                model_values_equal(prev_model, &model),
                "seed {seed}"
            );
            if !model_values_equal(prev_model, &model) {
                assert_eq!(keyed.get(prev), None, "seed {seed}");
            }
        }

        // An edit sets one name, present or not, in a new array.
        if let (Some(fields), Model::Object(map)) = (value.as_object(), &model) {
            let name = name(&mut rng);
            let new = leaf(&mut rng);
            let mut edited = map.clone();
            edited.insert(name.clone(), Model::Leaf(new.clone()));
            let got = DataValue::Object(fields.with(name, new));
            assert_same(&got, &Model::Object(edited), seed);
            assert_same(&value, &model, seed);
        }
        previous = Some((value, model));
    }
}

/// Timestamp difference inverts addition for in-range values.
#[test]
fn timestamp_add_sub_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let t = Timestamp::from_micros(rng.below(1 << 50));
        let d = SimDuration::from_micros(rng.below(1 << 40));
        assert_eq!((t + d) - t, d, "seed {seed}");
        assert_eq!((t + d) - d, t, "seed {seed}");
    }
}

/// A closed range contains both endpoints; a half-open one excludes `to`.
#[test]
fn range_endpoint_semantics() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = rng.below(1 << 40);
        let len = rng.range(1, (1 << 30) - 1);
        let from = Timestamp::from_micros(a);
        let to = Timestamp::from_micros(a + len);
        let closed = TimeRange::closed(from, to);
        let open = TimeRange::half_open(from, to);
        assert!(closed.contains(from) && closed.contains(to), "seed {seed}");
        assert!(open.contains(from) && !open.contains(to), "seed {seed}");
        assert!(!closed.is_empty() && !open.is_empty(), "seed {seed}");
    }
}

/// ByteSize saturating arithmetic never underflows.
#[test]
fn bytesize_never_underflows() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let diff = ByteSize::new(a) - ByteSize::new(b);
        assert_eq!(diff.as_u64(), a.saturating_sub(b), "seed {seed}");
    }
}
