//! Property tests for the foundation types: each property runs on
//! `CASES` generated inputs, one seeded [`Rng`] per case; a failing case
//! names its seed.

use std::collections::BTreeMap;

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
        4 => DataValue::Str(string(rng, 20, |rng| {
            char::from_u32(rng.range(0x20, 0x7e) as u32)
        })),
        // Strings with escapes and unicode.
        _ => DataValue::Str(string(rng, 7, |rng| {
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
