//! Heap allocations on the ingest path, counted (and their bytes
//! summed) by a global allocator that forwards to `System`. Each
//! thread keeps its own counts, and only inside [`measured`], so neither
//! libtest's threads nor the target's other test, running beside it,
//! enter a count.
//!
//! * Matching a record against an index whose candidates all reject it
//!   allocates nothing once warm: fields and parameters are borrowed,
//!   the partition is found without building a key, the bindings were
//!   checked when the subscriptions were added, the regions the
//!   prefilter tests were parsed then too, and a string literal is
//!   shared with the predicate.
//! * An enrichment allocates the same number of times and the same
//!   bytes whether the rows it embeds are small or large and whether
//!   the report it enriches carries a short or a long string: a row is
//!   shared, not copied, and so is each of the report's strings.
//! * An object holds its fields in one array sized to its field count,
//!   built by `DataValue::object` or `parse_json`, and an enrichment
//!   builds the enriched object's array once, at its final size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::thread::LocalKey;

use bad_cluster::{EnrichmentRule, MatchIndex};
use bad_query::{ChannelSpec, ParamBindings};
use bad_storage::{Dataset, Schema};
use bad_types::{BackendSubId, BoundingBox, DataValue, GeoPoint, Timestamp};
use bad_workload::TABLE_III_CHANNELS;

thread_local! {
    /// Whether this thread's allocations are counted, and what it
    /// allocated and freed while they were. Each thread counts its own,
    /// so a test running beside another never sees the other's. A
    /// `const` `Cell` needs no lazy initialization and no destructor, so
    /// touching one inside the allocator allocates nothing.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<Allocated> = const { Cell::new(Allocated::NONE) };
    static FREED: Cell<Allocated> = const { Cell::new(Allocated::NONE) };
}

/// Adds one block of `bytes` to `total`, if this thread is counting.
fn count(total: &'static LocalKey<Cell<Allocated>>, bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = total.try_with(|total| {
            let Allocated { count, bytes: sum } = total.get();
            total.set(Allocated {
                count: count + 1,
                bytes: sum + bytes as u64,
            });
        });
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the layout and pointer contracts the caller upholds are the ones
// `System` needs; counting reads and writes thread-local cells, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATED, layout.size());
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATED, layout.size());
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&FREED, layout.size());
        count(&ALLOCATED, new_size);
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`; both are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(&FREED, layout.size());
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many allocations, of how many bytes in all (a reallocation
/// counts its new size).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Allocated {
    count: u64,
    bytes: u64,
}

impl Allocated {
    const NONE: Allocated = Allocated { count: 0, bytes: 0 };
}

/// Runs `f` on this thread with counting on and returns what it
/// allocated and what it freed, with its result (dropped by the caller,
/// outside the count).
fn measured<R>(f: impl FnOnce() -> R) -> ((Allocated, Allocated), R) {
    ALLOCATED.set(Allocated::NONE);
    FREED.set(Allocated::NONE);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    ((ALLOCATED.get(), FREED.get()), out)
}

/// Runs `f` and returns what it allocated, with its result.
fn allocations<R>(f: impl FnOnce() -> R) -> (Allocated, R) {
    let ((allocated, _), out) = measured(f);
    (allocated, out)
}

/// Runs `f` and returns what its result still holds of what `f`
/// allocated: the allocations not freed before it returned.
fn held<R>(f: impl FnOnce() -> R) -> (Allocated, R) {
    let ((allocated, freed), out) = measured(f);
    let held = Allocated {
        count: allocated.count - freed.count,
        bytes: allocated.bytes - freed.bytes,
    };
    (held, out)
}

fn t(secs: u64) -> Timestamp {
    Timestamp::from_secs(secs)
}

fn channel(name: &str) -> ChannelSpec {
    let bql = TABLE_III_CHANNELS
        .iter()
        .find(|bql| bql.starts_with(&format!("channel {name}(")))
        .unwrap();
    ChannelSpec::parse(bql).unwrap()
}

/// `spec`'s index holding one subscription per binding set.
fn index(spec: &ChannelSpec, subs: Vec<ParamBindings>) -> MatchIndex {
    let mut index = MatchIndex::new(spec);
    for (i, params) in subs.into_iter().enumerate() {
        let id = BackendSubId::new(i as u64);
        index.add(spec, id, params, Timestamp::ZERO).unwrap();
    }
    index
}

/// Every candidate rejects — evaluated, or skipped by the region
/// prefilter — and nothing is allocated.
fn assert_rejecting_match_allocates_nothing() {
    let city = BoundingBox::new(GeoPoint::new(33.0, -118.0), GeoPoint::new(34.0, -117.0));
    let near = channel("EmergenciesNearLocation");
    let severe = channel("SevereEmergencies");
    // No partition key: every candidate evaluates the literal.
    let fires = ChannelSpec::parse(
        "channel Fires(minsev: int) from EmergencyReports r \
         where r.kind == \"fire\" and r.severity >= $minsev select r",
    )
    .unwrap();
    let near_subs = city
        .grid(4)
        .into_iter()
        .map(|cell| {
            ParamBindings::from_pairs([
                ("etype", DataValue::from("fire")),
                ("area", cell.to_value()),
            ])
        })
        .collect();
    let minsev_subs = || {
        (3..8i64)
            .map(|min| ParamBindings::from_pairs([("minsev", DataValue::from(min))]))
            .collect()
    };
    let record = |kind: &str, location: DataValue| {
        DataValue::object([
            ("kind", DataValue::from(kind)),
            ("severity", DataValue::from(2i64)),
            ("district", DataValue::from("district-0")),
            ("location", location),
            ("body", DataValue::from("x".repeat(200))),
        ])
    };
    let outside = record("fire", GeoPoint::new(35.0, -117.5).to_value());
    // A null location defeats the prefilter: every candidate is evaluated.
    let unlocated = record("fire", DataValue::Null);
    let flood = record("flood", DataValue::Null);
    let mut indexes = [
        (index(&near, near_subs), &near),
        (index(&severe, minsev_subs()), &severe),
        (index(&fires, minsev_subs()), &fires),
    ];
    for (at, record, evaluated) in [
        (0, &outside, 0),
        (0, &unlocated, 16),
        (1, &outside, 5),
        (2, &flood, 5),
    ] {
        let (index, spec) = &mut indexes[at];
        // Warm-up.
        assert!(index
            .matching_subscriptions(spec, record)
            .unwrap()
            .is_empty());
        let before = index.evaluations;
        let (allocated, matched) = allocations(|| index.matching_subscriptions(spec, record));
        assert!(matched.unwrap().is_empty());
        assert_eq!(index.evaluations - before, evaluated, "{}", spec.name());
        assert_eq!(allocated.count, 0, "{}: {allocated:?}", spec.name());
    }
}

/// Three shelters of district 0, each with `fields` padding fields of
/// `pad` bytes and an array of `fields` numbers.
fn shelters(fields: usize, pad: usize) -> Dataset {
    let mut ds = Dataset::new("Shelters", Schema::open());
    ds.index_field("district");
    for sec in 1..=3 {
        let mut row = vec![
            ("district".to_owned(), DataValue::from("district-0")),
            (
                "beds".to_owned(),
                DataValue::array((0..fields as i64).map(DataValue::from)),
            ),
        ];
        row.extend((0..fields).map(|i| (format!("f{i}"), DataValue::from("x".repeat(pad)))));
        ds.insert(t(sec), DataValue::object(row)).unwrap();
    }
    ds
}

/// The join's allocations, and their bytes, depend neither on how large
/// the joined rows are nor on how long the report's strings are.
fn assert_enrichment_allocations_do_not_grow_with_rows_or_report() {
    let rule = EnrichmentRule::join(
        "DistrictEmergencies",
        "Shelters",
        "district",
        "district",
        "shelters",
        3,
    );
    let report = |body: usize| {
        DataValue::object([
            ("kind", DataValue::from("fire")),
            ("district", DataValue::from("district-0")),
            ("location", GeoPoint::new(33.1, -117.9).to_value()),
            ("body", DataValue::from("x".repeat(body))),
        ])
    };
    let runs: Vec<(Allocated, u64)> = [(2, 4, 20), (200, 400, 20), (2, 4, 2000)]
        .into_iter()
        .map(|(fields, pad, body)| {
            let aux = shelters(fields, pad);
            let report = report(body);
            let size = report.estimated_size();
            rule.apply(&report, size, &aux, t(10)); // warm-up
            let (allocated, (enriched, _)) = allocations(|| rule.apply(&report, size, &aux, t(10)));
            let embedded = enriched.get("shelters").unwrap().as_array().unwrap();
            assert_eq!(embedded.len(), 3);
            (allocated, enriched.estimated_size())
        })
        .collect();
    let [(small, small_size), (large_rows, large_rows_size), (long_body, long_body_size)] =
        runs[..]
    else {
        unreachable!()
    };
    assert!(large_rows_size > 100 * small_size);
    assert!(long_body_size > small_size + 1900);
    assert_eq!(small, large_rows, "small rows, then large rows");
    assert_eq!(small, long_body, "a 20-B body, then a 2-KB body");
}

#[test]
fn ingest_allocations() {
    assert_rejecting_match_allocates_nothing();
    assert_enrichment_allocations_do_not_grow_with_rows_or_report();
}

/// The bytes of an object's array of `n` fields: the `Arc`'s two
/// counts, then the `(name, value)` pairs, with no spare slot.
fn field_array(n: usize) -> u64 {
    (2 * size_of::<usize>() + n * size_of::<(String, DataValue)>()) as u64
}

/// The bytes `value`'s field names hold.
fn name_bytes(value: &DataValue) -> u64 {
    let fields = value.as_object().expect("an object");
    fields.keys().map(|k| k.capacity() as u64).sum()
}

/// A two-field object holds one allocation per field name and one
/// array for its fields, sized to its field count, however it was
/// built; a name given twice leaves nothing of its first value behind.
fn assert_an_object_holds_one_exactly_sized_array() {
    type Build = fn() -> DataValue;
    let builds: [(&str, usize, Build); 3] = [
        ("DataValue::object", 2, || {
            DataValue::object([("b", DataValue::from(1i64)), ("a", DataValue::from(2i64))])
        }),
        ("parse_json", 2, || {
            DataValue::parse_json(r#"{"b": 1, "a": 2}"#).unwrap()
        }),
        ("parse_json, a name twice", 1, || {
            DataValue::parse_json(r#"{"a": 1, "a": 2}"#).unwrap()
        }),
    ];
    for (how, len, build) in builds {
        build(); // warm-up
        let (held, value) = held(build);
        assert_eq!(value.as_object().unwrap().len(), len, "{how}");
        let want = Allocated {
            count: len as u64 + 1,
            bytes: name_bytes(&value) + field_array(len),
        };
        assert_eq!(held, want, "{how}: {value:?}");
    }
}

/// An enrichment allocates the enriched object's field names (the
/// report's, copied, and the embedded one), the joined rows' list and
/// one field array, at its final size: no temporary copy of the
/// report's fields.
fn assert_enrichment_builds_one_field_array() {
    let rule = EnrichmentRule::join(
        "DistrictEmergencies",
        "Shelters",
        "district",
        "district",
        "shelters",
        3,
    );
    let aux = shelters(2, 4);
    let report = DataValue::object([
        ("kind", DataValue::from("fire")),
        ("district", DataValue::from("district-0")),
        ("body", DataValue::from("x".repeat(20))),
    ]);
    let size = report.estimated_size();
    rule.apply(&report, size, &aux, t(10)); // warm-up
    let (allocated, (enriched, _)) = allocations(|| rule.apply(&report, size, &aux, t(10)));
    let Some(DataValue::Array(rows)) = enriched.get("shelters") else {
        panic!("no rows embedded: {enriched}")
    };
    assert_eq!(rows.len(), 3);
    assert_eq!(enriched.as_object().unwrap().len(), 4);
    let list = (rows.capacity() * size_of::<DataValue>()) as u64;
    let list_arc = (2 * size_of::<usize>() + size_of::<Vec<DataValue>>()) as u64;
    let fields = enriched.as_object().unwrap().len();
    // One per field name, then the list, its `Arc` and the array.
    let want = Allocated {
        count: fields as u64 + 3,
        bytes: name_bytes(&enriched) + list + list_arc + field_array(fields),
    };
    assert_eq!(allocated, want);
}

#[test]
fn objects_hold_one_field_array() {
    assert_eq!(size_of::<DataValue>(), 24, "a value is three words");
    assert_an_object_holds_one_exactly_sized_array();
    assert_enrichment_builds_one_field_array();
}
