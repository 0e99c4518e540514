//! Heap allocations on the ingest path, counted by a global allocator
//! that forwards to `System`. This target holds a single test, so the
//! count is not shared with a concurrently running one.
//!
//! * Matching a record against an index whose candidates all reject it
//!   allocates nothing once warm: fields and parameters are borrowed,
//!   the partition is found without building a key, the bindings were
//!   checked when the subscriptions were added, and the regions the
//!   prefilter tests were parsed then too.
//! * An enrichment allocates the same number of times whether the rows
//!   it embeds are small or large: a row is shared, not copied.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bad_cluster::{EnrichmentRule, MatchIndex};
use bad_query::{ChannelSpec, ParamBindings};
use bad_storage::{Dataset, Schema};
use bad_types::{BackendSubId, BoundingBox, DataValue, GeoPoint, Timestamp};
use bad_workload::TABLE_III_CHANNELS;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the layout and pointer contracts the caller upholds are the ones
// `System` needs; counting is one atomic add, which neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`; both are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns how many allocations it made, with its result
/// (dropped by the caller, outside the count).
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
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
    let severe_subs = (3..8i64)
        .map(|min| ParamBindings::from_pairs([("minsev", DataValue::from(min))]))
        .collect();
    let record = |location: DataValue| {
        DataValue::object([
            ("kind", DataValue::from("fire")),
            ("severity", DataValue::from(2i64)),
            ("district", DataValue::from("district-0")),
            ("location", location),
            ("body", DataValue::from("x".repeat(200))),
        ])
    };
    let outside = record(GeoPoint::new(35.0, -117.5).to_value());
    // A null location defeats the prefilter: every candidate is evaluated.
    let unlocated = record(DataValue::Null);
    let mut indexes = [
        (index(&near, near_subs), &near),
        (index(&severe, severe_subs), &severe),
    ];
    for (at, record, evaluated) in [(0, &outside, 0), (0, &unlocated, 16), (1, &outside, 5)] {
        let (index, spec) = &mut indexes[at];
        // Warm-up.
        assert!(index
            .matching_subscriptions(spec, record)
            .unwrap()
            .is_empty());
        let before = index.evaluations;
        let (count, matched) = allocations(|| index.matching_subscriptions(spec, record));
        assert!(matched.unwrap().is_empty());
        assert_eq!(index.evaluations - before, evaluated, "{}", spec.name());
        assert_eq!(count, 0, "{}: {count} allocations", spec.name());
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

/// The join's allocations do not depend on how large the joined rows are.
fn assert_enrichment_allocations_do_not_grow_with_rows() {
    let rule = EnrichmentRule::join(
        "DistrictEmergencies",
        "Shelters",
        "district",
        "district",
        "shelters",
        3,
    );
    let report = DataValue::object([
        ("kind", DataValue::from("fire")),
        ("district", DataValue::from("district-0")),
        ("location", GeoPoint::new(33.1, -117.9).to_value()),
    ]);
    let counts: Vec<(u64, u64)> = [(2, 4), (200, 400)]
        .into_iter()
        .map(|(fields, pad)| {
            let aux = shelters(fields, pad);
            let size = report.estimated_size();
            rule.apply(&report, size, &aux, t(10)); // warm-up
            let (count, (enriched, _)) = allocations(|| rule.apply(&report, size, &aux, t(10)));
            let embedded = enriched.get("shelters").unwrap().as_array().unwrap();
            assert_eq!(embedded.len(), 3);
            (count, enriched.estimated_size())
        })
        .collect();
    let [(small, small_size), (large, large_size)] = counts[..] else {
        unreachable!()
    };
    assert!(large_size > 100 * small_size);
    assert_eq!(
        small, large,
        "{small} allocations for small rows, {large} for large"
    );
}

#[test]
fn ingest_allocations() {
    assert_rejecting_match_allocates_nothing();
    assert_enrichment_allocations_do_not_grow_with_rows();
}
