//! The subscription index against three references, on seeded tapes of
//! subscriptions, churn and records over the five Table III channels,
//! the Table II `ByStream` channel and three more `within` channels:
//!
//! * [`MatchIndex::brute_force`], which evaluates every subscription;
//! * [`ChannelSpec::matches`] per subscription, in subscription order,
//!   which checks the bindings again on every call;
//! * [`JsonIndex`], the index as it was before partitions followed `==`
//!   and before the region prefilter: keyed by the JSON of the bound
//!   value, checking bindings per record, evaluating every candidate.
//!
//! The indexed matcher must return what the first two return — the same
//! ids in the same order, or the same error. On every record whose key
//! field is not an integral float it must also perform exactly the JSON
//! index's evaluations minus the candidates the prefilter may skip:
//! those whose bound region parses and excludes the record's parsed
//! point, on a channel whose `within` follows nothing that can fail —
//! each of which the test checks evaluates to `false`. The int/float
//! records (a record's `3.0` against a bound `3`, or `-0.0` against `0`)
//! are where the JSON index missed matches, and the tape checks that it
//! did.

use std::collections::BTreeMap;

use bad_cluster::MatchIndex;
use bad_query::{ChannelSpec, ParamBindings, ParamType};
use bad_types::rng::Rng;
use bad_types::{BackendSubId, BoundingBox, DataValue, GeoPoint, Result, Timestamp};
use bad_workload::TABLE_III_CHANNELS;

const BY_STREAM: &str =
    "channel ByStream(stream: int) from Posts p where p.stream == $stream select p";

/// `within` channels beyond Table III, with whether the index may
/// prefilter them: behind `!=` and a literal with no partition key
/// (prefiltered); on a `point` parameter, so the bound region never
/// parses (prefiltered, but no subscription has a region); and after a
/// comparison that fails on a string severity (not prefiltered).
const WITHIN_CHANNELS: [(&str, bool); 3] = [
    (
        "channel NotKindNear(etype: string, area: region) from EmergencyReports r \
         where r.kind != $etype and r.district != null and within(r.location, $area) select r",
        true,
    ),
    (
        "channel NearPoint(etype: string, area: point) from EmergencyReports r \
         where r.kind == $etype and within(r.location, $area) select r",
        true,
    ),
    (
        "channel SevereNear(minsev: int, area: region) from EmergencyReports r \
         where r.kind == \"fire\" and r.severity >= $minsev and within(r.location, $area) \
         select r",
        false,
    ),
];

/// Whether the prefilter may skip `params` on `record`: the bound `area`
/// parses as a region, the record's `location` as a point, and the
/// region excludes the point.
fn skippable(record: &DataValue, params: &ParamBindings) -> bool {
    let point = record.get("location").and_then(GeoPoint::from_value);
    let region = params.get("area").and_then(BoundingBox::from_value);
    matches!((point, region), (Some(p), Some(r)) if !r.contains(p))
}

const KINDS: [&str; 4] = ["tornado", "flood", "fire", "quake"];

/// The index before this crate keyed partitions by `==`: one map keyed by
/// `to_json_string()` of the bound value, and `ChannelSpec::matches`
/// (binding check included) per candidate.
struct JsonIndex {
    key: Option<(String, String)>,
    partitions: BTreeMap<String, Vec<(BackendSubId, ParamBindings)>>,
    residual: Vec<(BackendSubId, ParamBindings)>,
    evaluations: u64,
    /// Whether the channel's `within` may be prefiltered.
    prefiltered: bool,
    /// Evaluated candidates the prefilter may skip, each checked to
    /// evaluate to `false`.
    skippable: u64,
}

impl JsonIndex {
    fn new(spec: &ChannelSpec, prefiltered: bool) -> Self {
        Self {
            key: spec.equality_param_fields().into_iter().next(),
            partitions: BTreeMap::new(),
            residual: Vec::new(),
            evaluations: 0,
            prefiltered,
            skippable: 0,
        }
    }

    fn add(&mut self, id: BackendSubId, params: ParamBindings) {
        let bound = self.key.as_ref().and_then(|(_, p)| params.get(p));
        match bound {
            Some(value) => self
                .partitions
                .entry(value.to_json_string())
                .or_default()
                .push((id, params)),
            None => self.residual.push((id, params)),
        }
    }

    fn remove(&mut self, id: BackendSubId) {
        for list in self.partitions.values_mut().chain([&mut self.residual]) {
            list.retain(|(sub, _)| *sub != id);
        }
    }

    fn matching(&mut self, spec: &ChannelSpec, record: &DataValue) -> Result<Vec<BackendSubId>> {
        let partition = match &self.key {
            Some((field, _)) => record
                .get_path(field)
                .and_then(|v| self.partitions.get(&v.to_json_string())),
            None => None,
        };
        let mut matched = Vec::new();
        for (id, params) in partition.into_iter().flatten().chain(&self.residual) {
            self.evaluations += 1;
            let matches = spec.matches(record, params);
            if self.prefiltered && skippable(record, params) {
                assert_eq!(matches, Ok(false), "{} skips {params:?}", spec.name());
                self.skippable += 1;
            }
            if matches? {
                matched.push(*id);
            }
        }
        Ok(matched)
    }
}

/// One channel, its index under test and its three references.
struct Channel {
    spec: ChannelSpec,
    indexed: MatchIndex,
    brute: MatchIndex,
    json: JsonIndex,
    /// Accepted subscriptions, oldest first.
    subs: Vec<(BackendSubId, ParamBindings)>,
}

/// What one tape exercised, summed over seeds.
#[derive(Default)]
struct Tally {
    comparisons: u64,
    matched: u64,
    errors: u64,
    mixes: u64,
    json_missed: u64,
    rejected: u64,
    skipped: u64,
}

impl Channel {
    fn new(bql: &str, prefiltered: bool) -> Self {
        let spec = ChannelSpec::parse(bql).unwrap();
        let region = spec.predicate().region_param_field();
        assert_eq!(region.is_some(), prefiltered, "{bql}");
        Self {
            indexed: MatchIndex::new(&spec),
            brute: MatchIndex::brute_force(),
            json: JsonIndex::new(&spec, prefiltered),
            subs: Vec::new(),
            spec,
        }
    }

    fn subscribe(&mut self, id: BackendSubId, params: ParamBindings, tally: &mut Tally) {
        let checked = params.check_against(self.spec.params());
        let added = self
            .indexed
            .add(&self.spec, id, params.clone(), Timestamp::ZERO);
        assert_eq!(added, checked, "{}: {params:?}", self.spec.name());
        assert_eq!(
            self.brute
                .add(&self.spec, id, params.clone(), Timestamp::ZERO),
            checked
        );
        if checked.is_err() {
            tally.rejected += 1;
            return;
        }
        self.json.add(id, params.clone());
        self.subs.push((id, params));
        assert_eq!(self.indexed.len(), self.subs.len());
    }

    fn unsubscribe(&mut self, at: usize) {
        let (id, _) = self.subs.remove(at);
        assert!(self.indexed.remove(id));
        assert!(self.brute.remove(id));
        self.json.remove(id);
    }

    fn check(&mut self, record: &DataValue, tally: &mut Tally) {
        let name = self.spec.name();
        let want: Result<Vec<BackendSubId>> = self
            .subs
            .iter()
            .filter_map(|(id, params)| match self.spec.matches(record, params) {
                Ok(true) => Some(Ok(*id)),
                Ok(false) => None,
                Err(e) => Some(Err(e)),
            })
            .collect();
        let before = self.indexed.evaluations;
        let got = self.indexed.matching_subscriptions(&self.spec, record);
        assert_eq!(got, want, "{name} indexed on {record}");
        let brute = self.brute.matching_subscriptions(&self.spec, record);
        assert_eq!(brute, want, "{name} brute force on {record}");

        let json_before = (self.json.evaluations, self.json.skippable);
        let json = self.json.matching(&self.spec, record);
        let skippable = self.json.skippable - json_before.1;
        let key_field = self.indexed.partition_key().map(|(field, _)| field);
        let mix = key_field
            .and_then(|field| record.get_path(field))
            .is_some_and(|v| matches!(v, DataValue::Float(f) if f.fract() == 0.0));
        if mix {
            tally.mixes += 1;
            tally.json_missed += u64::from(json != got);
        } else {
            assert_eq!(json, got, "{name} JSON index on {record}");
            assert_eq!(
                self.indexed.evaluations - before,
                self.json.evaluations - json_before.0 - skippable,
                "{name} evaluations on {record}"
            );
            tally.skipped += skippable;
        }
        tally.comparisons += 1;
        match &got {
            Ok(ids) => tally.matched += ids.len() as u64,
            Err(_) => tally.errors += 1,
        }
    }
}

fn city() -> BoundingBox {
    BoundingBox::new(GeoPoint::new(33.0, -118.0), GeoPoint::new(34.0, -117.0))
}

fn district(rng: &mut Rng) -> DataValue {
    DataValue::from(format!("district-{}", rng.below(4)))
}

/// A binding for one declared parameter: mostly of the declared type,
/// sometimes of another.
fn binding(rng: &mut Rng, name: &str, ty: ParamType, cells: &[BoundingBox]) -> DataValue {
    if rng.below(12) == 0 {
        return match rng.below(3) {
            0 => DataValue::from(3.0),
            1 => DataValue::from("high"),
            _ => GeoPoint::new(33.5, -117.5).to_value(),
        };
    }
    match (ty, name) {
        (ParamType::String, "district") => district(rng),
        (ParamType::String, _) => DataValue::from(KINDS[rng.below(4) as usize]),
        (ParamType::Int, _) => DataValue::from(rng.below(6) as i64),
        (ParamType::Region, _) => cells[rng.below(cells.len() as u64) as usize].to_value(),
        (ParamType::Point, _) => cells[rng.below(cells.len() as u64) as usize]
            .center()
            .to_value(),
        (ty, _) => panic!("no generator for {ty}"),
    }
}

fn bindings(rng: &mut Rng, spec: &ChannelSpec, cells: &[BoundingBox]) -> ParamBindings {
    let mut params = ParamBindings::new();
    for def in spec.params() {
        if rng.below(20) != 0 {
            params.bind(def.name.clone(), binding(rng, &def.name, def.ty, cells));
        }
    }
    if rng.below(20) == 0 {
        params.bind("ghost", DataValue::from(1i64));
    }
    params
}

/// A number as a record field: integers, integral floats (the mix, with
/// `-0.0`), fractional floats, and a numeric string.
fn number(rng: &mut Rng) -> DataValue {
    let n = rng.below(6);
    match rng.below(6) {
        0 | 1 => DataValue::from(n as i64),
        2 if n == 0 => DataValue::from(-0.0),
        2 => DataValue::from(n as f64),
        3 => DataValue::from(n as f64 + 0.5),
        4 => DataValue::from(n.to_string()),
        _ => DataValue::Null,
    }
}

/// A location inside a cell, on a cell's edge or corner, outside the
/// city, or malformed.
fn location(rng: &mut Rng, cells: &[BoundingBox]) -> DataValue {
    let cell = cells[rng.below(cells.len() as u64) as usize];
    let inside = |rng: &mut Rng, lo: f64, hi: f64| lo + (hi - lo) * rng.range(1, 99) as f64 / 100.0;
    let point = match rng.below(6) {
        0 | 1 => GeoPoint::new(
            inside(rng, cell.min.lat, cell.max.lat),
            inside(rng, cell.min.lon, cell.max.lon),
        ),
        2 => GeoPoint::new(cell.min.lat, inside(rng, cell.min.lon, cell.max.lon)),
        3 => GeoPoint::new(cell.max.lat, cell.max.lon),
        4 => GeoPoint::new(35.0, -117.5),
        _ => return DataValue::from("downtown"),
    };
    point.to_value()
}

fn record(rng: &mut Rng, cells: &[BoundingBox]) -> DataValue {
    let mut fields = Vec::new();
    let mut maybe = |rng: &mut Rng, name: &'static str, value: DataValue| match rng.below(8) {
        0 => {}
        1 => fields.push((name, DataValue::Null)),
        _ => fields.push((name, value)),
    };
    let kind = match rng.below(10) {
        0 => DataValue::from(3i64),
        _ => DataValue::from(KINDS[rng.below(4) as usize]),
    };
    maybe(rng, "kind", kind);
    let severity = number(rng);
    maybe(rng, "severity", severity);
    let district = district(rng);
    maybe(rng, "district", district);
    let stream = number(rng);
    maybe(rng, "stream", stream);
    let location = location(rng, cells);
    maybe(rng, "location", location);
    DataValue::object(fields)
}

fn run_tape(seed: u64, tally: &mut Tally) {
    const STEPS: u64 = 400;
    let mut rng = Rng::new(seed);
    let cells = city().grid(2);
    let mut channels: Vec<Channel> = TABLE_III_CHANNELS
        .iter()
        .chain([&BY_STREAM])
        .map(|bql| Channel::new(bql, bql.contains("within")))
        .chain(WITHIN_CHANNELS.map(|(bql, prefiltered)| Channel::new(bql, prefiltered)))
        .collect();
    let mut next_id = 0;
    let mut subscribe = |rng: &mut Rng, channel: &mut Channel, tally: &mut Tally| {
        let params = bindings(rng, &channel.spec, &cells);
        next_id += 1;
        channel.subscribe(BackendSubId::new(next_id), params, tally);
    };
    for channel in &mut channels {
        for _ in 0..20 {
            subscribe(&mut rng, channel, tally);
        }
    }
    for _ in 0..STEPS {
        let at = rng.below(channels.len() as u64) as usize;
        let channel = &mut channels[at];
        match rng.below(10) {
            0 => subscribe(&mut rng, channel, tally),
            1 if !channel.subs.is_empty() => {
                let victim = rng.below(channel.subs.len() as u64) as usize;
                channel.unsubscribe(victim);
            }
            _ => {
                let record = record(&mut rng, &cells);
                for channel in &mut channels {
                    channel.check(&record, tally);
                }
            }
        }
    }
}

#[test]
fn index_brute_force_and_per_subscription_matching_agree() {
    let mut tally = Tally::default();
    for seed in 1..=16 {
        run_tape(seed, &mut tally);
    }
    let Tally {
        comparisons,
        matched,
        errors,
        mixes,
        json_missed,
        rejected,
        skipped,
    } = tally;
    // Every regime the equivalence is about is reached often: matches,
    // ill-typed records, int/float mixes the JSON index got wrong, and
    // bindings refused at `add`.
    assert!(comparisons > 25_000, "{comparisons} comparisons");
    assert!(matched > 50_000, "{matched} matches");
    assert!(errors > 500, "{errors} errors");
    assert!(
        mixes > 400 && json_missed > 300,
        "{mixes} mixes, {json_missed} missed"
    );
    assert!(rejected > 200, "{rejected} rejected bindings");
    assert!(skipped > 10_000, "{skipped} candidates skipped");
}
