//! The enrichment join and the once-per-record payload, each against
//! the code it replaced, which survives here as the reference:
//!
//! * [`EnrichmentRule::apply`] reads the auxiliary dataset's index on the
//!   join field; [`reference_apply`] scans the whole time window from
//!   the back, comparing every row with BQL's `==`, and stops at the
//!   `limit`-th match.
//! * [`DataCluster`] projects and enriches once per matched record, sums
//!   the payload's size from stored sizes and shares the payload;
//!   [`RefCluster`] does all three per matched subscription, inside the
//!   loop, and walks each payload for its size, as the cluster did
//!   before.
//!
//! Both comparisons are on `DataValue` equality and on the size, the
//! second also on object ids, timestamps and every returned
//! notification.

use std::collections::BTreeMap;

use bad_cluster::{DataCluster, EnrichmentRule, MatchIndex, Notification};
use bad_query::{ChannelMode, ChannelSpec, ParamBindings};
use bad_storage::{Dataset, ResultStore, Schema};
use bad_types::eq::values_equal;
use bad_types::rng::Rng;
use bad_types::{
    BackendSubId, BoundingBox, DataValue, GeoPoint, SimDuration, TimeRange, Timestamp,
};

fn t(secs: u64) -> Timestamp {
    Timestamp::from_secs(secs)
}

/// The join before the index: a back-scan of the whole window. A result
/// lacking the join field — every non-object one — passes through.
fn reference_apply(
    rule: &EnrichmentRule,
    result: &DataValue,
    aux: &Dataset,
    now: Timestamp,
) -> DataValue {
    let Some(join_value) = result.get_path(&rule.record_field) else {
        return result.clone();
    };
    let from = match rule.lookback {
        Some(window) => now - window,
        None => Timestamp::ZERO,
    };
    let mut joined: Vec<DataValue> = aux
        .range(TimeRange::closed(from, now))
        .rev()
        .filter(|rec| {
            rec.value
                .get_path(&rule.aux_field)
                .is_some_and(|v| values_equal(v, join_value))
        })
        .take(rule.limit)
        .map(|rec| DataValue::clone(&rec.value))
        .collect();
    joined.reverse();
    let mut fields = result.as_object().expect("has a field").clone();
    fields.insert(rule.embed_as.clone(), DataValue::array(joined));
    DataValue::object(fields)
}

/// A join key: strings, integers, their integral floats, `-0.0`, `NaN`
/// and objects (which `==` compares structurally, `0.0` equal to
/// `-0.0`).
fn key(rng: &mut Rng) -> DataValue {
    match rng.below(12) {
        0 | 1 => DataValue::from("north"),
        2 => DataValue::from("south"),
        3 | 4 => DataValue::from(2i64),
        5 => DataValue::from(2.0),
        6 => DataValue::from(0i64),
        7 => DataValue::from(-0.0),
        8 => DataValue::from(f64::NAN),
        9 => DataValue::object([("z", DataValue::from(0.0))]),
        10 => DataValue::object([("z", DataValue::from(-0.0))]),
        _ => DataValue::array([DataValue::from(3i64)]),
    }
}

/// An object carrying `key` at `k`, at the dotted path `loc.k`, at
/// both, or nowhere.
fn keyed(rng: &mut Rng, n: i64) -> DataValue {
    let mut fields = vec![("n", DataValue::from(n))];
    if rng.below(8) != 0 {
        fields.push(("k", key(rng)));
    }
    if rng.below(3) != 0 {
        fields.push(("loc", DataValue::object([("k", key(rng))])));
    }
    DataValue::object(fields)
}

/// Rows with repeated timestamps, inserted out of timestamp order, the
/// join fields indexed after a random prefix of them.
fn aux_dataset(rng: &mut Rng) -> Dataset {
    let mut aux = Dataset::new("Aux", Schema::open());
    let rows = rng.below(40);
    let indexed_at = rng.below(rows + 1);
    for n in 0..rows {
        if n == indexed_at {
            index_join_fields(&mut aux);
        }
        aux.insert(t(rng.below(30)), keyed(rng, n as i64)).unwrap();
    }
    index_join_fields(&mut aux);
    aux
}

fn index_join_fields(aux: &mut Dataset) {
    for path in ["k", "loc.k", "absent"] {
        aux.index_field(path);
    }
}

#[test]
fn indexed_join_equals_back_scan() {
    const SEEDS: u64 = 64;
    const DATASETS: u64 = 8;
    const CASES: u64 = 25;
    let (mut capped, mut short, mut passthrough) = (0u64, 0u64, 0u64);
    // Embedded rows whose key is `==` to the join value but not the same
    // tree: `2` against `2.0`, `0` against `-0.0`.
    let mut coerced = 0u64;
    for seed in 1..=SEEDS {
        let mut rng = Rng::new(seed);
        for _ in 0..DATASETS {
            let aux = aux_dataset(&mut rng);
            for _ in 0..CASES {
                let path = |rng: &mut Rng| match rng.below(5) {
                    0 | 1 => "k",
                    2 | 3 => "loc.k",
                    _ => "absent",
                };
                let limit = [0, 1, 3, aux.len() + 5][rng.below(4) as usize];
                // Embedding as `n` replaces a field every keyed result has.
                let embed_as = ["rows", "n"][rng.below(2) as usize];
                let mut rule = EnrichmentRule::join(
                    "C",
                    "Aux",
                    path(&mut rng),
                    path(&mut rng),
                    embed_as,
                    limit,
                );
                if rng.below(2) == 0 {
                    rule = rule.with_lookback(SimDuration::from_secs(rng.below(20)));
                }
                let result = match rng.below(8) {
                    0 => DataValue::from("north"),
                    1 => DataValue::array([key(&mut rng), key(&mut rng)]),
                    2 => DataValue::Null,
                    _ => keyed(&mut rng, -1),
                };
                let now = t(rng.below(36));

                let (got, size) = rule.apply(&result, result.estimated_size(), &aux, now);
                let want = reference_apply(&rule, &result, &aux, now);
                // Compared as `Debug` text: `NaN` keys make `==` false
                // on equal trees, and the text tells `-0.0` from `0.0`.
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "seed {seed}: {rule:?} on {result} at {now}"
                );
                assert_eq!(
                    size,
                    got.estimated_size(),
                    "seed {seed}: {rule:?} on {result}"
                );

                let embedded = want.get(embed_as).and_then(DataValue::as_array);
                if let (Some(rows), Some(join_value)) =
                    (embedded, result.get_path(&rule.record_field))
                {
                    let differs =
                        |row: &&DataValue| row.get_path(&rule.aux_field) != Some(join_value);
                    coerced += rows.iter().filter(differs).count() as u64;
                }
                match embedded {
                    None => passthrough += 1,
                    Some(rows) if rows.len() == limit && limit > 0 => capped += 1,
                    Some(_) => short += 1,
                }
            }
        }
    }
    // At least 10^4 cases, and each of the three regimes the equivalence
    // is about is reached often, as are numerically coerced joins.
    assert_eq!(capped + short + passthrough, 12_800);
    assert!(capped > 500 && short > 500 && passthrough > 500);
    assert!(coerced > 500, "{coerced} coerced rows");
}

struct RefChannel {
    spec: ChannelSpec,
    index: MatchIndex,
    last_run: Timestamp,
    rules: Vec<EnrichmentRule>,
}

/// The cluster's publish / tick as they were: one projection and one
/// join per matched *subscription*, every payload a tree of its own.
struct RefCluster {
    datasets: BTreeMap<String, Dataset>,
    channels: BTreeMap<String, RefChannel>,
    results: ResultStore,
}

impl RefCluster {
    fn emit(
        &mut self,
        channel: &str,
        bs: BackendSubId,
        result_ts: Timestamp,
        record: &DataValue,
        record_ts: Timestamp,
    ) -> Notification {
        let runtime = &self.channels[channel];
        let mut payload = runtime.spec.select().project(record);
        for rule in &runtime.rules {
            payload = reference_apply(rule, &payload, &self.datasets[&rule.aux_dataset], record_ts);
        }
        let object = self.results.append(bs, result_ts, payload, None);
        Notification {
            backend_sub: bs,
            latest_ts: object.ts,
            count: 1,
            bytes: object.size,
        }
    }

    fn publish(&mut self, dataset: &str, ts: Timestamp, record: DataValue) -> Vec<Notification> {
        let ds = self.datasets.get_mut(dataset).unwrap();
        ds.insert(ts, record.clone()).unwrap();
        let names: Vec<String> = self
            .channels
            .iter()
            .filter(|(_, c)| {
                c.spec.dataset() == dataset && c.spec.mode() == ChannelMode::Continuous
            })
            .map(|(name, _)| name.clone())
            .collect();
        let mut notifications = Vec::new();
        for name in names {
            let runtime = self.channels.get_mut(&name).unwrap();
            let matched = runtime
                .index
                .matching_subscriptions(&runtime.spec, &record)
                .unwrap();
            for bs in matched {
                notifications.push(self.emit(&name, bs, ts, &record, ts));
            }
        }
        notifications
    }

    fn tick(&mut self, now: Timestamp) -> Vec<Notification> {
        let due: Vec<String> = self
            .channels
            .iter()
            .filter(|(_, c)| match c.spec.mode() {
                ChannelMode::Repetitive { period } => now.since(c.last_run) >= period,
                ChannelMode::Continuous => false,
            })
            .map(|(name, _)| name.clone())
            .collect();
        let mut notifications: BTreeMap<BackendSubId, Notification> = BTreeMap::new();
        for name in due {
            let runtime = &self.channels[&name];
            let records: Vec<(Timestamp, DataValue)> = self.datasets[runtime.spec.dataset()]
                .since(runtime.last_run)
                .filter(|r| r.ts <= now)
                .map(|r| (r.ts, DataValue::clone(&r.value)))
                .collect();
            for (record_ts, record) in records {
                let runtime = self.channels.get_mut(&name).unwrap();
                let matched = runtime
                    .index
                    .matching_subscriptions(&runtime.spec, &record)
                    .unwrap();
                for bs in matched {
                    let n = self.emit(&name, bs, now, &record, record_ts);
                    notifications
                        .entry(bs)
                        .and_modify(|agg| {
                            agg.count += n.count;
                            agg.bytes += n.bytes;
                            agg.latest_ts = agg.latest_ts.max(n.latest_ts);
                        })
                        .or_insert(n);
                }
            }
            self.channels.get_mut(&name).unwrap().last_run = now;
        }
        notifications.into_values().collect()
    }
}

/// The cluster under test and its reference, driven in lockstep.
struct Pair {
    cluster: DataCluster,
    reference: RefCluster,
    /// Live subscriptions with their channel, oldest first.
    subs: Vec<(BackendSubId, &'static str)>,
}

impl Pair {
    fn new(datasets: &[&str], channels: &[&str], rules: Vec<EnrichmentRule>) -> Self {
        let mut cluster = DataCluster::new();
        let mut reference = RefCluster {
            datasets: BTreeMap::new(),
            channels: BTreeMap::new(),
            results: ResultStore::new(),
        };
        for &name in datasets {
            cluster.create_dataset(name, Schema::open()).unwrap();
            reference
                .datasets
                .insert(name.to_owned(), Dataset::new(name, Schema::open()));
        }
        for bql in channels {
            let spec = ChannelSpec::parse(bql).unwrap();
            cluster.register_channel_spec(spec.clone()).unwrap();
            reference.channels.insert(
                spec.name().to_owned(),
                RefChannel {
                    index: MatchIndex::new(&spec),
                    spec,
                    last_run: Timestamp::ZERO,
                    rules: Vec::new(),
                },
            );
        }
        for rule in rules {
            cluster.add_enrichment(rule.clone()).unwrap();
            let channel = reference.channels.get_mut(&rule.channel).unwrap();
            channel.rules.push(rule);
        }
        Self {
            cluster,
            reference,
            subs: Vec::new(),
        }
    }

    fn subscribe(&mut self, channel: &'static str, params: ParamBindings, now: Timestamp) {
        let bs = self
            .cluster
            .subscribe(channel, params.clone(), now)
            .unwrap();
        let runtime = self.reference.channels.get_mut(channel).unwrap();
        runtime.index.add(&runtime.spec, bs, params, now).unwrap();
        self.subs.push((bs, channel));
    }

    fn unsubscribe(&mut self, at: usize) {
        let (bs, channel) = self.subs.remove(at);
        self.cluster.unsubscribe(bs).unwrap();
        let runtime = self.reference.channels.get_mut(channel).unwrap();
        assert!(runtime.index.remove(bs));
        self.reference.results.remove_subscription(bs);
    }

    fn publish(&mut self, dataset: &str, ts: Timestamp, record: DataValue) -> usize {
        let got = self.cluster.publish(dataset, ts, record.clone()).unwrap();
        assert_eq!(got, self.reference.publish(dataset, ts, record));
        got.len()
    }

    fn tick(&mut self, now: Timestamp) -> usize {
        let got = self.cluster.tick(now).unwrap();
        assert_eq!(got, self.reference.tick(now));
        got.len()
    }

    /// `(id, backend_sub, ts, size, payload)` of every stored result.
    fn assert_same_stores(&mut self, until: Timestamp) -> usize {
        let all = TimeRange::closed(Timestamp::ZERO, until);
        let mut objects = 0;
        for &(bs, channel) in &self.subs {
            let got = self.cluster.fetch(bs, all);
            assert_eq!(got, self.reference.results.fetch(bs, all), "{channel} {bs}");
            objects += got.len();
        }
        assert_eq!(
            self.cluster.result_volume(),
            self.reference.results.total_bytes()
        );
        objects
    }
}

const KINDS: [&str; 4] = ["tornado", "flood", "fire", "quake"];

fn district(cell: usize) -> DataValue {
    DataValue::from(format!("district-{cell}"))
}

/// The emergency city of Section VI on a 2 × 2 grid.
struct City {
    bounds: BoundingBox,
    cells: Vec<BoundingBox>,
}

impl City {
    fn new() -> Self {
        let bounds = BoundingBox::new(GeoPoint::new(33.0, -118.0), GeoPoint::new(34.0, -117.0));
        Self {
            cells: bounds.grid(2),
            bounds,
        }
    }

    fn place(&self, rng: &mut Rng) -> (GeoPoint, DataValue) {
        let unit = |rng: &mut Rng| rng.below(1000) as f64 / 1000.0 + 0.0005;
        let p = GeoPoint::new(
            self.bounds.min.lat + unit(rng),
            self.bounds.min.lon + unit(rng),
        );
        let cell = self.cells.iter().position(|c| c.contains(p)).unwrap();
        (p, district(cell))
    }

    fn report(&self, rng: &mut Rng) -> DataValue {
        let (location, district) = self.place(rng);
        DataValue::object([
            ("kind", DataValue::from(KINDS[rng.below(4) as usize])),
            ("severity", DataValue::from(rng.range(1, 5) as i64)),
            ("location", location.to_value()),
            ("district", district),
            (
                "body",
                DataValue::from("x".repeat(rng.range(20, 199) as usize)),
            ),
        ])
    }

    fn shelter(&self, rng: &mut Rng) -> DataValue {
        let (location, district) = self.place(rng);
        // One name in eight is a kind of emergency, for the name join.
        let name = match rng.below(8) {
            0 => KINDS[rng.below(4) as usize].to_owned(),
            _ => format!("shelter-{}", rng.below(10_000)),
        };
        DataValue::object([
            ("name", DataValue::from(name)),
            ("district", district),
            ("location", location.to_value()),
            ("capacity", DataValue::from(rng.range(50, 1999) as i64)),
        ])
    }
}

/// The Table III channels with both shelter joins, plus two continuous
/// channels over the same reports — one selecting the whole record and
/// enriched, one projecting fields and enriched — with several
/// subscriptions per parameter value, churn, late shelters and ticks.
fn run_emergency_tape(seed: u64) -> usize {
    const HORIZON_SECS: u64 = 240;
    let pairs = |name: &'static str, value: DataValue| ParamBindings::from_pairs([(name, value)]);
    let join = |channel: &str, limit| {
        EnrichmentRule::join(
            channel, "Shelters", "district", "district", "shelters", limit,
        )
    };
    let mut pair = Pair::new(
        &["EmergencyReports", "Shelters"],
        &[
            "channel EmergenciesOfType(etype: string) from EmergencyReports r \
             where r.kind == $etype select r every 10s",
            "channel EmergenciesNearLocation(etype: string, area: region) \
             from EmergencyReports r \
             where r.kind == $etype and within(r.location, $area) select r every 10s",
            "channel SevereEmergencies(minsev: int) from EmergencyReports r \
             where r.severity >= $minsev select r every 15s",
            "channel SheltersInDistrict(district: string) from Shelters s \
             where s.district == $district select s every 60s",
            "channel DistrictEmergencies(district: string) from EmergencyReports r \
             where r.district == $district select r every 30s",
            "channel LiveDistrict(district: string) from EmergencyReports r \
             where r.district == $district select r",
            "channel LiveSevere(minsev: int) from EmergencyReports r \
             where r.severity >= $minsev select r.kind, r.district, r.location.lat",
        ],
        vec![
            join("DistrictEmergencies", 3),
            join("SevereEmergencies", 3),
            join("LiveDistrict", 2),
            join("LiveSevere", 3).with_lookback(SimDuration::from_secs(60)),
            // A second rule on one channel: rules chain on the payload.
            EnrichmentRule::join("LiveSevere", "Shelters", "kind", "name", "namesakes", 1),
        ],
    );
    let mut rng = Rng::new(seed);
    let city = City::new();

    let interest = |rng: &mut Rng| -> (&'static str, ParamBindings) {
        let cell = rng.below(4) as usize;
        match rng.below(7) {
            0 => (
                "EmergenciesOfType",
                pairs("etype", DataValue::from(KINDS[cell])),
            ),
            1 => (
                "EmergenciesNearLocation",
                ParamBindings::from_pairs([
                    ("etype", DataValue::from(KINDS[rng.below(4) as usize])),
                    ("area", city.cells[cell].to_value()),
                ]),
            ),
            2 => (
                "SevereEmergencies",
                pairs("minsev", DataValue::from(cell as i64 + 2)),
            ),
            3 => ("SheltersInDistrict", pairs("district", district(cell))),
            4 => ("DistrictEmergencies", pairs("district", district(cell))),
            5 => ("LiveDistrict", pairs("district", district(cell))),
            _ => (
                "LiveSevere",
                pairs("minsev", DataValue::from(cell as i64 + 2)),
            ),
        }
    };
    // Far more subscriptions than distinct interests, so one record
    // matches several subscriptions of a channel.
    for _ in 0..120 {
        let (channel, params) = interest(&mut rng);
        pair.subscribe(channel, params, Timestamp::ZERO);
    }
    for i in 0..40 {
        pair.publish(
            "Shelters",
            Timestamp::from_micros(i + 1),
            city.shelter(&mut rng),
        );
    }

    let mut notifications = 0;
    for sec in 1..=HORIZON_SECS {
        let now = t(sec);
        for _ in 0..rng.below(3) {
            notifications += pair.publish("EmergencyReports", now, city.report(&mut rng));
        }
        if rng.below(6) == 0 {
            // One shelter in four arrives late, stamped in the past.
            let ts = t(sec - rng.below(4).min(sec) * rng.below(2));
            pair.publish("Shelters", ts, city.shelter(&mut rng));
        }
        if rng.below(10) == 0 {
            let at = rng.below(pair.subs.len() as u64) as usize;
            pair.unsubscribe(at);
            let (channel, params) = interest(&mut rng);
            pair.subscribe(channel, params, now);
        }
        if sec % 5 == 0 {
            notifications += pair.tick(now);
        }
    }
    assert!(notifications > 500, "seed {seed}: a quiet tape");
    pair.assert_same_stores(t(HORIZON_SECS))
}

#[test]
fn shared_payloads_equal_per_subscription_enrichment() {
    for seed in [1, 2, 3] {
        let objects = run_emergency_tape(seed);
        assert!(objects > 5_000, "seed {seed}: {objects} results compared");
    }
}
