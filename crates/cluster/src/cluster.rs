//! The in-process data cluster: datasets + channel runtime + result
//! stores + notifications.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bad_query::{ChannelMode, ChannelSpec, ParamBindings, SelectClause};
use bad_storage::{Dataset, ResultObject, ResultStore, Schema, StoredRecord};
use bad_telemetry::{Event, SharedSink, SharedTracer};
use bad_types::ids::{IdGen, IdSlab};
use bad_types::{
    BackendSubId, BadError, ByteSize, ChannelId, DataValue, Result, TimeRange, Timestamp,
};

use crate::enrichment::EnrichmentRule;
use crate::matcher::MatchIndex;
use crate::notifier::Notification;

/// Aggregate counters of cluster activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Publications ingested.
    pub publications: u64,
    /// Results produced across all subscriptions.
    pub results: u64,
    /// Total result bytes produced (the base of the paper's `Vol`).
    pub result_bytes: ByteSize,
    /// Bytes served to brokers through `fetch`.
    pub fetched_bytes: ByteSize,
    /// Full predicate evaluations performed by the matcher.
    pub evaluations: u64,
}

struct ChannelRuntime {
    id: ChannelId,
    spec: ChannelSpec,
    index: MatchIndex,
    /// For repetitive channels: when the channel last executed.
    last_run: Timestamp,
    enrichments: Vec<EnrichmentRule>,
}

impl ChannelRuntime {
    /// The result content of `record` on this channel, projected, then
    /// enriched, and its `estimated_size()`. It depends on the record and
    /// the auxiliary datasets only, so it is computed once per matched
    /// record and every matched subscription stores the same allocation;
    /// `select r` with no rule is the dataset's own record. The size is
    /// summed from the stored records' sizes, not walked.
    fn enriched_payload(
        &self,
        datasets: &HashMap<String, Dataset>,
        record: &StoredRecord,
    ) -> (Arc<DataValue>, ByteSize) {
        let (mut payload, mut size) = match self.spec.select() {
            SelectClause::All => (Arc::clone(&record.value), record.size),
            select => {
                let projected = select.project(&record.value);
                let size = projected.estimated_size();
                (Arc::new(projected), size)
            }
        };
        for rule in &self.enrichments {
            if let Some(aux) = datasets.get(&rule.aux_dataset) {
                let (enriched, enriched_size) = rule.apply(&payload, size, aux, record.ts);
                (payload, size) = (Arc::new(enriched), enriched_size);
            }
        }
        (payload, ByteSize::new(size))
    }

    /// Appends `payload`, whose `estimated_size()` is `size`, as one
    /// result of `bs` and reports it: the object id, the accounted size
    /// and the telemetry are per result, however many subscriptions
    /// share the payload (and its size, computed once).
    fn emit_result(
        &self,
        results: &mut ResultStore,
        tracer: &SharedTracer,
        bs: BackendSubId,
        result_ts: Timestamp,
        payload: Arc<DataValue>,
        size: ByteSize,
    ) -> Notification {
        let object = results.append(bs, result_ts, payload, Some(size));
        if tracer.enabled() {
            tracer.on_result_produced(
                result_ts.as_micros(),
                self.id.as_u64(),
                bs.as_u64(),
                object.id.as_u64(),
                object.size.as_u64(),
            );
            if !self.enrichments.is_empty() {
                tracer.record(&Event::ClusterEnrich {
                    t_us: result_ts.as_micros(),
                    channel: self.id.as_u64(),
                    rules: self.enrichments.len() as u64,
                });
            }
        }
        Notification {
            backend_sub: bs,
            latest_ts: object.ts,
            count: 1,
            bytes: object.size,
        }
    }
}

/// The BAD data cluster.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct DataCluster {
    datasets: HashMap<String, Dataset>,
    /// Ordered so publish/tick iterate channels deterministically.
    channels: BTreeMap<String, ChannelRuntime>,
    /// `subscription -> channel name` reverse map.
    subscriptions: IdSlab<BackendSubId, String>,
    results: ResultStore,
    sub_ids: IdGen,
    channel_ids: IdGen,
    stats: ClusterStats,
    /// When true, repetitive-channel results reuse the record timestamp
    /// instead of the execution timestamp (useful for deterministic tests).
    partition_matching: bool,
    /// Lifecycle tracer emitting `result_produced` root spans and
    /// `cluster.enrich` records (disabled by default: one branch per
    /// result).
    tracer: SharedTracer,
}

impl DataCluster {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        Self {
            datasets: HashMap::new(),
            channels: BTreeMap::new(),
            subscriptions: IdSlab::new(),
            results: ResultStore::new(),
            sub_ids: IdGen::new(),
            channel_ids: IdGen::new(),
            stats: ClusterStats::default(),
            partition_matching: true,
            tracer: bad_telemetry::Tracer::disabled(),
        }
    }

    /// Does nothing: the cluster's records reach a sink only through
    /// its tracer ([`DataCluster::set_tracer`]). Kept only for callers
    /// that still wire a sink beside the tracer; that sink must be the
    /// tracer's own.
    #[doc(hidden)]
    pub fn set_event_sink(&mut self, _sink: SharedSink) {}

    /// Emits a `result_produced` root span for every appended result,
    /// and a `cluster.enrich` record for every enriched one, through
    /// `tracer` — the cluster end of the notification lifecycle
    /// (default: the disabled tracer, one branch per result).
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = tracer;
    }

    /// Disables the equality-partition matcher index (ablation baseline);
    /// affects channels registered afterwards.
    pub fn disable_partition_matching(&mut self) {
        self.partition_matching = false;
    }

    /// Activity counters.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            results: self.results.total_objects(),
            result_bytes: self.results.total_bytes(),
            evaluations: self.channels.values().map(|c| c.index.evaluations).sum(),
            ..self.stats
        }
    }

    /// Creates a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::AlreadyExists`] on duplicate names.
    pub fn create_dataset(&mut self, name: &str, schema: Schema) -> Result<()> {
        if self.datasets.contains_key(name) {
            return Err(BadError::already_exists("dataset", name));
        }
        self.datasets
            .insert(name.to_owned(), Dataset::new(name, schema));
        Ok(())
    }

    /// Reads a dataset.
    pub fn dataset(&self, name: &str) -> Option<&Dataset> {
        self.datasets.get(name)
    }

    /// Registers a channel from BQL source.
    ///
    /// # Errors
    ///
    /// Returns parse errors, [`BadError::NotFound`] when the channel's
    /// dataset does not exist, and [`BadError::AlreadyExists`] on
    /// duplicate channel names.
    pub fn register_channel(&mut self, bql: &str) -> Result<ChannelId> {
        let spec = ChannelSpec::parse(bql)?;
        self.register_channel_spec(spec)
    }

    /// Registers an already-parsed channel.
    ///
    /// # Errors
    ///
    /// Same as [`DataCluster::register_channel`], minus parsing.
    pub fn register_channel_spec(&mut self, spec: ChannelSpec) -> Result<ChannelId> {
        if !self.datasets.contains_key(spec.dataset()) {
            return Err(BadError::not_found("dataset", spec.dataset()));
        }
        if self.channels.contains_key(spec.name()) {
            return Err(BadError::already_exists("channel", spec.name()));
        }
        let id: ChannelId = self.channel_ids.next_id();
        let index = if self.partition_matching {
            MatchIndex::new(&spec)
        } else {
            MatchIndex::brute_force()
        };
        self.channels.insert(
            spec.name().to_owned(),
            ChannelRuntime {
                id,
                spec,
                index,
                last_run: Timestamp::ZERO,
                enrichments: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Attaches an enrichment rule to its channel, and has the auxiliary
    /// dataset index the rule's join field (over the rows it holds and
    /// every later one).
    ///
    /// # Errors
    ///
    /// Returns [`BadError::NotFound`] when the channel or the auxiliary
    /// dataset does not exist.
    pub fn add_enrichment(&mut self, rule: EnrichmentRule) -> Result<()> {
        let aux = self
            .datasets
            .get_mut(&rule.aux_dataset)
            .ok_or_else(|| BadError::not_found("dataset", rule.aux_dataset.clone()))?;
        let channel = self
            .channels
            .get_mut(&rule.channel)
            .ok_or_else(|| BadError::not_found("channel", rule.channel.clone()))?;
        aux.index_field(&rule.aux_field);
        channel.enrichments.push(rule);
        Ok(())
    }

    /// The registered channel names.
    pub fn channel_names(&self) -> Vec<&str> {
        self.channels.keys().map(String::as_str).collect()
    }

    /// Looks up a channel's spec.
    pub fn channel(&self, name: &str) -> Option<&ChannelSpec> {
        self.channels.get(name).map(|c| &c.spec)
    }

    /// Looks up a channel's id.
    pub fn channel_id(&self, name: &str) -> Option<ChannelId> {
        self.channels.get(name).map(|c| c.id)
    }

    /// Creates a backend subscription against a channel.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::NotFound`] for unknown channels and binding
    /// validation errors from the channel spec.
    pub fn subscribe(
        &mut self,
        channel: &str,
        params: ParamBindings,
        now: Timestamp,
    ) -> Result<BackendSubId> {
        let runtime = self
            .channels
            .get_mut(channel)
            .ok_or_else(|| BadError::not_found("channel", channel))?;
        // A refused subscription does not consume an id.
        let mut ids = self.sub_ids.clone();
        let id: BackendSubId = ids.next_id();
        runtime.index.add(&runtime.spec, id, params, now)?;
        self.sub_ids = ids;
        self.subscriptions.insert(id, channel.to_owned());
        Ok(id)
    }

    /// Tears down a backend subscription and its stored results.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::NotFound`] for unknown subscriptions.
    pub fn unsubscribe(&mut self, bs: BackendSubId) -> Result<()> {
        let channel = self
            .subscriptions
            .remove(bs)
            .ok_or_else(|| BadError::not_found("subscription", bs.to_string()))?;
        if let Some(runtime) = self.channels.get_mut(&channel) {
            runtime.index.remove(bs);
        }
        self.results.remove_subscription(bs);
        Ok(())
    }

    /// Number of live backend subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len()
    }

    /// Ingests a publication: validates it against the dataset schema,
    /// stores it, matches it against every *continuous* channel on that
    /// dataset and appends (enriched) results. Returns one notification
    /// per backend subscription that gained a result.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::NotFound`] for unknown datasets,
    /// [`BadError::Schema`] for schema violations, and type errors from
    /// ill-typed channel predicates.
    pub fn publish(
        &mut self,
        dataset: &str,
        ts: Timestamp,
        record: DataValue,
    ) -> Result<Vec<Notification>> {
        let ds = self
            .datasets
            .get_mut(dataset)
            .ok_or_else(|| BadError::not_found("dataset", dataset))?;
        // The dataset wraps the record in the one allocation the matcher
        // and every `select r` result of it share.
        let seq = ds.insert(ts, record)?;
        self.stats.publications += 1;

        let Self {
            datasets,
            channels,
            results,
            tracer,
            ..
        } = self;
        let record = datasets[dataset].get(seq).expect("just inserted");
        let mut notifications = Vec::new();
        for runtime in channels
            .values_mut()
            .filter(|c| c.spec.dataset() == dataset && c.spec.mode() == ChannelMode::Continuous)
        {
            let matched = runtime
                .index
                .matching_subscriptions(&runtime.spec, &record.value)?;
            if matched.is_empty() {
                continue;
            }
            let (payload, size) = runtime.enriched_payload(datasets, record);
            for bs in matched {
                notifications.push(runtime.emit_result(
                    results,
                    tracer,
                    bs,
                    ts,
                    Arc::clone(&payload),
                    size,
                ));
            }
        }
        Ok(notifications)
    }

    /// Advances repetitive channels: every channel whose period has
    /// elapsed re-executes over the records ingested since its last run.
    /// Returns the resulting notifications (possibly several per
    /// subscription batch-collapsed into one each).
    ///
    /// # Errors
    ///
    /// Propagates predicate evaluation errors.
    pub fn tick(&mut self, now: Timestamp) -> Result<Vec<Notification>> {
        let Self {
            datasets,
            channels,
            results,
            tracer,
            ..
        } = self;
        let mut notifications: BTreeMap<BackendSubId, Notification> = BTreeMap::new();
        for runtime in channels.values_mut() {
            let due = matches!(runtime.spec.mode(),
                ChannelMode::Repetitive { period } if now.since(runtime.last_run) >= period);
            if !due {
                continue;
            }
            let Some(ds) = datasets.get(runtime.spec.dataset()) else {
                continue;
            };
            for stored in ds.since(runtime.last_run).filter(|r| r.ts <= now) {
                let matched = runtime
                    .index
                    .matching_subscriptions(&runtime.spec, &stored.value)?;
                if matched.is_empty() {
                    continue;
                }
                let (payload, size) = runtime.enriched_payload(datasets, stored);
                for bs in matched {
                    // Results of a repetitive execution are stamped with
                    // the execution time, like a periodic query output.
                    let n =
                        runtime.emit_result(results, tracer, bs, now, Arc::clone(&payload), size);
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
            runtime.last_run = now;
        }
        // Keyed by subscription, so already in `BackendSubId` order.
        Ok(notifications.into_values().collect())
    }

    /// Retrieves results for a backend subscription in a timestamp range
    /// — the broker's `fetch(bs, ts1, ts2, closed)` call.
    pub fn fetch(&mut self, bs: BackendSubId, range: TimeRange) -> Vec<ResultObject> {
        let out = self.results.fetch(bs, range);
        self.stats.fetched_bytes += out.iter().map(|o| o.size).sum();
        out
    }

    /// Size of the results a fetch over `range` would return, without
    /// transferring them (used by network accounting).
    pub fn peek_fetch_bytes(&self, bs: BackendSubId, range: TimeRange) -> ByteSize {
        self.results.fetch_bytes(bs, range)
    }

    /// Newest result timestamp for a subscription.
    pub fn latest_result_ts(&self, bs: BackendSubId) -> Option<Timestamp> {
        self.results.latest_ts(bs)
    }

    /// Total bytes of results ever produced (`Vol`).
    pub fn result_volume(&self) -> ByteSize {
        self.results.total_bytes()
    }
}

impl Default for DataCluster {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    fn cluster_with_channel() -> (DataCluster, BackendSubId) {
        let mut cluster = DataCluster::new();
        cluster.create_dataset("Reports", Schema::open()).unwrap();
        cluster
            .register_channel(
                "channel ByKind(kind: string) from Reports r \
                 where r.kind == $kind select r",
            )
            .unwrap();
        let bs = cluster
            .subscribe(
                "ByKind",
                ParamBindings::from_pairs([("kind", DataValue::from("fire"))]),
                Timestamp::ZERO,
            )
            .unwrap();
        (cluster, bs)
    }

    fn report(kind: &str) -> DataValue {
        DataValue::object([("kind", DataValue::from(kind))])
    }

    #[test]
    fn continuous_channel_matches_on_publish() {
        let (mut cluster, bs) = cluster_with_channel();
        let n = cluster.publish("Reports", t(1), report("fire")).unwrap();
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].backend_sub, bs);
        let none = cluster.publish("Reports", t(2), report("flood")).unwrap();
        assert!(none.is_empty());
        let results = cluster.fetch(bs, TimeRange::closed(t(0), t(2)));
        assert_eq!(results.len(), 1);
        assert_eq!(
            results[0].payload.get("kind").unwrap().as_str(),
            Some("fire")
        );
    }

    #[test]
    fn multiple_subscriptions_each_get_results() {
        let (mut cluster, bs1) = cluster_with_channel();
        let bs2 = cluster
            .subscribe(
                "ByKind",
                ParamBindings::from_pairs([("kind", DataValue::from("fire"))]),
                Timestamp::ZERO,
            )
            .unwrap();
        let n = cluster.publish("Reports", t(1), report("fire")).unwrap();
        assert_eq!(n.len(), 2);
        assert_eq!(cluster.fetch(bs1, TimeRange::closed(t(0), t(1))).len(), 1);
        assert_eq!(cluster.fetch(bs2, TimeRange::closed(t(0), t(1))).len(), 1);
    }

    #[test]
    fn repetitive_channel_runs_on_tick() {
        let mut cluster = DataCluster::new();
        cluster.create_dataset("Reports", Schema::open()).unwrap();
        cluster
            .register_channel(
                "channel Periodic(kind: string) from Reports r \
                 where r.kind == $kind select r every 10s",
            )
            .unwrap();
        let bs = cluster
            .subscribe(
                "Periodic",
                ParamBindings::from_pairs([("kind", DataValue::from("fire"))]),
                Timestamp::ZERO,
            )
            .unwrap();
        // Publications do not trigger repetitive channels.
        assert!(cluster
            .publish("Reports", t(1), report("fire"))
            .unwrap()
            .is_empty());
        assert!(cluster
            .publish("Reports", t(2), report("fire"))
            .unwrap()
            .is_empty());
        // The tick at t=10 executes the channel over both records.
        let n = cluster.tick(t(10)).unwrap();
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].count, 2);
        let results = cluster.fetch(bs, TimeRange::closed(t(0), t(10)));
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|o| o.ts == t(10))); // execution-stamped
                                                        // Re-ticking immediately produces nothing new.
        assert!(cluster.tick(t(11)).unwrap().is_empty());
        // New records are picked up on the next due tick.
        cluster.publish("Reports", t(15), report("fire")).unwrap();
        let n = cluster.tick(t(20)).unwrap();
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].count, 1);
    }

    #[test]
    fn enrichment_embeds_related_records() {
        let mut cluster = DataCluster::new();
        cluster.create_dataset("Reports", Schema::open()).unwrap();
        cluster.create_dataset("Shelters", Schema::open()).unwrap();
        cluster
            .register_channel(
                "channel CityAlerts(city: string) from Reports r \
                 where r.city == $city select r",
            )
            .unwrap();
        cluster
            .add_enrichment(EnrichmentRule::join(
                "CityAlerts",
                "Shelters",
                "city",
                "city",
                "shelters",
                5,
            ))
            .unwrap();
        cluster
            .publish(
                "Shelters",
                t(1),
                DataValue::object([
                    ("city", DataValue::from("irvine")),
                    ("name", DataValue::from("UCI Arena")),
                ]),
            )
            .unwrap();
        let bs = cluster
            .subscribe(
                "CityAlerts",
                ParamBindings::from_pairs([("city", DataValue::from("irvine"))]),
                Timestamp::ZERO,
            )
            .unwrap();
        cluster
            .publish(
                "Reports",
                t(5),
                DataValue::object([
                    ("city", DataValue::from("irvine")),
                    ("kind", DataValue::from("flood")),
                ]),
            )
            .unwrap();
        let results = cluster.fetch(bs, TimeRange::closed(t(0), t(5)));
        assert_eq!(results.len(), 1);
        let shelters = results[0]
            .payload
            .get("shelters")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(shelters.len(), 1);
        assert_eq!(shelters[0].get("name").unwrap().as_str(), Some("UCI Arena"));
    }

    #[test]
    fn unsubscribe_stops_results_and_clears_store() {
        let (mut cluster, bs) = cluster_with_channel();
        cluster.publish("Reports", t(1), report("fire")).unwrap();
        cluster.unsubscribe(bs).unwrap();
        assert!(cluster.fetch(bs, TimeRange::closed(t(0), t(10))).is_empty());
        assert!(cluster
            .publish("Reports", t(2), report("fire"))
            .unwrap()
            .is_empty());
        assert!(cluster.unsubscribe(bs).is_err());
        assert_eq!(cluster.subscription_count(), 0);
    }

    #[test]
    fn errors_on_unknown_entities() {
        let mut cluster = DataCluster::new();
        assert!(cluster.publish("Nope", t(1), report("x")).is_err());
        assert!(cluster
            .register_channel("channel C() from Nope r where r.x > 0 select r")
            .is_err());
        assert!(cluster
            .subscribe("Ghost", ParamBindings::new(), t(0))
            .is_err());
        cluster.create_dataset("D", Schema::open()).unwrap();
        assert!(cluster.create_dataset("D", Schema::open()).is_err());
        assert!(cluster
            .add_enrichment(EnrichmentRule::join("C", "D", "a", "b", "e", 1))
            .is_err());
    }

    #[test]
    fn binding_validation_happens_at_subscribe() {
        let (mut cluster, _) = cluster_with_channel();
        // Missing parameter.
        assert!(cluster
            .subscribe("ByKind", ParamBindings::new(), t(0))
            .is_err());
        // Wrong type.
        assert!(cluster
            .subscribe(
                "ByKind",
                ParamBindings::from_pairs([("kind", DataValue::from(5i64))]),
                t(0)
            )
            .is_err());
    }

    #[test]
    fn stats_track_volume() {
        let (mut cluster, bs) = cluster_with_channel();
        cluster.publish("Reports", t(1), report("fire")).unwrap();
        cluster.publish("Reports", t(2), report("fire")).unwrap();
        let stats = cluster.stats();
        assert_eq!(stats.publications, 2);
        assert_eq!(stats.results, 2);
        assert!(stats.result_bytes > ByteSize::ZERO);
        assert_eq!(cluster.result_volume(), stats.result_bytes);
        cluster.fetch(bs, TimeRange::closed(t(0), t(2)));
        assert_eq!(cluster.stats().fetched_bytes, stats.result_bytes);
    }

    /// Publishes one report matching three subscriptions and returns
    /// what each fetches, after checking that the payload is shared and
    /// the accounting is not.
    fn shared_results(cluster: &mut DataCluster, first: BackendSubId) -> Vec<ResultObject> {
        let mut subs = vec![first];
        for _ in 0..2 {
            let params = ParamBindings::from_pairs([("kind", DataValue::from("fire"))]);
            subs.push(
                cluster
                    .subscribe("ByKind", params, Timestamp::ZERO)
                    .unwrap(),
            );
        }
        let k = subs.len() as u64;
        assert_eq!(
            cluster
                .publish("Reports", t(5), report("fire"))
                .unwrap()
                .len(),
            subs.len()
        );
        let all = TimeRange::closed(t(0), t(5));
        let got: Vec<ResultObject> = subs
            .iter()
            .map(|&bs| cluster.fetch(bs, all).pop().unwrap())
            .collect();
        let size = ByteSize::new(got[0].payload.estimated_size());
        for object in &got {
            assert!(Arc::ptr_eq(&object.payload, &got[0].payload));
            assert_eq!(object.size, size);
        }
        // A second fetch hands out the stored allocation again.
        assert!(Arc::ptr_eq(
            &cluster.fetch(first, all)[0].payload,
            &got[0].payload
        ));
        assert_eq!(cluster.result_volume(), size * k);
        assert_eq!(cluster.stats().results, k);
        assert_eq!(cluster.stats().result_bytes, size * k);
        assert_eq!(cluster.stats().fetched_bytes, size * (k + 1));
        got
    }

    #[test]
    fn whole_record_results_share_the_datasets_allocation() {
        let (mut cluster, first) = cluster_with_channel();
        let got = shared_results(&mut cluster, first);
        let stored = &cluster.dataset("Reports").unwrap().get(0).unwrap().value;
        assert!(Arc::ptr_eq(&got[0].payload, stored));
    }

    #[test]
    fn enriched_results_share_one_payload_per_record() {
        let (mut cluster, first) = cluster_with_channel();
        cluster.create_dataset("Shelters", Schema::open()).unwrap();
        cluster
            .add_enrichment(EnrichmentRule::join(
                "ByKind", "Shelters", "kind", "kind", "shelters", 3,
            ))
            .unwrap();
        cluster.publish("Shelters", t(1), report("fire")).unwrap();
        let got = shared_results(&mut cluster, first);
        assert_eq!(
            got[0].payload.get("shelters").unwrap().as_array().unwrap(),
            [report("fire")]
        );
        let stored = &cluster.dataset("Reports").unwrap().get(0).unwrap().value;
        assert!(!Arc::ptr_eq(&got[0].payload, stored));
        assert_eq!(**stored, report("fire"));
    }

    fn inner_map(value: &DataValue) -> &Arc<BTreeMap<String, DataValue>> {
        match value {
            DataValue::Object(map) => map,
            other => panic!("not an object: {other}"),
        }
    }

    /// Every embedded row of every enriched result, on two channels and
    /// over repeated fetches, is the dataset's own map, not a copy.
    #[test]
    fn enriched_payloads_embed_the_datasets_own_rows() {
        let (mut cluster, by_kind) = cluster_with_channel();
        cluster.create_dataset("Shelters", Schema::open()).unwrap();
        cluster
            .register_channel(
                "channel Projected(kind: string) from Reports r \
                 where r.kind == $kind select r.kind",
            )
            .unwrap();
        let projected = cluster
            .subscribe(
                "Projected",
                ParamBindings::from_pairs([("kind", DataValue::from("fire"))]),
                Timestamp::ZERO,
            )
            .unwrap();
        for channel in ["ByKind", "Projected"] {
            let rule = EnrichmentRule::join(channel, "Shelters", "kind", "kind", "shelters", 3);
            cluster.add_enrichment(rule).unwrap();
        }
        for (sec, name) in [(1, "a"), (2, "b")] {
            let shelter = DataValue::object([
                ("kind", DataValue::from("fire")),
                ("name", DataValue::from(name)),
            ]);
            cluster.publish("Shelters", t(sec), shelter).unwrap();
        }
        cluster.publish("Reports", t(5), report("fire")).unwrap();

        let rows: Vec<Arc<BTreeMap<String, DataValue>>> = (0..2)
            .map(|seq| {
                Arc::clone(inner_map(
                    &cluster.dataset("Shelters").unwrap().get(seq).unwrap().value,
                ))
            })
            .collect();
        let all = TimeRange::closed(t(0), t(5));
        for bs in [by_kind, projected, by_kind, projected] {
            let got = cluster.fetch(bs, all);
            let embedded = got[0].payload.get("shelters").unwrap().as_array().unwrap();
            assert_eq!(embedded.len(), rows.len());
            for (row, stored) in embedded.iter().zip(&rows) {
                assert!(Arc::ptr_eq(inner_map(row), stored));
            }
        }
    }

    #[test]
    fn late_subscriber_only_gets_later_results() {
        let (mut cluster, _) = cluster_with_channel();
        cluster.publish("Reports", t(1), report("fire")).unwrap();
        let late = cluster
            .subscribe(
                "ByKind",
                ParamBindings::from_pairs([("kind", DataValue::from("fire"))]),
                t(5),
            )
            .unwrap();
        cluster.publish("Reports", t(6), report("fire")).unwrap();
        let results = cluster.fetch(late, TimeRange::closed(t(0), t(10)));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].ts, t(6));
    }
}
