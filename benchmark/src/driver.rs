//! Replays a tape against the real `DataCluster` + `Broker`, acting as
//! every client: it retrieves when the broker says to, keeps a reference
//! count of what each subscription must receive, and times each call
//! from outside the program.

use std::collections::VecDeque;
use std::time::Instant;

use bad_broker::{Broker, BrokerConfig, ClusterHandle, Delivery};
use bad_cache::{CacheConfig, PolicyName};
use bad_cluster::{DataCluster, EnrichmentRule, Notification};
use bad_net::NetworkModel;
use bad_query::ParamBindings;
use bad_storage::{ResultObject, Schema};
use bad_types::{
    BackendSubId, ByteSize, DataValue, FrontendSubId, Result, SubscriberId, TimeRange, Timestamp,
};

use crate::hist::Hist;
use crate::measure::{self, mib, put, Values};
use crate::observed::Observed;
use crate::spans::{Name, Spans};
use crate::tape::{self, Ev, Tape, SEC};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    T2Fit,
    T2Tight,
    EmergencyTtl,
    T2FitObserved,
    CacheRw2t,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::T2Fit,
        Workload::T2Tight,
        Workload::EmergencyTtl,
        Workload::T2FitObserved,
        Workload::CacheRw2t,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::T2Fit => "t2_fit",
            Workload::T2Tight => "t2_tight",
            Workload::EmergencyTtl => "emergency_ttl",
            Workload::T2FitObserved => "t2_fit_observed",
            Workload::CacheRw2t => "cache_rw_2t",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Virtual seconds of tape one wall second of a pass's measured window
/// replays, calibrated in the 2-core container the baselines were taken
/// in so that a window lasts about as long as asked. The cost of an
/// operation grows along the tape (caches fill, datasets grow), so these
/// hold for windows of about five seconds.
fn virtual_secs_per_sec(workload: Workload) -> f64 {
    match workload {
        // Identical tapes, so the observed run's counts must equal the
        // plain run's exactly.
        Workload::T2Fit | Workload::T2FitObserved => 590.0,
        // A longer cut of the same tape: under eviction the caches stay
        // small and every operation is cheaper.
        Workload::T2Tight => 775.0,
        Workload::EmergencyTtl => 810.0,
        Workload::CacheRw2t => unreachable!("sized by operations, not virtual time"),
    }
}

/// Seconds of result volume the tight budget holds; cut until LSC's hit
/// ratio on seed 1 sits in the middle of 0.45–0.65.
const TIGHT_BUDGET_SECS: f64 = 130.0;
/// Seconds of result volume the emergency TTL budget holds: small
/// enough that objects expire before slow subscribers return.
const EMERGENCY_BUDGET_SECS: f64 = 240.0;

/// The data cluster as the broker sees it, with every call through the
/// handle recorded as a child span of the broker call that caused it.
struct Cluster {
    inner: DataCluster,
    spans: Spans,
    /// Set while the broker handles a notification: a fetch then fills
    /// the cache, any other fetch is a retrieval's miss.
    populating: bool,
    /// Bytes fetched for misses.
    fetch_bytes: u64,
}

impl Cluster {
    fn handle_span(&mut self, name: Name) -> Option<Instant> {
        self.spans.trace.then(|| self.spans.enter(name))
    }

    fn close(&mut self, start: Option<Instant>) {
        if let Some(start) = start {
            self.spans.exit(start);
        }
    }
}

impl ClusterHandle for Cluster {
    fn cluster_subscribe(
        &mut self,
        channel: &str,
        params: ParamBindings,
        now: Timestamp,
    ) -> Result<BackendSubId> {
        let t = self.handle_span(Name::ClusterSubscribe);
        let out = self.inner.subscribe(channel, params, now);
        self.close(t);
        out
    }

    fn cluster_unsubscribe(&mut self, bs: BackendSubId) -> Result<()> {
        let t = self.handle_span(Name::ClusterUnsubscribe);
        let out = self.inner.unsubscribe(bs);
        self.close(t);
        out
    }

    fn cluster_fetch(&mut self, bs: BackendSubId, range: TimeRange) -> Vec<ResultObject> {
        let t = self.handle_span(if self.populating {
            Name::ClusterPopulate
        } else {
            Name::ClusterFetch
        });
        let out = self.inner.fetch(bs, range);
        self.close(t);
        if !self.populating {
            self.fetch_bytes += out.iter().map(|o| o.size.as_u64()).sum::<u64>();
        }
        out
    }
}

/// One frontend subscription as the reference model sees it.
#[derive(Clone, Copy)]
struct Front {
    fs: FrontendSubId,
    bs: usize,
    /// Results the backend subscription had emitted at attach time.
    attached_at: u64,
    /// … and at the last delivery.
    seen: u64,
    received: u64,
}

/// A retrieval a notified, online client is about to make.
struct Pending {
    due: u64,
    sub: u32,
    fs: FrontendSubId,
    req: u64,
}

struct World {
    cl: Cluster,
    broker: Broker,
    observed: Option<Observed>,
    net: NetworkModel,
    /// For Table II tapes, the one subscription each record must land on.
    single_match: bool,
    interests: Vec<(&'static str, ParamBindings)>,
    datasets: Vec<&'static str>,
    online: Vec<bool>,
    fronts: Vec<Vec<Option<Front>>>,
    /// Per backend subscription id: results emitted, frontends attached.
    emitted: Vec<u64>,
    attached: Vec<u32>,
    pending: VecDeque<Pending>,
    next_req: u64,
    ops: u64,
    failed: u64,
    notified: u64,
    results: u64,
    get: Hist,
    ingest: Hist,
}

fn sub_id(k: u32) -> SubscriberId {
    SubscriberId::new(k as u64)
}

impl World {
    fn build(workload: Workload, tape: &Tape, trace: bool) -> Result<World> {
        let mut cluster = DataCluster::new();
        for name in &tape.datasets {
            cluster.create_dataset(name, Schema::open())?;
        }
        for bql in &tape.channels {
            cluster.register_channel(bql)?;
        }
        for &(channel, aux) in &tape.enrichments {
            cluster.add_enrichment(EnrichmentRule::join(
                channel, aux, "district", "district", "shelters", 3,
            ))?;
        }

        let volume = |secs: f64| ByteSize::new((tape.bytes_per_sec * secs) as u64);
        let (policy, budget) = match workload {
            // Never evicts: far more than the whole tape's volume.
            Workload::T2Fit | Workload::T2FitObserved => (PolicyName::Lsc, ByteSize::from_gib(64)),
            Workload::T2Tight => (PolicyName::Lsc, volume(TIGHT_BUDGET_SECS)),
            Workload::EmergencyTtl => (PolicyName::Ttl, volume(EMERGENCY_BUDGET_SECS)),
            Workload::CacheRw2t => unreachable!("drives the cache directly"),
        };
        let mut observed = (workload == Workload::T2FitObserved).then(Observed::new);
        let config = BrokerConfig {
            cache: CacheConfig {
                budget,
                ..CacheConfig::default()
            },
            // An observed deployment switches the sketches on.
            sketches: observed
                .as_ref()
                .map(|_| bad_telemetry::SketchConfig::default()),
            ..BrokerConfig::default()
        };
        let mut broker = Broker::new(policy, config);
        if let Some(observed) = &mut observed {
            observed.attach(&mut cluster, &mut broker);
        }

        Ok(World {
            cl: Cluster {
                inner: cluster,
                spans: Spans::new(trace),
                populating: false,
                fetch_bytes: 0,
            },
            broker,
            observed,
            net: config.net,
            single_match: tape.channels == [tape::T2_CHANNEL],
            interests: tape.interests.clone(),
            datasets: tape.datasets.clone(),
            online: tape.online.clone(),
            fronts: tape.initial.iter().map(|s| vec![None; s.len()]).collect(),
            emitted: Vec::new(),
            attached: Vec::new(),
            pending: VecDeque::new(),
            next_req: 0,
            ops: 0,
            failed: 0,
            notified: 0,
            results: 0,
            get: Hist::new(),
            ingest: Hist::new(),
        })
    }

    fn new_request(&mut self) -> u64 {
        self.next_req += 1;
        self.cl.spans.req = self.next_req;
        self.next_req
    }

    /// One program call, timed: counts it, and counts it failed on `Err`.
    fn call<T>(
        &mut self,
        name: Name,
        f: impl FnOnce(&mut Broker, &mut Cluster) -> Result<T>,
    ) -> (Option<T>, u64) {
        let start = self.cl.spans.enter(name);
        let out = f(&mut self.broker, &mut self.cl);
        let ns = self.cl.spans.exit(start);
        self.ops += 1;
        if out.is_err() {
            self.failed += 1;
        }
        (out.ok(), ns)
    }

    fn subscribe(&mut self, sub: u32, slot: u16, interest: u16, now: Timestamp) {
        let (channel, params) = self.interests[interest as usize].clone();
        let (fs, _) = self.call(Name::BrokerSubscribe, |broker, cl| {
            broker.subscribe(cl, sub_id(sub), channel, params, now)
        });
        let Some(fs) = fs else { return };
        let frontend = self.broker.subscriptions().frontend(fs);
        let bs = frontend.expect("just created").backend.as_u64() as usize;
        if self.emitted.len() <= bs {
            self.emitted.resize(bs + 1, 0);
            self.attached.resize(bs + 1, 0);
        }
        self.attached[bs] += 1;
        self.fronts[sub as usize][slot as usize] = Some(Front {
            fs,
            bs,
            attached_at: self.emitted[bs],
            seen: self.emitted[bs],
            received: 0,
        });
    }

    /// Checks one delivery against the reference count and books it.
    fn check_delivery(&mut self, sub: u32, delivery: &Delivery) {
        let slots = &mut self.fronts[sub as usize];
        let front = slots
            .iter_mut()
            .flatten()
            .find(|f| f.fs == delivery.frontend);
        let Some(front) = front else {
            self.failed += 1;
            return;
        };
        let expected = self.emitted[front.bs] - front.seen;
        if delivery.total_objects() != expected {
            self.failed += 1;
        }
        front.seen = self.emitted[front.bs];
        front.received += delivery.total_objects();
    }

    fn get_results(&mut self, sub: u32, fs: FrontendSubId, now: Timestamp) {
        let (delivery, ns) = self.call(Name::BrokerGet, |broker, cl| {
            broker.get_results(cl, sub_id(sub), fs, now)
        });
        self.get.record(ns);
        if let Some(delivery) = delivery {
            self.check_delivery(sub, &delivery);
        }
    }

    fn get_all_pending(&mut self, sub: u32, now: Timestamp) {
        let due = self.fronts[sub as usize]
            .iter()
            .flatten()
            .filter(|f| self.emitted[f.bs] > f.seen)
            .count();
        let (deliveries, ns) = self.call(Name::BrokerGetAll, |broker, cl| {
            broker.get_all_pending(cl, sub_id(sub), now)
        });
        self.get.record(ns);
        let Some(deliveries) = deliveries else { return };
        if deliveries.len() != due {
            self.failed += 1;
        }
        for delivery in &deliveries {
            self.check_delivery(sub, delivery);
        }
    }

    /// Detaches a slot's subscription after one last retrieval, and
    /// checks it received exactly what was emitted while attached.
    fn unsubscribe(&mut self, sub: u32, slot: u16, now: Timestamp) {
        let Some(front) = self.fronts[sub as usize][slot as usize] else {
            return;
        };
        if self.emitted[front.bs] > front.seen {
            self.get_results(sub, front.fs, now);
        }
        self.call(Name::BrokerUnsubscribe, |broker, cl| {
            broker.unsubscribe(cl, sub_id(sub), front.fs, now)
        });
        let front = self.fronts[sub as usize][slot as usize]
            .take()
            .expect("checked above");
        self.attached[front.bs] -= 1;
        if !self.complete(&front) {
            self.failed += 1;
        }
    }

    /// Whether a subscription has received exactly what its backend
    /// subscription emitted while it was attached.
    fn complete(&self, front: &Front) -> bool {
        front.received == self.emitted[front.bs] - front.attached_at
    }

    /// Hands each notification to the broker and queues the retrievals
    /// of the online subscribers it names.
    fn notify(&mut self, notifications: Vec<Notification>, at: u64, req: u64) {
        let now = Timestamp::from_micros(at);
        let due = at + self.net.notify_latency().as_micros();
        for notification in notifications {
            let bs = notification.backend_sub.as_u64() as usize;
            if bs >= self.emitted.len() {
                self.failed += 1;
                continue;
            }
            self.emitted[bs] += notification.count;
            self.results += notification.count;
            let start = self.cl.spans.enter(Name::BrokerNotify);
            self.cl.populating = true;
            let outcome = self.broker.on_notification(&mut self.cl, notification, now);
            self.cl.populating = false;
            self.cl.spans.exit(start);
            self.ops += 1;
            self.notified += outcome.notify.len() as u64;
            if outcome.notify.len() != self.attached[bs] as usize
                || outcome.fetched_objects != notification.count
            {
                self.failed += 1;
            }
            for subscriber in outcome.notify {
                let sub = subscriber.as_u64() as u32;
                if !self.online[sub as usize] {
                    continue;
                }
                let mut held = self.fronts[sub as usize].iter().flatten();
                match held.find(|f| f.bs == bs) {
                    Some(front) => self.pending.push_back(Pending {
                        due,
                        sub,
                        fs: front.fs,
                        req,
                    }),
                    None => self.failed += 1,
                }
            }
        }
    }

    /// Makes the queued retrievals that are due by `at`.
    fn retrieve_due(&mut self, at: u64) {
        while self.pending.front().is_some_and(|p| p.due <= at) {
            let p = self.pending.pop_front().expect("front checked");
            let mut held = self.fronts[p.sub as usize].iter().flatten();
            let wanted = held.any(|f| f.fs == p.fs && self.emitted[f.bs] > f.seen);
            if wanted && self.online[p.sub as usize] {
                self.cl.spans.req = p.req;
                self.get_results(p.sub, p.fs, Timestamp::from_micros(p.due));
            }
        }
    }

    /// One ingest step: a publication or a tick, plus the broker's
    /// handling of every notification it produces.
    fn ingest(
        &mut self,
        name: Name,
        at: u64,
        expect_on: Option<u16>,
        f: impl FnOnce(&mut DataCluster) -> Result<Vec<Notification>>,
    ) {
        let req = self.new_request();
        let step = self.cl.spans.enter(Name::Ingest);
        let start = self.cl.spans.enter(name);
        let out = f(&mut self.cl.inner);
        self.cl.spans.exit(start);
        self.ops += 1;
        let produced = out
            .as_ref()
            .map_or((0, None), |n| (n.len(), n.first().copied()));
        match out {
            Ok(notifications) => self.notify(notifications, at, req),
            Err(_) => self.failed += 1,
        }
        let ns = self.cl.spans.exit(step);
        self.ingest.record(ns);
        if let Some(interest) = expect_on {
            self.check_single_match(produced, interest);
        }
    }

    /// Table II reference: a record for stream `s` yields exactly one
    /// result, on the backend subscription of interest `s`. `produced` is
    /// how many notifications the publication gave, and the first.
    fn check_single_match(&mut self, produced: (usize, Option<Notification>), interest: u16) {
        let (channel, params) = &self.interests[interest as usize];
        let want = self.broker.subscriptions().find_backend(channel, params);
        let ok = match (produced, want) {
            ((1, Some(n)), Some(bs)) => n.backend_sub == bs && n.count == 1,
            ((0, _), None) => true,
            _ => false,
        };
        if !ok {
            self.failed += 1;
        }
    }

    fn step(&mut self, tape: &mut Tape, i: usize) {
        let (at, ev) = (tape.steps[i].at, tape.steps[i].ev);
        self.retrieve_due(at);
        let now = Timestamp::from_micros(at);
        match ev {
            Ev::Publish { dataset, rec } => {
                let record = std::mem::replace(&mut tape.records[rec as usize], DataValue::Null);
                let expect_on = self.single_match.then(|| {
                    let stream = record.get("stream").and_then(DataValue::as_i64);
                    stream.expect("tape record names its stream") as u16
                });
                let dataset = self.datasets[dataset as usize];
                self.ingest(Name::ClusterPublish, at, expect_on, |cluster| {
                    cluster.publish(dataset, now, record)
                });
            }
            Ev::Tick => self.ingest(Name::ClusterTick, at, None, |cluster| cluster.tick(now)),
            Ev::Maintain => {
                self.new_request();
                let start = self.cl.spans.enter(Name::BrokerMaintain);
                self.broker.maintain(now);
                if let Some(observed) = &mut self.observed {
                    observed.after_maintain(&self.broker, now);
                }
                self.cl.spans.exit(start);
                self.ops += 1;
                if let Some(observed) = &mut self.observed {
                    if (at / SEC).is_multiple_of(15) {
                        let start = self.cl.spans.enter(Name::TelemetryScrape);
                        observed.scrape();
                        self.cl.spans.exit(start);
                    }
                }
            }
            Ev::Login(sub) => {
                self.online[sub as usize] = true;
                self.new_request();
                self.get_all_pending(sub, now);
            }
            Ev::Logout(sub) => self.online[sub as usize] = false,
            Ev::Resubscribe {
                sub,
                slot,
                interest,
            } => {
                self.new_request();
                self.unsubscribe(sub, slot, now);
                self.subscribe(sub, slot, interest, now);
            }
        }
    }

    /// After the window: every subscription fetches what is left, and
    /// must then have received exactly what was emitted while attached.
    fn settle(&mut self, at: u64) {
        let now = Timestamp::from_micros(at);
        for sub in 0..self.fronts.len() as u32 {
            self.get_all_pending(sub, now);
            let held = self.fronts[sub as usize].iter().flatten();
            self.failed += held.filter(|f| !self.complete(f)).count() as u64;
        }
    }
}

/// Runs one pass of a broker workload in this process. `started` is when
/// the process began, so set-up covers everything before the window.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    window_secs: f64,
    trace: bool,
    started: Instant,
) -> Result<(Values, Spans)> {
    let horizon =
        (virtual_secs_per_sec(workload) * window_secs / (1.0 - tape::WARM_SHARE)).ceil() as u64;
    let mut tape = match workload {
        Workload::EmergencyTtl => tape::emergency(seed, horizon),
        _ => tape::t2(seed, horizon),
    };
    let mut world = World::build(workload, &tape, trace)?;
    let traced = trace.then(measure::trace_profiler);
    if let Some((_, profiler)) = &traced {
        // The observed workload already carries the program's profiler.
        if world.observed.is_none() {
            world.broker.cache().set_profiler(profiler);
        }
    }
    // Keep a few records for the probe loops: replay consumes the tape's.
    let sample: Vec<DataValue> = if trace {
        let publishes = tape.steps.iter().filter_map(|s| match s.ev {
            Ev::Publish { dataset: 0, rec } => Some(tape.records[rec as usize].clone()),
            _ => None,
        });
        publishes.take(256).collect()
    } else {
        Vec::new()
    };

    for sub in 0..tape.initial.len() {
        for slot in 0..tape.initial[sub].len() {
            let interest = tape.initial[sub][slot];
            world.subscribe(sub as u32, slot as u16, interest, Timestamp::ZERO);
        }
    }
    let mut out = Values::new();
    if trace {
        measure::registration(&mut out, &world.cl.spans);
    }
    for i in 0..tape.warm_steps {
        world.step(&mut tape, i);
    }

    // Open the window: forget what warm-up recorded.
    world.cl.spans.reset();
    world.cl.fetch_bytes = 0;
    (world.ops, world.notified, world.results) = (0, 0, 0);
    world.get = Hist::new();
    world.ingest = Hist::new();
    let cache_before = world.broker.cache().metrics();
    let delivery_before = world.broker.delivery_metrics();
    let publications_before = world.cl.inner.stats().publications;
    let coalesce_before = world.broker.coalesce_stats();
    if let Some(observed) = &mut world.observed {
        observed.open_window();
    }
    let setup_s = started.elapsed().as_secs_f64();

    let window = Instant::now();
    for i in tape.warm_steps..tape.steps.len() {
        world.step(&mut tape, i);
    }
    let wall_ns = window.elapsed().as_nanos() as u64;

    let cache_after = world.broker.cache().metrics();
    let delivery_after = world.broker.delivery_metrics();
    let coalesce_after = world.broker.coalesce_stats();
    let ops = world.ops;
    let publications = world.cl.inner.stats().publications - publications_before;
    let result_volume = world.cl.inner.result_volume().as_u64();

    let hit_ratio = measure::cache_counts(&mut out, &cache_before, &cache_after);
    measure::end_to_end(
        &mut out,
        setup_s,
        wall_ns as f64 / 1e9,
        ops,
        &world.get,
        &world.ingest,
        hit_ratio,
    );
    let deliveries = delivery_after.deliveries - delivery_before.deliveries;
    let non_empty = delivery_after.non_empty_deliveries - delivery_before.non_empty_deliveries;
    let latency = delivery_after.total_latency - delivery_before.total_latency;
    put(&mut out, "deliveries", deliveries as f64);
    put(
        &mut out,
        "delivered_objects",
        (delivery_after.delivered_objects - delivery_before.delivered_objects) as f64,
    );
    put(
        &mut out,
        "net.mean_delivery_ms",
        latency.as_millis_f64() / non_empty.max(1) as f64,
    );
    put(
        &mut out,
        "broker.coalesced_fetches",
        (coalesce_after.coalesced_fetches - coalesce_before.coalesced_fetches) as f64,
    );
    put(
        &mut out,
        "broker.duplicate_mib_saved",
        mib(
            (coalesce_after.duplicate_bytes_saved - coalesce_before.duplicate_bytes_saved).as_u64(),
        ),
    );
    put(
        &mut out,
        "broker.notify_fanout_mean",
        world.notified as f64 / world.results.max(1) as f64,
    );
    put(
        &mut out,
        "cluster.results_per_publication",
        world.results as f64 / publications.max(1) as f64,
    );
    put(&mut out, "cluster.fetch_mib", mib(world.cl.fetch_bytes));
    put(&mut out, "storage.result_store_mib", mib(result_volume));

    if let Some((registry, profiler)) = &traced {
        measure::span_values(&mut out, &world.cl.spans, wall_ns);
        match &world.observed {
            Some(observed) => {
                measure::profiler_counts(&mut out, observed.registry(), observed.profiler())
            }
            None => measure::profiler_counts(&mut out, registry, profiler),
        }
        measure::probes(&mut out, &tape.channels, &sample, &world.net);
    }
    if let Some(observed) = &world.observed {
        observed.values(&mut out);
    }

    // Everything measured is booked; now let every subscription fetch
    // what is left and check the totals.
    let spans = std::mem::replace(&mut world.cl.spans, Spans::new(false));
    world.settle(tape.steps.last().map_or(0, |s| s.at) + SEC);
    put(&mut out, "failed", world.failed as f64);
    // The process ends next: freeing hundreds of MiB of small objects one
    // by one first would only lengthen every pass.
    std::mem::forget((world, tape));
    Ok((out, spans))
}
