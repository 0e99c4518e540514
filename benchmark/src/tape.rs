//! Workload tapes: every exogenous event of a run, generated from the
//! seed before the measured window opens. Retrievals are not on the
//! tape; the driver issues them in reaction to the broker's own
//! notifications, as a client would (closed loop).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bad_query::ParamBindings;
use bad_types::{BoundingBox, DataValue, GeoPoint};

use crate::rng::{Rng, Zipf};

pub const SEC: u64 = 1_000_000;

#[derive(Clone, Copy, Debug)]
pub enum Ev {
    /// Publish `records[rec]` into `datasets[dataset]`.
    Publish {
        dataset: u8,
        rec: u32,
    },
    /// Run the repetitive channels.
    Tick,
    /// Broker maintenance.
    Maintain,
    /// Subscriber comes online and fetches everything pending.
    Login(u32),
    Logout(u32),
    /// Replace the interest in one slot of an online subscriber.
    Resubscribe {
        sub: u32,
        slot: u16,
        interest: u16,
    },
}

pub struct Step {
    pub at: u64,
    pub ev: Ev,
}

pub struct Tape {
    pub datasets: Vec<&'static str>,
    pub channels: Vec<&'static str>,
    /// `(channel, aux dataset)` pairs joined on `district`.
    pub enrichments: Vec<(&'static str, &'static str)>,
    /// The `(channel, params)` a subscription can name.
    pub interests: Vec<(&'static str, ParamBindings)>,
    /// Per subscriber, the interest held in each slot at time zero.
    pub initial: Vec<Vec<u16>>,
    pub online: Vec<bool>,
    pub records: Vec<DataValue>,
    pub steps: Vec<Step>,
    /// Steps before this index are replayed in set-up.
    pub warm_steps: usize,
    /// Mean result bytes a virtual second of the tape produces; cache
    /// budgets are stated in seconds of this volume so they track the seed.
    pub bytes_per_sec: f64,
}

/// Share of the horizon replayed as warm-up during set-up.
pub const WARM_SHARE: f64 = 0.3;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Src {
    Maintain,
    Tick,
    Stream(u32),
    Toggle(u32),
    Churn(u32),
    Shelter,
    UserLocation,
}

/// Time-ordered merge of the event sources. Ties break on insertion
/// order, and emitted times are made strictly increasing so no two
/// program calls share a timestamp.
struct Merge {
    heap: BinaryHeap<Reverse<(u64, u64, Src)>>,
    seq: u64,
    last: u64,
}

impl Merge {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            last: 0,
        }
    }

    fn push(&mut self, at: u64, src: Src) {
        self.heap.push(Reverse((at, self.seq, src)));
        self.seq += 1;
    }

    fn push_after(&mut self, now: u64, secs: f64, src: Src) {
        self.push(now + ((secs * SEC as f64) as u64).max(1000), src);
    }

    fn pop(&mut self) -> (u64, Src) {
        let Reverse((at, _, src)) = self.heap.pop().expect("periodic sources never end");
        self.last = at.max(self.last + 1);
        (self.last, src)
    }
}

/// ON/OFF sessions of Table II: lognormal, mean 20 / 30 minutes.
const ON_SECS: (f64, f64) = (20.0 * 60.0, 10.0 * 60.0);
const OFF_SECS: (f64, f64) = (30.0 * 60.0, 15.0 * 60.0);

fn session(rng: &mut Rng, online: bool) -> f64 {
    let (mean, std) = if online { ON_SECS } else { OFF_SECS };
    rng.lognormal(mean, std)
}

/// Every subscriber's ON/OFF process.
struct Sessions {
    online: Vec<bool>,
    rngs: Vec<Rng>,
}

impl Sessions {
    /// Starts every subscriber mid-cycle: online with the stationary
    /// probability, first toggle a uniform share of one session away.
    fn start(seed: u64, n: usize, merge: &mut Merge) -> Sessions {
        let p_on = ON_SECS.0 / (ON_SECS.0 + OFF_SECS.0);
        let mut rngs: Vec<Rng> = (0..n).map(|k| Rng::fork(seed, 3, k as u64)).collect();
        let mut online = Vec::with_capacity(n);
        for (k, rng) in rngs.iter_mut().enumerate() {
            let on = rng.unit() < p_on;
            online.push(on);
            let first = session(rng, on) * rng.unit();
            merge.push_after(0, first, Src::Toggle(k as u32));
        }
        Sessions { online, rngs }
    }

    /// Flips subscriber `k` at `at` and schedules its next flip.
    fn toggle(&mut self, k: u32, at: u64, merge: &mut Merge) -> Ev {
        let on = !self.online[k as usize];
        self.online[k as usize] = on;
        let next = session(&mut self.rngs[k as usize], on);
        merge.push_after(at, next, Src::Toggle(k));
        if on {
            Ev::Login(k)
        } else {
            Ev::Logout(k)
        }
    }
}

fn body(rng: &mut Rng) -> DataValue {
    // Table III's publication sizes: text of 200–1000 bytes.
    DataValue::from("x".repeat(rng.range(200, 1000) as usize))
}

fn warm_steps(steps: &[Step], horizon: u64) -> usize {
    let warm_until = (horizon as f64 * WARM_SHARE) as u64;
    steps.partition_point(|s| s.at < warm_until)
}

pub const T2_CHANNEL: &str =
    "channel ByStream(stream: int) from Posts p where p.stream == $stream select p";

/// Table II at 1/5 scale: 2 000 subscribers × 10 subscriptions over 200
/// Zipf(1.0) streams, Poisson arrivals per stream with mean
/// inter-arrival spread over [10, 60] s, lognormal ON/OFF sessions,
/// maintenance every virtual second.
pub fn t2(seed: u64, horizon_secs: u64) -> Tape {
    const SUBSCRIBERS: usize = 2000;
    const PER_SUBSCRIBER: usize = 10;
    const STREAMS: usize = 200;
    let horizon = horizon_secs * SEC;

    let zipf = Zipf::new(STREAMS, 1.0);
    let initial: Vec<Vec<u16>> = (0..SUBSCRIBERS)
        .map(|k| {
            let mut rng = Rng::fork(seed, 1, k as u64);
            zipf.sample_distinct(&mut rng, PER_SUBSCRIBER)
                .into_iter()
                .map(|s| s as u16)
                .collect()
        })
        .collect();

    let mut merge = Merge::new();
    let mut sessions = Sessions::start(seed, SUBSCRIBERS, &mut merge);
    let online = sessions.online.clone();
    let mut stream_rngs: Vec<Rng> = (0..STREAMS).map(|s| Rng::fork(seed, 2, s as u64)).collect();
    // Mean inter-arrival U[10, 60] s, but laid out by the golden-ratio
    // sequence instead of drawn from the seed: a few popular streams
    // carry a large share of all retrievals, and a seed that happened to
    // make them fast or slow would move every metric by tens of percent.
    let means: Vec<f64> = (0..STREAMS)
        .map(|s| 10.0 + 50.0 * ((s + 1) as f64 * 0.618_033_988_749_895).fract())
        .collect();
    // Poisson arrivals conditioned on their expected count: that many
    // uniform times over the horizon. A retrieval scans its cache, so a
    // popular stream's cost goes with the square of its arrival count,
    // and the count's own Poisson noise (±10 % on ~100 arrivals) would
    // otherwise be the largest difference between two seeds.
    for (s, rng) in stream_rngs.iter_mut().enumerate() {
        let arrivals = (horizon_secs as f64 / means[s]).round() as u64;
        for _ in 0..arrivals {
            merge.push_after(
                0,
                rng.uniform(0.0, horizon_secs as f64),
                Src::Stream(s as u32),
            );
        }
    }
    merge.push(SEC, Src::Maintain);

    let mut records = Vec::new();
    let mut steps = Vec::new();
    let mut bytes = 0u64;
    loop {
        let (at, src) = merge.pop();
        if at >= horizon {
            break;
        }
        let ev = match src {
            Src::Stream(s) => {
                let rng = &mut stream_rngs[s as usize];
                let record =
                    DataValue::object([("stream", DataValue::from(s as i64)), ("body", body(rng))]);
                bytes += record.estimated_size();
                records.push(record);
                Ev::Publish {
                    dataset: 0,
                    rec: records.len() as u32 - 1,
                }
            }
            Src::Toggle(k) => sessions.toggle(k, at, &mut merge),
            Src::Maintain => {
                merge.push(at + SEC, src);
                Ev::Maintain
            }
            _ => unreachable!("t2 schedules no other source"),
        };
        steps.push(Step { at, ev });
    }

    let interests = (0..STREAMS)
        .map(|s| {
            (
                "ByStream",
                ParamBindings::from_pairs([("stream", DataValue::from(s as i64))]),
            )
        })
        .collect();
    Tape {
        datasets: vec!["Posts"],
        channels: vec![T2_CHANNEL],
        enrichments: Vec::new(),
        interests,
        initial,
        online,
        records,
        warm_steps: warm_steps(&steps, horizon),
        steps,
        bytes_per_sec: bytes as f64 / horizon_secs as f64,
    }
}

/// The five repetitive channels of the paper's Table III, verbatim from
/// `bad_workload::TABLE_III_CHANNELS` (that crate does not build
/// offline, so the benchmark carries its own copy).
pub const TABLE_III_CHANNELS: [&str; 5] = [
    "channel EmergenciesOfType(etype: string) \
     from EmergencyReports r \
     where r.kind == $etype select r every 10s",
    "channel EmergenciesNearLocation(etype: string, area: region) \
     from EmergencyReports r \
     where r.kind == $etype and within(r.location, $area) select r every 10s",
    "channel SevereEmergencies(minsev: int) \
     from EmergencyReports r \
     where r.severity >= $minsev select r every 15s",
    "channel SheltersInDistrict(district: string) \
     from Shelters s \
     where s.district == $district select s every 60s",
    "channel DistrictEmergencies(district: string) \
     from EmergencyReports r \
     where r.district == $district select r every 30s",
];

const EMERGENCY_KINDS: [&str; 6] = [
    "tornado",
    "flood",
    "shooting",
    "fire",
    "earthquake",
    "gasleak",
];

/// Roughly Orange County, CA, as a 4 × 4 district grid.
fn city() -> BoundingBox {
    BoundingBox::new(GeoPoint::new(33.55, -118.05), GeoPoint::new(33.95, -117.55))
}

fn district_name(i: usize) -> String {
    format!("district-{i}")
}

/// The 139-interest space of Section VI: 6 kinds × (1 + 16 cells),
/// 5 severities, 16 districts × 2 channels.
fn emergency_interests(cells: &[BoundingBox]) -> Vec<(&'static str, ParamBindings)> {
    let mut out = Vec::new();
    for kind in EMERGENCY_KINDS {
        out.push((
            "EmergenciesOfType",
            ParamBindings::from_pairs([("etype", DataValue::from(kind))]),
        ));
        for cell in cells {
            out.push((
                "EmergenciesNearLocation",
                ParamBindings::from_pairs([
                    ("etype", DataValue::from(kind)),
                    ("area", cell.to_value()),
                ]),
            ));
        }
    }
    for minsev in 1..=5i64 {
        out.push((
            "SevereEmergencies",
            ParamBindings::from_pairs([("minsev", DataValue::from(minsev))]),
        ));
    }
    for i in 0..cells.len() {
        let district =
            || ParamBindings::from_pairs([("district", DataValue::from(district_name(i)))]);
        out.push(("SheltersInDistrict", district()));
        out.push(("DistrictEmergencies", district()));
    }
    out
}

struct City {
    bounds: BoundingBox,
    cells: Vec<BoundingBox>,
}

impl City {
    fn location(&self, rng: &mut Rng) -> GeoPoint {
        GeoPoint::new(
            rng.uniform(self.bounds.min.lat, self.bounds.max.lat),
            rng.uniform(self.bounds.min.lon, self.bounds.max.lon),
        )
    }

    fn district(&self, p: GeoPoint) -> String {
        let cell = self.cells.iter().position(|c| c.contains(p));
        district_name(cell.expect("sampled inside the city"))
    }

    fn report(&self, rng: &mut Rng) -> DataValue {
        let location = self.location(rng);
        DataValue::object([
            (
                "kind",
                DataValue::from(EMERGENCY_KINDS[rng.range(0, 5) as usize]),
            ),
            ("severity", DataValue::from(rng.range(1, 5) as i64)),
            ("location", location.to_value()),
            ("district", DataValue::from(self.district(location))),
            ("body", body(rng)),
        ])
    }

    fn shelter(&self, rng: &mut Rng) -> DataValue {
        let location = self.location(rng);
        DataValue::object([
            (
                "name",
                DataValue::from(format!("shelter-{}", rng.range(0, 9999))),
            ),
            ("district", DataValue::from(self.district(location))),
            ("location", location.to_value()),
            ("capacity", DataValue::from(rng.range(50, 2000) as i64)),
        ])
    }

    fn user_location(&self, rng: &mut Rng, user: u64) -> DataValue {
        DataValue::object([
            ("user", DataValue::from(user as i64)),
            ("location", self.location(rng).to_value()),
        ])
    }
}

/// Section VI's emergency city: the Table III channels over three
/// datasets with both shelter joins, 400 subscribers × 9 interests with
/// subscription churn, channel ticks every 5 s and maintenance every 1 s.
/// The report rate is raised from the paper's one per ~10 s until
/// `cluster.tick` is most of the wall time.
pub fn emergency(seed: u64, horizon_secs: u64) -> Tape {
    const SUBSCRIBERS: usize = 400;
    const PER_SUBSCRIBER: usize = 9;
    const REPORT_MEAN_SECS: f64 = 1.0;
    const SHELTER_MEAN_SECS: f64 = 20.0;
    const USER_LOCATION_MEAN_SECS: f64 = 2.0;
    const CHURN_MEAN_SECS: f64 = 300.0;
    const TICK_SECS: u64 = 5;
    /// Shelters known before the first report, so the joins have
    /// something to find from the start.
    const INITIAL_SHELTERS: usize = 1500;
    let horizon = horizon_secs * SEC;

    let bounds = city();
    let city = City {
        cells: bounds.grid(4),
        bounds,
    };
    let interests = emergency_interests(&city.cells);
    let zipf = Zipf::new(interests.len(), 1.0);
    let initial: Vec<Vec<u16>> = (0..SUBSCRIBERS)
        .map(|k| {
            let mut rng = Rng::fork(seed, 1, k as u64);
            zipf.sample_distinct(&mut rng, PER_SUBSCRIBER)
                .into_iter()
                .map(|i| i as u16)
                .collect()
        })
        .collect();
    let mut held = initial.clone();

    let mut merge = Merge::new();
    let mut sessions = Sessions::start(seed, SUBSCRIBERS, &mut merge);
    let online = sessions.online.clone();
    let mut churn_rngs: Vec<Rng> = (0..SUBSCRIBERS)
        .map(|k| Rng::fork(seed, 4, k as u64))
        .collect();
    for (k, rng) in churn_rngs.iter_mut().enumerate() {
        merge.push_after(0, rng.exp(CHURN_MEAN_SECS), Src::Churn(k as u32));
    }
    let mut rng = Rng::fork(seed, 5, 0);
    let mut records = Vec::new();
    let mut steps = Vec::new();
    for i in 0..INITIAL_SHELTERS {
        records.push(city.shelter(&mut rng));
        steps.push(Step {
            at: 1 + i as u64,
            ev: Ev::Publish {
                dataset: 1,
                rec: i as u32,
            },
        });
    }
    merge.last = INITIAL_SHELTERS as u64;
    merge.push_after(0, rng.exp(REPORT_MEAN_SECS), Src::Stream(0));
    merge.push_after(0, rng.exp(SHELTER_MEAN_SECS), Src::Shelter);
    merge.push_after(0, rng.exp(USER_LOCATION_MEAN_SECS), Src::UserLocation);
    merge.push(SEC, Src::Maintain);
    merge.push(TICK_SECS * SEC, Src::Tick);

    let mut bytes = 0u64;
    loop {
        let (at, src) = merge.pop();
        if at >= horizon {
            break;
        }
        let mut publish = |dataset: u8, record: DataValue| {
            records.push(record);
            Ev::Publish {
                dataset,
                rec: records.len() as u32 - 1,
            }
        };
        let ev = match src {
            Src::Stream(_) => {
                merge.push_after(at, rng.exp(REPORT_MEAN_SECS), src);
                let record = city.report(&mut rng);
                // A report lands on about six subscriptions (its kind,
                // kind × cell, district, and the severities below it).
                bytes += 6 * record.estimated_size();
                publish(0, record)
            }
            Src::Shelter => {
                merge.push_after(at, rng.exp(SHELTER_MEAN_SECS), src);
                publish(1, city.shelter(&mut rng))
            }
            Src::UserLocation => {
                merge.push_after(at, rng.exp(USER_LOCATION_MEAN_SECS), src);
                let user = rng.range(0, SUBSCRIBERS as u64 - 1);
                publish(2, city.user_location(&mut rng, user))
            }
            Src::Tick => {
                merge.push(at + TICK_SECS * SEC, src);
                Ev::Tick
            }
            Src::Maintain => {
                merge.push(at + SEC, src);
                Ev::Maintain
            }
            Src::Toggle(k) => sessions.toggle(k, at, &mut merge),
            Src::Churn(k) => {
                let rng = &mut churn_rngs[k as usize];
                merge.push_after(at, rng.exp(CHURN_MEAN_SECS), src);
                if !sessions.online[k as usize] {
                    continue;
                }
                let slots = &mut held[k as usize];
                let slot = rng.range(0, PER_SUBSCRIBER as u64 - 1) as usize;
                let interest = loop {
                    let i = zipf.sample(rng) as u16;
                    if !slots.contains(&i) {
                        break i;
                    }
                };
                slots[slot] = interest;
                Ev::Resubscribe {
                    sub: k,
                    slot: slot as u16,
                    interest,
                }
            }
        };
        steps.push(Step { at, ev });
    }

    Tape {
        datasets: vec!["EmergencyReports", "Shelters", "UserLocations"],
        channels: TABLE_III_CHANNELS.to_vec(),
        enrichments: vec![
            ("DistrictEmergencies", "Shelters"),
            ("SevereEmergencies", "Shelters"),
        ],
        interests,
        initial,
        online,
        records,
        warm_steps: warm_steps(&steps, horizon),
        steps,
        bytes_per_sec: bytes as f64 / horizon_secs as f64,
    }
}

/// A district cell, as the `area` parameter of the evaluation probe.
pub fn probe_area() -> DataValue {
    city().grid(4)[5].to_value()
}
