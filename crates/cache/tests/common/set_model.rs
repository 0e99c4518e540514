//! Reference model of one result cache with the paper's subscriber
//! lists spelled out: every object carries the *set* `S(i,j)` of
//! subscribers still pending on it, and every operation walks the
//! cache from its oldest entry. This is `ResultCache` as it was before
//! per-subscriber cursors replaced the sets; `cursor_oracle` drives the
//! two side by side.

use std::collections::{BTreeSet, VecDeque};

use bad_cache::{GetPlan, NewObject, RateEstimator};
use bad_types::{ByteSize, ObjectId, SimDuration, SubscriberId, TimeRange, Timestamp};

#[derive(Clone, Debug)]
pub struct SetObject {
    pub id: ObjectId,
    pub ts: Timestamp,
    pub size: ByteSize,
    pub cached_at: Timestamp,
    pub pending: BTreeSet<SubscriberId>,
}

#[derive(Clone, Debug)]
pub struct SetResultCache {
    /// Oldest at the front.
    pub entries: VecDeque<SetObject>,
    pub subs: BTreeSet<SubscriberId>,
    pub total_bytes: ByteSize,
    pub arrivals: RateEstimator,
    pub consumption: RateEstimator,
    pub ttl: SimDuration,
    pub coverage_from: Timestamp,
}

impl SetResultCache {
    pub fn new(now: Timestamp, rate_window: SimDuration) -> Self {
        Self {
            entries: VecDeque::new(),
            subs: BTreeSet::new(),
            total_bytes: ByteSize::ZERO,
            arrivals: RateEstimator::new(rate_window),
            consumption: RateEstimator::new(rate_window),
            ttl: SimDuration::from_hours(24),
            coverage_from: now,
        }
    }

    pub fn add_subscriber(&mut self, sub: SubscriberId) {
        self.subs.insert(sub);
    }

    pub fn remove_subscriber(&mut self, sub: SubscriberId) -> Vec<SetObject> {
        self.subs.remove(&sub);
        self.strip(sub, None, true)
    }

    pub fn insert(&mut self, desc: NewObject, now: Timestamp) {
        self.arrivals.record(now, desc.size.as_u64());
        self.total_bytes += desc.size;
        self.entries.push_back(SetObject {
            id: desc.id,
            ts: desc.ts,
            size: desc.size,
            cached_at: now,
            pending: self.subs.clone(),
        });
    }

    pub fn plan_get(&self, range: TimeRange) -> GetPlan {
        let mut plan = GetPlan {
            cached: Vec::new(),
            cached_bytes: ByteSize::ZERO,
            missed: Vec::new(),
        };
        if range.is_empty() {
            return plan;
        }
        let covered_from = self.coverage_from;
        if range.to < covered_from || (range.to == covered_from && !range.closed_right) {
            plan.missed.push(range);
            return plan;
        }
        if range.from < covered_from {
            plan.missed
                .push(TimeRange::half_open(range.from, covered_from));
        }
        for object in &self.entries {
            if object.ts > range.to {
                break;
            }
            if range.contains(object.ts) {
                plan.cached.push((object.id, object.ts, object.size));
                plan.cached_bytes += object.size;
            }
        }
        plan
    }

    pub fn consume_up_to(
        &mut self,
        sub: SubscriberId,
        up_to: Timestamp,
        now: Timestamp,
    ) -> Vec<SetObject> {
        let dropped = self.strip(sub, Some(up_to), true);
        for object in &dropped {
            self.consumption.record(now, object.size.as_u64());
        }
        dropped
    }

    pub fn mark_retrieved_up_to(&mut self, sub: SubscriberId, up_to: Timestamp) {
        self.strip(sub, Some(up_to), false);
    }

    /// Walks from the oldest entry (to the first one past `up_to`, if
    /// given), removing `sub` from each pending set and, when `drop` is
    /// set, removing every entry whose set is empty.
    fn strip(&mut self, sub: SubscriberId, up_to: Option<Timestamp>, drop: bool) -> Vec<SetObject> {
        let mut dropped = Vec::new();
        let mut idx = 0;
        while idx < self.entries.len() {
            if up_to.is_some_and(|t| self.entries[idx].ts > t) {
                break;
            }
            self.entries[idx].pending.remove(&sub);
            if drop && self.entries[idx].pending.is_empty() {
                let object = self.entries.remove(idx).expect("index in bounds");
                self.total_bytes -= object.size;
                dropped.push(object);
            } else {
                idx += 1;
            }
        }
        dropped
    }

    pub fn drop_tail(&mut self) -> Option<SetObject> {
        let object = self.entries.pop_front()?;
        self.total_bytes -= object.size;
        self.advance_coverage_past(object.ts);
        Some(object)
    }

    pub fn expire_tail(&mut self, now: Timestamp) -> Vec<SetObject> {
        let mut dropped = Vec::new();
        while self
            .entries
            .front()
            .is_some_and(|tail| tail.cached_at + self.ttl <= now)
        {
            dropped.extend(self.drop_tail());
        }
        dropped
    }

    fn advance_coverage_past(&mut self, ts: Timestamp) {
        let past = ts + SimDuration::from_micros(1);
        self.coverage_from = self.coverage_from.max(past);
    }
}
