//! Frontend/backend subscription bookkeeping.
//!
//! "The broker suppresses subscriptions when multiple subscribers
//! subscribe to the same channel with the same set of parameters ... a
//! set of frontend subscriptions can be merged into a single backend
//! subscription" (Section III-C). The [`SubscriptionTable`] implements
//! that merging plus the per-subscription timestamp markers of
//! Algorithm 1: each frontend subscription remembers the newest result
//! delivered to its subscriber (`fts`), each backend subscription the
//! newest result fetched from the cluster (`bts`).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use bad_query::ParamBindings;
use bad_types::ids::IdSlab;
use bad_types::{BackendSubId, BadError, FrontendSubId, Result, SubscriberId, Timestamp};

/// One subscriber-facing subscription.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontendSub {
    /// Its identifier.
    pub id: FrontendSubId,
    /// The owning subscriber.
    pub subscriber: SubscriberId,
    /// The backend subscription it is merged into.
    pub backend: BackendSubId,
    /// `fts`: newest result timestamp delivered (and acknowledged).
    pub last_delivered: Timestamp,
    /// When the subscription was made.
    pub created_at: Timestamp,
}

/// One merged subscription against the data cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct BackendEntry {
    /// Its identifier (assigned by the cluster).
    pub id: BackendSubId,
    /// Channel name.
    pub channel: String,
    /// Bound parameters.
    pub params: ParamBindings,
    /// The frontend subscriptions sharing it, each with its owner: in
    /// id order this is the list a notification fans out to.
    pub frontends: BTreeMap<FrontendSubId, SubscriberId>,
    /// `bts`: newest result timestamp the broker has fetched/seen.
    pub last_seen: Timestamp,
}

/// The range one frontend subscription has yet to retrieve: `(fts, bts]`
/// on `backend`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingRange {
    /// The frontend subscription.
    pub frontend: FrontendSubId,
    /// The backend subscription it is merged into.
    pub backend: BackendSubId,
    /// `fts`: newest result timestamp already delivered.
    pub last_delivered: Timestamp,
    /// `bts`: newest result timestamp the broker has seen.
    pub last_seen: Timestamp,
}

/// One slot of the frontend slab: the subscription living in it, if
/// any, and how many times the slot was freed.
#[derive(Clone, Debug)]
struct FrontendSlot {
    generation: u32,
    sub: Option<FrontendSub>,
}

/// The frontend subscriptions, one slot each, minting their ids: a
/// [`FrontendSubId`] is its slot and the slot's generation
/// ([`FrontendSubId::from_parts`]). Freeing a slot bumps its
/// generation, so the freed id stops resolving; the next subscription
/// takes the most recently freed slot. The slab is therefore as long
/// as the peak number of live frontends, not the number ever minted.
#[derive(Clone, Debug, Default)]
struct FrontendSlab {
    slots: Vec<FrontendSlot>,
    /// Freed slots, the most recently freed last.
    free: Vec<u32>,
    live: usize,
}

impl FrontendSlab {
    /// The slot `fs` names, if its generation is current.
    fn slot_mut(&mut self, fs: FrontendSubId) -> Option<&mut FrontendSlot> {
        self.slots
            .get_mut(fs.slot() as usize)
            .filter(|slot| slot.generation == fs.generation())
    }

    fn get(&self, fs: FrontendSubId) -> Option<&FrontendSub> {
        self.slots
            .get(fs.slot() as usize)
            .filter(|slot| slot.generation == fs.generation())?
            .sub
            .as_ref()
    }

    fn get_mut(&mut self, fs: FrontendSubId) -> Option<&mut FrontendSub> {
        self.slot_mut(fs)?.sub.as_mut()
    }

    /// Stores the subscription `make` builds for its freshly minted id.
    fn insert(&mut self, make: impl FnOnce(FrontendSubId) -> FrontendSub) -> FrontendSubId {
        let index = self.free.pop().unwrap_or_else(|| {
            let index = u32::try_from(self.slots.len()).expect("fewer than 2^32 live frontends");
            self.slots.push(FrontendSlot {
                generation: 0,
                sub: None,
            });
            index
        });
        let slot = &mut self.slots[index as usize];
        let id = FrontendSubId::from_parts(index, slot.generation);
        slot.sub = Some(make(id));
        self.live += 1;
        id
    }

    /// Frees `fs`'s slot. A slot whose generation would wrap is retired
    /// instead of reused, so no id is ever minted twice.
    fn remove(&mut self, fs: FrontendSubId) -> Option<FrontendSub> {
        let slot = self.slot_mut(fs)?;
        let sub = slot.sub.take()?;
        if let Some(next) = slot.generation.checked_add(1) {
            slot.generation = next;
            self.free.push(fs.slot());
        }
        self.live -= 1;
        Some(sub)
    }
}

/// The broker's subscription state.
///
/// `frontends` and `backends` are read on every retrieval and keyed
/// only by identifiers the system mints, so they are slabs indexed by
/// the id; the other three maps have a client-chosen subscriber id,
/// channel name or parameter string in their key and stay on the keyed
/// default hasher.
#[derive(Clone, Debug, Default)]
pub struct SubscriptionTable {
    frontends: FrontendSlab,
    /// Boxed: a retired backend leaves an 8-byte slot behind.
    backends: IdSlab<BackendSubId, Box<BackendEntry>>,
    /// `(channel, canonical params) -> backend` merge map.
    merge_keys: HashMap<(String, String), BackendSubId>,
    /// Subscriber -> its frontend subscriptions.
    by_subscriber: HashMap<SubscriberId, BTreeSet<FrontendSubId>>,
    /// `(subscriber, backend) -> frontend`: a subscriber holds at most
    /// one frontend per backend, because consumption in the cache is
    /// keyed by subscriber.
    by_pair: HashMap<(SubscriberId, BackendSubId), FrontendSubId>,
}

impl SubscriptionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frontend subscriptions.
    pub fn frontend_count(&self) -> usize {
        self.frontends.live
    }

    /// Number of frontend slots: the peak number of frontend
    /// subscriptions live at once, however many were ever made.
    pub fn frontend_slots(&self) -> usize {
        self.frontends.slots.len()
    }

    /// Number of backend subscriptions.
    pub fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// Looks up the backend subscription for `(channel, params)`, if one
    /// already exists (the merge check).
    pub fn find_backend(&self, channel: &str, params: &ParamBindings) -> Option<BackendSubId> {
        self.merge_keys
            .get(&(channel.to_owned(), params.canonical_key()))
            .copied()
    }

    /// Registers a new backend subscription (id assigned by the cluster).
    ///
    /// # Errors
    ///
    /// Returns [`BadError::AlreadyExists`] when the merge key is taken.
    pub fn add_backend(
        &mut self,
        id: BackendSubId,
        channel: &str,
        params: ParamBindings,
        now: Timestamp,
    ) -> Result<()> {
        let key = (channel.to_owned(), params.canonical_key());
        if self.merge_keys.contains_key(&key) {
            return Err(BadError::already_exists(
                "backend subscription",
                format!("{key:?}"),
            ));
        }
        self.merge_keys.insert(key, id);
        self.backends.insert(
            id,
            Box::new(BackendEntry {
                id,
                channel: channel.to_owned(),
                params,
                frontends: BTreeMap::new(),
                last_seen: now,
            }),
        );
        Ok(())
    }

    /// The frontend subscription `subscriber` holds on `backend`, if any.
    pub fn find_frontend(
        &self,
        subscriber: SubscriberId,
        backend: BackendSubId,
    ) -> Option<FrontendSubId> {
        self.by_pair.get(&(subscriber, backend)).copied()
    }

    /// Attaches a new frontend subscription to an existing backend one,
    /// or returns the one `subscriber` already holds on it, untouched:
    /// the cache tracks retrieval per subscriber, so a second frontend
    /// would be owed objects the first one's ack already consumed.
    ///
    /// The frontend's `fts` marker starts at `now`: a subscriber "only
    /// receives result objects after its subscription".
    ///
    /// # Errors
    ///
    /// Returns [`BadError::NotFound`] for an unknown backend id.
    pub fn add_frontend(
        &mut self,
        subscriber: SubscriberId,
        backend: BackendSubId,
        now: Timestamp,
    ) -> Result<FrontendSubId> {
        if let Some(held) = self.find_frontend(subscriber, backend) {
            return Ok(held);
        }
        let entry = self
            .backends
            .get_mut(backend)
            .ok_or_else(|| BadError::not_found("backend subscription", backend.to_string()))?;
        let id = self.frontends.insert(|id| FrontendSub {
            id,
            subscriber,
            backend,
            last_delivered: now,
            created_at: now,
        });
        entry.frontends.insert(id, subscriber);
        self.by_pair.insert((subscriber, backend), id);
        self.by_subscriber.entry(subscriber).or_default().insert(id);
        Ok(id)
    }

    /// Looks up a frontend subscription.
    pub fn frontend(&self, fs: FrontendSubId) -> Option<&FrontendSub> {
        self.frontends.get(fs)
    }

    /// Looks up a backend subscription.
    pub fn backend(&self, bs: BackendSubId) -> Option<&BackendEntry> {
        self.backends.get(bs).map(Box::as_ref)
    }

    /// The frontend subscriptions of one subscriber.
    pub fn subscriptions_of(&self, subscriber: SubscriberId) -> Vec<FrontendSubId> {
        self.by_subscriber
            .get(&subscriber)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// What `subscriber` has yet to retrieve, one entry per frontend
    /// subscription with `bts > fts`, in frontend id order.
    pub fn pending_of(&self, subscriber: SubscriberId) -> impl Iterator<Item = PendingRange> + '_ {
        self.by_subscriber
            .get(&subscriber)
            .into_iter()
            .flatten()
            .filter_map(|fs| {
                let frontend = self.frontends.get(*fs).expect("consistent table");
                let backend = self
                    .backends
                    .get(frontend.backend)
                    .expect("consistent table");
                (backend.last_seen > frontend.last_delivered).then_some(PendingRange {
                    frontend: *fs,
                    backend: frontend.backend,
                    last_delivered: frontend.last_delivered,
                    last_seen: backend.last_seen,
                })
            })
    }

    /// Starts a retrieval of `fs` by `subscriber`: checks ownership,
    /// advances `fts` to the backend's `bts` (delivery and ack are one
    /// step) and returns the range that was pending — one lookup in
    /// each of the two tables.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::NotFound`] for an unknown id and
    /// [`BadError::InvalidArgument`] when `subscriber` does not own
    /// `fs`; neither changes the table.
    pub fn take_pending(
        &mut self,
        subscriber: SubscriberId,
        fs: FrontendSubId,
    ) -> Result<PendingRange> {
        let frontend = self
            .frontends
            .get_mut(fs)
            .ok_or_else(|| BadError::not_found("frontend subscription", fs.to_string()))?;
        if frontend.subscriber != subscriber {
            return Err(BadError::InvalidArgument(format!(
                "{fs} belongs to {}, not {subscriber}",
                frontend.subscriber
            )));
        }
        let last_seen = self
            .backends
            .get(frontend.backend)
            .expect("consistent table")
            .last_seen;
        let last_delivered = frontend.last_delivered;
        frontend.last_delivered = last_delivered.max(last_seen);
        Ok(PendingRange {
            frontend: fs,
            backend: frontend.backend,
            last_delivered,
            last_seen,
        })
    }

    /// Advances a backend's `bts` marker (after a notification/fetch)
    /// and returns the entry, whose `frontends` are whom to notify.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::NotFound`] for unknown ids.
    pub fn advance_backend_marker(
        &mut self,
        bs: BackendSubId,
        to: Timestamp,
    ) -> Result<&BackendEntry> {
        let entry = self
            .backends
            .get_mut(bs)
            .ok_or_else(|| BadError::not_found("backend subscription", bs.to_string()))?;
        entry.last_seen = entry.last_seen.max(to);
        Ok(entry)
    }

    /// Advances a frontend's `fts` marker (after delivery + ack).
    ///
    /// # Errors
    ///
    /// Returns [`BadError::NotFound`] for unknown ids.
    pub fn advance_frontend_marker(&mut self, fs: FrontendSubId, to: Timestamp) -> Result<()> {
        let sub = self
            .frontends
            .get_mut(fs)
            .ok_or_else(|| BadError::not_found("frontend subscription", fs.to_string()))?;
        sub.last_delivered = sub.last_delivered.max(to);
        Ok(())
    }

    /// Detaches a frontend subscription. Returns its backend id and
    /// whether the backend now has no frontends left (and was removed).
    ///
    /// # Errors
    ///
    /// Returns [`BadError::NotFound`] for unknown ids, and
    /// [`BadError::InvalidArgument`] when `subscriber` does not own `fs`.
    pub fn remove_frontend(
        &mut self,
        subscriber: SubscriberId,
        fs: FrontendSubId,
    ) -> Result<(BackendSubId, bool)> {
        let sub = self
            .frontends
            .get(fs)
            .ok_or_else(|| BadError::not_found("frontend subscription", fs.to_string()))?;
        if sub.subscriber != subscriber {
            return Err(BadError::InvalidArgument(format!(
                "{fs} belongs to {}, not {subscriber}",
                sub.subscriber
            )));
        }
        let backend = sub.backend;
        self.frontends.remove(fs);
        self.by_pair.remove(&(subscriber, backend));
        if let Some(set) = self.by_subscriber.get_mut(&subscriber) {
            set.remove(&fs);
            if set.is_empty() {
                self.by_subscriber.remove(&subscriber);
            }
        }
        let entry = self.backends.get_mut(backend).expect("consistent table");
        entry.frontends.remove(&fs);
        let orphaned = entry.frontends.is_empty();
        if orphaned {
            let key = (entry.channel.clone(), entry.params.canonical_key());
            self.backends.remove(backend);
            self.merge_keys.remove(&key);
        }
        Ok((backend, orphaned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bad_types::DataValue;

    fn params(kind: &str) -> ParamBindings {
        ParamBindings::from_pairs([("kind", DataValue::from(kind))])
    }

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    #[test]
    fn merging_shares_backends() {
        let mut table = SubscriptionTable::new();
        let bs = BackendSubId::new(7);
        table
            .add_backend(bs, "ByKind", params("fire"), t(0))
            .unwrap();
        let a = table.add_frontend(SubscriberId::new(1), bs, t(1)).unwrap();
        let b = table.add_frontend(SubscriberId::new(2), bs, t(2)).unwrap();
        assert_ne!(a, b);
        assert_eq!(table.find_backend("ByKind", &params("fire")), Some(bs));
        assert_eq!(table.find_backend("ByKind", &params("flood")), None);
        assert_eq!(table.backend(bs).unwrap().frontends.len(), 2);
        assert_eq!(table.frontend_count(), 2);
        assert_eq!(table.backend_count(), 1);
    }

    #[test]
    fn one_frontend_per_subscriber_and_backend() {
        let mut table = SubscriptionTable::new();
        let bs = BackendSubId::new(7);
        table
            .add_backend(bs, "ByKind", params("fire"), t(0))
            .unwrap();
        let alice = SubscriberId::new(1);
        let first = table.add_frontend(alice, bs, t(1)).unwrap();
        table.advance_frontend_marker(first, t(5)).unwrap();
        // A repeat returns the held frontend and leaves its marker alone.
        assert_eq!(table.add_frontend(alice, bs, t(9)).unwrap(), first);
        assert_eq!(table.frontend(first).unwrap().last_delivered, t(5));
        assert_eq!(table.frontend_count(), 1);
        assert_eq!(table.backend(bs).unwrap().frontends.len(), 1);
        assert_eq!(table.find_frontend(alice, bs), Some(first));
        // Once removed, the pair is free again.
        table.remove_frontend(alice, first).unwrap();
        assert_eq!(table.find_frontend(alice, bs), None);
    }

    #[test]
    fn markers_advance_monotonically() {
        let mut table = SubscriptionTable::new();
        let bs = BackendSubId::new(1);
        table
            .add_backend(bs, "C", ParamBindings::new(), t(0))
            .unwrap();
        let fs = table.add_frontend(SubscriberId::new(1), bs, t(5)).unwrap();
        assert_eq!(table.frontend(fs).unwrap().last_delivered, t(5));
        table.advance_frontend_marker(fs, t(10)).unwrap();
        table.advance_frontend_marker(fs, t(7)).unwrap(); // no regression
        assert_eq!(table.frontend(fs).unwrap().last_delivered, t(10));
        table.advance_backend_marker(bs, t(42)).unwrap();
        assert_eq!(table.backend(bs).unwrap().last_seen, t(42));
    }

    #[test]
    fn removing_last_frontend_orphans_backend() {
        let mut table = SubscriptionTable::new();
        let bs = BackendSubId::new(1);
        table.add_backend(bs, "C", params("x"), t(0)).unwrap();
        let a = table.add_frontend(SubscriberId::new(1), bs, t(0)).unwrap();
        let b = table.add_frontend(SubscriberId::new(2), bs, t(0)).unwrap();
        let (backend, orphaned) = table.remove_frontend(SubscriberId::new(1), a).unwrap();
        assert_eq!(backend, bs);
        assert!(!orphaned);
        let (_, orphaned) = table.remove_frontend(SubscriberId::new(2), b).unwrap();
        assert!(orphaned);
        assert_eq!(table.backend_count(), 0);
        // The merge key is free again.
        assert!(table
            .add_backend(BackendSubId::new(2), "C", params("x"), t(1))
            .is_ok());
    }

    #[test]
    fn ownership_is_enforced() {
        let mut table = SubscriptionTable::new();
        let bs = BackendSubId::new(1);
        table
            .add_backend(bs, "C", ParamBindings::new(), t(0))
            .unwrap();
        let fs = table.add_frontend(SubscriberId::new(1), bs, t(0)).unwrap();
        assert!(matches!(
            table.remove_frontend(SubscriberId::new(99), fs),
            Err(BadError::InvalidArgument(_))
        ));
    }

    #[test]
    fn subscriptions_of_lists_per_subscriber() {
        let mut table = SubscriptionTable::new();
        let bs1 = BackendSubId::new(1);
        let bs2 = BackendSubId::new(2);
        table.add_backend(bs1, "C", params("a"), t(0)).unwrap();
        table.add_backend(bs2, "C", params("b"), t(0)).unwrap();
        let alice = SubscriberId::new(1);
        let f1 = table.add_frontend(alice, bs1, t(0)).unwrap();
        let f2 = table.add_frontend(alice, bs2, t(0)).unwrap();
        let mut got = table.subscriptions_of(alice);
        got.sort();
        assert_eq!(got, vec![f1, f2]);
        assert!(table.subscriptions_of(SubscriberId::new(9)).is_empty());
    }

    #[test]
    fn take_pending_advances_the_marker_once_and_checks_the_owner() {
        let mut table = SubscriptionTable::new();
        let bs = BackendSubId::new(1);
        table.add_backend(bs, "C", params("x"), t(0)).unwrap();
        let alice = SubscriberId::new(1);
        let fs = table.add_frontend(alice, bs, t(2)).unwrap();
        table.advance_backend_marker(bs, t(9)).unwrap();
        assert_eq!(
            table.pending_of(alice).collect::<Vec<_>>(),
            vec![PendingRange {
                frontend: fs,
                backend: bs,
                last_delivered: t(2),
                last_seen: t(9),
            }]
        );

        // Neither a stranger nor an unknown id moves anything.
        assert!(matches!(
            table.take_pending(SubscriberId::new(99), fs),
            Err(BadError::InvalidArgument(_))
        ));
        assert!(matches!(
            table.take_pending(alice, FrontendSubId::new(77)),
            Err(BadError::NotFound { .. })
        ));
        assert_eq!(table.frontend(fs).unwrap().last_delivered, t(2));

        let taken = table.take_pending(alice, fs).unwrap();
        assert_eq!((taken.last_delivered, taken.last_seen), (t(2), t(9)));
        assert_eq!(table.frontend(fs).unwrap().last_delivered, t(9));
        assert_eq!(table.pending_of(alice).count(), 0);
        // Nothing new: an empty range, marker unchanged.
        let again = table.take_pending(alice, fs).unwrap();
        assert_eq!((again.last_delivered, again.last_seen), (t(9), t(9)));
    }

    #[test]
    fn freed_slots_are_reused_newest_first_under_a_new_generation() {
        let mut table = SubscriptionTable::new();
        let bs = BackendSubId::new(1);
        table.add_backend(bs, "C", params("x"), t(0)).unwrap();
        let ids: Vec<FrontendSubId> = (1..=3)
            .map(|s| table.add_frontend(SubscriberId::new(s), bs, t(0)).unwrap())
            .collect();
        assert_eq!(ids, (0..3).map(FrontendSubId::new).collect::<Vec<_>>());
        table.remove_frontend(SubscriberId::new(1), ids[0]).unwrap();
        table.remove_frontend(SubscriberId::new(3), ids[2]).unwrap();
        // The most recently freed slot goes first.
        let reused = table.add_frontend(SubscriberId::new(4), bs, t(1)).unwrap();
        assert_eq!(reused, FrontendSubId::from_parts(2, 1));
        let reused = table.add_frontend(SubscriberId::new(5), bs, t(1)).unwrap();
        assert_eq!(reused, FrontendSubId::from_parts(0, 1));
        assert_eq!(table.frontend_slots(), 3);
        assert!(table.frontend(ids[0]).is_none());
        assert_eq!(
            table.frontend(reused).unwrap().subscriber,
            SubscriberId::new(5)
        );
    }

    #[test]
    fn a_slot_whose_generation_would_wrap_is_retired() {
        let mut slab = FrontendSlab::default();
        let sub = |id| FrontendSub {
            id,
            subscriber: SubscriberId::new(1),
            backend: BackendSubId::new(1),
            last_delivered: t(0),
            created_at: t(0),
        };
        let first = slab.insert(sub);
        slab.slots[0].generation = u32::MAX;
        let last = FrontendSubId::from_parts(0, u32::MAX);
        assert!(slab.remove(first).is_none(), "stale generation");
        assert!(slab.remove(last).is_some());
        assert!(slab.free.is_empty());
        assert_eq!(slab.insert(sub), FrontendSubId::from_parts(1, 0));
        assert_eq!((slab.slots.len(), slab.live), (2, 1));
    }

    #[test]
    fn duplicate_merge_key_is_rejected() {
        let mut table = SubscriptionTable::new();
        table
            .add_backend(BackendSubId::new(1), "C", params("x"), t(0))
            .unwrap();
        assert!(table
            .add_backend(BackendSubId::new(2), "C", params("x"), t(0))
            .is_err());
    }

    #[test]
    fn unknown_ids_error() {
        let mut table = SubscriptionTable::new();
        assert!(table
            .add_frontend(SubscriberId::new(1), BackendSubId::new(9), t(0))
            .is_err());
        assert!(table
            .advance_backend_marker(BackendSubId::new(9), t(0))
            .is_err());
        assert!(table
            .advance_frontend_marker(FrontendSubId::new(9), t(0))
            .is_err());
        assert!(table
            .remove_frontend(SubscriberId::new(1), FrontendSubId::new(9))
            .is_err());
    }
}
