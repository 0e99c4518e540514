//! Spans around the driver's calls into each layer, recorded from the
//! benchmark's side of the public functions. With tracing off a span is
//! two clock reads; with it on, every span is folded online into
//! count / busy / self time / a latency histogram per name, and the full
//! spans of a 1-in-64 sample of request ids are kept in a preallocated
//! buffer until the pass ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::hist::Hist;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Name {
    /// One publication or tick with every notification it triggers.
    Ingest,
    ClusterPublish,
    ClusterTick,
    ClusterSubscribe,
    ClusterUnsubscribe,
    /// `cluster_fetch` caused by a retrieval (a cache miss).
    ClusterFetch,
    /// `cluster_fetch` caused by a notification (cache population).
    ClusterPopulate,
    BrokerGet,
    BrokerGetAll,
    BrokerNotify,
    BrokerSubscribe,
    BrokerUnsubscribe,
    BrokerMaintain,
    TelemetryScrape,
    CacheInsert,
    CachePlanGet,
    CacheAck,
    CacheMaintain,
}

impl Name {
    pub const ALL: [Name; 18] = [
        Name::Ingest,
        Name::ClusterPublish,
        Name::ClusterTick,
        Name::ClusterSubscribe,
        Name::ClusterUnsubscribe,
        Name::ClusterFetch,
        Name::ClusterPopulate,
        Name::BrokerGet,
        Name::BrokerGetAll,
        Name::BrokerNotify,
        Name::BrokerSubscribe,
        Name::BrokerUnsubscribe,
        Name::BrokerMaintain,
        Name::TelemetryScrape,
        Name::CacheInsert,
        Name::CachePlanGet,
        Name::CacheAck,
        Name::CacheMaintain,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Ingest => "bench.ingest_step",
            Name::ClusterPublish => "cluster.publish",
            Name::ClusterTick => "cluster.tick",
            Name::ClusterSubscribe => "cluster.subscribe",
            Name::ClusterUnsubscribe => "cluster.unsubscribe",
            Name::ClusterFetch => "cluster.fetch",
            Name::ClusterPopulate => "cluster.populate",
            Name::BrokerGet => "broker.get_results",
            Name::BrokerGetAll => "broker.get_all_pending",
            Name::BrokerNotify => "broker.on_notification",
            Name::BrokerSubscribe => "broker.subscribe",
            Name::BrokerUnsubscribe => "broker.unsubscribe",
            Name::BrokerMaintain => "broker.maintain",
            Name::TelemetryScrape => "telemetry.scrape",
            Name::CacheInsert => "cache.insert",
            Name::CachePlanGet => "cache.plan_get",
            Name::CacheAck => "cache.ack_consume",
            Name::CacheMaintain => "cache.maintain",
        }
    }

    /// Whether the span is time spent inside the program, as opposed to
    /// a grouping the driver defines.
    fn in_program(self) -> bool {
        self != Name::Ingest
    }
}

/// Online aggregate of one span name.
pub struct Fold {
    pub calls: u64,
    pub busy_ns: u64,
    /// Busy time minus the part covered by child spans.
    pub self_ns: u64,
    pub hist: Hist,
    pub self_hist: Hist,
}

struct Frame {
    name: Name,
    id: u32,
    children_ns: u64,
}

struct Kept {
    name: Name,
    id: u32,
    parent: u32,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// One in this many request ids keeps its full spans.
const KEEP_EVERY: u64 = 64;
const KEEP_CAPACITY: usize = 1 << 18;

pub struct Spans {
    pub trace: bool,
    /// Request id stamped on spans: all calls caused by one publication,
    /// tick or login share it.
    pub req: u64,
    epoch: Instant,
    stack: Vec<Frame>,
    folds: Vec<Fold>,
    next_id: u32,
    kept: Vec<Kept>,
}

impl Spans {
    pub fn new(trace: bool) -> Self {
        let folds = if trace {
            Name::ALL
                .iter()
                .map(|_| Fold {
                    calls: 0,
                    busy_ns: 0,
                    self_ns: 0,
                    hist: Hist::new(),
                    self_hist: Hist::new(),
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            trace,
            req: 0,
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            folds,
            next_id: 0,
            kept: Vec::with_capacity(if trace { KEEP_CAPACITY } else { 0 }),
        }
    }

    /// Drops everything recorded so far (end of warm-up).
    pub fn reset(&mut self) {
        *self = Self::new(self.trace);
    }

    #[inline]
    pub fn enter(&mut self, name: Name) -> Instant {
        if self.trace {
            self.next_id += 1;
            self.stack.push(Frame {
                name,
                id: self.next_id,
                children_ns: 0,
            });
        }
        Instant::now()
    }

    /// Closes the innermost span and returns its duration in ns.
    #[inline]
    pub fn exit(&mut self, start: Instant) -> u64 {
        let end = Instant::now();
        let ns = (end - start).as_nanos() as u64;
        if self.trace {
            self.close(start, end, ns);
        }
        ns
    }

    fn close(&mut self, start: Instant, end: Instant, ns: u64) {
        let frame = self.stack.pop().expect("exit without enter");
        let self_ns = ns.saturating_sub(frame.children_ns);
        let fold = &mut self.folds[frame.name as usize];
        fold.calls += 1;
        fold.busy_ns += ns;
        fold.self_ns += self_ns;
        fold.hist.record(ns);
        fold.self_hist.record(self_ns);
        let parent = match self.stack.last_mut() {
            Some(parent) => {
                parent.children_ns += ns;
                parent.id
            }
            None => 0,
        };
        if self.req.is_multiple_of(KEEP_EVERY) && self.kept.len() < KEEP_CAPACITY {
            self.kept.push(Kept {
                name: frame.name,
                id: frame.id,
                parent,
                req: self.req,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
    }

    pub fn fold(&self, name: Name) -> &Fold {
        &self.folds[name as usize]
    }

    /// Self time of every program span: the wall time the trace can
    /// attribute to a layer.
    pub fn attributed_ns(&self) -> u64 {
        Name::ALL
            .iter()
            .filter(|n| n.in_program())
            .map(|n| self.fold(*n).self_ns)
            .sum()
    }

    /// Folds another thread's recorder into this one.
    pub fn merge(&mut self, other: Spans) {
        for (a, b) in self.folds.iter_mut().zip(&other.folds) {
            a.calls += b.calls;
            a.busy_ns += b.busy_ns;
            a.self_ns += b.self_ns;
            a.hist.merge(&b.hist);
            a.self_hist.merge(&b.self_hist);
        }
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        let id_base = self.next_id;
        self.next_id += other.next_id;
        self.kept.extend(other.kept.into_iter().map(|k| Kept {
            id: k.id + id_base,
            parent: if k.parent == 0 { 0 } else { k.parent + id_base },
            start_ns: k.start_ns + shift,
            end_ns: k.end_ns + shift,
            ..k
        }));
    }

    /// The kept spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.kept.len() * 96);
        for k in &self.kept {
            let _ = writeln!(
                out,
                r#"{{"name":"{}","id":{},"parent":{},"req":{},"start_ns":{},"end_ns":{}}}"#,
                k.name.label(),
                k.id,
                k.parent,
                k.req,
                k.start_ns,
                k.end_ns
            );
        }
        out
    }
}
