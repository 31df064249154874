//! Windowed serving metrics: rolling counters, gauges, and latency
//! histograms, plus tail-latency attribution and the slow-query flight
//! recorder.
//!
//! Where the rest of this crate accumulates *lifetime* counters (the
//! batch-measurement model: snapshot, run, diff), a long-lived server
//! needs *rates* — "admitted per second over the last 10 seconds", not
//! "admitted since boot". Every windowed metric here keeps a ring of
//! [`WINDOW_BUCKETS`] fixed-duration buckets ([`BUCKET_MILLIS`] each);
//! writers stamp the bucket for the current wall-clock slot and reset it
//! when the slot is reused (a compare-exchange on the stamp picks one
//! resetting writer), readers sum the buckets whose stamps fall inside
//! the last 1/10/60 seconds. Everything is plain atomics on the write
//! path — no locks, one CAS only on the first write of each one-second
//! slot. The reset protocol has a documented slack: a write racing the
//! slot reset can lose its delta *for that window*; the separate lifetime
//! total is always exact.
//!
//! On top of the registry sit the serving-observability types:
//!
//! * [`LatencyBreakdown`] — one request's end-to-end time split into
//!   queue / eval / merge / other, where `other` is the residual so the
//!   components always sum back to the measured total.
//! * [`BreakdownRing`] — a bounded ring of recent breakdowns; computes
//!   exact nearest-rank percentiles ([`LatencySummary`]) and the
//!   [`Attribution`] of the p99: the slow quantile's own split plus the
//!   mean split of everything at or above it.
//! * [`FlightRecorder`] — the N slowest requests past a threshold, each
//!   retaining its breakdown, mode, shard timings, and (when tracing is
//!   on) its extracted trace slice; dumpable as JSONL.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::trace::TraceRecord;
use crate::{bucket_for, AtomicHistogram, HistogramSnapshot, HISTOGRAM_BUCKETS};

/// Ring length of every windowed metric. 64 one-second buckets cover the
/// longest aggregation window (60 s) with slack for clock-edge skew.
pub const WINDOW_BUCKETS: usize = 64;

/// Duration of one ring bucket in milliseconds.
pub const BUCKET_MILLIS: u64 = 1000;

/// Stamp value of a never-written bucket.
const EMPTY: u64 = u64::MAX;

/// Shared time base for every metric of a registry, so one bucket index
/// means the same wall-clock second everywhere.
struct Clock {
    epoch: Instant,
    /// Test-only skew so window rotation is testable without sleeping.
    skew_millis: AtomicU64,
}

impl Clock {
    fn new() -> Clock {
        Clock { epoch: Instant::now(), skew_millis: AtomicU64::new(0) }
    }

    /// The current wall-clock slot (monotone, starts at 0).
    fn now_bucket(&self) -> u64 {
        let millis =
            self.epoch.elapsed().as_millis() as u64 + self.skew_millis.load(Ordering::Relaxed);
        millis / BUCKET_MILLIS
    }

    #[cfg(test)]
    fn advance(&self, millis: u64) {
        self.skew_millis.fetch_add(millis, Ordering::Relaxed);
    }
}

/// Claims `slot` for wall-clock bucket `now`. Returns `true` when this
/// caller won the rotation and must reset the slot's payload.
fn claim_slot(stamp: &AtomicU64, now: u64) -> bool {
    let s = stamp.load(Ordering::Acquire);
    s != now && stamp.compare_exchange(s, now, Ordering::AcqRel, Ordering::Relaxed).is_ok()
}

/// Whether a bucket stamped `stamp` lies inside the trailing window of
/// `secs` seconds ending at bucket `now` (the current partial bucket
/// included).
fn in_window(stamp: u64, now: u64, secs: u64) -> bool {
    stamp != EMPTY && stamp <= now && stamp + secs > now
}

/// Per-second rates over the rolling 1 s / 10 s / 60 s windows.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowRates {
    /// Events per second over the last second.
    pub s1: f64,
    /// Events per second averaged over the last 10 seconds.
    pub s10: f64,
    /// Events per second averaged over the last 60 seconds.
    pub s60: f64,
}

struct CounterSlot {
    stamp: AtomicU64,
    value: AtomicU64,
}

struct CounterCore {
    total: AtomicU64,
    ring: Vec<CounterSlot>,
}

/// A monotone windowed counter handle (clones share state).
#[derive(Clone)]
pub struct Counter {
    clock: Arc<Clock>,
    core: Arc<CounterCore>,
}

impl Counter {
    fn new(clock: Arc<Clock>) -> Counter {
        let ring = (0..WINDOW_BUCKETS)
            .map(|_| CounterSlot { stamp: AtomicU64::new(EMPTY), value: AtomicU64::new(0) })
            .collect();
        Counter { clock, core: Arc::new(CounterCore { total: AtomicU64::new(0), ring }) }
    }

    /// Adds `n`; the lifetime total is exact, the window bucket is subject
    /// to the rotation slack documented on the module.
    pub fn add(&self, n: u64) {
        self.core.total.fetch_add(n, Ordering::Relaxed);
        let now = self.clock.now_bucket();
        let slot = &self.core.ring[(now % WINDOW_BUCKETS as u64) as usize];
        if claim_slot(&slot.stamp, now) {
            slot.value.store(0, Ordering::Relaxed);
        }
        slot.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Exact lifetime total.
    pub fn total(&self) -> u64 {
        self.core.total.load(Ordering::Relaxed)
    }

    /// Sum over the trailing `secs`-second window (current partial bucket
    /// included; `secs` clamps to [`WINDOW_BUCKETS`]).
    pub fn sum_window(&self, secs: u64) -> u64 {
        let now = self.clock.now_bucket();
        let secs = secs.clamp(1, WINDOW_BUCKETS as u64);
        let mut sum = 0;
        for slot in &self.core.ring {
            if in_window(slot.stamp.load(Ordering::Acquire), now, secs) {
                sum += slot.value.load(Ordering::Relaxed);
            }
        }
        sum
    }

    /// 1 s / 10 s / 60 s per-second rates. Windows longer than the
    /// registry's uptime divide by the elapsed time instead, so a young
    /// server's 60 s rate is not artificially deflated.
    pub fn rates(&self) -> WindowRates {
        let elapsed = self.clock.now_bucket() + 1;
        let rate = |secs: u64| self.sum_window(secs) as f64 / secs.min(elapsed).max(1) as f64;
        WindowRates { s1: rate(1), s10: rate(10), s60: rate(60) }
    }
}

struct GaugeSlot {
    stamp: AtomicU64,
    max: AtomicI64,
}

struct GaugeCore {
    value: AtomicI64,
    ring: Vec<GaugeSlot>,
}

/// An instantaneous value with a windowed maximum (clones share state).
#[derive(Clone)]
pub struct Gauge {
    clock: Arc<Clock>,
    core: Arc<GaugeCore>,
}

impl Gauge {
    fn new(clock: Arc<Clock>) -> Gauge {
        let ring = (0..WINDOW_BUCKETS)
            .map(|_| GaugeSlot { stamp: AtomicU64::new(EMPTY), max: AtomicI64::new(i64::MIN) })
            .collect();
        Gauge { clock, core: Arc::new(GaugeCore { value: AtomicI64::new(0), ring }) }
    }

    fn observe(&self, v: i64) {
        let now = self.clock.now_bucket();
        let slot = &self.core.ring[(now % WINDOW_BUCKETS as u64) as usize];
        if claim_slot(&slot.stamp, now) {
            slot.max.store(i64::MIN, Ordering::Relaxed);
        }
        slot.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Sets the current value (and folds it into the window maximum).
    pub fn set(&self, v: i64) {
        self.core.value.store(v, Ordering::Relaxed);
        self.observe(v);
    }

    /// Adds `delta`, returning the new value.
    pub fn add(&self, delta: i64) -> i64 {
        let v = self.core.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.observe(v);
        v
    }

    /// Adds 1, returning the new value.
    pub fn inc(&self) -> i64 {
        self.add(1)
    }

    /// Subtracts 1, returning the new value.
    pub fn dec(&self) -> i64 {
        self.add(-1)
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.core.value.load(Ordering::Relaxed)
    }

    /// Maximum observed over the trailing `secs`-second window, never
    /// below the current value.
    pub fn max_window(&self, secs: u64) -> i64 {
        let now = self.clock.now_bucket();
        let secs = secs.clamp(1, WINDOW_BUCKETS as u64);
        let mut max = self.value();
        for slot in &self.core.ring {
            if in_window(slot.stamp.load(Ordering::Acquire), now, secs) {
                max = max.max(slot.max.load(Ordering::Relaxed));
            }
        }
        max
    }
}

struct HistogramSlot {
    stamp: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

struct HistogramCore {
    lifetime: AtomicHistogram,
    ring: Vec<HistogramSlot>,
}

/// A streaming latency histogram (the crate's 22-bucket power-of-two
/// layout) with both lifetime and windowed views (clones share state).
#[derive(Clone)]
pub struct Histogram {
    clock: Arc<Clock>,
    core: Arc<HistogramCore>,
}

impl Histogram {
    fn new(clock: Arc<Clock>) -> Histogram {
        let ring = (0..WINDOW_BUCKETS)
            .map(|_| HistogramSlot {
                stamp: AtomicU64::new(EMPTY),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum_micros: AtomicU64::new(0),
            })
            .collect();
        Histogram {
            clock,
            core: Arc::new(HistogramCore { lifetime: AtomicHistogram::default(), ring }),
        }
    }

    /// Records one observation of `micros` microseconds.
    pub fn record(&self, micros: u64) {
        self.core.lifetime.record(micros);
        let now = self.clock.now_bucket();
        let slot = &self.core.ring[(now % WINDOW_BUCKETS as u64) as usize];
        if claim_slot(&slot.stamp, now) {
            for b in &slot.buckets {
                b.store(0, Ordering::Relaxed);
            }
            slot.count.store(0, Ordering::Relaxed);
            slot.sum_micros.store(0, Ordering::Relaxed);
        }
        slot.buckets[bucket_for(micros)].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// The exact lifetime histogram.
    pub fn lifetime(&self) -> HistogramSnapshot {
        self.core.lifetime.snapshot()
    }

    /// Merged histogram over the trailing `secs`-second window.
    pub fn window(&self, secs: u64) -> HistogramSnapshot {
        let now = self.clock.now_bucket();
        let secs = secs.clamp(1, WINDOW_BUCKETS as u64);
        let mut out = HistogramSnapshot::default();
        for slot in &self.core.ring {
            if in_window(slot.stamp.load(Ordering::Acquire), now, secs) {
                for (o, b) in out.buckets.iter_mut().zip(&slot.buckets) {
                    *o += b.load(Ordering::Relaxed);
                }
                out.count += slot.count.load(Ordering::Relaxed);
                out.sum_micros += slot.sum_micros.load(Ordering::Relaxed);
            }
        }
        out
    }
}

#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

struct MetricEntry {
    name: String,
    handle: Handle,
}

/// A named collection of windowed metrics sharing one clock. Cheap to
/// clone (clones share state); registering an existing name returns the
/// existing handle, so services and their samplers agree on identity.
#[derive(Clone)]
pub struct MetricsRegistry {
    clock: Arc<Clock>,
    metrics: Arc<Mutex<Vec<MetricEntry>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry with a fresh clock epoch.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry { clock: Arc::new(Clock::new()), metrics: Arc::new(Mutex::new(Vec::new())) }
    }

    fn register(&self, name: &str, make: impl FnOnce(Arc<Clock>) -> Handle) -> Handle {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        if let Some(entry) = metrics.iter().find(|e| e.name == name) {
            return entry.handle.clone();
        }
        let handle = make(Arc::clone(&self.clock));
        metrics.push(MetricEntry { name: name.to_string(), handle: handle.clone() });
        handle
    }

    /// Registers (or retrieves) a windowed counter.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, |c| Handle::Counter(Counter::new(c))) {
            Handle::Counter(c) => c,
            h => panic!("metric {name:?} already registered as a {}", h.kind()),
        }
    }

    /// Registers (or retrieves) a gauge.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, |c| Handle::Gauge(Gauge::new(c))) {
            Handle::Gauge(g) => g,
            h => panic!("metric {name:?} already registered as a {}", h.kind()),
        }
    }

    /// Registers (or retrieves) a windowed histogram.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.register(name, |c| Handle::Histogram(Histogram::new(c))) {
            Handle::Histogram(h) => h,
            h => panic!("metric {name:?} already registered as a {}", h.kind()),
        }
    }

    /// Point-in-time copy of every registered metric, in registration
    /// order.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let entries = metrics
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                value: match &e.handle {
                    Handle::Counter(c) => {
                        MetricValue::Counter { total: c.total(), rates: c.rates() }
                    }
                    Handle::Gauge(g) => {
                        MetricValue::Gauge { value: g.value(), max_60s: g.max_window(60) }
                    }
                    Handle::Histogram(h) => MetricValue::Histogram {
                        lifetime: Box::new(h.lifetime()),
                        last_60s: Box::new(h.window(60)),
                    },
                },
            })
            .collect();
        RegistrySnapshot { metrics: entries }
    }

    #[cfg(test)]
    fn advance(&self, millis: u64) {
        self.clock.advance(millis);
    }
}

/// One metric's state inside a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Lifetime total plus windowed rates.
    Counter {
        /// Exact lifetime total.
        total: u64,
        /// Per-second rates over the rolling windows.
        rates: WindowRates,
    },
    /// Current value plus windowed maximum.
    Gauge {
        /// The instantaneous value.
        value: i64,
        /// Maximum over the last 60 seconds (≥ `value`).
        max_60s: i64,
    },
    /// Lifetime and trailing-60 s histograms (boxed: a snapshot holds a
    /// full bucket array, far larger than the other variants).
    Histogram {
        /// Exact lifetime histogram.
        lifetime: Box<HistogramSnapshot>,
        /// Merged histogram over the last 60 seconds.
        last_60s: Box<HistogramSnapshot>,
    },
}

/// A named [`MetricValue`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Registration name (stable snake_case).
    pub name: String,
    /// The metric's state.
    pub value: MetricValue,
}

/// Point-in-time copy of a whole [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// Every metric, in registration order.
    pub metrics: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// The state of one metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| m.name == name).map(|m| &m.value)
    }

    /// JSON array of metric objects (stable keys; no external deps).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 + self.metrics.len() * 128);
        s.push('[');
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            match &m.value {
                MetricValue::Counter { total, rates } => s.push_str(&format!(
                    "{{\"name\": \"{}\", \"kind\": \"counter\", \"total\": {}, \
                     \"rate_1s\": {:.3}, \"rate_10s\": {:.3}, \"rate_60s\": {:.3}}}",
                    m.name, total, rates.s1, rates.s10, rates.s60
                )),
                MetricValue::Gauge { value, max_60s } => s.push_str(&format!(
                    "{{\"name\": \"{}\", \"kind\": \"gauge\", \"value\": {}, \"max_60s\": {}}}",
                    m.name, value, max_60s
                )),
                MetricValue::Histogram { lifetime, last_60s } => s.push_str(&format!(
                    "{{\"name\": \"{}\", \"kind\": \"histogram\", \"count\": {}, \
                     \"sum_micros\": {}, \"p50_micros\": {}, \"p99_micros\": {}, \
                     \"count_60s\": {}, \"mean_micros_60s\": {:.1}}}",
                    m.name,
                    lifetime.count,
                    lifetime.sum_micros,
                    lifetime.quantile_micros(0.50),
                    lifetime.quantile_micros(0.99),
                    last_60s.count,
                    last_60s.mean_micros()
                )),
            }
        }
        s.push(']');
        s
    }

    /// Prometheus text exposition (one `# TYPE` line plus samples per
    /// metric, every name prefixed with `prefix`). Histogram bucket `i`
    /// holds whole microseconds up to `2^i - 1`, so that is its inclusive
    /// `le` bound (bucket 0 is `le="0"`; the last is `le="+Inf"`).
    pub fn prometheus_text(&self, prefix: &str) -> String {
        let mut s = String::with_capacity(128 + self.metrics.len() * 256);
        for m in &self.metrics {
            let name = format!("{prefix}{}", m.name);
            match &m.value {
                MetricValue::Counter { total, .. } => {
                    s.push_str(&format!("# TYPE {name} counter\n{name} {total}\n"));
                }
                MetricValue::Gauge { value, .. } => {
                    s.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
                }
                MetricValue::Histogram { lifetime, .. } => {
                    s.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut acc = 0u64;
                    for (i, c) in lifetime.buckets.iter().enumerate() {
                        acc += c;
                        let le = if i == HISTOGRAM_BUCKETS - 1 {
                            "+Inf".to_string()
                        } else {
                            ((1u64 << i) - 1).to_string()
                        };
                        s.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {acc}\n"));
                    }
                    s.push_str(&format!("{name}_sum {}\n", lifetime.sum_micros));
                    s.push_str(&format!("{name}_count {}\n", lifetime.count));
                }
            }
        }
        s
    }
}

/// Where one request's end-to-end time went. `other` is the residual
/// (`total - queue - eval - merge`, saturating), so the four components
/// sum back to the measured total by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyBreakdown {
    /// The request's stable query id (see `QueryRequest::id`).
    pub query_id: u32,
    /// Microseconds waiting in the admission queue.
    pub queue_micros: u64,
    /// Microseconds of per-shard evaluation, summed across shards.
    pub eval_micros: u64,
    /// Microseconds merging the per-shard top-k lists.
    pub merge_micros: u64,
    /// Residual: parsing, result naming, scheduling gaps.
    pub other_micros: u64,
}

impl LatencyBreakdown {
    /// Builds a breakdown whose components sum to `total_micros` exactly
    /// (when the parts exceed the measured total — overlapping clocks —
    /// `other` saturates to 0 and the sum equals the parts instead).
    pub fn from_parts(
        query_id: u32,
        queue_micros: u64,
        eval_micros: u64,
        merge_micros: u64,
        total_micros: u64,
    ) -> LatencyBreakdown {
        let other_micros = total_micros.saturating_sub(queue_micros + eval_micros + merge_micros);
        LatencyBreakdown { query_id, queue_micros, eval_micros, merge_micros, other_micros }
    }

    /// Sum of the four components.
    pub fn total_micros(&self) -> u64 {
        self.queue_micros + self.eval_micros + self.merge_micros + self.other_micros
    }

    /// The component fields as a JSON fragment (no braces), shared by the
    /// stats and flight-recorder exports.
    pub fn json_fields(&self) -> String {
        format!(
            "\"query_id\": {}, \"queue_micros\": {}, \"eval_micros\": {}, \
             \"merge_micros\": {}, \"other_micros\": {}, \"total_micros\": {}",
            self.query_id,
            self.queue_micros,
            self.eval_micros,
            self.merge_micros,
            self.other_micros,
            self.total_micros()
        )
    }
}

/// Exact nearest-rank latency percentiles over a [`BreakdownRing`]'s
/// retained window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Requests in the window.
    pub count: usize,
    /// Mean end-to-end microseconds.
    pub mean_micros: f64,
    /// Median end-to-end microseconds.
    pub p50_micros: u64,
    /// 95th percentile.
    pub p95_micros: u64,
    /// 99th percentile.
    pub p99_micros: u64,
    /// Maximum.
    pub max_micros: u64,
}

impl LatencySummary {
    /// JSON object (stable keys; no external deps).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"mean_micros\": {:.1}, \"p50_micros\": {}, \
             \"p95_micros\": {}, \"p99_micros\": {}, \"max_micros\": {}}}",
            self.count,
            self.mean_micros,
            self.p50_micros,
            self.p95_micros,
            self.p99_micros,
            self.max_micros
        )
    }
}

/// Where the p99 spends its time: the nearest-rank p99 request's own
/// [`LatencyBreakdown`] (components sum to `p99_micros` by construction)
/// plus the mean split over every request at or above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attribution {
    /// Requests the attribution was computed over.
    pub samples: usize,
    /// Requests with `total >= p99_micros` (the averaged tail).
    pub tail_count: usize,
    /// The nearest-rank 99th-percentile end-to-end microseconds.
    pub p99_micros: u64,
    /// The p99 request's exact component split.
    pub breakdown: LatencyBreakdown,
    /// Mean queue microseconds over the tail.
    pub tail_queue_micros: f64,
    /// Mean eval microseconds over the tail.
    pub tail_eval_micros: f64,
    /// Mean merge microseconds over the tail.
    pub tail_merge_micros: f64,
    /// Mean residual microseconds over the tail.
    pub tail_other_micros: f64,
}

impl Attribution {
    /// JSON object (stable keys; no external deps).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"samples\": {}, \"tail_count\": {}, \"p99_micros\": {}, {}, \
             \"tail_queue_micros\": {:.1}, \"tail_eval_micros\": {:.1}, \
             \"tail_merge_micros\": {:.1}, \"tail_other_micros\": {:.1}}}",
            self.samples,
            self.tail_count,
            self.p99_micros,
            self.breakdown.json_fields(),
            self.tail_queue_micros,
            self.tail_eval_micros,
            self.tail_merge_micros,
            self.tail_other_micros
        )
    }
}

/// A bounded ring of recent [`LatencyBreakdown`]s; the source of exact
/// percentiles and p99 attribution (the windowed histograms are
/// power-of-two-coarse, too blunt for "within 5% of p99" claims).
pub struct BreakdownRing {
    capacity: usize,
    inner: Mutex<VecDeque<LatencyBreakdown>>,
}

impl BreakdownRing {
    /// A ring retaining the last `capacity` (min 1) breakdowns.
    pub fn new(capacity: usize) -> BreakdownRing {
        let capacity = capacity.max(1);
        BreakdownRing { capacity, inner: Mutex::new(VecDeque::with_capacity(capacity)) }
    }

    /// Appends one breakdown, evicting the oldest past capacity.
    pub fn push(&self, b: LatencyBreakdown) {
        let mut ring = self.inner.lock().expect("breakdown ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(b);
    }

    /// Breakdowns currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("breakdown ring poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the retained window, oldest first.
    pub fn snapshot(&self) -> Vec<LatencyBreakdown> {
        self.inner.lock().expect("breakdown ring poisoned").iter().copied().collect()
    }

    /// Exact nearest-rank percentiles over the retained window.
    pub fn summary(&self) -> LatencySummary {
        let mut totals: Vec<u64> = self.snapshot().iter().map(|b| b.total_micros()).collect();
        if totals.is_empty() {
            return LatencySummary::default();
        }
        totals.sort_unstable();
        let pick = |q: f64| {
            let rank = ((q * totals.len() as f64).ceil() as usize).clamp(1, totals.len());
            totals[rank - 1]
        };
        LatencySummary {
            count: totals.len(),
            mean_micros: totals.iter().sum::<u64>() as f64 / totals.len() as f64,
            p50_micros: pick(0.50),
            p95_micros: pick(0.95),
            p99_micros: pick(0.99),
            max_micros: *totals.last().unwrap(),
        }
    }

    /// Attribution of the 99th percentile (`None` on an empty window).
    /// Deterministic: entries sort by `(total, query_id)` before the
    /// nearest-rank pick.
    pub fn p99_attribution(&self) -> Option<Attribution> {
        let mut entries = self.snapshot();
        if entries.is_empty() {
            return None;
        }
        entries.sort_by_key(|b| (b.total_micros(), b.query_id));
        let rank = ((0.99 * entries.len() as f64).ceil() as usize).clamp(1, entries.len());
        let p99 = entries[rank - 1];
        let p99_micros = p99.total_micros();
        let tail: Vec<&LatencyBreakdown> =
            entries.iter().filter(|b| b.total_micros() >= p99_micros).collect();
        let mean = |f: fn(&LatencyBreakdown) -> u64| {
            tail.iter().map(|b| f(b)).sum::<u64>() as f64 / tail.len() as f64
        };
        Some(Attribution {
            samples: entries.len(),
            tail_count: tail.len(),
            p99_micros,
            breakdown: p99,
            tail_queue_micros: mean(|b| b.queue_micros),
            tail_eval_micros: mean(|b| b.eval_micros),
            tail_merge_micros: mean(|b| b.merge_micros),
            tail_other_micros: mean(|b| b.other_micros),
        })
    }
}

/// One shard's contribution to a slow request (mirrors the service's
/// `ShardTiming` without depending on the core crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowShard {
    /// Shard ordinal.
    pub shard: usize,
    /// Microseconds the shard's evaluation took.
    pub micros: u64,
    /// Hits the shard contributed.
    pub hits: usize,
}

/// Everything the flight recorder retains about one slow request.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQueryRecord {
    /// The request's stable query id (joins against trace exports).
    pub query_id: u32,
    /// The service-assigned sequence number.
    pub seq: u32,
    /// The execution mode that actually ran (stable CLI name).
    pub mode: String,
    /// Requested result count.
    pub k: usize,
    /// Where the time went.
    pub breakdown: LatencyBreakdown,
    /// Per-shard evaluation timings.
    pub shards: Vec<SlowShard>,
    /// The request's trace slice (empty unless tracing was on).
    pub trace: Vec<TraceRecord>,
}

impl SlowQueryRecord {
    /// One JSONL line (stable keys; no external deps).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(192 + self.trace.len() * 140);
        s.push_str(&format!(
            "{{{}, \"seq\": {}, \"mode\": \"{}\", \"k\": {}, \"shards\": [",
            self.breakdown.json_fields(),
            self.seq,
            self.mode,
            self.k
        ));
        for (i, sh) in self.shards.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"shard\": {}, \"micros\": {}, \"hits\": {}}}",
                sh.shard, sh.micros, sh.hits
            ));
        }
        s.push_str("], \"trace\": [");
        for (i, r) in self.trace.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&r.to_json());
        }
        s.push_str("]}");
        s
    }
}

/// A bounded collection of the N slowest requests past a threshold.
///
/// `offer` is called only for requests whose end-to-end time reached
/// [`FlightRecorder::threshold_micros`]; the recorder keeps the
/// `capacity` slowest seen so far, in deterministic order (total
/// descending, then query id, then sequence number ascending).
pub struct FlightRecorder {
    threshold_micros: u64,
    capacity: usize,
    observed: AtomicU64,
    inner: Mutex<Vec<SlowQueryRecord>>,
}

impl FlightRecorder {
    /// A recorder keeping the `capacity` (min 1) slowest requests at or
    /// above `threshold_micros` end-to-end.
    pub fn new(capacity: usize, threshold_micros: u64) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            threshold_micros,
            capacity,
            observed: AtomicU64::new(0),
            inner: Mutex::new(Vec::with_capacity(capacity + 1)),
        }
    }

    /// The admission threshold in microseconds.
    pub fn threshold_micros(&self) -> u64 {
        self.threshold_micros
    }

    /// Maximum records retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests at or above the threshold ever offered (including ones
    /// since displaced by slower requests).
    pub fn observed(&self) -> u64 {
        self.observed.load(Ordering::Relaxed)
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("flight recorder poisoned").len()
    }

    /// Whether no slow request has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offers one record; returns whether it was retained. Sub-threshold
    /// records are rejected without taking the lock.
    pub fn offer(&self, rec: SlowQueryRecord) -> bool {
        if rec.breakdown.total_micros() < self.threshold_micros {
            return false;
        }
        self.observed.fetch_add(1, Ordering::Relaxed);
        let key =
            (std::cmp::Reverse(rec.breakdown.total_micros()), rec.breakdown.query_id, rec.seq);
        let mut held = self.inner.lock().expect("flight recorder poisoned");
        let at = held
            .binary_search_by_key(&key, |r| {
                (std::cmp::Reverse(r.breakdown.total_micros()), r.breakdown.query_id, r.seq)
            })
            .unwrap_or_else(|i| i);
        if at >= self.capacity {
            return false;
        }
        held.insert(at, rec);
        held.truncate(self.capacity);
        true
    }

    /// Retained records, slowest first (see the type docs for the exact
    /// order).
    pub fn snapshot(&self) -> Vec<SlowQueryRecord> {
        self.inner.lock().expect("flight recorder poisoned").clone()
    }

    /// The retained records as JSONL, one record per line, slowest first.
    pub fn dump_jsonl(&self) -> String {
        let mut s = String::new();
        for r in self.snapshot() {
            s.push_str(&r.to_json());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceOp, NO_POOL, NO_QUERY};

    #[test]
    fn counter_windows_roll_and_lifetime_total_is_exact() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("admitted");
        c.add(5);
        assert_eq!(c.total(), 5);
        assert_eq!(c.sum_window(1), 5);
        assert_eq!(c.sum_window(60), 5);
        // Two buckets later the 1 s window is empty but 60 s still sees it.
        reg.advance(2 * BUCKET_MILLIS);
        assert_eq!(c.sum_window(1), 0);
        assert_eq!(c.sum_window(60), 5);
        c.add(7);
        assert_eq!(c.sum_window(1), 7);
        assert_eq!(c.sum_window(60), 12);
        // Past the 60 s horizon the first bucket ages out of every window.
        reg.advance(61 * BUCKET_MILLIS);
        assert_eq!(c.sum_window(60), 0);
        assert_eq!(c.total(), 12, "lifetime total never ages out");
        // Ring reuse: a slot overwritten after wrap-around reports only the
        // new value.
        c.add(1);
        reg.advance(WINDOW_BUCKETS as u64 * BUCKET_MILLIS);
        c.add(2);
        assert_eq!(c.sum_window(1), 2);
        let rates = c.rates();
        assert!(rates.s1 >= 2.0, "{rates:?}");
    }

    #[test]
    fn gauge_tracks_value_and_windowed_max() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("queue_depth");
        assert_eq!(g.value(), 0);
        g.inc();
        g.inc();
        assert_eq!(g.value(), 2);
        g.dec();
        assert_eq!(g.value(), 1);
        assert_eq!(g.max_window(60), 2);
        reg.advance(61 * BUCKET_MILLIS);
        // The spike aged out; the max can never fall below the current value.
        assert_eq!(g.max_window(60), 1);
        g.set(-3);
        assert_eq!(g.value(), -3);
    }

    #[test]
    fn histogram_window_merges_and_ages_out() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("eval_micros");
        h.record(5);
        h.record(7);
        reg.advance(2 * BUCKET_MILLIS);
        h.record(100);
        let w = h.window(60);
        assert_eq!(w.count, 3);
        assert_eq!(w.sum_micros, 112);
        assert_eq!(h.window(1).count, 1);
        assert_eq!(h.lifetime().count, 3);
        reg.advance(61 * BUCKET_MILLIS);
        assert_eq!(h.window(60).count, 0);
        assert_eq!(h.lifetime().count, 3);
    }

    #[test]
    fn registry_reuses_names_and_snapshots_every_kind() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("admitted");
        let c2 = reg.counter("admitted");
        c1.add(3);
        c2.add(4);
        assert_eq!(c1.total(), 7, "same name returns the same counter");
        reg.gauge("depth").set(9);
        reg.histogram("lat").record(42);
        let snap = reg.snapshot();
        assert_eq!(snap.metrics.len(), 3);
        assert!(matches!(snap.get("admitted"), Some(MetricValue::Counter { total: 7, .. })));
        assert!(matches!(snap.get("depth"), Some(MetricValue::Gauge { value: 9, .. })));
        assert!(
            matches!(snap.get("lat"), Some(MetricValue::Histogram { lifetime, .. }) if lifetime.count == 1)
        );
        let json = snap.to_json();
        assert!(json.contains("\"name\": \"admitted\""));
        assert!(json.contains("\"kind\": \"gauge\""));
        assert!(json.contains("\"p99_micros\""));
    }

    #[test]
    fn prometheus_text_has_types_buckets_and_prefix() {
        let reg = MetricsRegistry::new();
        reg.counter("admitted").add(12);
        reg.gauge("depth").set(3);
        let h = reg.histogram("lat");
        // Each value on a bucket boundary: le is an inclusive bound, so an
        // observation equal to it counts in that series.
        for micros in [0, 1, 4, 7, 8] {
            h.record(micros);
        }
        let text = reg.snapshot().prometheus_text("poir_service_");
        assert!(text.contains("# TYPE poir_service_admitted counter\npoir_service_admitted 12\n"));
        assert!(text.contains("# TYPE poir_service_depth gauge\npoir_service_depth 3\n"));
        assert!(text.contains("# TYPE poir_service_lat histogram\n"));
        for (le, cumulative) in [("0", 1), ("1", 2), ("3", 2), ("7", 4), ("15", 5), ("+Inf", 5)] {
            let line = format!("poir_service_lat_bucket{{le=\"{le}\"}} {cumulative}\n");
            assert!(text.contains(&line), "missing {line:?} in\n{text}");
        }
        assert!(!text.contains("le=\"4\"") && !text.contains("le=\"8\""), "{text}");
        assert!(text.contains("poir_service_lat_sum 20\n"));
        assert!(text.contains("poir_service_lat_count 5\n"));
    }

    #[test]
    fn breakdown_other_is_the_residual_and_sums_exactly() {
        let b = LatencyBreakdown::from_parts(7, 100, 800, 50, 1000);
        assert_eq!(b.other_micros, 50);
        assert_eq!(b.total_micros(), 1000);
        // Parts exceeding the measured total saturate other to zero.
        let b = LatencyBreakdown::from_parts(7, 600, 600, 0, 1000);
        assert_eq!(b.other_micros, 0);
        assert_eq!(b.total_micros(), 1200);
        assert!(b.json_fields().contains("\"query_id\": 7"));
    }

    #[test]
    fn ring_is_bounded_and_attribution_components_sum_to_p99() {
        let ring = BreakdownRing::new(100);
        for i in 0..200u64 {
            // Totals 1000..=1199 with a known split.
            let total = 1000 + i;
            ring.push(LatencyBreakdown::from_parts(i as u32, total / 4, total / 2, 10, total));
        }
        assert_eq!(ring.len(), 100, "ring bounded");
        let s = ring.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_micros, 1199, "oldest evicted first");
        assert_eq!(s.p50_micros, 1149);
        assert_eq!(s.p99_micros, 1198);
        let attr = ring.p99_attribution().expect("non-empty window");
        assert_eq!(attr.p99_micros, 1198);
        assert_eq!(attr.breakdown.total_micros(), attr.p99_micros, "components sum to p99");
        assert_eq!(attr.tail_count, 2, "1198 and 1199");
        assert_eq!(attr.samples, 100);
        assert!(attr.to_json().contains("\"p99_micros\": 1198"));
        assert!(BreakdownRing::new(4).p99_attribution().is_none());
    }

    fn slow(query_id: u32, seq: u32, total: u64) -> SlowQueryRecord {
        SlowQueryRecord {
            query_id,
            seq,
            mode: "daat_pruned".to_string(),
            k: 10,
            breakdown: LatencyBreakdown::from_parts(query_id, total / 10, total / 2, 5, total),
            shards: vec![SlowShard { shard: 0, micros: total / 2, hits: 10 }],
            trace: Vec::new(),
        }
    }

    #[test]
    fn flight_recorder_keeps_slowest_in_deterministic_order() {
        let fr = FlightRecorder::new(3, 100);
        assert!(!fr.offer(slow(0, 0, 99)), "below threshold");
        assert_eq!(fr.observed(), 0);
        assert!(fr.offer(slow(1, 1, 500)));
        assert!(fr.offer(slow(2, 2, 300)));
        assert!(fr.offer(slow(3, 3, 400)));
        assert!(!fr.offer(slow(4, 4, 200)), "slower than every retained record");
        assert!(fr.offer(slow(5, 5, 450)), "displaces the 300");
        assert_eq!(fr.observed(), 5);
        assert_eq!(fr.len(), 3);
        let totals: Vec<u64> = fr.snapshot().iter().map(|r| r.breakdown.total_micros()).collect();
        assert_eq!(totals, vec![500, 450, 400], "slowest first");
        // Ties order by query id then seq.
        let fr = FlightRecorder::new(4, 0);
        fr.offer(slow(9, 1, 300));
        fr.offer(slow(2, 7, 300));
        fr.offer(slow(2, 3, 300));
        let keys: Vec<(u32, u32)> = fr.snapshot().iter().map(|r| (r.query_id, r.seq)).collect();
        assert_eq!(keys, vec![(2, 3), (2, 7), (9, 1)]);
        let jsonl = fr.dump_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"mode\": \"daat_pruned\""));
    }

    #[test]
    fn flight_recorder_bound_holds_under_concurrent_offers() {
        let fr = FlightRecorder::new(16, 50);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let fr = &fr;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        let total = 40 + (t * 100 + i) % 400; // some below threshold
                        fr.offer(slow((t * 100 + i) as u32, i as u32, total));
                    }
                });
            }
        });
        assert_eq!(fr.len(), 16, "capacity bound survives concurrent offers");
        let snap = fr.snapshot();
        assert!(
            snap.windows(2).all(|w| w[0].breakdown.total_micros() >= w[1].breakdown.total_micros()),
            "slowest-first order survives concurrent offers"
        );
        // Every retained record is at least as slow as the threshold and
        // the recorder saw exactly the above-threshold offers.
        assert!(snap.iter().all(|r| r.breakdown.total_micros() >= 50));
        let above: u64 = (0..8u64)
            .map(|t| (0..100u64).filter(|i| 40 + (t * 100 + i) % 400 >= 50).count() as u64)
            .sum();
        assert_eq!(fr.observed(), above);
    }

    #[test]
    fn slow_record_json_includes_trace_slice() {
        let mut rec = slow(3, 4, 1000);
        rec.trace.push(TraceRecord {
            ts_micros: 10,
            dur_micros: 2,
            thread: 1,
            query: 3,
            op: TraceOp::QueueWait,
            object: 3,
            pool: NO_POOL,
            bytes: 0,
        });
        rec.trace.push(TraceRecord {
            ts_micros: 12,
            dur_micros: 0,
            thread: 1,
            query: NO_QUERY,
            op: TraceOp::BufferHit,
            object: 8,
            pool: 1,
            bytes: 64,
        });
        let json = rec.to_json();
        assert!(json.contains("\"op\": \"queue_wait\""));
        assert!(json.contains("\"pool\": 1"));
        assert!(json.contains("\"query\": null"));
        assert!(json.contains("\"shards\": [{\"shard\": 0"));
    }
}
