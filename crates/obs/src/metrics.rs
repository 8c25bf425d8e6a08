//! Labelled counters, gauges and log-bucketed histograms.
//!
//! The [`Metrics`] handle is cheap to clone and a no-op when disabled;
//! the backing [`Registry`] keys every series by metric name plus a
//! sorted label set, so iteration order (and therefore every exporter's
//! output) is deterministic.
//!
//! # Register once, record by handle
//!
//! A series that is recorded per kernel or per request is registered
//! once, at bring-up ([`Metrics::register_counter`],
//! [`Metrics::register_gauge`], [`Metrics::register_histogram`]). The
//! returned handle holds the series' index into the registry's storage,
//! so recording through it builds no [`MetricKey`], makes no map lookup
//! and takes one uncontended lock. Registering exports nothing: a series
//! appears in [`Registry::counters`] and the exporters only once it is
//! first recorded, exactly as with the name-keyed calls
//! ([`Metrics::inc`], [`Metrics::set_gauge`], [`Metrics::observe`]),
//! which stay for cold paths that fire once per fault or retry. A handle
//! from a disabled [`Metrics`] is inert and costs one branch per call.
//!
//! Series that are only read after a run do not need the registry while
//! it runs: the simulated machine accumulates its per-CU and per-queue
//! series in plain slots of its own and publishes them once, when the
//! run ends.
//!
//! [`Histogram`] buckets grow geometrically by [`Histogram::GROWTH`]
//! (10% per bucket), which bounds the error of
//! [`Histogram::quantile`] to one bucket relative to the exact
//! nearest-rank percentile (`krisp_sim::stats::percentile` is the
//! reference definition): the exact rank-`r` sample lies inside the
//! bucket whose upper bound the sketch reports. A histogram adds its
//! observations one by one in recording order, so its `_sum` is
//! reproducible bit for bit, except for `krisp_mask_generation_ns`,
//! which records host wall-clock nanoseconds and differs on every run.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A metric series identifier: name plus sorted `(label, value)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus conventions: `snake_case`, unit suffix).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// A log-bucketed histogram sketch.
///
/// Values map to bucket `floor(ln(v) / ln(GROWTH))`; non-positive values
/// share a dedicated underflow bucket. Only non-empty buckets are
/// stored, so a series covering nanoseconds to seconds stays small.
///
/// # Examples
///
/// ```
/// use krisp_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=100 {
///     h.observe(f64::from(v));
/// }
/// let p95 = h.quantile(95.0).unwrap();
/// // Within one 10% bucket of the exact nearest-rank value, 95.
/// assert!((Histogram::bucket_of(p95) - Histogram::bucket_of(95.0)).abs() <= 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Geometric bucket growth factor: each bucket's upper bound is 10%
    /// above the previous one.
    pub const GROWTH: f64 = 1.1;

    /// Bucket index of the underflow bucket (values `<= 0`).
    pub const UNDERFLOW: i32 = i32::MIN;

    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(value: f64) -> i32 {
        if value <= 0.0 || !value.is_finite() {
            return Histogram::UNDERFLOW;
        }
        (value.ln() / Histogram::GROWTH.ln()).floor() as i32
    }

    /// `(lower, upper]` bounds of bucket `index`. The underflow bucket
    /// reports `(0, 0]`.
    pub fn bucket_bounds(index: i32) -> (f64, f64) {
        if index == Histogram::UNDERFLOW {
            return (0.0, 0.0);
        }
        let lower = Histogram::GROWTH.powi(index);
        (lower, lower * Histogram::GROWTH)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        *self.buckets.entry(Histogram::bucket_of(value)).or_insert(0) += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Nearest-rank quantile estimate for `p` in `0.0..=100.0`: the
    /// upper bound of the bucket holding the rank-`ceil(p/100 · n)`
    /// observation (clamped to the observed min/max so the estimate
    /// never leaves the sample range). `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "quantile {p} out of range");
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (&index, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (_, upper) = Histogram::bucket_bounds(index);
                return Some(upper.clamp(self.min, self.max));
            }
        }
        unreachable!("bucket counts sum to self.count");
    }

    /// Non-empty buckets as `(index, count)`, ascending by index.
    pub fn buckets(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.buckets.iter().map(|(&i, &n)| (i, n))
    }
}

/// One kind of series: a key index in key order over a slot vector. A
/// slot is `None` from registration until its first record, so a
/// registered series that was never recorded is not exported.
#[derive(Debug, Clone)]
struct Family<V> {
    index: BTreeMap<MetricKey, usize>,
    slots: Vec<Option<V>>,
}

impl<V> Default for Family<V> {
    fn default() -> Family<V> {
        Family {
            index: BTreeMap::new(),
            slots: Vec::new(),
        }
    }
}

impl<V> Family<V> {
    /// The slot of `name{labels}`, allocating an empty one on first use.
    fn register(&mut self, name: &str, labels: &[(&str, &str)]) -> usize {
        let next = self.slots.len();
        let slot = *self
            .index
            .entry(MetricKey::new(name, labels))
            .or_insert(next);
        if slot == next {
            self.slots.push(None);
        }
        slot
    }

    fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&V> {
        let slot = *self.index.get(&MetricKey::new(name, labels))?;
        self.slots[slot].as_ref()
    }

    /// Recorded series, in key order.
    fn iter(&self) -> impl Iterator<Item = (&MetricKey, &V)> {
        self.index
            .iter()
            .filter_map(|(key, &slot)| self.slots[slot].as_ref().map(|v| (key, v)))
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }
}

/// The backing store of all metric series.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Family<u64>,
    gauges: Family<f64>,
    histograms: Family<Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to a counter series, creating it at zero.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let slot = self.counters.register(name, labels);
        self.inc_slot(slot, delta);
    }

    /// Sets a gauge series to `value`.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let slot = self.gauges.register(name, labels);
        self.set_gauge_slot(slot, value);
    }

    /// Records `value` into a histogram series.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let slot = self.histograms.register(name, labels);
        self.observe_slot(slot, value);
    }

    fn inc_slot(&mut self, slot: usize, delta: u64) {
        *self.counters.slots[slot].get_or_insert(0) += delta;
    }

    fn set_gauge_slot(&mut self, slot: usize, value: f64) {
        self.gauges.slots[slot] = Some(value);
    }

    fn observe_slot(&mut self, slot: usize, value: f64) {
        self.histograms.slots[slot]
            .get_or_insert_with(Histogram::new)
            .observe(value);
    }

    /// Reads a counter series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters.get(name, labels).copied()
    }

    /// Reads a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(name, labels).copied()
    }

    /// Reads a histogram series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(name, labels)
    }

    /// All counter series, in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// All gauge series, in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, f64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// All histogram series, in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &Histogram)> {
        self.histograms.iter()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// The producer-side handle: cheap to clone, `Send`, no-op when
/// disabled.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Mutex<Registry>>>,
}

impl Metrics {
    /// A live handle over a fresh registry.
    pub fn recording() -> Metrics {
        Metrics {
            inner: Some(Arc::new(Mutex::new(Registry::new()))),
        }
    }

    /// A disabled handle: every recording call is a no-op.
    pub fn disabled() -> Metrics {
        Metrics::default()
    }

    /// True when recording.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to a counter series.
    #[inline]
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .expect("registry poisoned")
                .inc(name, labels, delta);
        }
    }

    /// Sets a gauge series.
    #[inline]
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .expect("registry poisoned")
                .set_gauge(name, labels, value);
        }
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .expect("registry poisoned")
                .observe(name, labels, value);
        }
    }

    /// Registers the counter series `name{labels}` and returns its
    /// handle (inert when disabled). The series is exported from its
    /// first [`CounterHandle::inc`] on.
    pub fn register_counter(&self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        CounterHandle(self.register(|r| r.counters.register(name, labels)))
    }

    /// Registers the gauge series `name{labels}`; see
    /// [`Metrics::register_counter`].
    pub fn register_gauge(&self, name: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        GaugeHandle(self.register(|r| r.gauges.register(name, labels)))
    }

    /// Registers the histogram series `name{labels}`; see
    /// [`Metrics::register_counter`].
    pub fn register_histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        HistogramHandle(self.register(|r| r.histograms.register(name, labels)))
    }

    fn register(&self, slot_of: impl FnOnce(&mut Registry) -> usize) -> Slot {
        match &self.inner {
            Some(inner) => Slot {
                index: slot_of(&mut inner.lock().expect("registry poisoned")),
                registry: Some(Arc::clone(inner)),
            },
            None => Slot::default(),
        }
    }

    /// A point-in-time copy of the registry (`None` when disabled).
    pub fn snapshot(&self) -> Option<Registry> {
        self.inner
            .as_ref()
            .map(|inner| inner.lock().expect("registry poisoned").clone())
    }
}

/// A registered series: its registry and its index there (no registry
/// when metrics are disabled).
#[derive(Debug, Clone, Default)]
struct Slot {
    registry: Option<Arc<Mutex<Registry>>>,
    index: usize,
}

impl Slot {
    #[inline]
    fn record(&self, write: impl FnOnce(&mut Registry, usize)) {
        if let Some(registry) = &self.registry {
            write(&mut registry.lock().expect("registry poisoned"), self.index);
        }
    }
}

/// A counter series registered with [`Metrics::register_counter`].
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Slot);

impl CounterHandle {
    /// Adds `delta` to the series.
    #[inline]
    pub fn inc(&self, delta: u64) {
        self.0.record(|r, slot| r.inc_slot(slot, delta));
    }
}

/// A gauge series registered with [`Metrics::register_gauge`].
#[derive(Debug, Clone, Default)]
pub struct GaugeHandle(Slot);

impl GaugeHandle {
    /// Sets the series to `value`.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.record(|r, slot| r.set_gauge_slot(slot, value));
    }
}

/// A histogram series registered with [`Metrics::register_histogram`].
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Slot);

impl HistogramHandle {
    /// True when observations are recorded (the registering
    /// [`Metrics`] was live).
    pub fn enabled(&self) -> bool {
        self.0.registry.is_some()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: f64) {
        self.0.record(|r, slot| r.observe_slot(slot, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_their_labels() {
        let a = MetricKey::new("m", &[("b", "2"), ("a", "1")]);
        let b = MetricKey::new("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let m = Metrics::recording();
        m.inc("hits", &[("worker", "0")], 2);
        m.inc("hits", &[("worker", "0")], 3);
        m.set_gauge("depth", &[], 4.0);
        m.observe("lat", &[], 10.0);
        let r = m.snapshot().unwrap();
        assert_eq!(r.counter("hits", &[("worker", "0")]), Some(5));
        assert_eq!(r.gauge("depth", &[]), Some(4.0));
        assert_eq!(r.histogram("lat", &[]).unwrap().count(), 1);
        assert_eq!(r.counter("hits", &[("worker", "1")]), None);
    }

    #[test]
    fn handles_record_into_the_named_series() {
        let m = Metrics::recording();
        let hits = m.register_counter("hits", &[("worker", "0")]);
        let depth = m.register_gauge("depth", &[]);
        let lat = m.register_histogram("lat", &[]);
        hits.inc(2);
        m.inc("hits", &[("worker", "0")], 3);
        depth.set(4.0);
        lat.observe(10.0);
        m.observe("lat", &[], 20.0);
        let r = m.snapshot().unwrap();
        assert_eq!(r.counter("hits", &[("worker", "0")]), Some(5));
        assert_eq!(r.gauge("depth", &[]), Some(4.0));
        assert_eq!(r.histogram("lat", &[]).unwrap().sum(), 30.0);
    }

    #[test]
    fn a_registered_series_is_exported_only_once_recorded() {
        let m = Metrics::recording();
        let zero = m.register_counter("zero", &[]);
        let _never = m.register_counter("never", &[]);
        let _gauge = m.register_gauge("g", &[]);
        let _hist = m.register_histogram("h", &[]);
        assert!(m.snapshot().unwrap().is_empty());
        // A zero delta still creates the series, as `inc` does.
        zero.inc(0);
        let r = m.snapshot().unwrap();
        let names: Vec<&str> = r.counters().map(|(k, _)| k.name.as_str()).collect();
        assert_eq!(names, ["zero"]);
        assert_eq!(r.gauges().count() + r.histograms().count(), 0);
        assert_eq!(r.counter("never", &[]), None);
    }

    #[test]
    fn disabled_handles_are_inert() {
        let m = Metrics::disabled();
        let c = m.register_counter("hits", &[]);
        c.inc(1);
        m.register_gauge("g", &[]).set(1.0);
        let h = m.register_histogram("h", &[]);
        assert!(!h.enabled());
        h.observe(1.0);
        assert!(m.snapshot().is_none());
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let m = Metrics::disabled();
        m.inc("hits", &[], 1);
        assert!(m.snapshot().is_none());
    }

    #[test]
    fn histogram_tracks_extremes_and_mean() {
        let mut h = Histogram::new();
        for v in [2.0, 8.0, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(2.0));
        assert_eq!(h.max(), Some(8.0));
        assert!((h.mean().unwrap() - 14.0 / 3.0).abs() < 1e-12);
        assert!(Histogram::new().quantile(50.0).is_none());
    }

    #[test]
    fn histogram_underflow_bucket_catches_nonpositive_values() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        assert_eq!(h.quantile(100.0), Some(0.0));
        let (lo, hi) = Histogram::bucket_bounds(Histogram::UNDERFLOW);
        assert_eq!((lo, hi), (0.0, 0.0));
    }

    #[test]
    fn quantile_stays_within_one_bucket_of_nearest_rank() {
        // Mirror of krisp_sim::stats::percentile (nearest rank).
        let exact = |sorted: &[f64], p: f64| {
            let n = sorted.len();
            let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
            sorted[rank - 1]
        };
        let mut samples: Vec<f64> = (1..=500).map(|i| (i as f64) * 0.37 + 0.5).collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.observe(s);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            let sketch = h.quantile(p).unwrap();
            let truth = exact(&samples, p);
            let off = (Histogram::bucket_of(sketch) - Histogram::bucket_of(truth)).abs();
            assert!(off <= 1, "p{p}: sketch {sketch} vs exact {truth}");
        }
    }

    #[test]
    fn quantile_is_clamped_to_the_sample_range() {
        let mut h = Histogram::new();
        h.observe(42.0);
        assert_eq!(h.quantile(0.0), Some(42.0));
        assert_eq!(h.quantile(100.0), Some(42.0));
    }
}
