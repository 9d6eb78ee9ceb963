//! Run statistics: named counters, gauges and histograms.
//!
//! Protocols under test report what they did (messages sent, boundary
//! crossings suppressed, merge operations performed, …) through the
//! [`Stats`] sink carried by the kernel; the experiment harness reads the
//! totals back after the run. Keys are plain strings so that each crate can
//! define its own vocabulary without a central registry.
//!
//! [`Stats`] is the one metric store of the stack: the kernel's run
//! statistics, the runtime's phase telemetry and its per-shard accounting
//! are each a [`Stats`], and a trace document absorbs any of them.
//!
//! Histograms live in slots that never move, so the kernel registers its
//! own once and records each dispatch in place by slot id, and a sharded
//! window stages its observations by id.

use std::collections::BTreeMap;
use std::fmt;

/// A set of named counters, gauges and histograms.
///
/// Reads, iteration and `Debug` go in key order, whatever order the
/// histograms were registered in; a histogram that holds no sample is
/// invisible to all three.
#[derive(Default, Clone)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    /// The slot of every registered histogram, by key.
    hist_ids: BTreeMap<String, HistId>,
    hist_slots: Vec<Histogram>,
}

/// The slot of one histogram in its [`Stats`].
#[derive(Clone, Copy)]
pub(crate) struct HistId(usize);

impl Stats {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `key` (creating it at zero).
    ///
    /// The fast path is allocation-free: a counter that already exists is
    /// bumped through `get_mut` without cloning the key, so per-event
    /// counters settle after their first touch and stay off the heap —
    /// the invariant the no-alloc gate (`wsn-lint gate alloc`) measures.
    pub fn add(&mut self, key: &str, delta: u64) {
        match self.counters.get_mut(key) {
            Some(v) => *v += delta,
            None => {
                self.counters.insert(key.to_owned(), delta);
            }
        }
    }

    /// Increments the counter `key` by one.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Current value of counter `key` (zero if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sets the gauge `key` to `value`. Allocation-free once the gauge
    /// exists, like [`Stats::add`].
    pub fn set_gauge(&mut self, key: &str, value: f64) {
        match self.gauges.get_mut(key) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(key.to_owned(), value);
            }
        }
    }

    /// Current value of gauge `key`.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// The slot of histogram `key`, registered empty on first use. The
    /// lookup is allocation-free once the key is registered.
    pub(crate) fn histogram_id(&mut self, key: &str) -> HistId {
        if let Some(&id) = self.hist_ids.get(key) {
            return id;
        }
        let id = HistId(self.hist_slots.len());
        self.hist_slots.push(Histogram::default());
        self.hist_ids.insert(key.to_owned(), id);
        id
    }

    /// Records `value` into the histogram in slot `id`.
    #[inline]
    pub(crate) fn record(&mut self, id: HistId, value: f64) {
        self.hist_slots[id.0].record(value);
    }

    /// Records `value` into the histogram `key`. The key lookup is
    /// allocation-free once the histogram exists; the record itself
    /// appends to the sample vector (amortized growth).
    pub fn observe(&mut self, key: &str, value: f64) {
        let id = self.histogram_id(key);
        self.record(id, value);
    }

    /// The histogram `key`, if any value was ever observed.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        let id = self.hist_ids.get(key)?;
        Some(&self.hist_slots[id.0]).filter(|h| h.count() > 0)
    }

    /// Iterates over all counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates over all gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates over all histograms that hold a sample, in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hist_ids
            .iter()
            .map(|(k, id)| (k.as_str(), &self.hist_slots[id.0]))
            .filter(|(_, h)| h.count() > 0)
    }
}

impl fmt::Debug for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stats")
            .field("counters", &self.counters)
            .field("gauges", &self.gauges)
            .field("histograms", &self.histograms().collect::<BTreeMap<_, _>>())
            .finish()
    }
}

/// What a handler writes statistics through ([`crate::Context::stats`]).
///
/// Counters are `u64` sums, so the order they are added in cannot show:
/// they always go straight into the kernel's [`Stats`]. Histogram
/// observations keep their order. Inside a sharded window they are staged
/// by slot id, and the barrier replays them into the [`Stats`] in
/// canonical dispatch order (see [`crate::shard`]).
pub struct StatsSink<'a> {
    pub(crate) stats: &'a mut Stats,
    pub(crate) staged: Option<&'a mut StagedStats>,
}

impl StatsSink<'_> {
    /// Adds `delta` to the counter `key` ([`Stats::add`]).
    #[inline]
    pub fn add(&mut self, key: &str, delta: u64) {
        self.stats.add(key, delta);
    }

    /// Increments the counter `key` by one.
    #[inline]
    pub fn incr(&mut self, key: &str) {
        self.stats.add(key, 1);
    }

    /// Records `value` into the histogram `key` ([`Stats::observe`]).
    #[inline]
    pub fn observe(&mut self, key: &str, value: f64) {
        match self.staged.as_deref_mut() {
            Some(staged) => staged.push((self.stats.histogram_id(key), value)),
            None => self.stats.observe(key, value),
        }
    }
}

/// The histogram observations of one sharded window, in staging order.
pub(crate) type StagedStats = Vec<(HistId, f64)>;

/// An exact histogram that stores every observation.
///
/// Experiment populations are at most a few million values, so exactness is
/// affordable and keeps quantiles honest.
#[derive(Debug, Default, Clone)]
pub struct Histogram {
    values: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// All observations in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.sum() / self.values.len() as f64)
        }
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(a) => a.min(x),
            })
        })
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(a) => a.max(x),
            })
        })
    }

    /// Population standard deviation, or `None` when empty.
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var =
            self.values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / self.values.len() as f64;
        Some(var.sqrt())
    }

    /// Exact quantile `q ∈ [0,1]` by nearest-rank, or `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile out of [0,1]");
        if !self.sorted {
            self.values
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN observation"));
            self.sorted = true;
        }
        let idx = ((q * (self.values.len() - 1) as f64).round()) as usize;
        Some(self.values[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.incr("tx");
        s.add("tx", 4);
        assert_eq!(s.counter("tx"), 5);
        assert_eq!(s.counter("never"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut s = Stats::new();
        s.set_gauge("load", 0.5);
        s.set_gauge("load", 0.9);
        assert_eq!(s.gauge("load"), Some(0.9));
        assert_eq!(s.gauge("missing"), None);
    }

    #[test]
    fn histogram_moments() {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), Some(2.5));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
        let sd = h.std_dev().unwrap();
        assert!((sd - 1.118).abs() < 1e-3);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::default();
        for v in 0..101 {
            h.record(v as f64);
        }
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
    }

    #[test]
    fn empty_histogram_is_none() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.std_dev(), None);
    }

    #[test]
    fn counters_iterate_in_key_order() {
        let mut s = Stats::new();
        s.incr("b");
        s.incr("a");
        s.incr("c");
        let keys: Vec<&str> = s.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn gauges_and_histograms_iterate_in_key_order() {
        let mut s = Stats::new();
        s.set_gauge("z", 1.0);
        s.set_gauge("a", 2.0);
        s.observe("lat", 3.0);
        s.observe("lat", 5.0);
        let gauges: Vec<(&str, f64)> = s.gauges().collect();
        assert_eq!(gauges, vec![("a", 2.0), ("z", 1.0)]);
        let hists: Vec<&str> = s.histograms().map(|(k, _)| k).collect();
        assert_eq!(hists, vec!["lat"]);
        assert_eq!(s.histograms().next().unwrap().1.values(), &[3.0, 5.0]);
    }

    #[test]
    fn a_registered_histogram_without_samples_is_invisible() {
        let mut s = Stats::new();
        let id = s.histogram_id("idle");
        assert!(s.histogram("idle").is_none());
        assert_eq!(s.histograms().count(), 0);
        assert_eq!(format!("{s:?}"), format!("{:?}", Stats::new()));
        s.record(id, 4.0);
        assert_eq!(s.histogram("idle").unwrap().values(), &[4.0]);
    }

    #[test]
    fn registration_order_never_shows() {
        let (mut fwd, mut rev) = (Stats::new(), Stats::new());
        for key in ["a", "m", "z"] {
            fwd.histogram_id(key);
        }
        for key in ["z", "m", "a"] {
            rev.histogram_id(key);
        }
        for s in [&mut fwd, &mut rev] {
            s.incr("n");
            s.observe("z", 1.0);
            s.observe("a", 2.0);
            s.observe("z", 3.0);
        }
        assert_eq!(format!("{fwd:?}"), format!("{rev:?}"));
        let listed = |s: &Stats| -> Vec<(String, Vec<f64>)> {
            s.histograms()
                .map(|(k, h)| (k.to_owned(), h.values().to_vec()))
                .collect()
        };
        assert_eq!(listed(&fwd), listed(&rev));
        assert_eq!(
            listed(&fwd),
            vec![("a".into(), vec![2.0]), ("z".into(), vec![1.0, 3.0])]
        );
    }
}
