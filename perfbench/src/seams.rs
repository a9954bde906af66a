//! Outside-in timers around the program's public seams.
//!
//! Nothing here reaches inside the program: [`TimedSource`] wraps any
//! [`TraceSource`] and [`TimedSink`] wraps any [`ContactSink`], so the
//! simulator and the trace generator run their normal code while the
//! benchmark clocks the calls that cross the seam.
//!
//! How a replay's wall clock is split from outside. The stream simulator
//! pulls the next contact, then pumps every queued event that sorts before
//! it, then pulls again. So the time spent *inside* a pull is trace decode
//! and prefetch wait, and the *gap* between two pulls is the simulator's
//! own work. The daily workload event fires at noon; it sorts before the
//! first contact that starts after noon, so it runs in the gap that
//! follows the pull returning that contact. Those gaps are charged to the
//! day tick; every other gap holds the contact kernel, arena work and the
//! event pump. The noon gap also holds the few contact starts admitted in
//! the same batch, a negligible overlap with the kernel's own span.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dtn_trace::{
    Contact, ContactSink, ContactStream, NodeId, SimDuration, SimTime, StreamStats, TraceSource,
};
use mbt_experiments::workload::publish_time;

/// What a [`TimedSource`] observed over every stream it opened.
#[derive(Debug, Clone, Default)]
pub struct SeamTimes {
    /// Time spent inside the stream's `next()`: decode and prefetch wait.
    pub stream_wait: Duration,
    /// Pull gaps that span a noon publish (the daily workload event). The
    /// other gaps hold the contact kernel, arena and event pump.
    pub day_tick: Duration,
    /// Time inside [`TraceSource::frequent_map`].
    pub frequent_map: Duration,
    /// Contacts pulled.
    pub pulls: u64,
    /// Pull gaps charged to the day tick.
    pub ticks: u64,
    /// Untraced streams only: the interval between successive pull
    /// returns — the time the replay spent on each contact, decode
    /// included.
    pub contact_ns: Histogram,
}

/// Buckets of a [`Histogram`], one per nanosecond; longer intervals are
/// kept exactly.
const BUCKETS: usize = 100_000;

/// Nanosecond intervals counted per nanosecond up to 100 us, with the rare
/// longer ones kept exactly, so a replay's per-contact latency costs
/// constant memory instead of a sample per contact.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: Vec<u64>,
    count: u64,
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
        match self.buckets.get_mut(ns as usize) {
            Some(bucket) => *bucket += 1,
            None => self.overflow.push(ns),
        }
        self.count += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
        for (slot, n) in self.buckets.iter_mut().zip(&other.buckets) {
            *slot += n;
        }
        self.overflow.extend_from_slice(&other.overflow);
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank `q`-quantile in microseconds, 0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return i as f64 / 1e3;
            }
        }
        let mut overflow = self.overflow.clone();
        overflow.sort_unstable();
        overflow[(rank - seen - 1) as usize] as f64 / 1e3
    }
}

/// A [`TraceSource`] that forwards to `inner` and clocks the calls.
///
/// With `traced` off it reads the clock once per pull, to give per-contact
/// latency; with `traced` on it splits every pull into wait and gap.
#[derive(Debug)]
pub struct TimedSource<'a> {
    inner: &'a dyn TraceSource,
    traced: bool,
    times: Mutex<SeamTimes>,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a dyn TraceSource, traced: bool) -> Self {
        TimedSource {
            inner,
            traced,
            times: Mutex::new(SeamTimes::default()),
        }
    }

    /// Everything observed so far; streams report when they are dropped.
    pub fn times(&self) -> SeamTimes {
        self.times.lock().expect("seam timer lock poisoned").clone()
    }

    fn wrap<'s>(&'s self, inner: Box<dyn ContactStream + 's>) -> Box<dyn ContactStream + 's> {
        Box::new(TimedStream {
            inner,
            sink: &self.times,
            traced: self.traced,
            local: SeamTimes::default(),
            last_return: None,
            tick_pending: false,
            next_noon_day: 0,
        })
    }
}

impl TraceSource for TimedSource<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.inner.nodes()
    }

    fn id_space(&self) -> usize {
        self.inner.id_space()
    }

    fn start_time(&self) -> Option<SimTime> {
        self.inner.start_time()
    }

    fn end_time(&self) -> Option<SimTime> {
        self.inner.end_time()
    }

    fn stream(&self) -> Box<dyn ContactStream + '_> {
        self.wrap(self.inner.stream())
    }

    fn stream_prefetch(&self, depth: usize) -> Box<dyn ContactStream + '_> {
        self.wrap(self.inner.stream_prefetch(depth))
    }

    fn frequent_map(&self, every: SimDuration) -> Option<BTreeMap<NodeId, Vec<NodeId>>> {
        let started = Instant::now();
        let map = self.inner.frequent_map(every);
        self.times
            .lock()
            .expect("seam timer lock poisoned")
            .frequent_map += started.elapsed();
        map
    }
}

struct TimedStream<'s> {
    inner: Box<dyn ContactStream + 's>,
    sink: &'s Mutex<SeamTimes>,
    traced: bool,
    local: SeamTimes,
    last_return: Option<Instant>,
    tick_pending: bool,
    next_noon_day: u64,
}

impl Iterator for TimedStream<'_> {
    type Item = Contact;

    fn next(&mut self) -> Option<Contact> {
        if !self.traced {
            let item = self.inner.next();
            let returned = Instant::now();
            if let (Some(_), Some(last)) = (&item, self.last_return) {
                let ns = (returned - last).as_nanos();
                self.local
                    .contact_ns
                    .record(u64::try_from(ns).unwrap_or(u64::MAX));
            }
            self.last_return = Some(returned);
            return item;
        }
        let called = Instant::now();
        if let Some(returned) = self.last_return {
            if std::mem::take(&mut self.tick_pending) {
                self.local.day_tick += called - returned;
                self.local.ticks += 1;
            }
        }
        let item = self.inner.next();
        let returned = Instant::now();
        self.local.stream_wait += returned - called;
        if let Some(contact) = &item {
            self.local.pulls += 1;
            while contact.start() > publish_time(self.next_noon_day) {
                self.next_noon_day += 1;
                self.tick_pending = true;
            }
        }
        self.last_return = Some(returned);
        item
    }
}

impl ContactStream for TimedStream<'_> {
    fn stream_stats(&self) -> StreamStats {
        self.inner.stream_stats()
    }
}

impl Drop for TimedStream<'_> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned lock just loses this stream's
        // observations.
        if let Ok(mut total) = self.sink.lock() {
            total.stream_wait += self.local.stream_wait;
            total.day_tick += self.local.day_tick;
            total.pulls += self.local.pulls;
            total.ticks += self.local.ticks;
            total.contact_ns.merge(&self.local.contact_ns);
        }
    }
}

/// A [`ContactSink`] that forwards to `inner` and clocks the time spent in
/// it, so a generator's wall clock splits into generation and sink work.
#[derive(Debug)]
pub struct TimedSink<'a, S: ContactSink + ?Sized> {
    inner: &'a mut S,
    /// Time spent inside `inner.push_contact`.
    pub in_sink: Duration,
}

impl<'a, S: ContactSink + ?Sized> TimedSink<'a, S> {
    pub fn new(inner: &'a mut S) -> Self {
        TimedSink {
            inner,
            in_sink: Duration::ZERO,
        }
    }
}

impl<S: ContactSink + ?Sized> ContactSink for TimedSink<'_, S> {
    fn push_contact(&mut self, contact: Contact) {
        let started = Instant::now();
        self.inner.push_contact(contact);
        self.in_sink += started.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::{ContactTrace, TraceBuilder, SECONDS_PER_DAY};

    fn pc(a: u32, b: u32, start: u64) -> Contact {
        Contact::pairwise(
            NodeId::new(a),
            NodeId::new(b),
            SimTime::from_secs(start),
            SimTime::from_secs(start + 60),
        )
        .expect("valid contact")
    }

    fn two_day_trace() -> ContactTrace {
        let noon = 12 * 3_600;
        let mut builder = TraceBuilder::new();
        for (i, start) in [3_600, noon - 10, noon + 10, SECONDS_PER_DAY + noon + 5]
            .into_iter()
            .enumerate()
        {
            builder.push_contact(pc(i as u32, i as u32 + 1, start));
        }
        builder.build()
    }

    #[test]
    fn forwarding_changes_nothing_the_stream_yields() {
        let trace = two_day_trace();
        for traced in [false, true] {
            let timed = TimedSource::new(&trace, traced);
            let direct: Vec<Contact> = TraceSource::stream(&trace).collect();
            let via: Vec<Contact> = timed.stream().collect();
            assert_eq!(direct, via);
            assert_eq!(timed.len(), trace.len());
            assert_eq!(timed.nodes(), TraceSource::nodes(&trace));
        }
    }

    #[test]
    fn gaps_after_a_noon_crossing_are_day_ticks() {
        let trace = two_day_trace();
        let timed = TimedSource::new(&trace, true);
        let pulled = timed.stream().count();
        let times = timed.times();
        assert_eq!(pulled, 4);
        assert_eq!(times.pulls, 4);
        // Noon of day 0 is crossed by the third contact, noon of day 1 by
        // the fourth; only the first gap is charged, the last contact's
        // gap ends at the exhausting pull.
        assert_eq!(times.ticks, 2);
        assert_eq!(
            times.contact_ns.count(),
            0,
            "traced streams split pulls instead"
        );
        let light = TimedSource::new(&trace, false);
        assert_eq!(light.stream().count(), 4);
        assert_eq!(
            light.times().contact_ns.count(),
            3,
            "one interval per later pull"
        );
    }

    #[test]
    fn histogram_quantiles_follow_nearest_rank() {
        let mut h = Histogram::default();
        for ns in [1_000, 2_000, 3_000, 500_000] {
            h.record(ns);
        }
        assert_eq!(h.quantile_us(0.5), 2.0);
        assert_eq!(h.quantile_us(0.75), 3.0);
        assert_eq!(h.quantile_us(1.0), 500.0, "overflow kept exactly");
        let mut merged = Histogram::default();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.count(), 8);
        assert_eq!(merged.quantile_us(0.5), 2.0);
        assert_eq!(Histogram::default().quantile_us(0.5), 0.0);
    }

    #[test]
    fn sink_forwards_every_contact() {
        let trace = two_day_trace();
        let mut builder = TraceBuilder::new();
        let mut sink = TimedSink::new(&mut builder);
        for contact in trace.iter() {
            sink.push_contact(contact.clone());
        }
        assert_eq!(builder.build(), trace);
    }
}
