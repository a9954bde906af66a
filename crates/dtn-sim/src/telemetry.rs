//! Always-on observability: cheap event counters and per-phase wall-clock
//! spans.
//!
//! The engine and the MBT contact protocol already compute everything worth
//! measuring — contacts processed, hello exchanges, clique formations,
//! broadcast frames sent and lost, metadata and file pieces transferred,
//! bytes moved — and previously threw it away. [`Counters`] keeps those
//! totals, [`PhaseTimes`] keeps wall-clock time per [`Phase`], and
//! [`Telemetry`] bundles both for aggregation up the stack (per simulation
//! run, then per sweep cell, merged in grid order by the experiment
//! executor).
//!
//! # Determinism contract
//!
//! Counters are pure functions of the simulation's deterministic event
//! stream: two runs with the same trace, parameters, and seed produce
//! **byte-identical counter totals**, regardless of thread count, because
//! per-cell counters merge in grid order (and the merge operations — `u64`
//! addition for totals, maximum for the `peak_resident_*` counters — are
//! commutative and associative besides). Wall-clock spans are observational only — they
//! are never fed back into simulation state, so enabling telemetry cannot
//! perturb simulation output. `tests/parallel_determinism.rs` pins both
//! properties.
//!
//! # Example
//!
//! ```
//! use dtn_sim::telemetry::{Counters, Phase, Telemetry};
//!
//! let mut total = Telemetry::default();
//! let mut cell = Telemetry::default();
//! cell.counters.contacts = 3;
//! cell.counters.frames_sent = 7;
//! total.merge(&cell);
//! total.merge(&cell);
//! assert_eq!(total.counters.contacts, 6);
//! assert_eq!(total.counters.frames_sent, 14);
//! assert_eq!(total.phases.get(Phase::Discovery).as_nanos(), 0);
//! ```

use std::time::{Duration, Instant};

/// How a counter combines across merged runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Totals add.
    Sum,
    /// Residency peaks take the maximum: the sweep-wide figure is the worst
    /// single run, so it stays independent of `--jobs` and cell count.
    Max,
}

impl Merge {
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            Merge::Sum => a + b,
            Merge::Max => a.max(b),
        }
    }
}

/// Declares every counter once — name, doc and [`Merge`] rule — and
/// generates the [`Counters`] struct, [`Counters::merge`] and
/// [`Counters::entries`] from that one table.
macro_rules! counters {
    ($($(#[doc = $doc:literal])* $name:ident: $merge:ident,)*) => {
        /// Deterministic event counters accumulated by a simulation run.
        ///
        /// Every field counts events of the deterministic simulation itself,
        /// so the totals are reproducible bit-for-bit (see the module docs).
        /// All counts are contact-level unless noted; Internet
        /// synchronisation sessions are not metered here.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct Counters {
            $($(#[doc = $doc])* pub $name: u64,)*
        }

        impl Counters {
            /// Number of counters.
            pub const COUNT: usize = [$(stringify!($name)),*].len();

            /// Adds another counter set into this one, each counter by its
            /// declared [`Merge`] rule.
            pub fn merge(&mut self, other: &Counters) {
                $(self.$name = Merge::$merge.apply(self.$name, other.$name);)*
            }

            /// Every counter as a `(name, value)` pair, in declaration
            /// order. The names double as the keys of the perf report's
            /// `counters` object.
            pub fn entries(&self) -> [(&'static str, u64); Counters::COUNT] {
                [$((stringify!($name), self.$name)),*]
            }

            /// True if every counter is zero (a fresh accumulator).
            pub fn is_zero(&self) -> bool {
                *self == Counters::default()
            }
        }
    };
}

counters! {
    /// Contacts processed (at least two alive participants).
    contacts: Sum,
    /// Hello beacons exchanged: one per participant per processed contact.
    hello_exchanges: Sum,
    /// Contacts that formed a clique of three or more participants.
    clique_formations: Sum,
    /// Broadcast frames transmitted (metadata and file broadcasts).
    frames_sent: Sum,
    /// Receptions dropped by injected frame loss.
    frames_lost: Sum,
    /// Metadata records successfully received and stored (non-duplicate),
    /// including metadata riding along with file broadcasts.
    metadata_transferred: Sum,
    /// File pieces successfully received as part of completed file
    /// broadcasts.
    pieces_transferred: Sum,
    /// Application bytes successfully moved: metadata wire bytes plus file
    /// content bytes, counted per reception.
    bytes_moved: Sum,
    /// File receptions discarded by checksum verification after injected
    /// piece corruption.
    corrupt_receptions: Sum,
    /// Hello snapshots whose wanted-URI list was served from the node's
    /// memoized cache (no recomputation). Deterministic: the hit/miss
    /// pattern is a pure function of the event stream.
    wanted_cache_hits: Sum,
    /// Inverted-index lookups performed to (re)compute wanted-URI lists on
    /// cache misses (one per own query per miss).
    index_lookups: Sum,
    /// On-disk trace shards loaded by streaming replay. Zero for fully
    /// in-memory runs.
    shards_loaded: Sum,
    /// Shards whose decode was started ahead of consumption by pipelined
    /// streaming replay. Zero for in-memory runs and serial streams.
    shards_prefetched: Sum,
    /// Peak number of trace contacts resident in memory at once across the
    /// runs merged so far.
    peak_resident_contacts: Max,
    /// Node states materialized by the lazy node arena: one per node that
    /// actually appeared in a contact, an Internet session, or seeded
    /// content.
    nodes_instantiated: Sum,
    /// Peak number of node states resident in the arena at once (lazy
    /// instantiation minus cold-node eviction).
    peak_resident_nodes: Max,
    /// Peak number of evicted (cold) nodes holding residue in the arena's
    /// residue store at once.
    peak_residue_nodes: Max,
    /// Estimated peak bytes held by the residue store (packed entries plus
    /// the interned query-text pool). An estimate from data-structure
    /// sizes, but a deterministic one: it is a pure function of the event
    /// stream.
    residue_bytes_est: Max,
}

/// The phases the observability layer times.
///
/// `Discovery` and `Download` are sub-spans of `ContactProcessing` (they
/// time the metadata and file broadcast phases inside each contact), so the
/// five spans do not sum to wall-clock time; report them individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Loading or generating the contact trace.
    TraceLoad,
    /// Processing contacts end to end (includes the two sub-spans below).
    ContactProcessing,
    /// The metadata broadcast (discovery) phase within contacts.
    Discovery,
    /// The file broadcast (download) phase within contacts.
    Download,
    /// Merging per-cell results in grid order.
    Reduction,
}

impl Phase {
    /// Every phase, in rendering order.
    pub const ALL: [Phase; 5] = [
        Phase::TraceLoad,
        Phase::ContactProcessing,
        Phase::Discovery,
        Phase::Download,
        Phase::Reduction,
    ];

    /// Number of phases.
    pub const COUNT: usize = Phase::ALL.len();

    /// Stable snake_case name (doubles as the perf-report JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::TraceLoad => "trace_load",
            Phase::ContactProcessing => "contact_processing",
            Phase::Discovery => "discovery",
            Phase::Download => "download",
            Phase::Reduction => "reduction",
        }
    }

    /// Parses a [`Phase::name`] back into a phase.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        match self {
            Phase::TraceLoad => 0,
            Phase::ContactProcessing => 1,
            Phase::Discovery => 2,
            Phase::Download => 3,
            Phase::Reduction => 4,
        }
    }
}

/// Wall-clock time accumulated per [`Phase`].
///
/// Timings are observational: they never feed back into simulation state,
/// and they are kept out of every determinism-checked structure (two
/// identical runs report identical counters but different spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimes {
    spans: [Duration; Phase::COUNT],
}

impl PhaseTimes {
    /// Accumulated time in `phase`.
    pub fn get(&self, phase: Phase) -> Duration {
        self.spans[phase.index()]
    }

    /// Adds `elapsed` to `phase`.
    pub fn add(&mut self, phase: Phase, elapsed: Duration) {
        self.spans[phase.index()] += elapsed;
    }

    /// Adds another span set into this one, phase by phase.
    pub fn merge(&mut self, other: &PhaseTimes) {
        for (slot, span) in self.spans.iter_mut().zip(&other.spans) {
            *slot += *span;
        }
    }

    /// Times `f`, charging its wall-clock duration to `phase`.
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(phase, start.elapsed());
        out
    }
}

/// Counters plus phase spans: the unit of aggregation the experiment
/// executor merges per sweep cell, in grid order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Telemetry {
    /// Deterministic event counters.
    pub counters: Counters,
    /// Observational wall-clock spans.
    pub phases: PhaseTimes,
}

impl Telemetry {
    /// Merges another telemetry record into this one (counters add, spans
    /// add).
    pub fn merge(&mut self, other: &Telemetry) {
        self.counters.merge(&other.counters);
        self.phases.merge(&other.phases);
    }
}

/// `count / elapsed` in events per second, guarded against empty inputs: a
/// zero or sub-nanosecond elapsed time (e.g. an empty sweep that processed
/// zero cells) yields `0.0` rather than `NaN` or infinity — the
/// `RatioSummary`-style guard, so empty sweeps still emit valid reports.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// assert_eq!(dtn_sim::telemetry::rate_per_sec(0, Duration::ZERO), 0.0);
/// assert_eq!(dtn_sim::telemetry::rate_per_sec(10, Duration::ZERO), 0.0);
/// assert_eq!(dtn_sim::telemetry::rate_per_sec(10, Duration::from_secs(2)), 5.0);
/// ```
pub fn rate_per_sec(count: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 || !secs.is_finite() {
        return 0.0;
    }
    let rate = count as f64 / secs;
    if rate.is_finite() {
        rate
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distinct_counters() -> Counters {
        Counters {
            contacts: 1,
            hello_exchanges: 2,
            clique_formations: 3,
            frames_sent: 4,
            frames_lost: 5,
            metadata_transferred: 6,
            pieces_transferred: 7,
            bytes_moved: 8,
            corrupt_receptions: 9,
            wanted_cache_hits: 10,
            index_lookups: 11,
            shards_loaded: 12,
            shards_prefetched: 13,
            peak_resident_contacts: 14,
            nodes_instantiated: 15,
            peak_resident_nodes: 16,
            peak_residue_nodes: 17,
            residue_bytes_est: 18,
        }
    }

    #[test]
    fn merge_adds_every_counter_except_peak_which_maxes() {
        let mut a = distinct_counters();
        let b = a;
        a.merge(&b);
        let maxing = [
            "peak_resident_contacts",
            "peak_resident_nodes",
            "peak_residue_nodes",
            "residue_bytes_est",
        ];
        for ((name, merged), (_, original)) in a.entries().iter().zip(b.entries().iter()) {
            if maxing.contains(name) {
                assert_eq!(*merged, *original, "{name} merges by max, not addition");
            } else {
                assert_eq!(*merged, original * 2, "{name} should add on merge");
            }
        }
    }

    #[test]
    fn peak_resident_takes_maximum_either_direction() {
        let mut small = Counters {
            peak_resident_contacts: 10,
            ..Counters::default()
        };
        let large = Counters {
            peak_resident_contacts: 500,
            ..Counters::default()
        };
        small.merge(&large);
        assert_eq!(small.peak_resident_contacts, 500);
        let mut large = large;
        large.merge(&Counters {
            peak_resident_contacts: 10,
            ..Counters::default()
        });
        assert_eq!(large.peak_resident_contacts, 500);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut a = Counters {
            contacts: 3,
            frames_sent: 11,
            ..Counters::default()
        };
        let before = a;
        a.merge(&Counters::default());
        assert_eq!(a, before);
        assert!(!a.is_zero());
        assert!(Counters::default().is_zero());
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("warp_drive"), None);
    }

    #[test]
    fn phase_times_accumulate_and_merge() {
        let mut a = PhaseTimes::default();
        a.add(Phase::Discovery, Duration::from_millis(5));
        a.add(Phase::Discovery, Duration::from_millis(7));
        assert_eq!(a.get(Phase::Discovery), Duration::from_millis(12));
        assert_eq!(a.get(Phase::Download), Duration::ZERO);
        let mut b = PhaseTimes::default();
        b.add(Phase::Download, Duration::from_millis(3));
        b.merge(&a);
        assert_eq!(b.get(Phase::Discovery), Duration::from_millis(12));
        assert_eq!(b.get(Phase::Download), Duration::from_millis(3));
    }

    #[test]
    fn time_charges_the_right_phase_and_returns_the_value() {
        let mut t = PhaseTimes::default();
        let out = t.time(Phase::Reduction, || 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(t.get(Phase::TraceLoad), Duration::ZERO);
        // The span is non-negative by construction; it may round to zero on
        // a coarse clock, so only the untouched phases are asserted exactly.
    }

    #[test]
    fn rate_guards_empty_and_degenerate_inputs() {
        assert_eq!(rate_per_sec(0, Duration::ZERO), 0.0);
        assert_eq!(rate_per_sec(100, Duration::ZERO), 0.0);
        let r = rate_per_sec(100, Duration::from_millis(500));
        assert!((r - 200.0).abs() < 1e-9);
        assert!(rate_per_sec(u64::MAX, Duration::from_nanos(1)).is_finite());
    }

    #[test]
    fn telemetry_merge_covers_both_halves() {
        let mut cell = Telemetry::default();
        cell.counters.contacts = 2;
        cell.phases
            .add(Phase::ContactProcessing, Duration::from_millis(4));
        let mut total = Telemetry::default();
        total.merge(&cell);
        total.merge(&cell);
        assert_eq!(total.counters.contacts, 4);
        assert_eq!(
            total.phases.get(Phase::ContactProcessing),
            Duration::from_millis(8)
        );
    }
}
