//! `server_storm`: a mixed operation storm against the live
//! `MetadataServer` over a synthetic corpus with Zipf popularity.
//!
//! 70% searches, 10% publishes (half fresh, half republish of a hot
//! record), 15% download-request recordings and 5% popularity updates,
//! with a refresh + expire pass every [`MAINTENANCE_EVERY`] operations.
//! Writes sit beside reads, so an index change that speeds up search but
//! slows publishing or maintenance shows here.

use std::time::{Duration, Instant};

use dtn_sim::rng::{derive_seed, stream};
use dtn_trace::{NodeId, SimDuration, SimTime};
use mbt_core::server::ReferenceServer;
use mbt_core::{Metadata, MetadataServer, Popularity, Query, Uri};
use rand::rngs::StdRng;
use rand::Rng;

use crate::expected;
use crate::gateway;
use crate::report::{fnv_fold, median, micros, quantile, ratio, Outcome, FNV_START};
use crate::Mode;

/// Corpus size of the measured storm and of the gateway's snapshot.
pub const FULL_RECORDS: u64 = 200_000;
/// Corpus size of the smoke test.
pub const TINY_RECORDS: u64 = 2_000;
/// Corpus size of the pinned gate (seed 42).
const GATE_RECORDS: u64 = 5_000;
const GATE_OPS: u64 = 5_000;
const GATE_SEED: u64 = 42;

/// Shards of the server under test.
const SHARDS: usize = 8;
/// Internet population the popularity estimator normalizes by.
const POPULATION: u32 = 100;
/// Zipf exponent of record popularity and of the storm's record picks.
const ZIPF_S: f64 = 0.8;
/// Results per search.
pub const LIMIT: usize = 10;
/// Operations between refresh + expire passes.
pub const MAINTENANCE_EVERY: u64 = 5_000;
/// Operations generated ahead of each timed batch.
const BATCH: u64 = 1_000;
/// Operations of the measured storm replayed against the reference server.
const ORACLE_OPS: u64 = 20_000;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

/// Vocabulary of a corpus, as in `mbt bench --server`: 16,384 tokens at
/// scale (three per record, so ~37 postings per token at 200k records),
/// shrunk for small corpora so their searches still hit.
fn vocab(records: u64) -> u64 {
    (records / 8).clamp(32, 16_384)
}

/// The synthetic record `idx`: three vocabulary tokens, Zipf popularity by
/// rank, and a TTL on every 20th record so expiry passes have work.
fn record(idx: u64, vocab: u64, rng: &mut StdRng) -> (Metadata, Popularity) {
    let (t1, t2, t3) = (
        rng.gen_range(0..vocab),
        rng.gen_range(0..vocab),
        rng.gen_range(0..vocab),
    );
    let uri = Uri::new(format!("mbt://bench/file-{idx}")).expect("static scheme");
    let mut builder = Metadata::builder(format!("kw{t1} kw{t2} kw{t3}"), "FOX", uri);
    if idx.is_multiple_of(20) {
        builder = builder.ttl(SimDuration::from_hours(1 + idx % 24));
    }
    let popularity = Popularity::new(1.0 / ((idx + 1) as f64).powf(ZIPF_S));
    (builder.build(), popularity)
}

/// The corpus records of a seed, in publish order.
pub fn corpus(seed: u64, records: u64) -> impl Iterator<Item = (Metadata, Popularity)> {
    let vocab = vocab(records);
    let mut rng = stream(derive_seed(&[seed, 1]), "perfbench-corpus");
    (0..records).map(move |idx| record(idx, vocab, &mut rng))
}

/// A server seeded with the corpus of `seed`.
pub fn build_server(seed: u64, records: u64) -> MetadataServer {
    let mut server = MetadataServer::with_shards(POPULATION, SHARDS);
    for (meta, popularity) in corpus(seed, records) {
        server.publish(meta, popularity);
    }
    server
}

/// A one- or two-token search over the corpus vocabulary.
pub fn search_query(rng: &mut StdRng, records: u64) -> Query {
    let vocab = vocab(records);
    let t1 = rng.gen_range(0..vocab);
    let text = if rng.gen_range(0..4u32) != 0 {
        format!("kw{t1} kw{}", rng.gen_range(0..vocab))
    } else {
        format!("kw{t1}")
    };
    Query::new(text).expect("vocabulary tokens are valid")
}

/// One storm operation.
#[derive(Debug, Clone)]
pub enum Op {
    Publish(Metadata, Popularity),
    Request(Uri, NodeId),
    SetPopularity(Uri, Popularity),
    Search(Query),
}

/// Kinds, for the per-kind latency split.
const KINDS: usize = 4;

impl Op {
    fn kind(&self) -> usize {
        match self {
            Op::Publish(..) => 0,
            Op::Request(..) => 1,
            Op::SetPopularity(..) => 2,
            Op::Search(..) => 3,
        }
    }
}

/// The deterministic operation stream of a seed.
pub struct OpGen {
    rng: StdRng,
    records: u64,
    fresh: u64,
    cum: Vec<f64>,
    next: u64,
}

impl OpGen {
    pub fn new(seed: u64, records: u64) -> OpGen {
        let mut cum = Vec::with_capacity(records as usize);
        let mut total = 0.0;
        for rank in 1..=records {
            total += 1.0 / (rank as f64).powf(ZIPF_S);
            cum.push(total);
        }
        OpGen {
            rng: stream(derive_seed(&[seed, 2]), "perfbench-storm"),
            records,
            fresh: records,
            cum,
            next: 0,
        }
    }

    fn zipf_uri(&mut self) -> (u64, Uri) {
        let total = *self.cum.last().expect("non-empty corpus");
        let x = self.rng.gen_range(0.0..total);
        let idx = self.cum.partition_point(|&c| c <= x) as u64;
        let uri = Uri::new(format!("mbt://bench/file-{idx}")).expect("static scheme");
        (idx, uri)
    }

    /// The next operation and its index in the stream.
    pub fn next_op(&mut self) -> (u64, Op) {
        let index = self.next;
        self.next += 1;
        let vocab = vocab(self.records);
        let op = match index % 20 {
            0 => {
                let (meta, pop) = record(self.fresh, vocab, &mut self.rng);
                self.fresh += 1;
                Op::Publish(meta, pop)
            }
            1 => {
                let (idx, _) = self.zipf_uri();
                let (meta, pop) = record(idx, vocab, &mut self.rng);
                Op::Publish(meta, pop)
            }
            2..=4 => {
                let (_, uri) = self.zipf_uri();
                Op::Request(uri, NodeId::new(self.rng.gen_range(0..POPULATION)))
            }
            5 => {
                let (_, uri) = self.zipf_uri();
                Op::SetPopularity(uri, Popularity::new(self.rng.gen_range(0.0..1.0)))
            }
            _ => Op::Search(search_query(&mut self.rng, self.records)),
        };
        (index, op)
    }
}

/// Simulated clock of operation `index`: one second per operation, so the
/// TTLs lapse and the estimator's 24 h window slides within a run.
fn now_of(index: u64) -> SimTime {
    SimTime::from_secs(index)
}

/// Folds one search answer into `digest`.
fn fold_answer<'a>(digest: u64, uris: impl Iterator<Item = &'a Uri>) -> u64 {
    let mut d = fnv_fold(digest, b"|");
    for uri in uris {
        d = fnv_fold(d, uri.as_str().as_bytes());
    }
    d
}

/// The two servers a storm can drive: the one under test and the
/// reference oracle.
trait StormServer {
    fn apply(&mut self, op: &Op, now: SimTime, digest: &mut u64) -> usize;
    fn maintain(&mut self, now: SimTime) -> usize;
}

/// Both servers share the API the storm uses.
macro_rules! storm_server {
    ($server:ty) => {
        impl StormServer for $server {
            fn apply(&mut self, op: &Op, now: SimTime, digest: &mut u64) -> usize {
                match op {
                    Op::Publish(meta, pop) => self.publish(meta.clone(), *pop),
                    Op::Request(uri, node) => self.record_request(uri, *node, now),
                    Op::SetPopularity(uri, pop) => self.set_popularity(uri, *pop),
                    Op::Search(query) => {
                        let results = self.search(query, LIMIT);
                        *digest = fold_answer(*digest, results.iter().map(|m| m.uri()));
                        return results.len();
                    }
                }
                0
            }

            fn maintain(&mut self, now: SimTime) -> usize {
                self.refresh_popularities(now);
                self.expire(now)
            }
        }
    };
}

storm_server!(MetadataServer);
storm_server!(ReferenceServer);

/// Runs `ops` storm operations untimed and returns the answer digest and
/// the number of expired records (the oracle and gate path).
fn replay_storm(server: &mut impl StormServer, seed: u64, records: u64, ops: u64) -> (u64, u64) {
    let mut gen = OpGen::new(seed, records);
    let mut digest = FNV_START;
    let mut expired = 0;
    for _ in 0..ops {
        let (index, op) = gen.next_op();
        server.apply(&op, now_of(index), &mut digest);
        if (index + 1) % MAINTENANCE_EVERY == 0 {
            expired += server.maintain(now_of(index)) as u64;
        }
    }
    (digest, expired)
}

/// What the timed storm observed.
struct Storm {
    ops: u64,
    busy: Duration,
    /// Busy time of each [`MAINTENANCE_EVERY`]-op block, pass included.
    blocks: Vec<f64>,
    latencies: [Vec<f64>; KINDS],
    maintenance: Vec<f64>,
    hits: u64,
    searches: u64,
    digest: u64,
    oracle_digest: u64,
    expired_at_oracle: u64,
    expired: u64,
}

/// Drives the server for `budget` in batches of pre-generated operations.
/// Only server calls are inside the clock.
fn timed_storm(server: &mut MetadataServer, seed: u64, records: u64, budget: Duration) -> Storm {
    let mut gen = OpGen::new(seed, records);
    let mut storm = Storm {
        ops: 0,
        busy: Duration::ZERO,
        blocks: Vec::new(),
        latencies: Default::default(),
        maintenance: Vec::new(),
        hits: 0,
        searches: 0,
        digest: FNV_START,
        oracle_digest: 0,
        expired_at_oracle: 0,
        expired: 0,
    };
    let started = Instant::now();
    let mut batch = Vec::with_capacity(BATCH as usize);
    let mut block = Duration::ZERO;
    while storm.ops < ORACLE_OPS
        || !storm.ops.is_multiple_of(MAINTENANCE_EVERY)
        || started.elapsed() < budget
    {
        batch.clear();
        batch.extend((0..BATCH).map(|_| gen.next_op()));
        let batch_started = Instant::now();
        for (index, op) in &batch {
            let now = now_of(*index);
            let op_started = Instant::now();
            let hits = server.apply(op, now, &mut storm.digest);
            storm.latencies[op.kind()].push(micros(op_started.elapsed()));
            if let Op::Search(_) = op {
                storm.searches += 1;
                storm.hits += hits as u64;
            }
            if (index + 1) % MAINTENANCE_EVERY == 0 {
                let pass_started = Instant::now();
                storm.expired += server.maintain(now) as u64;
                storm
                    .maintenance
                    .push(pass_started.elapsed().as_secs_f64() * 1e3);
            }
            if index + 1 == ORACLE_OPS {
                storm.oracle_digest = storm.digest;
                storm.expired_at_oracle = storm.expired;
            }
        }
        let batch_wall = batch_started.elapsed();
        storm.busy += batch_wall;
        block += batch_wall;
        storm.ops += BATCH;
        if storm.ops.is_multiple_of(MAINTENANCE_EVERY) {
            storm.blocks.push(std::mem::take(&mut block).as_secs_f64());
        }
    }
    storm
}

/// The reference oracle seeded with the corpus of `seed`.
fn build_reference(seed: u64, records: u64) -> ReferenceServer {
    let mut reference = ReferenceServer::new(POPULATION);
    for (meta, popularity) in corpus(seed, records) {
        reference.publish(meta, popularity);
    }
    reference
}

/// Digest of the first `ops` storm operations on `server`: every search
/// answer, then the number of records the maintenance passes expired.
fn storm_digest(server: &mut impl StormServer, seed: u64, records: u64, ops: u64) -> u64 {
    let (digest, expired) = replay_storm(server, seed, records, ops);
    fnv_fold(digest, &expired.to_be_bytes())
}

pub fn run(mode: &Mode) -> Outcome {
    let mut out = Outcome::default();
    let records = if mode.tiny {
        TINY_RECORDS
    } else {
        FULL_RECORDS
    };

    // Pinned gate: a small storm at the canonical seed, on both servers.
    let gate = storm_digest(
        &mut build_server(GATE_SEED, GATE_RECORDS),
        GATE_SEED,
        GATE_RECORDS,
        GATE_OPS,
    );
    let gate_reference = storm_digest(
        &mut build_reference(GATE_SEED, GATE_RECORDS),
        GATE_SEED,
        GATE_RECORDS,
        GATE_OPS,
    );
    out.check(gate == gate_reference, || {
        "gate: the server and the reference answer differently".to_string()
    });
    expected::check(&mut out, "storm_gate", gate);
    out.attempted += 1;
    gateway::gate(&mut out);

    let mut setup_walls = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let started = Instant::now();
        server = Some(std::hint::black_box(build_server(mode.seed, records)));
        setup_walls.push(started.elapsed().as_secs_f64());
    }
    let mut server = server.expect("at least one set-up");
    out.set("setup_s", median(&setup_walls));

    // Both modes drive the same storm and time every call the same way;
    // the traced run reports it split by operation kind, the untraced one
    // as a mix.
    let budget = Duration::from_secs_f64(mode.seconds);
    let storm = timed_storm(&mut server, mode.seed, records, budget);
    out.attempted += storm.ops;
    out.set("peak_rss_mb", crate::report::peak_rss_mb());

    // Oracle: the first ORACLE_OPS operations replayed on the reference
    // server must give the same answers and expire the same records.
    let mut reference = build_reference(mode.seed, records);
    let (want, want_expired) = replay_storm(&mut reference, mode.seed, records, ORACLE_OPS);
    out.check(
        want == storm.oracle_digest && want_expired == storm.expired_at_oracle,
        || {
            format!(
                "server answers diverge from the reference in the first {ORACLE_OPS} ops \
                 ({:#018x} vs {want:#018x}, expired {} vs {want_expired})",
                storm.oracle_digest, storm.expired_at_oracle
            )
        },
    );

    let all: Vec<f64> = storm.latencies.iter().flatten().copied().collect();
    let busy = storm.busy.as_secs_f64();
    if mode.trace {
        let [publish, request, _, search] = &storm.latencies;
        out.set("server.search_us_p50", quantile(search, 0.5));
        out.set("server.search_us_p99", quantile(search, 0.99));
        out.set("server.publish_us_p50", quantile(publish, 0.5));
        out.set("server.record_request_us_p50", quantile(request, 0.5));
        out.set("server.maintenance_ms", median(&storm.maintenance));
        out.set(
            "server.hits_per_search",
            ratio(storm.hits as f64, storm.searches as f64),
        );
        let children: f64 =
            all.iter().sum::<f64>() / 1e6 + storm.maintenance.iter().sum::<f64>() / 1e3;
        out.check(children <= busy, || {
            format!("storm op spans sum to {children:.3} s, above the {busy:.3} s they ran in")
        });
        out.set("bench.traced_run_s", busy);
        out.note(format!(
            "server_storm traced: {} ops in {busy:.3} s; {} maintenance passes (median {:.1} ms)",
            storm.ops,
            storm.maintenance.len(),
            median(&storm.maintenance)
        ));
        // The transport layer: the gateway serving the storm's final
        // snapshot over the live bus, for a third of the run's length.
        let budget = Duration::from_secs_f64(mode.seconds / 3.0);
        gateway::trace_session(&mut out, &server.snapshot(), mode.seed, records, budget);
        return out;
    }

    out.set("run_s", median(&storm.blocks));
    out.set("throughput_per_s", ratio(storm.ops as f64, busy));
    out.set("latency_p50_us", quantile(&all, 0.5));
    out.set("latency_p99_us", quantile(&all, 0.99));
    out.note(format!(
        "server_storm: {records} records over {SHARDS} shards, seed {}: {} ops ({} searches, \
         {} hits), {} expired, answer digest {:#018x}",
        mode.seed, storm.ops, storm.searches, storm.hits, storm.expired, storm.digest
    ));
    out.note(format!(
        "samples: run_s = median of {} blocks of {MAINTENANCE_EVERY} ops, each with its \
         maintenance pass; latency over {} ops (passes excluded); setup over {SETUPS} corpus \
         builds; oracle over the first {ORACLE_OPS} ops",
        storm.blocks.len(),
        all.len()
    ));
    out
}
