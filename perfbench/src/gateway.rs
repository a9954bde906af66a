//! The gateway path: one client in a closed loop sends `Search` frames over
//! a `LiveBus` to `run_gateway`, which answers from a `ServerSnapshot`.
//!
//! This is the program's only request/response surface and the only place
//! the frame codec and the bus run. It is measured inside `server_storm`: a
//! pinned gate in every run, and in the traced run a session against the
//! storm's final snapshot, which gives the transport layer's metrics. It is
//! not an end-to-end workload of its own because each round trip hinges on
//! two thread wake-ups, and on a shared 2-CPU host its run-to-run spread
//! (0.25–0.30 over ten runs) exceeded the widest bound a metric may have.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dtn_sim::rng::{derive_seed, stream};
use dtn_trace::NodeId;
use mbt_core::server::ServerSnapshot;
use mbt_core::transport::live::{run_gateway, LiveBus, LiveGatewaySpec};
use mbt_core::transport::{decode_frame, encode_frame};
use mbt_core::{Popularity, Query, Uri, WireMessage};

use crate::expected;
use crate::report::{fnv_fold, median, micros, quantile, ratio, Outcome, FNV_START};
use crate::storm::{build_server, search_query, LIMIT};

const GATEWAY: NodeId = NodeId::new(0);
const CLIENT: NodeId = NodeId::new(1);
/// A request unanswered this long counts as failed.
const TIMEOUT: Duration = Duration::from_secs(2);
const GATE_RECORDS: u64 = 5_000;
const GATE_REQUESTS: usize = 200;
const GATE_SEED: u64 = 42;
/// The traced run re-encodes every this-many-th exchange to time the codec.
const CODEC_SAMPLE_EVERY: usize = 8;

/// One answered (or unanswered) request.
struct Exchange {
    query: Query,
    rtt: Duration,
    answer: Option<Vec<(Uri, Popularity)>>,
}

/// What a closed-loop session observed.
struct Session {
    exchanges: Vec<Exchange>,
    wall: Duration,
    bytes_on_wire: u64,
    frames_dropped: u64,
}

/// Runs the gateway on its own thread and drives it from this one until
/// `budget` is spent (or for exactly `requests` requests when given). The
/// gateway thread is shut down and joined before returning.
fn session(
    snapshot: &ServerSnapshot,
    seed: u64,
    records: u64,
    budget: Duration,
    requests: Option<usize>,
) -> Session {
    let bus = LiveBus::new();
    bus.open(GATEWAY, CLIENT);
    let spec = LiveGatewaySpec {
        id: GATEWAY,
        snapshot: snapshot.clone(),
        content: BTreeMap::new(),
    };
    let mut rng = stream(derive_seed(&[seed, 4]), "perfbench-gateway");
    std::thread::scope(|scope| {
        let gateway_bus = bus.clone();
        scope.spawn(move || run_gateway(spec, gateway_bus));
        let mut exchanges = Vec::new();
        let started = Instant::now();
        while requests.map_or(started.elapsed() < budget, |n| exchanges.len() < n) {
            let query = search_query(&mut rng, records);
            let message = WireMessage::Search {
                query: query.clone(),
                limit: LIMIT as u32,
            };
            let sent = Instant::now();
            let answer = if bus.send(CLIENT, GATEWAY, &message) {
                match bus.recv(CLIENT, TIMEOUT) {
                    Some((GATEWAY, WireMessage::SearchResults { results })) => Some(
                        results
                            .into_iter()
                            .map(|(meta, pop)| (meta.uri().clone(), pop))
                            .collect(),
                    ),
                    _ => None,
                }
            } else {
                None
            };
            exchanges.push(Exchange {
                query,
                rtt: sent.elapsed(),
                answer,
            });
        }
        let wall = started.elapsed();
        let stats = bus.stats();
        bus.shutdown();
        Session {
            exchanges,
            wall,
            bytes_on_wire: stats.bytes_on_wire,
            frames_dropped: stats.frames_dropped,
        }
    })
}

/// The oracle pass over a session: every answer is compared with the
/// snapshot's own answer to the same query.
struct Verdict {
    /// Requests unanswered or answered differently.
    failed: u64,
    /// FNV-1a over every answer, in request order.
    digest: u64,
    /// Time of each oracle search, in microseconds.
    search_us: Vec<f64>,
    hits: u64,
}

fn verify(snapshot: &ServerSnapshot, session: &Session) -> Verdict {
    let mut verdict = Verdict {
        failed: 0,
        digest: FNV_START,
        search_us: Vec::with_capacity(session.exchanges.len()),
        hits: 0,
    };
    for ex in &session.exchanges {
        let started = Instant::now();
        let results = snapshot.search(&ex.query, LIMIT);
        verdict.search_us.push(micros(started.elapsed()));
        verdict.hits += results.len() as u64;
        let want: Vec<(Uri, Popularity)> = results
            .into_iter()
            .map(|meta| {
                let pop = snapshot.popularity_of(meta.uri());
                (meta.uri().clone(), pop)
            })
            .collect();
        match &ex.answer {
            Some(got) if *got == want => {
                verdict.digest = fnv_fold(verdict.digest, b"|");
                for (uri, _) in got {
                    verdict.digest = fnv_fold(verdict.digest, uri.as_str().as_bytes());
                }
            }
            _ => verdict.failed += 1,
        }
    }
    verdict
}

/// The pinned gate: a fixed request sequence against a small corpus at the
/// canonical seed; every reply must match the snapshot, and the answer
/// digest must match `expected.json`.
pub fn gate(out: &mut Outcome) {
    let snapshot = build_server(GATE_SEED, GATE_RECORDS).snapshot();
    let run = session(
        &snapshot,
        GATE_SEED,
        GATE_RECORDS,
        Duration::ZERO,
        Some(GATE_REQUESTS),
    );
    let verdict = verify(&snapshot, &run);
    out.check(verdict.failed == 0, || {
        format!("gateway gate: {} bad replies", verdict.failed)
    });
    expected::check(out, "gateway_gate", verdict.digest);
    out.attempted += 1;
}

/// A traced session of `budget` against `snapshot`. Every reply is checked
/// (a bad or missing one counts as a failed operation), and the round trip
/// is split into the snapshot search alone (timed by the oracle pass), the
/// codec alone (re-encoding every [`CODEC_SAMPLE_EVERY`]th exchange), and
/// the rest as transport overhead.
pub fn trace_session(
    out: &mut Outcome,
    snapshot: &ServerSnapshot,
    seed: u64,
    records: u64,
    budget: Duration,
) {
    let run = session(snapshot, seed, records, budget, None);
    let verdict = verify(snapshot, &run);
    out.attempted += run.exchanges.len() as u64;
    out.failed += verdict.failed;
    let rtt_us: Vec<f64> = run.exchanges.iter().map(|e| micros(e.rtt)).collect();
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    for ex in run.exchanges.iter().step_by(CODEC_SAMPLE_EVERY) {
        let request = WireMessage::Search {
            query: ex.query.clone(),
            limit: LIMIT as u32,
        };
        let reply = WireMessage::SearchResults {
            results: snapshot
                .search(&ex.query, LIMIT)
                .into_iter()
                .map(|meta| {
                    let pop = snapshot.popularity_of(meta.uri());
                    (meta, pop)
                })
                .collect(),
        };
        let started = Instant::now();
        let frames = [
            encode_frame(CLIENT, GATEWAY, 0, &request),
            encode_frame(GATEWAY, CLIENT, 0, &reply),
        ];
        encode_us.push(micros(started.elapsed()));
        let started = Instant::now();
        for frame in &frames {
            std::hint::black_box(decode_frame(frame).is_ok());
        }
        decode_us.push(micros(started.elapsed()));
    }
    let requests = run.exchanges.len() as f64;
    let rtt_p50 = quantile(&rtt_us, 0.5);
    let search_p50 = quantile(&verdict.search_us, 0.5);
    let encode = median(&encode_us);
    let decode = median(&decode_us);
    out.set("server.snapshot_search_us_p50", search_p50);
    out.set("transport.overhead_us_p50", rtt_p50 - search_p50);
    out.set("transport.encode_us", encode);
    out.set("transport.decode_us", decode);
    out.set(
        "transport.bytes_per_request",
        ratio(run.bytes_on_wire as f64, requests),
    );
    out.set("transport.frames_dropped", run.frames_dropped as f64);
    let children = search_p50 + encode + decode;
    out.check(children <= rtt_p50, || {
        format!("search + codec take {children:.1} us, above the {rtt_p50:.1} us round trip")
    });
    out.note(format!(
        "gateway session: {} requests in {:.3} s, {} failed, answer digest {:#018x}, {:.1} hits \
         per search; round trip p50 {rtt_p50:.1} us = snapshot search {search_p50:.1} + codec \
         {:.1} (encode {encode:.1}, decode {decode:.1}) + bus and wake-ups {:.1}",
        run.exchanges.len(),
        run.wall.as_secs_f64(),
        verdict.failed,
        verdict.digest,
        ratio(verdict.hits as f64, requests),
        encode + decode,
        rtt_p50 - children
    ));
}
