//! `serve-mixed`: an in-process `serve::Server` over an indexed 10k x 32
//! store, driven by two closed-loop `ServeClient` connections.
//!
//! Mix: 70% approximate top-10 (recall target 0.95), 10% exact top-10,
//! 20% pair scores. Query nodes follow a Zipf(1) popularity over a seeded
//! permutation of the nodes, so about 60% of the top-k requests hit the
//! server's 1024-entry LRU cache.
//!
//! The store (2.6 MB) stays in cache. A 100k-row store (26 MB) streamed
//! from memory on every exact scan and most approximate ones, and its
//! throughput and tail timed the memory bandwidth the host's other tenants
//! left (README).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use advsgm::api::{EmbeddingService, ModelVariant};
use advsgm::linalg::rng::{derive_seed, seeded};
use advsgm::linalg::DenseMatrix;
use advsgm::serve::cache::LruCache;
use advsgm::serve::client::ServeClient;
use advsgm::serve::protocol::{Request, Response, OP_TOP_K};
use advsgm::serve::{ServeConfig, Server, ServerStats};
use advsgm::store::{EmbeddingStore, IndexParams, IvfIndex, Neighbor, PrivacyMeta};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{
    deadline, err, mean, median, ns, peak_rss_mb, scratch, timed_reps, BenchResult, Outcome,
    RunArgs, SetupTimes,
};

const K: u32 = 10;
const RECALL_TARGET: f64 = 0.95;
const CLIENTS: usize = 2;
/// Worker threads of the service's batch pool (the host's 2 cores).
const SERVICE_THREADS: usize = 2;
/// Set-ups before the server is measured and after it has stopped; the
/// mean of all of them is `setup_s`. Splitting them around the measured
/// phase samples the host's speed over the whole run.
const SETUPS_BEFORE: usize = 5;
const SETUPS_AFTER: usize = 4;
/// The request kind that sets the tail: the exact scan, a tenth of the
/// mix. `op_tail_ms` is its median wire latency over the run. Percentiles
/// over all requests timed the host instead: with eight threads of client
/// and server on two vCPUs, a few percent of steal time stalls a tenth of
/// the requests, and p95 spread 0.33 of its median over ten seeds as
/// steal moved between 2% and 8% (p99 0.61 over five), where this median
/// spread 0.05 over the same kind of runs.
const TAIL_KIND: Kind = Kind::Exact;
/// Closed-loop warm-up before timing, so the LRU cache is filled.
const WARMUP_S: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Approx,
    Exact,
    Score,
}

const KINDS: [Kind; 3] = [Kind::Approx, Kind::Exact, Kind::Score];

#[derive(Debug, Clone, Copy)]
struct Req {
    kind: Kind,
    u: u64,
    v: u64,
}

struct Shape {
    nodes: usize,
    dim: usize,
    groups: usize,
    check_nodes: usize,
}

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            nodes: 2_000,
            dim: 8,
            groups: 20,
            check_nodes: 20,
        }
    } else {
        Shape {
            nodes: 10_000,
            dim: 32,
            groups: 83,
            check_nodes: 100,
        }
    }
}

/// A clustered store: `groups` seeded centres, rows scattered around them.
/// About 1.2 index lists per cluster (the index takes about sqrt(n) lists)
/// keeps approximate recall@10 at 1.0 over twelve seeds at the 0.95
/// target; 32 or 128 clusters over 10k rows split clusters across lists
/// and read as low as 0.92.
fn make_store(seed: u64, s: &Shape) -> BenchResult<EmbeddingStore> {
    let mut rng = seeded(derive_seed(seed, 0x5e7));
    let centres = DenseMatrix::from_fn(s.groups, s.dim, |_, _| rng.gen_range(-3.0..3.0));
    let m = DenseMatrix::from_fn(s.nodes, s.dim, |i, j| {
        centres.get((i * 7919) % s.groups, j) + rng.gen_range(-0.3..0.3)
    });
    EmbeddingStore::new(
        m,
        PrivacyMeta::private(ModelVariant::AdvSgm, 6.0, 1e-5, 5.0),
    )
    .map_err(err("store"))
}

/// The request stream of one client: Zipf(1) node popularity through a
/// seeded rank -> node permutation shared by all clients.
struct Stream {
    rng: SmallRng,
    cdf: std::sync::Arc<Vec<f64>>,
    node_of_rank: std::sync::Arc<Vec<u64>>,
}

impl Stream {
    fn node(&mut self) -> u64 {
        let x: f64 = self.rng.gen::<f64>() * self.cdf[self.cdf.len() - 1];
        let rank = self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1);
        self.node_of_rank[rank]
    }

    fn next(&mut self) -> Req {
        let roll: f64 = self.rng.gen();
        let kind = if roll < 0.7 {
            Kind::Approx
        } else if roll < 0.8 {
            Kind::Exact
        } else {
            Kind::Score
        };
        let u = self.node();
        let v = if kind == Kind::Score { self.node() } else { 0 };
        Req { kind, u, v }
    }
}

fn streams(seed: u64, nodes: usize) -> Vec<Stream> {
    let mut acc = 0.0;
    let cdf: Vec<f64> = (1..=nodes)
        .map(|r| {
            acc += 1.0 / r as f64;
            acc
        })
        .collect();
    let mut perm: Vec<u64> = (0..nodes as u64).collect();
    let mut rng = seeded(derive_seed(seed, 0x21f));
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let (cdf, perm) = (std::sync::Arc::new(cdf), std::sync::Arc::new(perm));
    (0..CLIENTS)
        .map(|c| Stream {
            rng: seeded(derive_seed(seed, 0x100 + c as u64)),
            cdf: std::sync::Arc::clone(&cdf),
            node_of_rank: std::sync::Arc::clone(&perm),
        })
        .collect()
}

fn call(client: &mut ServeClient, r: Req) -> std::io::Result<()> {
    match r.kind {
        Kind::Approx => client.top_k_approx(r.u, K, RECALL_TARGET).map(drop),
        Kind::Exact => client.top_k(r.u, K).map(drop),
        Kind::Score => client.score(r.u, r.v).map(drop),
    }
}

/// One timed request as the client saw it.
struct Sample {
    req: Req,
    latency_ms: f64,
    ok: bool,
}

/// Drives every stream for `seconds` over its own connection (closed
/// loop); returns the samples in per-client order and the wall time.
fn drive(
    addr: SocketAddr,
    streams: &mut [Stream],
    seconds: f64,
) -> BenchResult<(Vec<Vec<Sample>>, f64)> {
    let start = Instant::now();
    let stop = deadline(seconds);
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                scope.spawn(move || -> BenchResult<Vec<Sample>> {
                    let mut client = ServeClient::connect(addr).map_err(err("connect"))?;
                    let mut samples = Vec::new();
                    while Instant::now() < stop {
                        let req = stream.next();
                        let t = Instant::now();
                        let ok = call(&mut client, req).is_ok();
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        samples.push(Sample {
                            req,
                            latency_ms,
                            ok,
                        });
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<BenchResult<Vec<_>>>()
    })?;
    Ok((per_client, start.elapsed().as_secs_f64()))
}

struct Files {
    aemb: PathBuf,
    aidx: PathBuf,
}

/// One set-up: generate and write the store and its index, open them
/// through `EmbeddingService::open_indexed` and bind the server.
fn set_up(seed: u64, s: &Shape, dir: &Path) -> BenchResult<(Server, Files)> {
    let files = Files {
        aemb: dir.join("store.aemb"),
        aidx: dir.join("store.aidx"),
    };
    let store = make_store(seed, s)?;
    store.save(&files.aemb).map_err(err("save store"))?;
    let index = IvfIndex::build(&store, IndexParams::default()).map_err(err("build index"))?;
    index.save(&files.aidx).map_err(err("save index"))?;
    drop((store, index));
    let service = EmbeddingService::open_indexed(&files.aemb, &files.aidx, SERVICE_THREADS)
        .map_err(err("open indexed"))?;
    let server =
        Server::bind(service, "127.0.0.1:0", ServeConfig::default()).map_err(err("bind"))?;
    Ok((server, files))
}

fn stop_server(server: Server) -> BenchResult<ServerStats> {
    ServeClient::connect(server.local_addr())
        .and_then(|mut c| c.shutdown())
        .map_err(err("shutdown"))?;
    Ok(server.wait())
}

fn same_neighbors(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.node == y.node && x.score.to_bits() == y.score.to_bits())
}

/// Wire answers against the in-process service on a sampled subset:
/// exact top-k and scores bitwise, approximate top-k by recall@10.
/// Returns (mismatches, aggregate recall, top-k requests sent).
fn check_wire(
    addr: SocketAddr,
    local: &EmbeddingService,
    seed: u64,
    s: &Shape,
) -> BenchResult<(Vec<String>, f64, u64)> {
    let mut client = ServeClient::connect(addr).map_err(err("connect"))?;
    let mut rng = seeded(derive_seed(seed, 0xc4e));
    let mut bad = Vec::new();
    let (mut hits, mut total, mut topk) = (0usize, 0usize, 0u64);
    for _ in 0..s.check_nodes {
        let u = rng.gen_range(0..s.nodes);
        let v = rng.gen_range(0..s.nodes);
        let exact = local.top_k(u, K as usize).map_err(err("local top-k"))?;
        let wire_exact = client.top_k(u as u64, K).map_err(err("wire top-k"))?;
        let wire_approx = client
            .top_k_approx(u as u64, K, RECALL_TARGET)
            .map_err(err("wire approx"))?;
        topk += 2;
        if !same_neighbors(&exact, &wire_exact) {
            bad.push(format!("exact top-{K} of node {u} differs over the wire"));
        }
        total += exact.len();
        hits += wire_approx
            .iter()
            .filter(|n| exact.iter().any(|e| e.node == n.node))
            .count();
        let score = local.score(u, v).map_err(err("local score"))?;
        let wire_score = client
            .score(u as u64, v as u64)
            .map_err(err("wire score"))?;
        if score.to_bits() != wire_score.to_bits() {
            bad.push(format!("score({u}, {v}) differs over the wire"));
        }
    }
    let recall = hits as f64 / total.max(1) as f64;
    if recall < RECALL_TARGET {
        bad.push(format!(
            "approximate recall@{K} {recall} is below {RECALL_TARGET}"
        ));
    }
    Ok((bad, recall, topk))
}

pub fn run(args: &RunArgs) -> BenchResult<Outcome> {
    let s = shape(args.smoke);
    let mut out = Outcome::default();

    // Set-up, repeated; each repetition's server is stopped before the
    // next one binds, so only the last one before the measured phase
    // serves.
    let dir = scratch(&args.workdir, "serve")?;
    let mut setups = SetupTimes::default();
    let mut current: Option<(Server, Files)> = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some((old, _)) = current.take() {
            stop_server(old)?;
        }
        current = Some(setups.time(1, || set_up(args.seed, &s, &dir))?);
    }
    let (server, files) = current.expect("at least one set-up");
    let addr = server.local_addr();

    let mut streams = streams(args.seed, s.nodes);
    let (warmup, _) = drive(addr, &mut streams, if args.smoke { 0.1 } else { WARMUP_S })?;
    let (plain, traced) = if args.trace {
        let plain = drive(addr, &mut streams, args.seconds / 2.0)?;
        (plain, Some(drive(addr, &mut streams, args.seconds / 2.0)?))
    } else {
        (drive(addr, &mut streams, args.seconds)?, None)
    };
    let peak = peak_rss_mb();

    let local = EmbeddingService::open(&files.aemb).map_err(err("open local"))?;
    let (bad, recall, check_topk) = check_wire(addr, &local, args.seed, &s)?;
    for b in bad {
        out.check(false, b);
    }
    let stats = stop_server(server)?;
    out.check(
        stats.errors == 0,
        format!("server counted {} errors", stats.errors),
    );
    for _ in 0..SETUPS_AFTER {
        let (again, _) = setups.time(1, || set_up(args.seed, &s, &dir))?;
        stop_server(again)?;
    }
    out.set("setup_s", setups.mean());

    let samples: Vec<&Sample> = plain.0.iter().flatten().collect();
    out.attempted = samples.len() as u64;
    out.failed = samples.iter().filter(|x| !x.ok).count() as u64;
    out.check(out.failed == 0, format!("{} requests failed", out.failed));
    let lat: Vec<f64> = samples
        .iter()
        .filter(|x| x.ok)
        .map(|x| x.latency_ms)
        .collect();
    if lat.is_empty() {
        return Err("no request completed".into());
    }
    out.set("ops_per_s", lat.len() as f64 / plain.1);
    out.set("op_latency_ms", median(&lat));
    let tail_kind: Vec<f64> = samples
        .iter()
        .filter(|x| x.ok && x.req.kind == TAIL_KIND)
        .map(|x| x.latency_ms)
        .collect();
    if tail_kind.is_empty() {
        return Err(format!("no {TAIL_KIND:?} request completed"));
    }
    out.set("op_tail_ms", median(&tail_kind));
    out.set("quality", recall);
    out.set("peak_rss_mb", peak);

    if let Some(traced) = traced {
        let topk = [&warmup, &plain.0, &traced.0]
            .iter()
            .flat_map(|phase| phase.iter().flatten())
            .filter(|x| x.req.kind != Kind::Score)
            .count() as u64
            + check_topk;
        trace_layers(
            args, &s, &files, &traced.0, &plain.0, &stats, topk, &mut out,
        )?;
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn trace_layers(
    args: &RunArgs,
    s: &Shape,
    files: &Files,
    traced: &[Vec<Sample>],
    plain: &[Vec<Sample>],
    stats: &ServerStats,
    topk_requests: u64,
    out: &mut Outcome,
) -> BenchResult<()> {
    let (load_s, store) = timed_reps(3, || EmbeddingStore::load(&files.aemb).map_err(err("load")))?;
    out.set("store.load_ms", load_s * 1e3);
    let mut attach = Vec::new();
    for _ in 0..3 {
        let mut service = EmbeddingService::with_threads(store.clone(), SERVICE_THREADS);
        let t = Instant::now();
        let index = IvfIndex::load(&files.aidx).map_err(err("load index"))?;
        service.attach_index(index).map_err(err("attach"))?;
        attach.push(t.elapsed().as_secs_f64());
    }
    out.set("index.attach_ms", median(&attach) * 1e3);

    // Which traced requests the server's LRU cache could not answer (pair
    // scores are never cached), simulated with the server's own cache.
    let requests: Vec<&Sample> = traced.iter().flatten().collect();
    let mut cache = LruCache::new(ServeConfig::default().cache_capacity);
    let misses: Vec<bool> = requests
        .iter()
        .map(|x| {
            let key = (x.req.u, x.req.kind == Kind::Approx);
            x.req.kind == Kind::Score || {
                let hit = cache.get(&key).is_some();
                cache.insert(key, ());
                !hit
            }
        })
        .collect();

    // The miss stream, replayed in process on the same files.
    let service = EmbeddingService::open_indexed(&files.aemb, &files.aidx, SERVICE_THREADS)
        .map_err(err("open indexed"))?;
    let mut times: [Vec<f64>; 3] = Default::default();
    let mut scanned = (0usize, 0usize);
    let stop = deadline((args.seconds / 3.0).min(3.0));
    for (x, _) in requests.iter().zip(&misses).filter(|(_, &miss)| miss) {
        if Instant::now() >= stop {
            break;
        }
        let (u, v) = (x.req.u as usize, x.req.v as usize);
        let t = Instant::now();
        match x.req.kind {
            Kind::Approx => {
                let res = service
                    .top_k_approx_with_stats(u, K as usize, RECALL_TARGET)
                    .map_err(err("approx"))?;
                scanned.0 += res.rows_scanned;
                scanned.1 += 1;
            }
            Kind::Exact => drop(service.top_k(u, K as usize).map_err(err("exact"))?),
            Kind::Score => drop(service.score(u, v).map_err(err("score"))?),
        }
        times[kind_idx(x.req.kind)].push(t.elapsed().as_secs_f64() * 1e6);
    }
    let names = ["service.approx_us", "service.exact_us", "service.score_us"];
    for (kind, name) in KINDS.iter().zip(names) {
        out.set(name, mean(&times[kind_idx(*kind)]));
    }
    out.set(
        "index.rows_scanned_frac",
        scanned.0 as f64 / (scanned.1.max(1) * s.nodes) as f64,
    );

    let codec_ns = codec_ns(&requests, args.seconds.min(1.0) * 0.2);
    out.set("protocol.codec_ns", codec_ns);
    out.set(
        "cache.hit_ratio",
        stats.cache_hits as f64 / topk_requests.max(1) as f64,
    );
    out.set(
        "dispatch.mean_batch",
        stats.requests as f64 / stats.batches.max(1) as f64,
    );

    let names = [
        "serve.wire_overhead_ms.approx",
        "serve.wire_overhead_ms.exact",
        "serve.wire_overhead_ms.score",
    ];
    for (kind, name) in KINDS.iter().zip(names) {
        let wire: Vec<f64> = requests
            .iter()
            .filter(|x| x.req.kind == *kind)
            .map(|x| x.latency_ms)
            .collect();
        let svc = &times[kind_idx(*kind)];
        if !wire.is_empty() && !svc.is_empty() {
            out.set(name, median(&wire) - median(svc) / 1e3);
        }
    }

    // Coverage: replayed service time of each traced request (0 for a
    // cache hit) plus its codec time, over the summed wire latency.
    let (mut covered_ms, mut wire_ms) = (0.0, 0.0);
    for (x, &miss) in requests.iter().zip(&misses) {
        if miss {
            covered_ms += mean(&times[kind_idx(x.req.kind)]) / 1e3;
        }
        covered_ms += codec_ns / 1e6;
        wire_ms += x.latency_ms;
    }
    out.set(
        "trace.coverage",
        covered_ms / wire_ms.max(f64::MIN_POSITIVE),
    );
    let mean_lat = |xs: &[Vec<Sample>]| {
        mean(
            &xs.iter()
                .flatten()
                .map(|x| x.latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    out.set(
        "trace.overhead_frac",
        mean_lat(traced) / mean_lat(plain) - 1.0,
    );
    Ok(())
}

fn kind_idx(kind: Kind) -> usize {
    KINDS
        .iter()
        .position(|k| *k == kind)
        .expect("every kind is listed")
}

/// Nanoseconds to encode and decode one request and its response, over
/// the traced request mix (top-k answers carry `K` neighbours).
fn codec_ns(traced: &[&Sample], budget_s: f64) -> f64 {
    let neighbors: Vec<Neighbor> = (0..K as usize)
        .map(|i| Neighbor {
            node: i,
            id: i as u64,
            score: 1.0 / (i + 1) as f64,
        })
        .collect();
    let reqs: Vec<Req> = traced.iter().map(|x| x.req).take(4096).collect();
    if reqs.is_empty() {
        return 0.0;
    }
    let stop = deadline(budget_s);
    let (mut n, start) = (0u64, Instant::now());
    while n < reqs.len() as u64 || Instant::now() < stop {
        let r = reqs[n as usize % reqs.len()];
        let (request, response) = match r.kind {
            Kind::Score => (Request::Score { u: r.u, v: r.v }, Response::Score(0.5)),
            kind => (
                Request::TopK {
                    node: r.u,
                    k: K,
                    approx: kind == Kind::Approx,
                    recall_target: RECALL_TARGET,
                },
                Response::Neighbors(neighbors.clone()),
            ),
        };
        let decoded = Request::decode(&request.encode()).expect("request round trip");
        let op = if matches!(decoded, Request::Score { .. }) {
            advsgm::serve::protocol::OP_SCORE
        } else {
            OP_TOP_K
        };
        std::hint::black_box(
            Response::decode(op, &response.encode()).expect("response round trip"),
        );
        n += 1;
    }
    ns(start.elapsed()) / n as f64
}
