//! `train-inram` and `train-ooc`: AdvSGM trained through the api pipeline
//! up to released `.aemb` bytes, on the sequential in-RAM engine and on
//! the out-of-core partitioned engine.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use advsgm::api::{Dim, Epsilon, ModelVariant, NoiseSigma, PipelineBuilder, PipelineEvent};
use advsgm::core::sampler::BatchProvider;
use advsgm::core::{AdvSgmConfig, PartitionedTrainer};
use advsgm::eval::auc_from_scores;
use advsgm::graph::generators::sbm::{degree_corrected_sbm, SbmConfig};
use advsgm::graph::partition::{link_prediction_split, LinkPredictionSplit};
use advsgm::graph::{Edge, Graph, NodeId};
use advsgm::linalg::rng::{derive_seed, seeded};
use advsgm::privacy::{PrivacyError, RdpAccountant};
use advsgm::store::EmbeddingStore;
use rand::Rng;

use crate::common::{
    deadline, err, mean, median, peak_rss_mb, tail, timed_reps, BenchResult, Outcome, RunArgs,
    SetupTimes,
};
use crate::replay::replay_training;

/// Node buckets of the out-of-core engine: 4 buckets keep half of the
/// embeddings resident, the first ratio at which eviction cycles.
const PARTITIONS: usize = 4;

/// Set-up repetitions whose mean is `setup_s`: how many run before the
/// measured phase, and how many after each job.
const SETUP_REPS: (usize, usize) = (5, 4);

/// Both learning rates. The issue fixes r, B, k and sigma but not the
/// step size; at 0.5 the few epochs a job runs lift the release's held-out
/// AUC on the in-RAM fixture to about 0.56 over 40 seeds (0.1, the
/// paper's default, leaves it at about 0.52).
const LEARNING_RATE: f64 = 0.5;

/// Which engine the workload trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    InRam,
    OutOfCore,
}

/// The fixture graph: a degree-corrected SBM drawn from the seed.
fn graph_config(engine: Engine, smoke: bool) -> SbmConfig {
    let (num_nodes, num_edges) = match (engine, smoke) {
        (Engine::InRam, false) => (2_000, 10_000),
        // Twice the in-RAM fixture. Its two resident buckets (2 x 1k x 64 x
        // 8 B = 1 MiB) fit a core's 2 MiB L2, and the whole model (4 MiB)
        // and its spill files stay in cache: a graph whose partitions
        // stream from memory timed the host's other tenants, not the
        // engine (README).
        (Engine::OutOfCore, false) => (4_000, 20_000),
        (Engine::InRam, true) => (300, 1_200),
        (Engine::OutOfCore, true) => (600, 2_400),
    };
    SbmConfig {
        num_nodes,
        num_edges,
        num_blocks: 10,
        mixing: 0.1,
        degree_exponent: 2.5,
    }
}

/// The training configuration: r = 64, B = 256, k = 5, sigma = 5 and an
/// epsilon target no run reaches, so every run does the same work. Five
/// discriminator and two generator iterations per epoch keep the paper's
/// 3 : 1 ratio roughly while giving a job several epochs, the unit its
/// latency and tail are taken over.
fn builder(engine: Engine, seed: u64, smoke: bool) -> BenchResult<PipelineBuilder> {
    let (dim, batch, epochs) = match (engine, smoke) {
        (_, false) => (64, 256, 8),
        (_, true) => (8, 32, 1),
    };
    let b = PipelineBuilder::new(ModelVariant::AdvSgm)
        .dim(Dim::new(dim).map_err(err("dim"))?)
        .batch_size(batch)
        .negatives(5)
        .sigma(NoiseSigma::new(5.0).map_err(err("sigma"))?)
        .epsilon(Epsilon::new(1e6).map_err(err("epsilon"))?)
        .epochs(epochs)
        .disc_iters(if smoke { 2 } else { 5 })
        .gen_iters(if smoke { 1 } else { 2 })
        .learning_rate(LEARNING_RATE)
        .seed(seed)
        // One training thread on both engines. With two threads in lockstep
        // on the host's two vCPUs, a few percent of steal time on either
        // stalled both: runs with 3% steal read 15% slower (README). The
        // two-thread partitioned path is still checked against the
        // sequential engine on the prefix configuration.
        .threads(1);
    Ok(match engine {
        Engine::InRam => b,
        Engine::OutOfCore => b.partitions(PARTITIONS),
    })
}

/// The fixture: the seeded graph's link-prediction split. Training runs on
/// its `train` graph; `quality` scores its held-out pairs.
type Fixture = LinkPredictionSplit;

fn make_fixture(engine: Engine, args: &RunArgs) -> BenchResult<Fixture> {
    let mut rng = seeded(derive_seed(args.seed, 0x6a7));
    let graph = degree_corrected_sbm(&graph_config(engine, args.smoke), &mut rng);
    link_prediction_split(&graph, 0.1, &mut rng).map_err(err("split"))
}

/// The accountant's epsilon for a run of `cfg` on `graph`, replayed
/// independently of the trainer: one subsampled-Gaussian record per
/// discriminator batch, stopping at the first record over budget.
/// Returns the epsilon and the number of discriminator updates run.
pub fn expected_epsilon(graph: &Graph, cfg: &AdvSgmConfig) -> BenchResult<(f64, u64)> {
    let provider = BatchProvider::new_for_variant(
        graph,
        cfg.batch_size,
        cfg.negatives,
        cfg.negative_distribution,
        cfg.variant,
    )
    .map_err(err("accountant replay sampler"))?;
    let mut acc = RdpAccountant::new();
    'run: for _ in 0..cfg.epochs * cfg.disc_iters {
        for gamma in [provider.gamma_pos(), provider.gamma_neg()] {
            acc.record_subsampled_gaussian(cfg.sigma, gamma, 1)
                .map_err(err("accountant replay"))?;
            match acc.check_budget(cfg.epsilon, cfg.delta) {
                Ok(()) => {}
                Err(PrivacyError::BudgetExhausted { .. }) => break 'run,
                Err(e) => return Err(format!("accountant replay: {e}")),
            }
        }
    }
    let snap = acc
        .snapshot(cfg.epsilon, cfg.delta)
        .map_err(err("accountant replay"))?;
    Ok((snap.epsilon_spent, snap.steps))
}

/// Whether two epsilons agree to within floating-point reassociation.
pub fn same_epsilon(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-300)
}

/// The AUC that embeddings carrying no signal exceed with probability
/// below 1e-6: chance plus 5 null standard errors (Hanley and McNeil,
/// with `pos` and `neg` scored pairs).
fn chance_auc_bound(pos: usize, neg: usize) -> f64 {
    let (p, n) = (pos as f64, neg as f64);
    0.5 + 5.0 * ((p + n + 1.0) / (12.0 * p * n)).sqrt()
}

/// As many random node pairs as `graph` has edges, none of them an edge
/// of it, drawn from `seed`.
fn non_edges(graph: &Graph, seed: u64) -> Vec<Edge> {
    let mut rng = seeded(derive_seed(seed, 0x7e9));
    let n = graph.num_nodes() as u32;
    let mut out = Vec::with_capacity(graph.num_edges());
    while out.len() < graph.num_edges() {
        let (a, b) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
        if a != b && !graph.has_edge(a, b) {
            out.push(Edge::new(a, b));
        }
    }
    out
}

/// Held-out link-prediction AUC of released bytes.
fn link_auc(store: &EmbeddingStore, pos: &[Edge], neg: &[Edge]) -> BenchResult<f64> {
    let score = |edges: &[Edge]| -> BenchResult<Vec<f64>> {
        edges
            .iter()
            .map(|e| {
                store
                    .score(e.u().index(), e.v().index())
                    .map_err(err("score"))
            })
            .collect()
    };
    auc_from_scores(&score(pos)?, &score(neg)?).map_err(err("auc"))
}

/// One measured train-to-release job.
struct Job {
    seconds: f64,
    /// Wall time of each epoch (untraced jobs only).
    epoch_ms: Vec<f64>,
    bytes: Vec<u8>,
    pairs: u64,
    outcome: advsgm::core::TrainOutcome,
}

/// Discriminator pairs one run of `cfg` on `graph` pushes through.
fn pairs_per_run(cfg: &AdvSgmConfig, train_edges: usize) -> u64 {
    let b = cfg.batch_size.min(train_edges);
    (cfg.epochs * cfg.disc_iters * (b + b * cfg.negatives)) as u64
}

/// Runs one job through the pipeline facade.
fn run_job(b: &PipelineBuilder, fx: &Fixture) -> BenchResult<Job> {
    let g = &fx.train;
    let cfg = b.config().clone();
    let pairs = pairs_per_run(&cfg, g.num_edges());
    // Epoch ends, as the pipeline's progress events report them.
    let ends = Rc::new(RefCell::new(Vec::with_capacity(cfg.epochs)));
    let log = Rc::clone(&ends);
    let pipeline = b
        .clone()
        .build(g)
        .map_err(err("build"))?
        .observe(move |ev| {
            if let PipelineEvent::Epoch(_) = ev {
                log.borrow_mut().push(Instant::now());
            }
        });
    let t = Instant::now();
    let trained = pipeline.train().map_err(err("train"))?;
    let bytes = trained.release_bytes();
    let seconds = t.elapsed().as_secs_f64();
    let mut prev = t;
    let epoch_ms = ends
        .borrow()
        .iter()
        .map(|&end| (end - std::mem::replace(&mut prev, end)).as_secs_f64() * 1e3)
        .collect();
    Ok(Job {
        seconds,
        epoch_ms,
        bytes,
        pairs,
        outcome: trained.outcome().clone(),
    })
}

/// What a phase of jobs leaves behind: per-job wall times, and the last
/// job (kept for the release replay).
struct Jobs {
    seconds: Vec<f64>,
    epoch_ms: Vec<f64>,
    /// Each job's epoch-time tail (the slowest epoch of the job).
    epoch_tail_ms: Vec<f64>,
    pairs: u64,
    last: Job,
}

/// Runs jobs until `seconds` have passed (at least one), checking each
/// release as it arrives: it parses, carries the accountant's epsilon, and
/// equals the first release of the run bit for bit. `between` runs after
/// each job, outside its timing.
fn run_jobs(
    b: &PipelineBuilder,
    fx: &Fixture,
    seconds: f64,
    checks: &mut ReleaseChecks,
    between: &mut dyn FnMut() -> BenchResult<()>,
    out: &mut Outcome,
) -> BenchResult<Jobs> {
    let stop = deadline(seconds);
    let (mut times, mut epoch_ms, mut epoch_tail_ms) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        out.attempted += 1;
        let job = run_job(b, fx).inspect_err(|_| out.failed += 1)?;
        checks.check(&job, out);
        times.push(job.seconds);
        epoch_ms.extend_from_slice(&job.epoch_ms);
        epoch_tail_ms.push(tail(&job.epoch_ms));
        between()?;
        if Instant::now() >= stop {
            return Ok(Jobs {
                seconds: times,
                epoch_ms,
                epoch_tail_ms,
                pairs: job.pairs,
                last: job,
            });
        }
    }
}

struct ReleaseChecks {
    cfg: AdvSgmConfig,
    epsilon: f64,
    first: Option<Vec<u8>>,
}

impl ReleaseChecks {
    fn check(&mut self, job: &Job, out: &mut Outcome) {
        self.check_release(&job.outcome, &job.bytes, out);
    }

    fn check_release(
        &mut self,
        outcome: &advsgm::core::TrainOutcome,
        bytes: &[u8],
        out: &mut Outcome,
    ) {
        let cfg = &self.cfg;
        out.check(
            !outcome.stopped_by_budget,
            "run stopped by the privacy budget",
        );
        out.check(
            outcome.disc_updates == (cfg.epochs * cfg.disc_iters * 2) as u64,
            "discriminator update count differs from the schedule",
        );
        match EmbeddingStore::from_bytes(bytes) {
            Ok(store) => out.check(
                store
                    .meta()
                    .epsilon
                    .is_some_and(|e| same_epsilon(e, self.epsilon)),
                format!(
                    "release epsilon stamp {:?} differs from the accountant's {}",
                    store.meta().epsilon,
                    self.epsilon
                ),
            ),
            Err(e) => out.check(false, format!("release does not parse: {e}")),
        }
        let first = self.first.get_or_insert_with(|| bytes.to_vec());
        out.check(
            bytes == &first[..],
            "releases differ between runs at one seed",
        );
    }
}

pub fn run(engine: Engine, args: &RunArgs) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let b = builder(engine, args.seed, args.smoke)?;

    // Set-up: fixture generation plus the pipeline's build(), repeated
    // before the jobs and between them.
    let (before, per_job) = SETUP_REPS;
    let mut setups = SetupTimes::default();
    let set_up = |setups: &mut SetupTimes| {
        setups.time(1, || {
            let fx = make_fixture(engine, args)?;
            drop(b.clone().build(&fx.train).map_err(err("build"))?);
            Ok(fx)
        })
    };
    let mut fx = set_up(&mut setups)?;
    for _ in 1..before {
        fx = set_up(&mut setups)?;
    }
    let mut between = || -> BenchResult<()> {
        for _ in 0..per_job {
            set_up(&mut setups)?;
        }
        Ok(())
    };

    let cfg = b.config().clone();
    let (epsilon, _) = expected_epsilon(&fx.train, &cfg)?;
    let mut checks = ReleaseChecks {
        cfg: cfg.clone(),
        epsilon,
        first: None,
    };
    let half = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let jobs = run_jobs(&b, &fx, half, &mut checks, &mut between, &mut out)?;
    let traced = match args.trace {
        true => Some(run_jobs(
            &b,
            &fx,
            half,
            &mut checks,
            &mut between,
            &mut out,
        )?),
        false => None,
    };
    let peak = peak_rss_mb();
    out.set("setup_s", setups.mean());

    if engine == Engine::OutOfCore {
        // A short prefix of the same configuration: the partitioned engine,
        // on one thread and on two, must release the sequential engine's
        // bytes.
        let prefix = b.clone().epochs(1).disc_iters(2).gen_iters(1);
        let g = &fx.train;
        let release = |p: PipelineBuilder| p.build(g).and_then(|p| p.train());
        match release(prefix.clone().threads(1).partitions(0)) {
            Ok(seq) => {
                for threads in [1, 2] {
                    match release(prefix.clone().threads(threads)) {
                        Ok(ooc) => out.check(
                            seq.release_bytes() == ooc.release_bytes(),
                            format!(
                                "partitioned release at {threads} threads differs from the \
                                 sequential engine's"
                            ),
                        ),
                        Err(e) => out.check(false, format!("prefix run failed: {e}")),
                    }
                }
            }
            Err(e) => out.check(false, format!("prefix run failed: {e}")),
        }
    }
    let store = EmbeddingStore::from_bytes(&jobs.last.bytes).map_err(err("release"))?;
    let auc = link_auc(&store, &fx.test_pos, &fx.test_neg)?;
    if !args.smoke {
        // The release must fit its training edges above chance. A job
        // covers about one pass over them on the in-RAM fixture and half a
        // pass on the out-of-core one; over 40 and 12 seeds that fit read
        // at least 0.556 and 0.534 against bounds of 0.52 and 0.515, where
        // the held-out AUC read as low as 0.527, too close to chance to
        // check.
        let neg = non_edges(&fx.train, args.seed);
        let fit = link_auc(&store, fx.train.edges(), &neg)?;
        let bound = chance_auc_bound(fx.train.num_edges(), neg.len());
        out.check(
            fit > bound,
            format!(
                "release fits its training edges at AUC {fit:.4}, not above chance ({bound:.4})"
            ),
        );
    }

    // Throughput and latency are means over the run: the host's speed
    // alternates between states lasting seconds, and a mean follows the
    // share of time in each smoothly where a median jumps between them.
    // Latency is per epoch, the unit of progress a training caller
    // observes; the tail is each job's slowest epoch, median over jobs.
    let jobs_s: f64 = jobs.seconds.iter().sum();
    out.set(
        "ops_per_s",
        (jobs.pairs * jobs.seconds.len() as u64) as f64 / jobs_s,
    );
    out.set("op_latency_ms", mean(&jobs.epoch_ms));
    out.set("op_tail_ms", median(&jobs.epoch_tail_ms));
    out.set("quality", auc);
    out.set("peak_rss_mb", peak);

    if let Some(traced) = traced {
        trace_layers(engine, args, &fx, &mut checks, &jobs, &traced, &mut out)?;
    }
    Ok(out)
}

/// One more job of the same configuration on `PartitionedTrainer` itself,
/// the engine the pipeline drives, for its slot-pool counters: loads,
/// evictions and high water. Its release must equal the pipeline's.
fn slot_counters(
    fx: &Fixture,
    checks: &mut ReleaseChecks,
    out: &mut Outcome,
) -> BenchResult<(usize, usize, usize)> {
    let g = &fx.train;
    let cfg = checks.cfg.clone();
    let trainer = PartitionedTrainer::new(g, cfg.clone(), PARTITIONS).map_err(err("build"))?;
    let stats = trainer.slot_stats();
    let outcome = trainer.train(g).map_err(err("train"))?;
    let bytes = EmbeddingStore::from_outcome(&outcome, &cfg)
        .map_err(err("release"))?
        .to_bytes();
    checks.check_release(&outcome, &bytes, out);
    Ok((stats.loads(), stats.evictions(), stats.high_water()))
}

fn trace_layers(
    engine: Engine,
    args: &RunArgs,
    fx: &Fixture,
    checks: &mut ReleaseChecks,
    plain: &Jobs,
    traced: &Jobs,
    out: &mut Outcome,
) -> BenchResult<()> {
    let cfg = checks.cfg.clone();
    let budget = (args.seconds / 3.0).min(4.0);
    let layers = replay_training(&fx.train, &cfg, args.seed, budget)?;
    layers.emit(out);

    let last = &traced.last;
    let (release_s, _) = timed_reps(5, || {
        let store = EmbeddingStore::from_outcome(&last.outcome, &cfg).map_err(err("release"))?;
        Ok(std::hint::black_box(store.to_bytes()).len())
    })?;
    out.set("store.release_ms", release_s * 1e3);

    let job_s = mean(&traced.seconds);
    let compute_s = layers.run_compute_s(&cfg);
    if engine == Engine::OutOfCore {
        out.set("partitioned.overhead_frac", 1.0 - compute_s / job_s);
        let (loads, evictions, high_water) = slot_counters(fx, checks, out)?;
        let rows = cfg.dim * fx.train.num_nodes().div_ceil(PARTITIONS);
        out.set("partitioned.slot_loads", loads as f64);
        out.set("partitioned.evictions", evictions as f64);
        out.set("partitioned.high_water", high_water as f64);
        out.set(
            "partitioned.spill_bytes",
            (loads * rows * std::mem::size_of::<f64>()) as f64,
        );
    }
    out.set("trace.coverage", (compute_s + release_s) / job_s);
    let plain_s = mean(&plain.seconds);
    out.set("trace.overhead_frac", job_s / plain_s - 1.0);
    Ok(())
}
