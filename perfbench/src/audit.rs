//! `audit-panel`: the paired-worlds membership-inference audit
//! (`advsgm_attack::run_audit`) on `data/audit_sbm60.edges`, with the
//! committed audit training settings and the sigma -> 0 ablation, over a
//! panel small enough for one run.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use advsgm::api::{Dim, ModelVariant, PipelineBuilder};
use advsgm::attack::{
    run_audit, AttackError, AuditConfig, AuditOutcome, AuditReport, ReleaseProfile,
};
use advsgm::eval::auc_from_scores;
use advsgm::graph::io::read_edge_list_file;
use advsgm::graph::partition::link_prediction_split;
use advsgm::graph::{Edge, Graph, NodeId};
use advsgm::store::EmbeddingStore;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::common::{
    deadline, err, mean, peak_rss_mb, tail, BenchResult, Outcome, RunArgs, SetupTimes,
};
use crate::replay::replay_training;
use crate::train::{expected_epsilon, same_epsilon};

/// The audit fixture graph, relative to the checkout root.
const EDGES: &str = "data/audit_sbm60.edges";
/// Fan-out width over paired runs (each run trains on one thread).
const THREADS: usize = 2;
/// Set-ups per timed block (one takes about 0.1 ms), and the timed blocks
/// run before the first audit and after each audit; `setup_s` is their
/// mean.
const SETUP_BLOCK: usize = 40;
const SETUP_BLOCKS: usize = 25;

/// The committed audit settings: epochs 75, lr 0.2, dim 16, AdvSGM
/// defaults otherwise (`docs/BENCHMARKS.md`).
fn builder(smoke: bool) -> BenchResult<PipelineBuilder> {
    let b = PipelineBuilder::new(ModelVariant::AdvSgm)
        .dim(Dim::new(16).map_err(err("dim"))?)
        .learning_rate(0.2);
    Ok(if smoke { b.epochs(2) } else { b.epochs(75) })
}

fn audit_config(seed: u64) -> AuditConfig {
    let mut cfg = AuditConfig::new(seed);
    cfg.targets = 1;
    cfg.runs_per_world = 2;
    cfg.threads = THREADS;
    cfg
}

/// Per-trial records from inside the release closure.
#[derive(Default)]
struct Trials {
    release_ms: Vec<f64>,
    /// Reconstruction AUC of each release on the audit graph.
    auc: Vec<f64>,
    failed: u64,
}

/// The pairs quality is scored on: every edge of the audit graph against
/// every non-edge. The panel split holds out only about 20 edges of the
/// 200, too few for an AUC that repeats across seeds (it spread 0.17
/// over five); the whole graph gives 200 against about 1570.
struct Scored {
    pos: Vec<Edge>,
    neg: Vec<Edge>,
}

impl Scored {
    fn of(graph: &Graph) -> Self {
        let n = graph.num_nodes() as u32;
        let neg = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (NodeId(a), NodeId(b))))
            .filter(|&(a, b)| !graph.has_edge(a, b))
            .map(|(a, b)| Edge::new(a, b))
            .collect();
        Scored {
            pos: graph.edges().to_vec(),
            neg,
        }
    }

    fn auc(&self, bytes: &[u8]) -> Option<f64> {
        let store = EmbeddingStore::from_bytes(bytes).ok()?;
        let score = |edges: &[Edge]| -> Option<Vec<f64>> {
            edges
                .iter()
                .map(|e| store.score(e.u().index(), e.v().index()).ok())
                .collect()
        };
        auc_from_scores(&score(&self.pos)?, &score(&self.neg)?).ok()
    }
}

/// One audited condition through `run_audit`, with the benchmark's own
/// release closure: train through the pipeline at one thread, release the
/// bytes.
fn audit_condition(
    graph: &Graph,
    builder: &PipelineBuilder,
    cfg: &AuditConfig,
    scored: &Scored,
    trials: &Mutex<Trials>,
) -> Result<AuditOutcome, AttackError> {
    run_audit(graph, cfg, |g: &Graph, seed: u64| {
        let t = Instant::now();
        let released = builder
            .clone()
            .seed(seed)
            .threads(1)
            .build(g)
            .and_then(|p| p.train())
            .map(|trained| trained.release_bytes());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let auc = released.as_ref().ok().and_then(|bytes| scored.auc(bytes));
        let mut log = trials.lock().expect("trial log poisoned");
        log.release_ms.push(ms);
        log.auc.extend(auc);
        match released {
            Ok(bytes) => Ok(bytes),
            Err(e) => {
                log.failed += 1;
                Err(AttackError::release(e.to_string()))
            }
        }
    })
}

fn profile(b: &PipelineBuilder) -> ReleaseProfile {
    let c = b.config();
    ReleaseProfile {
        variant: c.variant.paper_name().to_string(),
        dim: c.dim,
        epochs: c.epochs,
        batch_size: c.batch_size,
        learning_rate: c.eta_d,
        sigma: c.sigma,
        epsilon_target: c.epsilon,
        delta: c.delta,
    }
}

/// One full audit: the private condition, the sigma -> 0 ablation, and the
/// assembled report.
struct Audit {
    wall_s: f64,
    report: AuditReport,
    outcome: AuditOutcome,
}

fn audit_once(
    graph: &Graph,
    b: &PipelineBuilder,
    cfg: &AuditConfig,
    scored: &Scored,
    trials: &Mutex<Trials>,
) -> BenchResult<Audit> {
    let t = Instant::now();
    let outcome = audit_condition(graph, b, cfg, scored, trials).map_err(err("audit"))?;
    let no_dp = b.clone().variant(ModelVariant::AdvSgmNoDp);
    let ablation = audit_condition(graph, &no_dp, cfg, scored, trials).map_err(err("ablation"))?;
    let report = AuditReport::assemble(cfg, profile(b), &outcome, Some(&ablation));
    Ok(Audit {
        wall_s: t.elapsed().as_secs_f64(),
        report,
        outcome,
    })
}

/// Audits until `seconds` have passed (at least one); `between` runs
/// after each audit, outside its timing.
fn audits(
    graph: &Graph,
    b: &PipelineBuilder,
    cfg: &AuditConfig,
    scored: &Scored,
    seconds: f64,
    between: &mut dyn FnMut() -> BenchResult<()>,
) -> BenchResult<(Vec<Audit>, Trials)> {
    let trials = Mutex::new(Trials::default());
    let stop = deadline(seconds);
    let mut done = Vec::new();
    while done.is_empty() || Instant::now() < stop {
        done.push(audit_once(graph, b, cfg, scored, &trials)?);
        between()?;
    }
    Ok((done, trials.into_inner().expect("trial log poisoned")))
}

/// Trials (released, attacked worlds) per audit: both conditions.
fn trials_per_audit(cfg: &AuditConfig) -> u64 {
    (2 * 2 * cfg.targets * cfg.runs_per_world) as u64
}

pub fn run(args: &RunArgs) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let b = builder(args.smoke)?.seed(args.seed);
    let cfg = audit_config(args.seed);

    // Set-up: load the edge list and build the audited pipeline on it,
    // timed in blocks of set-ups before the audits and between them.
    let mut setups = SetupTimes::default();
    let set_up_blocks = |setups: &mut SetupTimes| -> BenchResult<Graph> {
        let mut graph = None;
        for _ in 0..SETUP_BLOCKS {
            setups.time(SETUP_BLOCK, || {
                for _ in 0..SETUP_BLOCK {
                    let g = read_edge_list_file(Path::new(EDGES), None).map_err(err(EDGES))?;
                    drop(b.clone().threads(1).build(&g).map_err(err("build"))?);
                    graph = Some(g);
                }
                Ok(())
            })?;
        }
        Ok(graph.expect("at least one set-up"))
    };
    let graph = set_up_blocks(&mut setups)?;
    let mut between = || set_up_blocks(&mut setups).map(drop);

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let split = link_prediction_split(&graph, cfg.test_fraction, &mut rng).map_err(err("split"))?;
    let g0 = split.train;
    let scored = Scored::of(&graph);
    let half = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (plain, plain_trials) = audits(&graph, &b, &cfg, &scored, half, &mut between)?;
    let traced = match args.trace {
        true => Some(audits(&graph, &b, &cfg, &scored, half, &mut between)?),
        false => None,
    };
    let peak = peak_rss_mb();
    out.set("setup_s", setups.mean());

    // Correctness: a consistent verdict, no failed trial, and the stamp
    // read back from the releases equals the accountant's epsilon for the
    // widest-sampling world (the shared graph G0 of the panel split).
    let (want_eps, updates) = expected_epsilon(&g0, b.config())?;
    for a in plain.iter().chain(traced.iter().flat_map(|t| t.0.iter())) {
        out.check(
            a.report.verdict == "consistent",
            format!("audit verdict is {}", a.report.verdict),
        );
        out.check(
            a.outcome
                .stamped_epsilon
                .is_some_and(|e| same_epsilon(e, want_eps)),
            format!(
                "audit stamp {:?} differs from the accountant's {want_eps}",
                a.outcome.stamped_epsilon
            ),
        );
    }
    out.attempted = plain.len() as u64 * trials_per_audit(&cfg);
    out.failed = plain_trials.failed;
    out.check(out.failed == 0, format!("{} trials failed", out.failed));

    let wall: f64 = plain.iter().map(|a| a.wall_s).sum();
    // The caller of an audit waits for its verdict: latency is per audit,
    // the mean over the run's audits. Quality is the mean reconstruction
    // AUC of the audit's releases.
    let audit_ms: Vec<f64> = plain.iter().map(|a| a.wall_s * 1e3).collect();
    out.set("ops_per_s", out.attempted as f64 / wall);
    out.set("op_latency_ms", mean(&audit_ms));
    out.set("op_tail_ms", tail(&audit_ms));
    out.check(
        plain_trials.auc.len() == plain_trials.release_ms.len(),
        "a release could not be scored",
    );
    out.set(
        "quality",
        plain_trials.auc.iter().sum::<f64>() / plain_trials.auc.len().max(1) as f64,
    );
    out.set("peak_rss_mb", peak);

    if let Some((traced, trials)) = traced {
        let layers = replay_training(&g0, b.config(), args.seed, (args.seconds / 4.0).min(2.0))?;
        layers.emit(&mut out);
        let t_wall: f64 = traced.iter().map(|a| a.wall_s).sum();
        let release_total_s: f64 = trials.release_ms.iter().sum::<f64>() / 1e3;
        let n = trials.release_ms.len().max(1) as f64;
        out.set("attack.release_ms", release_total_s * 1e3 / n);
        out.set(
            "audit.pool_busy_frac",
            release_total_s / (t_wall * THREADS as f64),
        );
        out.set(
            "attack.self_ms",
            (t_wall - release_total_s / THREADS as f64) * 1e3 / traced.len() as f64,
        );
        // Replayed training compute per trial, over the trials' span. Half
        // the trials are private and stop on the budget after `updates`
        // discriminator updates; the sigma -> 0 half runs the schedule.
        let c = b.config();
        let scheduled = (c.epochs * c.disc_iters * 2) as f64;
        let per_trial_s = layers.run_compute_s(c) * (1.0 + updates as f64 / scheduled) / 2.0;
        out.set(
            "trace.coverage",
            per_trial_s * n / (t_wall * THREADS as f64),
        );
        let per_audit = |xs: &[Audit]| xs.iter().map(|a| a.wall_s).sum::<f64>() / xs.len() as f64;
        out.set(
            "trace.overhead_frac",
            per_audit(&traced) / per_audit(&plain) - 1.0,
        );
    }
    Ok(out)
}
