//! The one training front-end over the session layer (DESIGN.md §7).
//!
//! [`Trainer`] is a session core plus the engine that executes its steps.
//! Algorithm 3 itself — epochs, `n_D`/`n_G` iteration counts, the
//! Theorem-7 stopping rule, outcome assembly — lives once in
//! `session::run_schedule`; the engines only execute steps, and one
//! function (`select_engine`) decides which engine runs:
//!
//! | run | partitions | threads | engine | residency |
//! |---|---|---|---|---|
//! | fresh | `P >= 1` | any | sequential | out of core, `P` buckets |
//! | fresh | 0 | 1 | sequential | in RAM |
//! | fresh | 0 | `N > 1` | sharded at `N` | in RAM |
//! | resume sequential checkpoint | `P >= 1` | — | sequential | out of core, `P` buckets |
//! | resume sequential checkpoint | 0 | — | sequential | in RAM |
//! | resume sharded checkpoint | 0 | pinned `N` | sharded at `N` | in RAM |
//! | resume sharded checkpoint | `P >= 1` | — | [`CoreError::Checkpoint`] | — |
//!
//! Both engines refuse more partitions than the graph has nodes
//! ([`CoreError::Config`] on `partitions`).
//!
//! # Determinism contract
//!
//! * The **sequential trajectory** is one function of the seed: the
//!   sequential engine releases bit-for-bit the same embeddings, losses
//!   and spend at every `(P, threads)`, and its checkpoints resume at any
//!   residency (`tests/ooc_equivalence.rs`).
//! * The **sharded trajectory** is run-to-run deterministic for a fixed
//!   `(seed, threads, shard_size)` but differs from the sequential one:
//!   per-shard RNG streams replace the one interleaved stream. Its
//!   checkpoints resume only on the sharded engine at their pinned width.
//! * **Privacy accounting is engine-invariant**: batch composition, the
//!   `(sigma, gamma)` schedule and the stopping rule depend only on the
//!   configuration, so update counts and the reported spend are
//!   bitwise-equal on every engine (`tests/sharded_determinism.rs`).
//! * **Resume is bitwise-exact**: a [`CheckpointState`] captured through
//!   [`TrainHooks::on_checkpoint`] and passed to [`Trainer::resume`]
//!   continues the identical trajectory (`tests/checkpoint_resume.rs`).

use std::sync::Arc;

use advsgm_graph::Graph;
use advsgm_linalg::rng::rng_from_state;
use advsgm_linalg::DenseMatrix;
use rand::rngs::SmallRng;

use crate::config::AdvSgmConfig;
use crate::error::CoreError;
use crate::sampler::BatchProvider;
use crate::session::partitioned::{SequentialEngine, SlotPoolStats};
use crate::session::sharded::ShardedLaunch;
use crate::session::{
    run_schedule, CheckpointState, Engine, EngineKind, NoHooks, SessionCore, TrainHooks,
};
use crate::variants::ModelVariant;
use crate::weighting::WeightMode;

/// Result of one training run.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The released node vectors (`W_in`) — the embeddings used downstream.
    pub node_vectors: DenseMatrix,
    /// The context vectors (`W_out`), kept for completeness.
    pub context_vectors: DenseMatrix,
    /// Which variant produced this.
    pub variant: ModelVariant,
    /// Epochs fully completed.
    pub epochs_run: usize,
    /// Total discriminator updates applied (positive + negative batches).
    pub disc_updates: u64,
    /// Whether the privacy stopping rule ended training early.
    pub stopped_by_budget: bool,
    /// `epsilon` actually spent at the configured `delta` (private only).
    pub epsilon_spent: Option<f64>,
    /// `delta_hat` at the configured target `epsilon` (private only).
    pub delta_spent: Option<f64>,
    /// Per-epoch `|L_Nov|` diagnostics (Fig. 2's metric).
    pub epoch_losses: Vec<f64>,
}

/// The engine [`select_engine`] picked for a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selection {
    /// The sequential trajectory at `partitions` buckets (0 = in RAM).
    Sequential {
        partitions: usize,
    },
    Sharded {
        threads: usize,
    },
}

/// The one engine-selection rule (module docs have the table).
///
/// `threads` is the resolved width: [`AdvSgmConfig::effective_threads`]
/// for a fresh run, the checkpoint's pinned `num_threads` on resume.
/// `resumed` is the engine code of the checkpoint being resumed, `None`
/// for a fresh run. A sequential checkpoint resumes with whatever
/// residency the caller asks for and is never re-resolved from its pinned
/// thread count.
fn select_engine(
    partitions: usize,
    threads: usize,
    resumed: Option<EngineKind>,
) -> Result<Selection, CoreError> {
    let refuse = |reason: String| Err(CoreError::Checkpoint { reason });
    match resumed {
        Some(EngineKind::Sharded) if partitions > 0 => refuse(format!(
            "a sharded checkpoint resumes only in RAM; the sequential engine \
             cannot replay its per-shard streams (asked for {partitions} partitions)"
        )),
        Some(EngineKind::Sharded) if threads < 2 => refuse(format!(
            "sharded checkpoint records {threads} thread(s); need >= 2"
        )),
        Some(EngineKind::Sharded) => Ok(Selection::Sharded { threads }),
        None if partitions == 0 && threads > 1 => Ok(Selection::Sharded { threads }),
        _ => Ok(Selection::Sequential { partitions }),
    }
}

/// Refuses more partitions than `graph` has nodes: every bucket past the
/// last node would still cost two spill files.
fn check_partitions(graph: &Graph, partitions: usize) -> Result<(), CoreError> {
    if partitions > graph.num_nodes() {
        return Err(CoreError::Config {
            field: "partitions",
            reason: format!(
                "{partitions} partitions exceed the graph's {} nodes",
                graph.num_nodes()
            ),
        });
    }
    Ok(())
}

/// The engine a [`Trainer`] drives.
enum TrainEngine {
    Sequential(SequentialEngine),
    Sharded(ShardedLaunch),
}

/// Trains one model variant on one graph (Algorithm 3) on the engine the
/// partition count and thread width select (module docs have the rule and
/// the determinism contract).
pub struct Trainer {
    core: SessionCore,
    engine: TrainEngine,
    stats: Arc<SlotPoolStats>,
}

/// The out-of-core front-end's former name: [`Trainer::new`] with
/// `partitions >= 1` trains out of core.
pub type PartitionedTrainer = Trainer;

impl Trainer {
    /// Builds a trainer; validates the configuration against the graph.
    /// `partitions = 0` trains in RAM (sequential at one resolved thread,
    /// sharded above); `partitions >= 1` trains out of core with that many
    /// node buckets and spills the freshly initialised embeddings to disk.
    ///
    /// # Errors
    /// Configuration or sampler-construction failures, including
    /// [`CoreError::Config`] for more partitions than nodes;
    /// [`CoreError::Io`] when the spill store cannot be created.
    pub fn new(graph: &Graph, cfg: AdvSgmConfig, partitions: usize) -> Result<Self, CoreError> {
        check_partitions(graph, partitions)?;
        let selection = select_engine(partitions, cfg.effective_threads(), None)?;
        let (core, provider, rng) = SessionCore::new(graph, cfg)?;
        Self::assemble(core, provider, selection, rng, None)
    }

    /// Rebuilds a trainer mid-schedule from a checkpoint captured through
    /// [`TrainHooks::on_checkpoint`]; running the result is
    /// bitwise-identical to never having interrupted the original run.
    /// `partitions` is the residency asked for, as in [`Trainer::new`]:
    /// sequential checkpoints honour it, sharded ones resume in RAM at
    /// their pinned width and refuse `partitions >= 1`.
    ///
    /// # Errors
    /// [`CoreError::Checkpoint`] when the state is inconsistent, does not
    /// match `graph`, or is a sharded checkpoint asked to resume out of
    /// core; [`CoreError::Config`] for more partitions than nodes.
    pub fn resume(
        graph: &Graph,
        state: &CheckpointState,
        partitions: usize,
    ) -> Result<Self, CoreError> {
        check_partitions(graph, partitions)?;
        let selection = select_engine(partitions, state.config.num_threads, Some(state.engine))?;
        // `SessionCore::resume` checks the stream count against the engine code.
        let (core, provider) = SessionCore::resume(graph, state)?;
        let streams = &state.rng_streams;
        let rng = rng_from_state(streams[0]);
        Self::assemble(core, provider, selection, rng, Some(streams))
    }

    /// Stands up the selected engine. `rng` is the sequential stream (the
    /// post-init stream, or a checkpoint's `[main]`); `resumed` holds a
    /// checkpoint's stream positions, which the sharded engine reads as
    /// `[producer, epoch-loss]`.
    fn assemble(
        mut core: SessionCore,
        provider: BatchProvider,
        selection: Selection,
        rng: SmallRng,
        resumed: Option<&[[u64; 4]]>,
    ) -> Result<Self, CoreError> {
        let stats = Arc::new(SlotPoolStats::default());
        let engine = match selection {
            Selection::Sequential { partitions } => TrainEngine::Sequential(SequentialEngine::new(
                &mut core,
                provider,
                rng,
                partitions,
                Arc::clone(&stats),
            )?),
            // A fresh sharded run drops `rng`: it derives its own streams
            // from the seed and shares only the parameter initialisation.
            Selection::Sharded { threads } => TrainEngine::Sharded(ShardedLaunch {
                provider,
                threads,
                streams: resumed.map(|s| [s[0], s[1]]),
            }),
        };
        Ok(Self {
            core,
            engine,
            stats,
        })
    }

    /// The validated configuration this trainer was built with. Exporters
    /// (e.g. `advsgm-store`) read the privacy parameters (`sigma`, target
    /// `epsilon`/`delta`) here to stamp released artifacts.
    pub fn config(&self) -> &AdvSgmConfig {
        &self.core.cfg
    }

    /// The worker-thread count of the selected engine (1 for the
    /// sequential engine in RAM).
    pub fn threads(&self) -> usize {
        match &self.engine {
            TrainEngine::Sequential(e) => e.threads(),
            TrainEngine::Sharded(l) => l.threads,
        }
    }

    /// The node-bucket count out of core; 0 in RAM.
    pub fn partitions(&self) -> usize {
        match &self.engine {
            TrainEngine::Sequential(e) => e.partitions(),
            TrainEngine::Sharded(_) => 0,
        }
    }

    /// A shared handle to the out-of-core slot-pool counters, usable after
    /// [`Trainer::train`] consumed the trainer. Reads zero in RAM.
    pub fn slot_stats(&self) -> Arc<SlotPoolStats> {
        Arc::clone(&self.stats)
    }

    /// Runs Algorithm 3 to completion (or budget exhaustion) and returns
    /// the outcome.
    ///
    /// # Errors
    /// Propagates substrate failures; budget exhaustion is *not* an error
    /// (it sets [`TrainOutcome::stopped_by_budget`]).
    ///
    /// # Examples
    /// ```
    /// use advsgm_core::{AdvSgmConfig, ModelVariant, Trainer};
    /// use advsgm_graph::generators::classic::karate_club;
    ///
    /// let graph = karate_club();
    /// let cfg = AdvSgmConfig::test_small(ModelVariant::Sgm).with_threads(1);
    /// let in_ram = Trainer::new(&graph, cfg.clone(), 0).unwrap().train(&graph).unwrap();
    ///
    /// // Out of core with four node buckets: the same bits.
    /// let trainer = Trainer::new(&graph, cfg, 4).unwrap();
    /// let stats = trainer.slot_stats();
    /// let out = trainer.train(&graph).unwrap();
    /// assert_eq!(out.node_vectors, in_ram.node_vectors);
    /// assert!(stats.high_water() <= 2);
    /// ```
    pub fn train(self, graph: &Graph) -> Result<TrainOutcome, CoreError> {
        self.train_with_hooks(graph, &mut NoHooks)
    }

    /// [`Trainer::train`] with a [`TrainHooks`] observer: epoch-boundary
    /// events (index, loss, privacy spend, stop reason), graceful stop,
    /// and checkpoint capture.
    ///
    /// # Errors
    /// See [`Trainer::train`].
    pub fn train_with_hooks(
        self,
        graph: &Graph,
        hooks: &mut dyn TrainHooks,
    ) -> Result<TrainOutcome, CoreError> {
        let Trainer {
            mut core, engine, ..
        } = self;
        match engine {
            TrainEngine::Sequential(mut e) => {
                run_schedule(&mut core, &mut e, graph, hooks)?;
                // Out of core, materialise the final embeddings from the
                // slot pool and spill store; until here `core.emb` is a
                // placeholder.
                e.sync_core(&mut core)?;
            }
            TrainEngine::Sharded(launch) => launch.run(&mut core, graph, hooks)?,
        }
        core.into_outcome()
    }

    /// Runs the remaining schedule *without consuming* the trainer, so the
    /// trained state stays queryable afterwards — the Fig. 2 harness
    /// trains this way and then evaluates
    /// [`Trainer::loss_under_weight_mode`] on the result. A second call is
    /// a no-op once every epoch has run.
    ///
    /// # Errors
    /// [`CoreError::Config`] on the sharded engine; otherwise propagates
    /// substrate failures.
    pub fn train_in_place(
        &mut self,
        graph: &Graph,
        hooks: &mut dyn TrainHooks,
    ) -> Result<(), CoreError> {
        let engine = sequential(&mut self.engine, "train_in_place")?;
        run_schedule(&mut self.core, engine, graph, hooks)
    }

    /// Evaluates `|L_Nov|` under an arbitrary weight mode (Fig. 2
    /// harness), averaged over `batches` fresh batches.
    ///
    /// # Errors
    /// [`CoreError::Config`] on the sharded engine; otherwise propagates
    /// sampling and spill failures.
    pub fn loss_under_weight_mode(
        &mut self,
        graph: &Graph,
        mode: WeightMode,
        batches: usize,
    ) -> Result<f64, CoreError> {
        let engine = sequential(&mut self.engine, "loss_under_weight_mode")?;
        let mut total = 0.0;
        for _ in 0..batches.max(1) {
            total += engine.replay_loss(&mut self.core, graph, mode)?;
        }
        Ok(total / batches.max(1) as f64)
    }

    /// Convenience: build in RAM and train in one call.
    ///
    /// # Errors
    /// See [`Trainer::new`] / [`Trainer::train`].
    pub fn fit(graph: &Graph, cfg: AdvSgmConfig) -> Result<TrainOutcome, CoreError> {
        Trainer::new(graph, cfg, 0)?.train(graph)
    }
}

/// The sequential engine, which alone keeps its provider and RNG between
/// calls; `op` names the caller in the error for the sharded engine.
fn sequential<'e>(
    engine: &'e mut TrainEngine,
    op: &str,
) -> Result<&'e mut SequentialEngine, CoreError> {
    match engine {
        TrainEngine::Sequential(e) => Ok(e),
        TrainEngine::Sharded(_) => Err(CoreError::Config {
            field: "engine",
            reason: format!(
                "{op} needs the sequential engine: one thread (with_threads(1)) \
                 or partitions >= 1"
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{EpochEvent, SessionControl, StopReason};
    use advsgm_graph::generators::classic::karate_club;
    use advsgm_graph::generators::sbm::{degree_corrected_sbm, SbmConfig};
    use advsgm_linalg::rng::seeded;
    use advsgm_linalg::vector;
    use rand::Rng;

    fn small_graph() -> Graph {
        let mut rng = seeded(99);
        degree_corrected_sbm(
            &SbmConfig {
                num_nodes: 120,
                num_edges: 600,
                num_blocks: 4,
                mixing: 0.1,
                degree_exponent: 2.5,
            },
            &mut rng,
        )
    }

    /// The sequential reference: pinned to one thread so `ADVSGM_THREADS`
    /// cannot route it to the sharded engine.
    fn seq_cfg(v: ModelVariant) -> AdvSgmConfig {
        AdvSgmConfig::test_small(v).with_threads(1)
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// The budget-exhausting configuration several tests share.
    fn tight_budget() -> AdvSgmConfig {
        let mut cfg = seq_cfg(ModelVariant::AdvSgm);
        cfg.epochs = 50;
        cfg.disc_iters = 10;
        cfg.sigma = 1.0; // heavy per-step cost
        cfg.epsilon = 0.8;
        cfg
    }

    /// Mean inner product over the graph's edges minus the mean over
    /// random pairs: positive once skip-gram has learnt link structure.
    fn link_margin(g: &Graph, out: &TrainOutcome) -> f64 {
        let (emb, ctx) = (&out.node_vectors, &out.context_vectors);
        let mut rng = seeded(5);
        let mut pos_mean = 0.0;
        for e in g.edges() {
            pos_mean += vector::dot(emb.row(e.u().index()), ctx.row(e.v().index()));
        }
        pos_mean /= g.num_edges() as f64;
        let mut neg_mean = 0.0;
        let trials = 2000;
        for _ in 0..trials {
            let a = rng.gen_range(0..g.num_nodes());
            let b = rng.gen_range(0..g.num_nodes());
            neg_mean += vector::dot(emb.row(a), ctx.row(b));
        }
        pos_mean - neg_mean / trials as f64
    }

    #[test]
    fn selection_follows_the_engine_table() {
        use Selection::*;
        let (seq, sh) = (Some(EngineKind::Sequential), Some(EngineKind::Sharded));
        // Fresh runs: partitions first, then the resolved width.
        assert_eq!(
            select_engine(0, 1, None).unwrap(),
            Sequential { partitions: 0 }
        );
        assert_eq!(select_engine(0, 4, None).unwrap(), Sharded { threads: 4 });
        assert_eq!(
            select_engine(3, 4, None).unwrap(),
            Sequential { partitions: 3 }
        );
        // Sequential checkpoints: residency as asked, never re-resolved
        // from the pinned width.
        for p in [0, 2] {
            assert_eq!(
                select_engine(p, 4, seq).unwrap(),
                Sequential { partitions: p }
            );
        }
        // Sharded checkpoints: in RAM at the pinned width, or refused.
        assert_eq!(select_engine(0, 3, sh).unwrap(), Sharded { threads: 3 });
        for (p, threads) in [(1, 3), (0, 1)] {
            assert!(matches!(
                select_engine(p, threads, sh),
                Err(CoreError::Checkpoint { .. })
            ));
        }
    }

    #[test]
    fn every_variant_trains_without_error() {
        let g = small_graph();
        for v in ModelVariant::all() {
            let out = Trainer::fit(&g, seq_cfg(v)).unwrap();
            assert_eq!(out.node_vectors.rows(), g.num_nodes());
            assert_eq!(out.node_vectors.cols(), 16);
            assert!(out.disc_updates > 0, "{v}: no updates");
            assert!(
                out.node_vectors.as_slice().iter().all(|x| x.is_finite()),
                "{v}: non-finite embedding"
            );
        }
    }

    #[test]
    fn private_variants_report_privacy_spend() {
        let g = small_graph();
        let out = Trainer::fit(&g, seq_cfg(ModelVariant::AdvSgm)).unwrap();
        assert!(out.epsilon_spent.is_some());
        assert!(out.delta_spent.is_some());
        assert!(out.epsilon_spent.unwrap() > 0.0);
    }

    #[test]
    fn non_private_variants_do_not_account() {
        let g = small_graph();
        let out = Trainer::fit(&g, seq_cfg(ModelVariant::Sgm)).unwrap();
        assert!(out.epsilon_spent.is_none());
        assert!(!out.stopped_by_budget);
        assert_eq!(out.epochs_run, 2);
    }

    #[test]
    fn tight_budget_stops_training_early() {
        let out = Trainer::fit(&karate_club(), tight_budget()).unwrap();
        assert!(out.stopped_by_budget, "expected early stop");
        assert!(out.epochs_run < 50);
        // Spent delta must have crossed the target.
        assert!(out.delta_spent.unwrap() >= 1e-5);
    }

    #[test]
    fn generous_budget_completes_all_epochs() {
        let g = small_graph();
        let mut cfg = seq_cfg(ModelVariant::AdvSgm);
        cfg.epsilon = 1e6; // effectively unbounded
        let (epochs, iters) = (cfg.epochs, cfg.disc_iters);
        let out = Trainer::fit(&g, cfg).unwrap();
        assert!(!out.stopped_by_budget);
        assert_eq!(out.epochs_run, epochs);
        assert_eq!(out.disc_updates, (epochs * iters * 2) as u64);
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let g = small_graph();
        let out1 = Trainer::fit(&g, seq_cfg(ModelVariant::AdvSgm)).unwrap();
        let out2 = Trainer::fit(&g, seq_cfg(ModelVariant::AdvSgm)).unwrap();
        assert_eq!(out1.node_vectors, out2.node_vectors);
        let mut cfg = seq_cfg(ModelVariant::AdvSgm);
        cfg.seed = 1;
        let out3 = Trainer::fit(&g, cfg).unwrap();
        assert_ne!(out1.node_vectors, out3.node_vectors);
    }

    #[test]
    fn sgm_training_improves_link_reconstruction_on_every_in_ram_engine() {
        // After non-private skip-gram training, positive pairs should score
        // higher on average than random pairs — sequential and sharded.
        let g = small_graph();
        for threads in [1usize, 4] {
            let mut cfg = AdvSgmConfig::test_small(ModelVariant::Sgm).with_threads(threads);
            cfg.epochs = 12;
            cfg.disc_iters = 20;
            cfg.batch_size = 64;
            let margin = link_margin(&g, &Trainer::fit(&g, cfg).unwrap());
            assert!(margin > 0.0, "threads={threads}: margin {margin}");
        }
    }

    #[test]
    fn rows_stay_in_unit_ball_when_projecting() {
        let g = small_graph();
        for threads in [1usize, 4] {
            let mut cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm).with_threads(threads);
            cfg.project_rows = true;
            let out = Trainer::fit(&g, cfg).unwrap();
            for i in 0..out.node_vectors.rows() {
                assert!(vector::norm2(out.node_vectors.row(i)) <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn loss_under_weight_modes_orders_as_figure2() {
        // lambda = 1/S should produce the largest |L_Nov|, then 1, then 0.5
        // (Fig. 2's bars), because lambda multiplies a non-negative term.
        let g = small_graph();
        let mut t = Trainer::new(&g, seq_cfg(ModelVariant::AdvSgm), 0).unwrap();
        let l_half = t
            .loss_under_weight_mode(&g, WeightMode::Fixed(0.5), 3)
            .unwrap();
        let l_one = t
            .loss_under_weight_mode(&g, WeightMode::Fixed(1.0), 3)
            .unwrap();
        let l_inv = t
            .loss_under_weight_mode(&g, WeightMode::InverseS, 3)
            .unwrap();
        assert!(l_half <= l_one + 1e-9, "half={l_half} one={l_one}");
        assert!(l_one <= l_inv + 1e-9, "one={l_one} inv={l_inv}");
    }

    #[test]
    fn in_place_calls_are_typed_errors_off_the_sequential_engine() {
        // The sequential engine runs them at every residency; only the
        // sharded engine refuses them.
        let g = small_graph();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        // Out of core, train-then-evaluate is the in-RAM run bit for bit.
        let in_place = |partitions: usize| {
            let mut t = Trainer::new(&g, cfg.clone().with_threads(1), partitions).unwrap();
            t.train_in_place(&g, &mut NoHooks).unwrap();
            let loss = t
                .loss_under_weight_mode(&g, WeightMode::Fixed(0.5), 2)
                .unwrap();
            (loss.to_bits(), bits(&t.train(&g).unwrap().node_vectors))
        };
        assert_eq!(in_place(2), in_place(0));

        let mut t = Trainer::new(&g, cfg.clone().with_threads(4), 0).unwrap();
        let err = t.train_in_place(&g, &mut NoHooks).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Config {
                field: "engine",
                ..
            }
        ));
        let err = t
            .loss_under_weight_mode(&g, WeightMode::InverseS, 1)
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Config {
                field: "engine",
                ..
            }
        ));
        // The refused calls consumed nothing: the trainer still runs.
        assert!(t.train(&g).unwrap().disc_updates > 0);
    }

    #[test]
    fn more_partitions_than_nodes_are_refused_on_new_and_resume() {
        let g = karate_club();
        let cfg = seq_cfg(ModelVariant::Sgm);
        let n = g.num_nodes();
        assert_eq!(Trainer::new(&g, cfg.clone(), n).unwrap().partitions(), n);
        for partitions in [n + 1, 4_000_000_000] {
            let err = Trainer::new(&g, cfg.clone(), partitions).err().unwrap();
            assert!(
                matches!(
                    err,
                    CoreError::Config {
                        field: "partitions",
                        ..
                    }
                ),
                "{err}"
            );
        }

        // Resume refuses the same counts.
        struct Capture(Option<CheckpointState>);
        impl TrainHooks for Capture {
            fn wants_checkpoint(&mut self, _: usize) -> bool {
                self.0.is_none()
            }
            fn on_checkpoint(&mut self, state: &CheckpointState) -> SessionControl {
                self.0 = Some(state.clone());
                SessionControl::Stop
            }
        }
        let mut hook = Capture(None);
        Trainer::new(&g, cfg, 0)
            .unwrap()
            .train_with_hooks(&g, &mut hook)
            .unwrap();
        let state = hook.0.expect("checkpoint captured");
        assert_eq!(Trainer::resume(&g, &state, n).unwrap().partitions(), n);
        let err = Trainer::resume(&g, &state, n + 1).err().unwrap();
        assert!(matches!(
            err,
            CoreError::Config {
                field: "partitions",
                ..
            }
        ));
    }

    #[test]
    fn train_in_place_then_train_finishes_the_same_run() {
        let g = small_graph();
        let cfg = seq_cfg(ModelVariant::AdvSgm);
        let full = Trainer::fit(&g, cfg.clone()).unwrap();
        let mut t = Trainer::new(&g, cfg, 0).unwrap();
        t.train_in_place(&g, &mut NoHooks).unwrap();
        let out = t.train(&g).unwrap();
        assert_eq!(bits(&full.node_vectors), bits(&out.node_vectors));
        assert_eq!(full.epoch_losses, out.epoch_losses);
    }

    #[test]
    fn empty_graph_rejected_on_every_engine() {
        let g = Graph::from_parts(5, vec![], None);
        for (threads, partitions) in [(1usize, 0usize), (4, 0), (1, 2)] {
            let cfg = AdvSgmConfig::test_small(ModelVariant::Sgm).with_threads(threads);
            assert!(Trainer::new(&g, cfg, partitions).is_err());
        }
    }

    #[test]
    fn sharded_training_is_run_to_run_deterministic() {
        let g = small_graph();
        for v in [ModelVariant::AdvSgm, ModelVariant::Sgm] {
            let cfg = AdvSgmConfig::test_small(v).with_threads(4);
            let a = Trainer::fit(&g, cfg.clone()).unwrap();
            let b = Trainer::fit(&g, cfg).unwrap();
            assert_eq!(
                bits(&a.node_vectors),
                bits(&b.node_vectors),
                "{v}: threads=4 must be run-to-run deterministic"
            );
            assert_eq!(a.epoch_losses, b.epoch_losses);
        }
    }

    #[test]
    fn shard_size_changes_trajectory_but_stays_deterministic() {
        let g = small_graph();
        let base = AdvSgmConfig::test_small(ModelVariant::AdvSgm).with_threads(3);
        let a1 = Trainer::fit(&g, base.clone().with_shard_size(4)).unwrap();
        let a2 = Trainer::fit(&g, base.clone().with_shard_size(4)).unwrap();
        assert_eq!(bits(&a1.node_vectors), bits(&a2.node_vectors));
        let b = Trainer::fit(&g, base.with_shard_size(5)).unwrap();
        assert_ne!(
            bits(&a1.node_vectors),
            bits(&b.node_vectors),
            "different sharding must follow a different derived-stream trajectory"
        );
    }

    #[test]
    fn accounting_is_engine_invariant() {
        // Budget spend and schedule-derived counters must not depend on
        // the execution engine or thread count.
        let g = karate_club();
        let seq = Trainer::fit(&g, tight_budget()).unwrap();
        for (threads, partitions) in [(2usize, 0usize), (4, 0), (2, 3)] {
            let cfg = tight_budget().with_threads(threads);
            let out = Trainer::new(&g, cfg, partitions)
                .unwrap()
                .train(&g)
                .unwrap();
            let tag = format!("threads={threads} P={partitions}");
            assert_eq!(seq.disc_updates, out.disc_updates, "{tag}");
            assert_eq!(seq.epochs_run, out.epochs_run, "{tag}");
            assert!(out.stopped_by_budget, "{tag}: must exhaust the budget");
            assert_eq!(seq.epsilon_spent, out.epsilon_spent, "{tag}");
            assert_eq!(seq.delta_spent, out.delta_spent, "{tag}");
        }
    }

    #[test]
    fn every_variant_trains_sharded_without_error() {
        let g = small_graph();
        for v in ModelVariant::all() {
            let cfg = AdvSgmConfig::test_small(v)
                .with_threads(4)
                .with_shard_size(7);
            let trainer = Trainer::new(&g, cfg, 0).unwrap();
            assert_eq!(trainer.threads(), 4);
            let out = trainer.train(&g).unwrap();
            assert_eq!(out.node_vectors.rows(), g.num_nodes());
            assert!(out.disc_updates > 0, "{v}: no updates");
            assert!(
                out.node_vectors.as_slice().iter().all(|x| x.is_finite()),
                "{v}: non-finite embedding"
            );
        }
    }

    #[test]
    fn auto_thread_resolution_trains_and_is_deterministic() {
        // num_threads = 0 resolves via ADVSGM_THREADS (CI runs this suite
        // with it set to 4, routing it to the sharded engine) and falls
        // back to the sequential engine otherwise; either way training
        // must succeed and be reproducible.
        let g = small_graph();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        assert_eq!(cfg.num_threads, 0, "test_small must leave threads auto");
        let trainer = Trainer::new(&g, cfg.clone(), 0).unwrap();
        assert_eq!(trainer.threads(), cfg.effective_threads());
        let a = trainer.train(&g).unwrap();
        let b = Trainer::fit(&g, cfg).unwrap();
        assert_eq!(bits(&a.node_vectors), bits(&b.node_vectors));
    }

    #[test]
    fn partitioned_is_bitwise_identical_to_sequential_for_every_variant() {
        let g = small_graph();
        for v in ModelVariant::all() {
            let seq = Trainer::fit(&g, seq_cfg(v)).unwrap();
            for threads in [1usize, 4] {
                let cfg = AdvSgmConfig::test_small(v).with_threads(threads);
                let ooc = Trainer::new(&g, cfg, 3).unwrap().train(&g).unwrap();
                let tag = format!("{v} threads={threads}");
                assert_eq!(bits(&seq.node_vectors), bits(&ooc.node_vectors), "{tag}");
                assert_eq!(
                    bits(&seq.context_vectors),
                    bits(&ooc.context_vectors),
                    "{tag}"
                );
                assert_eq!(seq.epoch_losses, ooc.epoch_losses, "{tag}");
                assert_eq!(seq.disc_updates, ooc.disc_updates, "{tag}");
                assert_eq!(seq.epsilon_spent, ooc.epsilon_spent, "{tag}");
                assert_eq!(seq.delta_spent, ooc.delta_spent, "{tag}");
            }
        }
    }

    #[test]
    fn slot_pool_holds_at_most_two_partitions_and_reads_zero_in_ram() {
        let g = small_graph();
        let trainer = Trainer::new(&g, seq_cfg(ModelVariant::AdvSgm), 4).unwrap();
        assert_eq!(trainer.partitions(), 4);
        let stats = trainer.slot_stats();
        trainer.train(&g).unwrap();
        assert!(stats.high_water() <= 2, "high water {}", stats.high_water());
        assert!(stats.loads() > 0);
        assert!(stats.evictions() > 0, "P=4 must swap partitions");

        let trainer = Trainer::new(&g, seq_cfg(ModelVariant::AdvSgm), 0).unwrap();
        assert_eq!(trainer.partitions(), 0);
        let stats = trainer.slot_stats();
        trainer.train(&g).unwrap();
        let counters = [
            stats.loads(),
            stats.evictions(),
            stats.high_water(),
            stats.resident(),
        ];
        assert_eq!(counters, [0; 4]);
    }

    /// Records every epoch event; optionally stops after `stop_after`.
    struct Recorder {
        events: Vec<EpochEvent>,
        stop_after: Option<usize>,
    }

    impl TrainHooks for Recorder {
        fn on_epoch(&mut self, event: &EpochEvent) -> SessionControl {
            self.events.push(event.clone());
            match self.stop_after {
                Some(k) if self.events.len() >= k => SessionControl::Stop,
                _ => SessionControl::Continue,
            }
        }
    }

    #[test]
    fn hooks_observe_every_epoch_with_spend() {
        let g = small_graph();
        let cfg = seq_cfg(ModelVariant::AdvSgm);
        let epochs = cfg.epochs;
        let mut rec = Recorder {
            events: Vec::new(),
            stop_after: None,
        };
        let out = Trainer::new(&g, cfg, 0)
            .unwrap()
            .train_with_hooks(&g, &mut rec)
            .unwrap();
        assert_eq!(rec.events.len(), epochs);
        for (i, e) in rec.events.iter().enumerate() {
            assert_eq!(e.epoch, i);
            assert_eq!(e.epochs_total, epochs);
            assert_eq!(e.loss, Some(out.epoch_losses[i]));
            let spend = e.spend.expect("private variant reports spend");
            assert!(spend.epsilon_spent > 0.0);
        }
        assert_eq!(rec.events.last().unwrap().stop, Some(StopReason::Completed));
        assert!(rec.events[..epochs - 1].iter().all(|e| e.stop.is_none()));
    }

    #[test]
    fn hooks_see_budget_stop_event() {
        let g = karate_club();
        let mut rec = Recorder {
            events: Vec::new(),
            stop_after: None,
        };
        let out = Trainer::new(&g, tight_budget(), 0)
            .unwrap()
            .train_with_hooks(&g, &mut rec)
            .unwrap();
        assert!(out.stopped_by_budget);
        let last = rec.events.last().unwrap();
        assert_eq!(last.stop, Some(StopReason::BudgetExhausted));
        assert_eq!(last.loss, None, "mid-epoch stop has no epoch loss");
    }

    #[test]
    fn hook_stop_ends_training_gracefully() {
        let g = small_graph();
        let mut cfg = seq_cfg(ModelVariant::AdvSgm);
        cfg.epochs = 5;
        let mut rec = Recorder {
            events: Vec::new(),
            stop_after: Some(2),
        };
        let out = Trainer::new(&g, cfg, 0)
            .unwrap()
            .train_with_hooks(&g, &mut rec)
            .unwrap();
        assert_eq!(out.epochs_run, 2);
        assert!(!out.stopped_by_budget);
        assert_eq!(out.epoch_losses.len(), 2);
    }
}
