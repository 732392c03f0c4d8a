//! The sequential trajectory's one [`Engine`], at every residency
//! (DESIGN.md §10, §14).
//!
//! One `SmallRng` (the continuation of the init stream) drives sampling,
//! fake-neighbor generation and noise draws in program order, so the
//! whole trajectory is a pure function of the seed. The discriminator
//! update implements Theorem 6 literally: per pair the released direction
//! is `clip(dL_sgm/dv + v')` and a per-batch noise vector
//! `N(0, (C sigma)^2 I)` rides along each summand (Eqs. 22–23), with the
//! per-row touch-count normalisation of DESIGN.md §5.
//!
//! The partition count `P` picks where the embedding rows live:
//!
//! * `P = 0` — in RAM: `core.emb` is read and written in place. There is
//!   no spill directory, no file I/O, no snapshot copy and no thread pool.
//! * `P >= 1` — out of core: at most **two** embedding partitions are in
//!   memory — one `W_in` bucket and one `W_out` bucket — swapped through
//!   a fixed-size slot pool that spills evicted partitions to disk.
//!
//! The released embeddings, epoch losses and privacy spend are bitwise
//! identical for every partition count and thread count, because every
//! step runs in three phases:
//!
//! 1. **Phase A (draw)** — all RNG-consuming work (batch sampling, fake
//!    neighbors, noise vectors) runs on the one stream in program order.
//!    Embedding *reads* consume no randomness, so deferring them cannot
//!    shift a draw.
//! 2. **Phase B (compute)** — each item's *pure* result is computed from
//!    the rows it reads. The items are grouped by the bucket pair they
//!    touch (sorted by `(bucket(i), bucket(j))`, i.e. the row-major
//!    bucket-pair schedule with empty pairs skipped) and each group
//!    acquires its two slots once; the results are chunk-invariant,
//!    so a thread pool may compute them. In RAM every node is in bucket 0,
//!    so a step is one group whose acquisition is a no-op.
//! 3. **Phase C (fold)** — the floating-point accumulations (per-row
//!    gradient sums, the loss fold) take the per-item results in original
//!    batch order, whatever the grouping.
//!
//! All embedding reads in a step see the pre-update state, and the final
//! apply updates each touched row exactly once with identical arithmetic
//! ([`step_row`]), so apply order across distinct rows is immaterial —
//! the ascending-row apply visits each bucket once.
//!
//! The generator tables and the graph's edge list stay RAM-resident: the
//! embedding matrices dominate the model's footprint (two dense
//! `n x r` matrices against the generators' two), and the scope of the
//! out-of-core residency is bounding *embedding* residency; see
//! DESIGN.md §14.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use advsgm_graph::{Graph, NodeBuckets};
use advsgm_linalg::rng::{gaussian_vec, rng_state};
use advsgm_linalg::{backend, vector, DenseMatrix};
use advsgm_parallel::ThreadPool;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::error::CoreError;
use crate::loss::{fold_novel_loss, negative_dot, positive_terms, PositiveTerms};
use crate::model::embeddings::step_row;
use crate::model::generator::FakeNeighbor;
use crate::model::Embeddings;
use crate::sampler::{BatchProvider, DiscBatch};
use crate::session::{
    accumulate, apply_noisy_updates, clipped_pair_grads, gradient_noise_std, Engine, EngineKind,
    EngineStreams, PairCtx, PairFakes, RowAcc, SessionCore,
};
use crate::sigmoid::SigmoidKind;
use crate::variants::ModelVariant;
use crate::weighting::WeightMode;

/// Distinguishes spill directories of concurrently-built engines within
/// one process (the process id distinguishes across processes).
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Which embedding matrix a slot holds a bucket of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A `W_in` (node-vector) bucket.
    In,
    /// A `W_out` (context-vector) bucket.
    Out,
}

impl Role {
    fn file_prefix(self) -> &'static str {
        match self {
            Role::In => "in",
            Role::Out => "out",
        }
    }
}

/// One resident embedding partition.
struct Slot {
    /// Which bucket the rows belong to.
    bucket: usize,
    /// The bucket's rows, row-major, `len_of(bucket) * dim` values.
    rows: Vec<f64>,
    /// Whether the rows have been written since loading (evicting a clean
    /// slot skips the spill write).
    dirty: bool,
}

/// Observability counters for the out-of-core two-slot pool.
///
/// Obtained *before* training consumes the trainer (the handle is
/// `Arc`-shared with the engine), so tests and callers can assert the
/// residency bound after the run:
/// [`SlotPoolStats::high_water`] never exceeds 2 — one `W_in` partition
/// plus one `W_out` partition. Every counter stays 0 in RAM.
#[derive(Debug, Default)]
pub struct SlotPoolStats {
    resident: AtomicUsize,
    high_water: AtomicUsize,
    loads: AtomicUsize,
    evictions: AtomicUsize,
}

impl SlotPoolStats {
    /// Partitions currently resident in the pool (0, 1, or 2).
    pub fn resident(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// The maximum number of simultaneously resident partitions observed
    /// so far — the memory bound; `<= 2` by construction.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Partition loads from the spill store (including the first load of
    /// each bucket).
    pub fn loads(&self) -> usize {
        self.loads.load(Ordering::Relaxed)
    }

    /// Partition evictions from the pool (clean or dirty).
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// The embedding matrices, bucketed by node range, with at most one
/// resident bucket per role — a two-slot pool by construction.
///
/// Evicted buckets live as raw little-endian `f64` files under a
/// process-unique temporary directory; the byte round-trip is exact, so
/// spilling cannot perturb the trajectory.
struct PartitionedEmbeddings {
    buckets: NodeBuckets,
    dim: usize,
    spill_dir: PathBuf,
    in_slot: Option<Slot>,
    out_slot: Option<Slot>,
    stats: Arc<SlotPoolStats>,
}

impl PartitionedEmbeddings {
    /// Spills every bucket of `emb` to disk and starts with both slots
    /// empty; `emb` is consumed (the full matrices stop existing in RAM).
    fn new(
        emb: Embeddings,
        buckets: NodeBuckets,
        stats: Arc<SlotPoolStats>,
    ) -> Result<Self, CoreError> {
        let dim = emb.dim();
        let spill_dir = std::env::temp_dir().join(format!(
            "advsgm-ooc-{}-{}",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&spill_dir)?;
        let this = Self {
            buckets,
            dim,
            spill_dir,
            in_slot: None,
            out_slot: None,
            stats,
        };
        for b in 0..buckets.count() {
            let range = this.buckets.range(b);
            this.write_spill(
                Role::In,
                b,
                &emb.w_in().as_slice()[range.start * dim..range.end * dim],
            )?;
            this.write_spill(
                Role::Out,
                b,
                &emb.w_out().as_slice()[range.start * dim..range.end * dim],
            )?;
        }
        Ok(this)
    }

    fn spill_path(&self, role: Role, bucket: usize) -> PathBuf {
        self.spill_dir
            .join(format!("{}-{bucket}.part", role.file_prefix()))
    }

    fn write_spill(&self, role: Role, bucket: usize, rows: &[f64]) -> Result<(), CoreError> {
        let mut bytes = Vec::with_capacity(rows.len() * 8);
        for v in rows {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        fs::write(self.spill_path(role, bucket), bytes)?;
        Ok(())
    }

    fn read_spill(&self, role: Role, bucket: usize) -> Result<Vec<f64>, CoreError> {
        let bytes = fs::read(self.spill_path(role, bucket))?;
        let expected = self.buckets.len_of(bucket) * self.dim * 8;
        if bytes.len() != expected {
            return Err(CoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "partition spill file for {}-{bucket} holds {} bytes, expected {expected}",
                    role.file_prefix(),
                    bytes.len()
                ),
            )));
        }
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    fn slot(&self, role: Role) -> &Option<Slot> {
        match role {
            Role::In => &self.in_slot,
            Role::Out => &self.out_slot,
        }
    }

    fn slot_mut(&mut self, role: Role) -> &mut Option<Slot> {
        match role {
            Role::In => &mut self.in_slot,
            Role::Out => &mut self.out_slot,
        }
    }

    /// Makes `bucket` resident in the role's slot: a no-op when already
    /// resident, otherwise evict (writing back only if dirty) and load.
    fn acquire(&mut self, role: Role, bucket: usize) -> Result<(), CoreError> {
        if let Some(s) = self.slot(role) {
            if s.bucket == bucket {
                return Ok(());
            }
        }
        if let Some(s) = self.slot_mut(role).take() {
            if s.dirty {
                self.write_spill(role, s.bucket, &s.rows)?;
            }
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            self.stats.resident.fetch_sub(1, Ordering::Relaxed);
        }
        let rows = self.read_spill(role, bucket)?;
        *self.slot_mut(role) = Some(Slot {
            bucket,
            rows,
            dirty: false,
        });
        self.stats.loads.fetch_add(1, Ordering::Relaxed);
        let resident = self.stats.resident.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.high_water.fetch_max(resident, Ordering::Relaxed);
        Ok(())
    }

    /// Read access to a row whose bucket is resident (acquire first).
    fn row(&self, role: Role, node: usize) -> &[f64] {
        let s = self
            .slot(role)
            .as_ref()
            .expect("slot not resident; acquire first");
        debug_assert_eq!(
            s.bucket,
            self.buckets.bucket_of(node),
            "wrong bucket resident"
        );
        let start = self.buckets.range(s.bucket).start;
        let off = (node - start) * self.dim;
        &s.rows[off..off + self.dim]
    }

    /// Write access to a row whose bucket is resident; marks the slot
    /// dirty so eviction writes it back.
    fn row_mut(&mut self, role: Role, node: usize) -> &mut [f64] {
        let dim = self.dim;
        let bucket = self.buckets.bucket_of(node);
        let start = self.buckets.range(bucket).start;
        let s = self
            .slot_mut(role)
            .as_mut()
            .expect("slot not resident; acquire first");
        debug_assert_eq!(s.bucket, bucket, "wrong bucket resident");
        s.dirty = true;
        let off = (node - start) * dim;
        &mut s.rows[off..off + dim]
    }

    /// Rebuilds the full matrices: resident slots are authoritative,
    /// everything else comes from the spill files. Leaves the pool and
    /// its counters untouched.
    fn snapshot(&self) -> Result<Embeddings, CoreError> {
        let n = self.buckets.num_nodes();
        let mut w_in = Vec::with_capacity(n * self.dim);
        let mut w_out = Vec::with_capacity(n * self.dim);
        for b in 0..self.buckets.count() {
            self.collect_bucket(Role::In, b, &mut w_in)?;
            self.collect_bucket(Role::Out, b, &mut w_out)?;
        }
        let w_in = DenseMatrix::from_vec(n, self.dim, w_in).expect("snapshot shape");
        let w_out = DenseMatrix::from_vec(n, self.dim, w_out).expect("snapshot shape");
        Ok(Embeddings::from_parts(w_in, w_out))
    }

    fn collect_bucket(
        &self,
        role: Role,
        bucket: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CoreError> {
        match self.slot(role) {
            Some(s) if s.bucket == bucket => out.extend_from_slice(&s.rows),
            _ => out.extend_from_slice(&self.read_spill(role, bucket)?),
        }
        Ok(())
    }
}

impl Drop for PartitionedEmbeddings {
    fn drop(&mut self) {
        // Best-effort cleanup; a leaked temp directory is not worth a panic.
        let _ = fs::remove_dir_all(&self.spill_dir);
    }
}

/// An empty placeholder for `core.emb` while the partitions own the data.
fn empty_embeddings() -> Embeddings {
    Embeddings::from_parts(DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, 0))
}

/// Where the engine's embedding rows live.
enum Residency {
    /// `P = 0`: `core.emb` is read and written in place. Acquisition is a
    /// no-op and nothing touches disk.
    InRam,
    /// `P >= 1`: the buckets swap through the two-slot pool.
    Spilled(Box<PartitionedEmbeddings>),
}

impl Residency {
    /// The bucket holding `node`'s rows; in RAM every node is in bucket 0.
    fn bucket_of(&self, node: usize) -> usize {
        match self {
            Residency::InRam => 0,
            Residency::Spilled(parts) => parts.buckets.bucket_of(node),
        }
    }

    /// Makes `bucket` of `role` readable and writable; a no-op in RAM.
    fn acquire(&mut self, role: Role, bucket: usize) -> Result<(), CoreError> {
        match self {
            Residency::InRam => Ok(()),
            Residency::Spilled(parts) => parts.acquire(role, bucket),
        }
    }

    /// Read access to the acquired rows; `emb` is `core.emb`.
    fn rows<'a>(&'a self, emb: &'a Embeddings) -> Rows<'a> {
        let parts = match self {
            Residency::InRam => None,
            Residency::Spilled(parts) => Some(&**parts),
        };
        Rows { emb, parts }
    }

    /// One descent step ([`step_row`]) on an acquired row of `role`.
    fn step(
        &mut self,
        emb: &mut Embeddings,
        role: Role,
        node: usize,
        eta: f64,
        grad: &[f64],
        project: bool,
    ) {
        match (self, role) {
            (Residency::InRam, Role::In) => emb.step_input(node, eta, grad, project),
            (Residency::InRam, Role::Out) => emb.step_output(node, eta, grad, project),
            (Residency::Spilled(parts), role) => {
                step_row(parts.row_mut(role, node), eta, grad, project)
            }
        }
    }
}

/// Read access to acquired rows: the slot pool out of core, `core.emb`
/// in RAM.
#[derive(Clone, Copy)]
struct Rows<'a> {
    emb: &'a Embeddings,
    parts: Option<&'a PartitionedEmbeddings>,
}

impl<'a> Rows<'a> {
    fn input(self, node: usize) -> &'a [f64] {
        match self.parts {
            Some(parts) => parts.row(Role::In, node),
            None => self.emb.input(node),
        }
    }

    fn output(self, node: usize) -> &'a [f64] {
        match self.parts {
            Some(parts) => parts.row(Role::Out, node),
            None => self.emb.output(node),
        }
    }
}

/// A generator sample's upstream gradient `c * v` (Eq. 17) for the real
/// row `v` it pairs with its fake, under the shared noise vector.
fn generator_upstream(kind: SigmoidKind, v: &[f64], fake: &[f64], noise: &[f64]) -> Vec<f64> {
    let (s_fake, s_noise) = backend::dot2(v, fake, noise);
    // d/ds [ln(1 - S(s))] = -S'/(1-S).
    let c = -kind.neg_log_one_minus_grad(s_fake + s_noise);
    vector::scaled(c, v)
}

/// The sequential trajectory's engine at every residency (module docs
/// have the phase structure and determinism argument).
pub(crate) struct SequentialEngine {
    /// Algorithm-2 batch provisioning.
    provider: BatchProvider,
    /// The one RNG stream: init-stream continuation, interleaving
    /// sampling, fakes and noise in program order.
    rng: SmallRng,
    /// The negative half of a sampled iteration, buffered between the two
    /// `next_batch` calls of one discriminator iteration (both batches are
    /// drawn together so the RNG order matches `sample_disc_iteration`).
    pending_neg: Option<DiscBatch>,
    residency: Residency,
    /// Worker pool for Phase-B computation; `None` runs serially.
    pool: Option<ThreadPool>,
    threads: usize,
}

impl SequentialEngine {
    /// Wraps the provider and the post-init (or restored) RNG stream.
    /// `partitions = 0` trains `core.emb` in place on one thread;
    /// `partitions >= 1` steals it into the slot pool (leaving an empty
    /// placeholder) and spills it to disk.
    pub(crate) fn new(
        core: &mut SessionCore,
        provider: BatchProvider,
        rng: SmallRng,
        partitions: usize,
        stats: Arc<SlotPoolStats>,
    ) -> Result<Self, CoreError> {
        let (residency, threads) = if partitions == 0 {
            (Residency::InRam, 1)
        } else {
            let buckets = NodeBuckets::new(core.emb.num_nodes(), partitions)?;
            let emb = std::mem::replace(&mut core.emb, empty_embeddings());
            let parts = PartitionedEmbeddings::new(emb, buckets, stats)?;
            (
                Residency::Spilled(Box::new(parts)),
                core.cfg.effective_threads(),
            )
        };
        let pool = (threads > 1).then(|| ThreadPool::new(threads));
        Ok(Self {
            provider,
            rng,
            pending_neg: None,
            residency,
            pool,
            threads,
        })
    }

    /// The number of node buckets `P`; 0 in RAM.
    pub(crate) fn partitions(&self) -> usize {
        match &self.residency {
            Residency::InRam => 0,
            Residency::Spilled(parts) => parts.buckets.count(),
        }
    }

    /// Drops the full-matrix copy a checkpoint's [`Engine::sync_core`]
    /// left in `core.emb`, restoring the two-partition residency bound.
    /// Out of core the slots and spill files remain authoritative
    /// throughout; in RAM `core.emb` is the model and stays.
    fn reclaim(&self, core: &mut SessionCore) {
        if matches!(self.residency, Residency::Spilled(_)) && core.emb.num_nodes() != 0 {
            core.emb = empty_embeddings();
        }
    }

    /// Phases B and C of a step over items `0..count`, where item `idx`
    /// reads the `W_in` and `W_out` rows of the nodes `reads(idx)` names.
    /// The items are grouped by those rows' buckets, in ascending bucket
    /// order (the row-major bucket schedule with empty groups skipped);
    /// per group the buckets are acquired and `f` computes each item's
    /// pure result from the resident rows, on the pool when there is one.
    /// `fold` receives every result in ascending item order, the step's
    /// fixed floating-point association; a result waits only while an
    /// earlier item is missing.
    fn compute_in_order<R: Send>(
        &mut self,
        emb: &Embeddings,
        count: usize,
        reads: impl Fn(usize) -> (Option<usize>, Option<usize>),
        f: impl Fn(Rows<'_>, usize) -> R + Sync,
        mut fold: impl FnMut(usize, R),
    ) -> Result<(), CoreError> {
        // Items sorted by the buckets they read, then by index: the
        // row-major bucket schedule, ascending items within each group.
        let res = &self.residency;
        let mut order: Vec<_> = (0..count)
            .map(|idx| {
                let (input, output) = reads(idx);
                let key = (
                    input.map(|n| res.bucket_of(n)),
                    output.map(|n| res.bucket_of(n)),
                );
                (key, idx)
            })
            .collect();
        order.sort_unstable();
        let mut pending: Vec<Option<R>> = (0..count).map(|_| None).collect();
        let mut next = 0;
        let mut sink = |idx: usize, r: R| {
            pending[idx] = Some(r);
            while let Some(r) = pending.get_mut(next).and_then(Option::take) {
                fold(next, r);
                next += 1;
            }
        };
        for group in order.chunk_by(|a, b| a.0 == b.0) {
            let (input, output) = group[0].0;
            if let Some(bucket) = input {
                self.residency.acquire(Role::In, bucket)?;
            }
            if let Some(bucket) = output {
                self.residency.acquire(Role::Out, bucket)?;
            }
            let rows = self.residency.rows(emb);
            match &mut self.pool {
                Some(pool) => {
                    // Results are independent of the chunking, so the
                    // thread count cannot change them.
                    let chunk_len = group.len().div_ceil(pool.threads()).max(1);
                    let chunks = pool.map_chunks(group, chunk_len, |_k, _offset, chunk| {
                        chunk
                            .iter()
                            .map(|&(_, idx)| f(rows, idx))
                            .collect::<Vec<R>>()
                    });
                    for (&(_, idx), r) in group.iter().zip(chunks.into_iter().flatten()) {
                        sink(idx, r);
                    }
                }
                None => {
                    for &(_, idx) in group {
                        sink(idx, f(rows, idx));
                    }
                }
            }
        }
        debug_assert!(pending.iter().all(Option::is_none), "every item folded");
        Ok(())
    }

    /// `|L_Nov|` under `mode` on one fresh batch, replayed through the
    /// order-fixed fold split of [`crate::loss`]: the epoch diagnostic,
    /// and the Fig. 2 harness's post-training evaluation.
    pub(crate) fn replay_loss(
        &mut self,
        core: &mut SessionCore,
        graph: &Graph,
        mode: WeightMode,
    ) -> Result<f64, CoreError> {
        self.reclaim(core);
        let (pos, pos_signs) = self.provider.positives_with_signs(graph, &mut self.rng)?;
        let negs = self.provider.negatives(&pos, &mut self.rng);
        let r = core.cfg.dim;
        let noise_std = gradient_noise_std(&core.cfg);
        let n1 = gaussian_vec(&mut self.rng, noise_std.max(0.0), r);
        let n2 = gaussian_vec(&mut self.rng, noise_std.max(0.0), r);

        // Phase A: fresh fakes per positive, in batch order.
        let mut fakes: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(pos.len());
        for e in &pos {
            let fake_j = core.gens.for_i.generate(e.v().index(), &mut self.rng).v;
            let fake_i = core.gens.for_j.generate(e.u().index(), &mut self.rng).v;
            fakes.push((fake_j, fake_i));
        }

        // Phases B and C: per-pair scalar terms grouped by bucket pair,
        // collected in batch order for the order-fixed fold.
        let mut terms: Vec<PositiveTerms> = Vec::with_capacity(pos.len());
        self.compute_in_order(
            &core.emb,
            pos.len(),
            |idx| (Some(pos[idx].u().index()), Some(pos[idx].v().index())),
            |rows, idx| {
                let e = &pos[idx];
                positive_terms(
                    rows.input(e.u().index()),
                    rows.output(e.v().index()),
                    &fakes[idx].0,
                    &fakes[idx].1,
                    &n1,
                    &n2,
                    pos_signs.get(idx).copied().unwrap_or(false),
                )
            },
            |_, t| terms.push(t),
        )?;
        let mut neg_dots: Vec<f64> = Vec::with_capacity(negs.len());
        self.compute_in_order(
            &core.emb,
            negs.len(),
            |idx| {
                (
                    Some(negs[idx].source.index()),
                    Some(negs[idx].negative.index()),
                )
            },
            |rows, idx| {
                let p = &negs[idx];
                negative_dot(
                    rows.input(p.source.index()),
                    rows.output(p.negative.index()),
                )
            },
            |_, d| neg_dots.push(d),
        )?;
        Ok(fold_novel_loss(core.kind, mode, &terms, &neg_dots).abs())
    }
}

impl Engine for SequentialEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Sequential
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn next_batch(&mut self, graph: &Graph) -> Result<DiscBatch, CoreError> {
        match self.pending_neg.take() {
            Some(neg) => Ok(neg),
            None => {
                let (pos, neg) = self.provider.sample_disc_iteration(graph, &mut self.rng)?;
                self.pending_neg = Some(neg);
                Ok(pos)
            }
        }
    }

    /// One discriminator update (Algorithm 3 line 8), replayed (module
    /// docs): fakes and noise in Phase A, clipped per-pair gradients per
    /// bucket pair in Phase B, pair-order accumulation in Phase C, then
    /// the tiled apply.
    fn disc_update(&mut self, core: &mut SessionCore, batch: &DiscBatch) -> Result<(), CoreError> {
        self.reclaim(core);
        let r = core.cfg.dim;
        let variant = core.cfg.variant;
        let clip = core.cfg.clip;
        // Per-batch shared noise vectors (Theorem 6's N_{D,1}, N_{D,2}).
        let noise_std = gradient_noise_std(&core.cfg);
        let n_in = gaussian_vec(&mut self.rng, noise_std, r);
        let n_out = gaussian_vec(&mut self.rng, noise_std, r);

        let count = batch.pairs.len();
        debug_assert!(count > 0, "empty batch");

        // Phase A: fake neighbors and batch means, in pair order on the
        // one stream. For AdvSGM the augment uses the *centered* fake
        // `v' - mean(v')` as a control variate, so the common component of
        // the generator output (which would drift every touched row
        // identically and crush the skip-gram signal inside the clip)
        // cancels, while the per-node structure the generator learned
        // passes through. Centering subtracts a pair-independent constant,
        // so Theorem 6's sensitivity/noise argument is unchanged.
        let adversarial = variant.is_adversarial();
        let mut fakes_j: Vec<Vec<f64>> = Vec::new();
        let mut fakes_i: Vec<Vec<f64>> = Vec::new();
        let mut mean_j = vec![0.0; r];
        let mut mean_i = vec![0.0; r];
        if adversarial {
            for &(i, j) in &batch.pairs {
                let fj = core.gens.for_i.generate(j, &mut self.rng).v;
                let fi = core.gens.for_j.generate(i, &mut self.rng).v;
                vector::add_assign(&mut mean_j, &fj);
                vector::add_assign(&mut mean_i, &fi);
                fakes_j.push(fj);
                fakes_i.push(fi);
            }
            vector::scale(&mut mean_j, 1.0 / count as f64);
            vector::scale(&mut mean_i, 1.0 / count as f64);
        }

        // Phase B: each pair's clipped gradients (pure, RNG-free), per
        // bucket pair; Phase C: per-row sums in original pair order — the
        // load-bearing floating-point association.
        let kind = core.kind;
        let mut acc_in: RowAcc = HashMap::new();
        let mut acc_out: RowAcc = HashMap::new();
        self.compute_in_order(
            &core.emb,
            count,
            |idx| {
                let (i, j) = batch.pairs[idx];
                (Some(i), Some(j))
            },
            |rows, idx| {
                let (i, j) = batch.pairs[idx];
                let pair_fakes = adversarial.then(|| PairFakes {
                    fake_j: &fakes_j[idx],
                    fake_i: &fakes_i[idx],
                    mean_j: &mean_j,
                    mean_i: &mean_i,
                });
                clipped_pair_grads(
                    kind,
                    variant,
                    clip,
                    PairCtx::of(batch, idx),
                    rows.input(i),
                    rows.output(j),
                    pair_fakes,
                )
            },
            |idx, (gi, gj)| {
                let (i, j) = batch.pairs[idx];
                accumulate(&mut acc_in, i, gi);
                accumulate(&mut acc_out, j, gj);
            },
        )?;

        // Apply the noisy updates with the per-row touch-count
        // normalisation (DESIGN.md §5). Rows arrive in ascending order,
        // hence grouped by ascending bucket, so each slot is acquired once;
        // every touched row is updated exactly once, and distinct-row
        // updates commute.
        let eta = core.cfg.eta_d;
        let project = core.cfg.project_rows && variant != ModelVariant::Sgm;
        for (role, acc, noise) in [(Role::In, acc_in, &n_in), (Role::Out, acc_out, &n_out)] {
            let (residency, emb) = (&mut self.residency, &mut core.emb);
            apply_noisy_updates(acc, noise, |node, g| {
                residency.acquire(role, residency.bucket_of(node))?;
                residency.step(emb, role, node, eta, g, project);
                Ok(())
            })?;
        }
        Ok(())
    }

    /// One generator iteration (Algorithm 3 lines 14–18, Eq. 17),
    /// replayed: sampling and fake generation in Phase A (per sample:
    /// edge, orientation, `f1`, `f2`), upstream gradients per single-role
    /// bucket group in Phase B, sample-order gradient accumulation in
    /// Phase C. No embedding is written.
    fn generator_update(&mut self, core: &mut SessionCore, graph: &Graph) -> Result<(), CoreError> {
        self.reclaim(core);
        let r = core.cfg.dim;
        let sample_count = core.cfg.batch_size * (core.cfg.negatives + 1);
        // Activation-input noise only exists in the full AdvSGM loss.
        let noise_std = gradient_noise_std(&core.cfg);
        let ng1 = gaussian_vec(&mut self.rng, noise_std, r);
        let ng2 = gaussian_vec(&mut self.rng, noise_std, r);
        let kind = core.kind;
        let mut grads_j: RowAcc = HashMap::new();
        let mut grads_i: RowAcc = HashMap::new();

        // Phase A. `f1` fakes a neighbor of the output-side node t (paired
        // with the real v_i), `f2` one of the input-side node s (with v_j).
        let edges = graph.edges();
        let mut ends: Vec<(usize, usize)> = Vec::with_capacity(sample_count);
        let mut f1s: Vec<FakeNeighbor> = Vec::with_capacity(sample_count);
        let mut f2s: Vec<FakeNeighbor> = Vec::with_capacity(sample_count);
        for _ in 0..sample_count {
            let e = edges[self.rng.gen_range(0..edges.len())];
            // Random orientation, matching the discriminator's convention.
            let (s, t) = if self.rng.gen::<bool>() {
                (e.u().index(), e.v().index())
            } else {
                (e.v().index(), e.u().index())
            };
            let f1 = core.gens.for_i.generate(t, &mut self.rng);
            let f2 = core.gens.for_j.generate(s, &mut self.rng);
            ends.push((s, t));
            f1s.push(f1);
            f2s.push(f2);
        }

        // Phases B and C: `up1` reads only W_in[s] and `up2` only W_out[t],
        // so each generator's gradients come from their own pass over
        // single-role bucket groups, accumulated in sample order.
        self.compute_in_order(
            &core.emb,
            ends.len(),
            |idx| (Some(ends[idx].0), None),
            |rows, idx| generator_upstream(kind, rows.input(ends[idx].0), &f1s[idx].v, &ng1),
            |idx, up| {
                core.gens
                    .for_i
                    .accumulate_grad(&f1s[idx], &up, &mut grads_j)
            },
        )?;
        drop(f1s);
        self.compute_in_order(
            &core.emb,
            ends.len(),
            |idx| (None, Some(ends[idx].1)),
            |rows, idx| generator_upstream(kind, rows.output(ends[idx].1), &f2s[idx].v, &ng2),
            |idx, up| {
                core.gens
                    .for_j
                    .accumulate_grad(&f2s[idx], &up, &mut grads_i)
            },
        )?;
        core.gens.for_i.step(core.cfg.eta_g, &grads_j);
        core.gens.for_j.step(core.cfg.eta_g, &grads_i);
        Ok(())
    }

    /// Per-epoch `|L_Nov|` diagnostic on one fresh batch.
    fn epoch_loss(&mut self, core: &mut SessionCore, graph: &Graph) -> Result<f64, CoreError> {
        let mode = if core.cfg.variant.is_adversarial() {
            WeightMode::InverseS
        } else {
            WeightMode::Fixed(0.0)
        };
        self.replay_loss(core, graph, mode)
    }

    fn sync_core(&mut self, core: &mut SessionCore) -> Result<(), CoreError> {
        if let Residency::Spilled(parts) = &self.residency {
            core.emb = parts.snapshot()?;
        }
        Ok(())
    }

    fn streams(&self) -> EngineStreams {
        debug_assert!(
            self.pending_neg.is_none(),
            "checkpoint capture mid-iteration"
        );
        EngineStreams {
            rngs: vec![rng_state(&self.rng)],
            edge_permutation: self.provider.edge_permutation().to_vec(),
        }
    }
}
