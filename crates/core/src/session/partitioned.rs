//! The partitioned [`Engine`]: out-of-core execution (DESIGN.md §14).
//!
//! Executes the same Algorithm-3 steps as the sequential engine while
//! keeping at most **two** embedding partitions in memory — one `W_in`
//! bucket and one `W_out` bucket — swapped through a fixed-size slot pool
//! that spills evicted partitions to disk. The headline contract is
//! *bitwise identity*: at a fixed seed the released embeddings, epoch
//! losses, and privacy spend are identical to the sequential trainer's
//! for every partition count and thread count.
//!
//! That identity holds because every step is a *replay* of the sequential
//! step, split into three phases:
//!
//! 1. **Phase A (draw)** — all RNG-consuming work (batch sampling, fake
//!    neighbors, noise vectors) runs on the single sequential stream in
//!    the sequential engine's exact program order. Embedding *reads*
//!    consume no randomness, so deferring them cannot shift a draw.
//! 2. **Phase B (compute)** — per-pair work is grouped by the bucket
//!    pair it touches (a `BTreeMap` keyed by `(bucket(i), bucket(j))`,
//!    i.e. the row-major bucket-pair schedule with empty pairs skipped);
//!    each group acquires its two slots once and computes *pure* per-item
//!    results, stored back at the item's original batch index. The
//!    results are chunk-invariant, so a thread pool may compute them.
//! 3. **Phase C (fold)** — the floating-point accumulations (per-row
//!    gradient sums, the loss fold) run over the per-item results in
//!    original batch order — exactly the association the sequential
//!    engine uses.
//!
//! All embedding reads in a step see the pre-update snapshot (the
//! sequential engine also reads everything before writing anything), and
//! the final apply updates each touched row exactly once with identical
//! arithmetic ([`step_row`]), so apply order across distinct rows is
//! immaterial — grouping the applies by bucket is free.
//!
//! The generator tables and the graph's edge list stay RAM-resident: the
//! embedding matrices dominate the model's footprint (two dense
//! `n x r` matrices against the generators' two), and the scope of this
//! engine is bounding *embedding* residency; see DESIGN.md §14.

use std::collections::{BTreeMap, HashMap};
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
    accumulate, clipped_pair_grads, gradient_noise_std, Engine, EngineKind, EngineStreams, PairCtx,
    PairFakes, RowAcc, SessionCore,
};
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

/// Observability counters for the partitioned engine's two-slot pool.
///
/// Obtained *before* training consumes the trainer (the handle is
/// `Arc`-shared with the engine), so tests and callers can assert the
/// residency bound after the run:
/// [`SlotPoolStats::high_water`] never exceeds 2 — one `W_in` partition
/// plus one `W_out` partition. Every counter stays 0 for the in-RAM
/// engines.
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

    fn in_row(&self, node: usize) -> &[f64] {
        self.row(Role::In, node)
    }

    fn out_row(&self, node: usize) -> &[f64] {
        self.row(Role::Out, node)
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

/// Maps `f` over `items`, preserving order; uses the pool when present.
/// Results are independent of the chunking, so thread count cannot change
/// them.
fn map_indexed<T, R>(
    pool: &mut Option<ThreadPool>,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    match pool {
        Some(p) => {
            let chunk_len = items.len().div_ceil(p.threads()).max(1);
            p.map_chunks(items, chunk_len, |_k, offset, chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, item)| f(offset + i, item))
                    .collect::<Vec<R>>()
            })
            .into_iter()
            .flatten()
            .collect()
        }
        None => items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect(),
    }
}

/// Out-of-core step execution replaying the sequential trajectory
/// (module docs have the phase structure and determinism argument).
pub(crate) struct PartitionedEngine {
    /// Algorithm-2 batch provisioning, identical to the sequential engine's.
    provider: BatchProvider,
    /// The one RNG stream, in the sequential engine's draw order.
    rng: SmallRng,
    /// The negative half of a sampled iteration, buffered between the two
    /// `next_batch` calls of one discriminator iteration.
    pending_neg: Option<DiscBatch>,
    /// The bucketed embeddings behind the two-slot pool.
    parts: PartitionedEmbeddings,
    /// Worker pool for Phase-B computation; `None` runs serially.
    pool: Option<ThreadPool>,
    threads: usize,
}

impl PartitionedEngine {
    /// Steals `core.emb` into the slot pool (leaving an empty placeholder)
    /// and wraps the provider plus the post-init RNG stream.
    pub(crate) fn new(
        core: &mut SessionCore,
        provider: BatchProvider,
        rng: SmallRng,
        partitions: usize,
        stats: Arc<SlotPoolStats>,
    ) -> Result<Self, CoreError> {
        let threads = core.cfg.effective_threads();
        let buckets = NodeBuckets::new(core.emb.num_nodes(), partitions)?;
        let emb = std::mem::replace(&mut core.emb, empty_embeddings());
        let parts = PartitionedEmbeddings::new(emb, buckets, stats)?;
        let pool = (threads > 1).then(|| ThreadPool::new(threads));
        Ok(Self {
            provider,
            rng,
            pending_neg: None,
            parts,
            pool,
            threads,
        })
    }

    /// The number of node buckets `P`.
    pub(crate) fn partitions(&self) -> usize {
        self.parts.buckets.count()
    }

    /// Drops the full-matrix copy a checkpoint's [`Engine::sync_core`]
    /// left in `core.emb`, restoring the two-partition residency bound.
    /// The slots and spill files remain authoritative throughout.
    fn reclaim(core: &mut SessionCore) {
        if core.emb.num_nodes() != 0 {
            core.emb = empty_embeddings();
        }
    }
}

impl Engine for PartitionedEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Partitioned
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

    /// One discriminator update, replayed (module docs): fakes and noise
    /// in Phase A, clipped per-pair gradients per bucket pair in Phase B,
    /// pair-order accumulation in Phase C, per-bucket apply.
    fn disc_update(&mut self, core: &mut SessionCore, batch: &DiscBatch) -> Result<(), CoreError> {
        Self::reclaim(core);
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
        // one stream — exactly the sequential engine's draw sequence.
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

        // Phase B: group pairs by the bucket pair they read, acquire the
        // two slots per group, and compute each pair's clipped gradients
        // (pure, RNG-free) back into its original index.
        let buckets = self.parts.buckets;
        let mut groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for (idx, &(i, j)) in batch.pairs.iter().enumerate() {
            groups
                .entry((buckets.bucket_of(i), buckets.bucket_of(j)))
                .or_default()
                .push(idx);
        }
        let kind = core.kind;
        let mut grads: Vec<Option<(Vec<f64>, Vec<f64>)>> = vec![None; count];
        for (&(bi, bj), idxs) in &groups {
            self.parts.acquire(Role::In, bi)?;
            self.parts.acquire(Role::Out, bj)?;
            let parts = &self.parts;
            let pairs = &batch.pairs;
            let (fakes_j, fakes_i) = (&fakes_j, &fakes_i);
            let (mean_j, mean_i) = (&mean_j, &mean_i);
            let computed = map_indexed(&mut self.pool, idxs, |_pos, &idx| {
                let (i, j) = pairs[idx];
                let pair_fakes = adversarial.then(|| PairFakes {
                    fake_j: &fakes_j[idx],
                    fake_i: &fakes_i[idx],
                    mean_j,
                    mean_i,
                });
                clipped_pair_grads(
                    kind,
                    variant,
                    clip,
                    PairCtx::of(batch, idx),
                    parts.in_row(i),
                    parts.out_row(j),
                    pair_fakes,
                )
            });
            for (&idx, g) in idxs.iter().zip(computed) {
                grads[idx] = Some(g);
            }
        }

        // Phase C: accumulate per-row sums in original pair order — the
        // sequential engine's exact floating-point association.
        let mut acc_in: RowAcc = HashMap::new();
        let mut acc_out: RowAcc = HashMap::new();
        for (idx, &(i, j)) in batch.pairs.iter().enumerate() {
            let (gi, gj) = grads[idx].take().expect("every pair computed");
            accumulate(&mut acc_in, i, gi);
            accumulate(&mut acc_out, j, gj);
        }

        // Apply, grouped by bucket so each slot is acquired once. Every
        // touched row is updated exactly once with the sequential
        // arithmetic, and distinct-row updates commute, so this ordering
        // is bitwise-equivalent to the sequential apply.
        let eta = core.cfg.eta_d;
        let project = core.cfg.project_rows && variant != ModelVariant::Sgm;
        type BucketRows = BTreeMap<usize, Vec<(usize, (Vec<f64>, usize))>>;
        for (role, acc, noise) in [(Role::In, acc_in, &n_in), (Role::Out, acc_out, &n_out)] {
            let mut by_bucket: BucketRows = BTreeMap::new();
            for (node, entry) in acc {
                by_bucket
                    .entry(buckets.bucket_of(node))
                    .or_default()
                    .push((node, entry));
            }
            for (b, mut rows) in by_bucket {
                self.parts.acquire(role, b)?;
                // Ascending row order within the bucket (DESIGN.md §15):
                // the resident slot is walked mostly sequentially. Rows
                // are distinct, so order across them is bitwise-neutral.
                rows.sort_unstable_by_key(|&(node, _)| node);
                for (node, (mut g, c)) in rows {
                    backend::fused_axpy_scale(&mut g, c as f64, noise, 1.0 / c as f64);
                    step_row(self.parts.row_mut(role, node), eta, &g, project);
                }
            }
        }
        Ok(())
    }

    /// One generator iteration, replayed: sampling and fake generation in
    /// Phase A (per sample: edge, orientation, `f1`, `f2` — the
    /// sequential order, since nothing between them draws), embedding
    /// gathers per single-role bucket group in Phase B, sample-order
    /// gradient accumulation in Phase C. No embedding is written.
    fn generator_update(&mut self, core: &mut SessionCore, graph: &Graph) -> Result<(), CoreError> {
        Self::reclaim(core);
        let r = core.cfg.dim;
        let sample_count = core.cfg.batch_size * (core.cfg.negatives + 1);
        let noise_std = gradient_noise_std(&core.cfg);
        let ng1 = gaussian_vec(&mut self.rng, noise_std, r);
        let ng2 = gaussian_vec(&mut self.rng, noise_std, r);

        // Phase A.
        let edges = graph.edges();
        let mut samples: Vec<(usize, usize, FakeNeighbor, FakeNeighbor)> =
            Vec::with_capacity(sample_count);
        for _ in 0..sample_count {
            let e = edges[self.rng.gen_range(0..edges.len())];
            let (s, t) = if self.rng.gen::<bool>() {
                (e.u().index(), e.v().index())
            } else {
                (e.v().index(), e.u().index())
            };
            let f1 = core.gens.for_i.generate(t, &mut self.rng);
            let f2 = core.gens.for_j.generate(s, &mut self.rng);
            samples.push((s, t, f1, f2));
        }

        // Phase B: gather the embedding rows each sample reads, one
        // single-role bucket group at a time (v_i needs W_in[s], v_j
        // needs W_out[t]; a sample's two reads live in unrelated buckets,
        // so they are gathered in separate passes).
        let buckets = self.parts.buckets;
        let mut vi: Vec<Vec<f64>> = vec![Vec::new(); sample_count];
        let mut vj: Vec<Vec<f64>> = vec![Vec::new(); sample_count];
        let mut by_s: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut by_t: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (idx, &(s, t, _, _)) in samples.iter().enumerate() {
            by_s.entry(buckets.bucket_of(s)).or_default().push(idx);
            by_t.entry(buckets.bucket_of(t)).or_default().push(idx);
        }
        for (&b, idxs) in &by_s {
            self.parts.acquire(Role::In, b)?;
            for &idx in idxs {
                vi[idx] = self.parts.in_row(samples[idx].0).to_vec();
            }
        }
        for (&b, idxs) in &by_t {
            self.parts.acquire(Role::Out, b)?;
            for &idx in idxs {
                vj[idx] = self.parts.out_row(samples[idx].1).to_vec();
            }
        }

        // Phase B continued: per-sample upstream gradients (pure).
        let kind = core.kind;
        let (vi, vj) = (&vi, &vj);
        let (ng1, ng2) = (&ng1, &ng2);
        let ups = map_indexed(&mut self.pool, &samples, |idx, (_s, _t, f1, f2)| {
            let (s1_fake, s1_noise) = backend::dot2(&vi[idx], &f1.v, ng1);
            let s1 = s1_fake + s1_noise;
            let c1 = -kind.neg_log_one_minus_grad(s1);
            let up1 = vector::scaled(c1, &vi[idx]);
            let (s2_fake, s2_noise) = backend::dot2(&vj[idx], &f2.v, ng2);
            let s2 = s2_fake + s2_noise;
            let c2 = -kind.neg_log_one_minus_grad(s2);
            let up2 = vector::scaled(c2, &vj[idx]);
            (up1, up2)
        });

        // Phase C: accumulate generator gradients in sample order.
        let mut grads_j: RowAcc = HashMap::new();
        let mut grads_i: RowAcc = HashMap::new();
        for (idx, (_s, _t, f1, f2)) in samples.iter().enumerate() {
            core.gens
                .for_i
                .accumulate_grad(f1, &ups[idx].0, &mut grads_j);
            core.gens
                .for_j
                .accumulate_grad(f2, &ups[idx].1, &mut grads_i);
        }
        core.gens.for_i.step(core.cfg.eta_g, &grads_j);
        core.gens.for_j.step(core.cfg.eta_g, &grads_i);
        Ok(())
    }

    /// Per-epoch `|L_Nov|` on one fresh batch, replayed through the
    /// order-fixed fold split of [`crate::loss`].
    fn epoch_loss(&mut self, core: &mut SessionCore, graph: &Graph) -> Result<f64, CoreError> {
        Self::reclaim(core);
        let (pos, pos_signs) = self.provider.positives_with_signs(graph, &mut self.rng)?;
        let negs = self.provider.negatives(&pos, &mut self.rng);
        let mode = if core.cfg.variant.is_adversarial() {
            WeightMode::InverseS
        } else {
            WeightMode::Fixed(0.0)
        };
        // Same panic point as `novel_loss_batch`, before any draw.
        assert!(!pos.is_empty(), "need at least one positive pair");
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

        // Phase B: per-pair scalar terms, grouped by bucket pair.
        let buckets = self.parts.buckets;
        let mut pos_groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for (idx, e) in pos.iter().enumerate() {
            pos_groups
                .entry((
                    buckets.bucket_of(e.u().index()),
                    buckets.bucket_of(e.v().index()),
                ))
                .or_default()
                .push(idx);
        }
        let mut terms: Vec<Option<PositiveTerms>> = vec![None; pos.len()];
        for (&(bu, bv), idxs) in &pos_groups {
            self.parts.acquire(Role::In, bu)?;
            self.parts.acquire(Role::Out, bv)?;
            let parts = &self.parts;
            let (pos, fakes) = (&pos, &fakes);
            let (n1, n2) = (&n1, &n2);
            let pos_signs = &pos_signs;
            let computed = map_indexed(&mut self.pool, idxs, |_pos, &idx| {
                let e = &pos[idx];
                positive_terms(
                    parts.in_row(e.u().index()),
                    parts.out_row(e.v().index()),
                    &fakes[idx].0,
                    &fakes[idx].1,
                    n1,
                    n2,
                    pos_signs.get(idx).copied().unwrap_or(false),
                )
            });
            for (&idx, t) in idxs.iter().zip(computed) {
                terms[idx] = Some(t);
            }
        }
        let mut neg_groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for (idx, p) in negs.iter().enumerate() {
            neg_groups
                .entry((
                    buckets.bucket_of(p.source.index()),
                    buckets.bucket_of(p.negative.index()),
                ))
                .or_default()
                .push(idx);
        }
        let mut neg_dots: Vec<f64> = vec![0.0; negs.len()];
        for (&(bs, bn), idxs) in &neg_groups {
            self.parts.acquire(Role::In, bs)?;
            self.parts.acquire(Role::Out, bn)?;
            for &idx in idxs {
                let p = &negs[idx];
                neg_dots[idx] = negative_dot(
                    self.parts.in_row(p.source.index()),
                    self.parts.out_row(p.negative.index()),
                );
            }
        }

        // Phase C: the order-fixed fold.
        let terms: Vec<PositiveTerms> = terms
            .into_iter()
            .map(|t| t.expect("every positive computed"))
            .collect();
        Ok(fold_novel_loss(core.kind, mode, &terms, &neg_dots).abs())
    }

    fn sync_core(&mut self, core: &mut SessionCore) -> Result<(), CoreError> {
        core.emb = self.parts.snapshot()?;
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
