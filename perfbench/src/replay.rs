//! Layer replay for the training path: the discriminator's per-pair work
//! (Algorithm 3 with Theorem 6's gradient) and the generator iteration,
//! re-enacted through the layers' public functions on the workload's own
//! graph and configuration, with a span around each layer call.
//!
//! The replay follows the sequential engine's order of work: sample a
//! positive and a negative batch, draw the two shared noise vectors,
//! draw two fake neighbours per pair and centre them on the batch mean,
//! take the clipped per-pair gradient, sum gradients per touched row,
//! then add noise and step each row. Its RNG stream is the benchmark's,
//! so the values differ from a real run while the work is the same.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use advsgm::core::grad::{advsgm_augment, sgm_negative_grads, sgm_positive_grads};
use advsgm::core::model::{Embeddings, GeneratorPair};
use advsgm::core::sampler::{BatchProvider, DiscBatch};
use advsgm::core::{AdvSgmConfig, ModelVariant, SigmoidKind};
use advsgm::graph::Graph;
use advsgm::linalg::rng::{derive_seed, gaussian_fill, gaussian_vec, seeded};
use advsgm::linalg::{backend, vector};
use advsgm::privacy::RdpAccountant;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{deadline, err, ns, BenchResult};

/// Per-layer costs of the training path, as replayed.
#[derive(Debug)]
pub struct TrainLayers {
    pub sampler_iter_us: f64,
    pub fake_ns_per_pair: f64,
    pub gen_step_ms: f64,
    pub gaussian_draws_per_pair: f64,
    pub gaussian_ns: f64,
    pub grad_pair_ns: f64,
    pub accumulate_ns_per_pair: f64,
    pub rows_per_batch: f64,
    pub apply_ns_per_row: f64,
    pub accountant_record_us: f64,
    /// Replayed wall time of one discriminator iteration (positive plus
    /// negative batch, every layer above).
    pub disc_iter_s: f64,
}

impl TrainLayers {
    /// Replayed compute of one training run of `cfg` (without the release).
    pub fn run_compute_s(&self, cfg: &AdvSgmConfig) -> f64 {
        let epochs = cfg.epochs as f64;
        epochs
            * (cfg.disc_iters as f64 * self.disc_iter_s
                + cfg.gen_iters as f64 * self.gen_step_ms / 1e3)
    }

    pub fn emit(&self, out: &mut crate::common::Outcome) {
        out.set("sampler.iter_us", self.sampler_iter_us);
        out.set("generator.fake_ns_per_pair", self.fake_ns_per_pair);
        out.set("generator.step_ms", self.gen_step_ms);
        out.set("rng.gaussian_draws_per_pair", self.gaussian_draws_per_pair);
        out.set("rng.gaussian_ns", self.gaussian_ns);
        out.set("grad.pair_ns", self.grad_pair_ns);
        out.set(
            "session.accumulate_ns_per_pair",
            self.accumulate_ns_per_pair,
        );
        out.set("session.rows_per_batch", self.rows_per_batch);
        out.set("session.apply_ns_per_row", self.apply_ns_per_row);
        out.set("accountant.record_us", self.accountant_record_us);
    }
}

/// The activation the configuration trains with.
fn sigmoid_kind(cfg: &AdvSgmConfig) -> SigmoidKind {
    if cfg.variant.uses_constrained_sigmoid() {
        SigmoidKind::constrained(cfg.sigmoid_a, cfg.sigmoid_b)
    } else {
        SigmoidKind::Plain
    }
}

#[derive(Default)]
struct Spans {
    sampler: Duration,
    noise: Duration,
    fakes: Duration,
    grad: Duration,
    accumulate: Duration,
    apply: Duration,
    accountant: Duration,
    iters: u64,
    batches: u64,
    pairs: u64,
    rows: u64,
    records: u64,
    draws: u64,
}

type RowAcc = HashMap<usize, (Vec<f64>, usize)>;

struct State<'g> {
    graph: &'g Graph,
    cfg: &'g AdvSgmConfig,
    kind: SigmoidKind,
    rng: SmallRng,
    emb: Embeddings,
    gens: GeneratorPair,
}

/// Replays the training layers of `cfg` on `graph` for about `budget_s`
/// seconds (at least two iterations of each loop).
pub fn replay_training(
    graph: &Graph,
    cfg: &AdvSgmConfig,
    seed: u64,
    budget_s: f64,
) -> BenchResult<TrainLayers> {
    let mut rng = seeded(derive_seed(seed, 0x7e91));
    let emb = Embeddings::init(graph.num_nodes(), cfg.dim, &mut rng);
    let gens = GeneratorPair::new(graph.num_nodes(), cfg.dim, &mut rng);
    let mut st = State {
        graph,
        cfg,
        kind: sigmoid_kind(cfg),
        rng,
        emb,
        gens,
    };
    let mut provider = BatchProvider::new_for_variant(
        graph,
        cfg.batch_size,
        cfg.negatives,
        cfg.negative_distribution,
        cfg.variant,
    )
    .map_err(err("replay sampler"))?;
    let gammas = [provider.gamma_pos(), provider.gamma_neg()];
    let mut accountant = RdpAccountant::new();

    let mut s = Spans::default();
    let stop = deadline(budget_s * 0.6);
    while s.iters < 2 || Instant::now() < stop {
        let t = Instant::now();
        let (pos, neg) = provider
            .sample_disc_iteration(graph, &mut st.rng)
            .map_err(err("replay sample"))?;
        s.sampler += t.elapsed();
        for (batch, gamma) in [(&pos, gammas[0]), (&neg, gammas[1])] {
            disc_batch(&mut st, batch, &mut s);
            let t = Instant::now();
            accountant
                .record_subsampled_gaussian(cfg.sigma, gamma, 1)
                .map_err(err("replay accountant"))?;
            // An exhausted budget is an answer, not a failure, here.
            std::hint::black_box(accountant.check_budget(cfg.epsilon, cfg.delta).is_ok());
            s.accountant += t.elapsed();
            s.records += 1;
        }
        s.iters += 1;
    }

    let stop = deadline(budget_s * 0.3);
    let mut gen_time = Duration::ZERO;
    let mut gen_iters = 0u64;
    while gen_iters < 2 || Instant::now() < stop {
        let t = Instant::now();
        generator_iteration(&mut st);
        gen_time += t.elapsed();
        gen_iters += 1;
    }

    let gaussian_ns = time_gaussians(&mut st.rng, budget_s * 0.1);

    let pairs = s.pairs.max(1) as f64;
    let iter_total = s.sampler + s.noise + s.fakes + s.grad + s.accumulate + s.apply + s.accountant;
    Ok(TrainLayers {
        sampler_iter_us: ns(s.sampler) / 1e3 / s.iters as f64,
        fake_ns_per_pair: ns(s.fakes) / pairs,
        gen_step_ms: gen_time.as_secs_f64() * 1e3 / gen_iters as f64,
        gaussian_draws_per_pair: s.draws as f64 / pairs,
        gaussian_ns,
        grad_pair_ns: ns(s.grad) / pairs,
        accumulate_ns_per_pair: ns(s.accumulate) / pairs,
        rows_per_batch: s.rows as f64 / s.batches as f64,
        apply_ns_per_row: ns(s.apply) / s.rows.max(1) as f64,
        accountant_record_us: ns(s.accountant) / 1e3 / s.records as f64,
        disc_iter_s: iter_total.as_secs_f64() / s.iters as f64,
    })
}

fn disc_batch(st: &mut State<'_>, batch: &DiscBatch, s: &mut Spans) {
    let cfg = st.cfg;
    let r = cfg.dim;
    let count = batch.pairs.len();

    let t = Instant::now();
    let noise_std = cfg.clip * cfg.sigma / r as f64;
    let n_in = gaussian_vec(&mut st.rng, noise_std, r);
    let n_out = gaussian_vec(&mut st.rng, noise_std, r);
    s.noise += t.elapsed();
    s.draws += 2 * r as u64;

    let t = Instant::now();
    let mut fakes = Vec::with_capacity(count);
    let mut mean_j = vec![0.0; r];
    let mut mean_i = vec![0.0; r];
    for &(i, j) in &batch.pairs {
        let fj = st.gens.for_i.generate(j, &mut st.rng).v;
        let fi = st.gens.for_j.generate(i, &mut st.rng).v;
        vector::add_assign(&mut mean_j, &fj);
        vector::add_assign(&mut mean_i, &fi);
        fakes.push((fj, fi));
    }
    vector::scale(&mut mean_j, 1.0 / count as f64);
    vector::scale(&mut mean_i, 1.0 / count as f64);
    s.fakes += t.elapsed();
    s.draws += 2 * (r * count) as u64;

    let t = Instant::now();
    let mut grads = Vec::with_capacity(count);
    for (idx, &(i, j)) in batch.pairs.iter().enumerate() {
        let (vi, vj) = (st.emb.input(i), st.emb.output(j));
        let attract = batch.positive && !batch.foe(idx);
        let g = if attract {
            sgm_positive_grads(st.kind, vi, vj)
        } else {
            sgm_negative_grads(st.kind, vi, vj)
        };
        let (mut gi, mut gj) = (g.first, g.second);
        let (fj, fi) = &fakes[idx];
        advsgm_augment(&mut gi, &vector::sub(fj, &mean_j));
        advsgm_augment(&mut gj, &vector::sub(fi, &mean_i));
        vector::clip_l2(&mut gi, cfg.clip);
        vector::clip_l2(&mut gj, cfg.clip);
        grads.push((gi, gj));
    }
    s.grad += t.elapsed();

    let t = Instant::now();
    let mut acc_in: RowAcc = HashMap::new();
    let mut acc_out: RowAcc = HashMap::new();
    for (&(i, j), (gi, gj)) in batch.pairs.iter().zip(grads) {
        accumulate(&mut acc_in, i, gi);
        accumulate(&mut acc_out, j, gj);
    }
    s.accumulate += t.elapsed();
    s.rows += (acc_in.len() + acc_out.len()) as u64;

    let t = Instant::now();
    let project = cfg.project_rows && cfg.variant != ModelVariant::Sgm;
    for (acc, noise, input) in [(acc_in, &n_in, true), (acc_out, &n_out, false)] {
        let mut rows: Vec<(usize, (Vec<f64>, usize))> = acc.into_iter().collect();
        rows.sort_unstable_by_key(|&(row, _)| row);
        for (row, (mut g, c)) in rows {
            backend::fused_axpy_scale(&mut g, c as f64, noise, 1.0 / c as f64);
            if input {
                st.emb.step_input(row, cfg.eta_d, &g, project);
            } else {
                st.emb.step_output(row, cfg.eta_d, &g, project);
            }
        }
    }
    s.apply += t.elapsed();
    s.batches += 1;
    s.pairs += count as u64;
}

fn accumulate(acc: &mut RowAcc, row: usize, grad: Vec<f64>) {
    match acc.get_mut(&row) {
        Some((sum, c)) => {
            vector::add_assign(sum, &grad);
            *c += 1;
        }
        None => {
            acc.insert(row, (grad, 1));
        }
    }
}

/// One generator iteration (`n_G` step): `B (k + 1)` sampled edges, two
/// fakes each, scored against the real vectors plus shared noise, then a
/// descent step on both generators.
fn generator_iteration(st: &mut State<'_>) {
    let cfg = st.cfg;
    let r = cfg.dim;
    let noise_std = cfg.clip * cfg.sigma / r as f64;
    let ng1 = gaussian_vec(&mut st.rng, noise_std, r);
    let ng2 = gaussian_vec(&mut st.rng, noise_std, r);
    let mut grads_j: RowAcc = HashMap::new();
    let mut grads_i: RowAcc = HashMap::new();
    let edges = st.graph.edges();
    for _ in 0..cfg.batch_size * (cfg.negatives + 1) {
        let e = edges[st.rng.gen_range(0..edges.len())];
        let (a, b) = (e.u().index(), e.v().index());
        let (s_node, t_node) = if st.rng.gen::<bool>() { (a, b) } else { (b, a) };
        let vi = st.emb.input(s_node).to_vec();
        let vj = st.emb.output(t_node).to_vec();
        let f1 = st.gens.for_i.generate(t_node, &mut st.rng);
        let (x1, n1) = backend::dot2(&vi, &f1.v, &ng1);
        let up1 = vector::scaled(-st.kind.neg_log_one_minus_grad(x1 + n1), &vi);
        st.gens.for_i.accumulate_grad(&f1, &up1, &mut grads_j);
        let f2 = st.gens.for_j.generate(s_node, &mut st.rng);
        let (x2, n2) = backend::dot2(&vj, &f2.v, &ng2);
        let up2 = vector::scaled(-st.kind.neg_log_one_minus_grad(x2 + n2), &vj);
        st.gens.for_j.accumulate_grad(&f2, &up2, &mut grads_i);
    }
    st.gens.for_i.step(cfg.eta_g, &grads_j);
    st.gens.for_j.step(cfg.eta_g, &grads_i);
}

/// Nanoseconds per standard-normal draw from `linalg::rng`.
fn time_gaussians(rng: &mut SmallRng, budget_s: f64) -> f64 {
    let mut buf = vec![0.0; 4096];
    let stop = deadline(budget_s);
    let mut draws = 0u64;
    let t = Instant::now();
    while draws < (1 << 16) || Instant::now() < stop {
        gaussian_fill(rng, 1.0, &mut buf);
        std::hint::black_box(&buf);
        draws += buf.len() as u64;
    }
    ns(t.elapsed()) / draws as f64
}
