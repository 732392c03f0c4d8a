//! The sharded engine's determinism contract (DESIGN.md §7), end-to-end:
//!
//! * `threads = N > 1` in RAM selects the sharded engine, which is
//!   run-to-run deterministic under a fixed seed;
//! * shard-reduction structure (threads, shard size) never changes what
//!   the privacy accountant records.

use advsgm::core::{AdvSgmConfig, ModelVariant, Trainer};
use advsgm::graph::generators::classic::karate_club;
use proptest::prelude::*;

fn bits_of(m: &advsgm::linalg::matrix::DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn sharded_matches_sequential() {
    let g = karate_club();
    for variant in ModelVariant::all() {
        let mut cfg = AdvSgmConfig::test_small(variant).with_threads(1);
        cfg.seed = 42;
        let seq = Trainer::fit(&g, cfg.clone()).unwrap();

        // threads = 4: a different (parallel) trajectory, but run-to-run
        // deterministic under the same seed, with the sequential spend.
        let par_cfg = cfg.with_threads(4);
        let a = Trainer::fit(&g, par_cfg.clone()).unwrap();
        let b = Trainer::fit(&g, par_cfg).unwrap();
        assert_eq!(
            bits_of(&a.node_vectors),
            bits_of(&b.node_vectors),
            "{variant}: threads=4 not run-to-run deterministic"
        );
        assert_eq!(a.disc_updates, b.disc_updates);
        assert_eq!(a.epoch_losses, b.epoch_losses);
        assert_eq!(seq.disc_updates, a.disc_updates, "{variant}");
        assert_eq!(seq.epsilon_spent, a.epsilon_spent, "{variant}");
        assert_eq!(seq.delta_spent, a.delta_spent, "{variant}");
    }
}

proptest! {
    /// Shard-reduction order is a pure execution detail: however the batch
    /// is cut (threads) and re-associated (shard_size), the accountant
    /// must record exactly the sequential engine's update count and spend.
    #[test]
    fn shard_reduction_never_changes_accounting(
        threads in 1usize..=4,
        shard_size in 0usize..=48,
        batch_size in 4usize..=32,
        seed in 0u64..1000,
    ) {
        let g = karate_club();
        let mut cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm).with_threads(1);
        cfg.batch_size = batch_size;
        cfg.seed = seed;
        let reference = Trainer::fit(&g, cfg.clone()).unwrap();
        let sharded = Trainer::fit(
            &g,
            cfg.with_threads(threads).with_shard_size(shard_size),
        )
        .unwrap();
        prop_assert_eq!(reference.disc_updates, sharded.disc_updates);
        prop_assert_eq!(reference.epochs_run, sharded.epochs_run);
        prop_assert_eq!(reference.stopped_by_budget, sharded.stopped_by_budget);
        // Identical (sigma, gamma) schedule => bitwise-equal spend.
        prop_assert_eq!(reference.epsilon_spent, sharded.epsilon_spent);
        prop_assert_eq!(reference.delta_spent, sharded.delta_spent);
    }
}
