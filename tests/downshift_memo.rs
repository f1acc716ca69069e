//! Downshift memo wall: the array analysis memoizes `(class, k)`
//! downshifts per e-graph state, and every shift-pattern idiom binds its
//! variables through them. A stale entry would bind a term the class no
//! longer prefers, or none at all, while the VM ≡ oracle walls stay green
//! (both matchers read the same memo). So this wall compares against an
//! independent source: [`restore`] of the graph's snapshot, whose memo is
//! cold.
//!
//! For all sixteen kernels saturated under the union ruleset of every
//! target, each class downshifted by `k ∈ {1, 2, 3}` must give the same
//! answer on the warm graph (asked twice: the first ask follows the
//! saturation's last rebuild, the second is a memo hit) as on the cold
//! restored copy.
//!
//! [`restore`]: liar::ir::ArrayEGraph::restore

use liar::core::{Liar, Target};
use liar::egraph::Analysis;
use liar::ir::{ArrayAnalysis, ArrayEGraph};
use liar::kernels::Kernel;

/// The full-corpus sweep budgets of `snapshot_determinism.rs`: enough
/// rewriting that every kernel grows a non-trivial graph.
fn sweep_pipeline() -> Liar {
    Liar::new(Target::Blas)
        .with_iter_limit(3)
        .with_node_limit(20_000)
        .with_match_limit(2_000)
}

#[test]
fn warm_memo_equals_cold_restore_on_every_kernel() {
    for kernel in Kernel::ALL {
        let (warm, _) = sweep_pipeline().saturate_for_targets(&kernel.expr(8), &Target::ALL);
        let bytes = warm.snapshot().expect("saturated graphs are clean");
        let cold = ArrayEGraph::restore(ArrayAnalysis::default(), &bytes).expect("restores");
        let mut shiftable = 0;
        for class in warm.class_ids() {
            for k in 1..=3 {
                let first = ArrayAnalysis::downshift(&warm, class, k);
                let second = ArrayAnalysis::downshift(&warm, class, k);
                let expect = ArrayAnalysis::downshift(&cold, class, k);
                assert_eq!(first, expect, "{kernel}: class {class}, k = {k}");
                assert_eq!(
                    second, expect,
                    "{kernel}: class {class}, k = {k} (memo hit)"
                );
                shiftable += usize::from(expect.is_some());
            }
        }
        assert!(shiftable > 0, "{kernel}: no class downshifts");
    }
}
