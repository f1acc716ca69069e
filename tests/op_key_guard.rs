//! Operator-key guard: two e-nodes that do not `matches` each other must
//! never share a [`Language::op_key`].
//!
//! The e-graph's operator index buckets classes by that 64-bit key, and
//! compiled patterns start from one bucket. The key contract only asks
//! that matching nodes share a key; a collision between two operators is
//! still sound, but it puts every class of one operator into the other's
//! bucket, and the VM then visits them for nothing. This wall pins that
//! no such collision happens on the real corpus. It is why `op_key` stays
//! on SipHash while the e-graph's own tables use FxHash: the hash tables
//! only need a good spread, but the key is compared whole.
//!
//! For all sixteen kernels saturated under the union ruleset of every
//! target, every node of every class, plus every node of every rule's
//! search pattern, is grouped by `op_key`. Within a group, all nodes must
//! match the group's first node.

use std::collections::HashMap;

use liar::core::rules::rules_for_targets;
use liar::core::{Liar, RuleConfig, Target};
use liar::egraph::{Language, PatternNode};
use liar::ir::ArrayLang;
use liar::kernels::Kernel;

/// Five steps at the node and match budgets of `snapshot_determinism.rs`'s
/// sweep: every kernel grows a non-trivial graph, about 13k nodes in all.
fn sweep_pipeline() -> Liar {
    Liar::new(Target::Blas)
        .with_iter_limit(5)
        .with_node_limit(20_000)
        .with_match_limit(2_000)
}

/// Record `node` under its key, failing if the key's first node does not
/// match it.
fn check(seen: &mut HashMap<u64, ArrayLang>, node: &ArrayLang, whence: &str) {
    let first = seen.entry(node.op_key()).or_insert_with(|| node.clone());
    assert!(
        first.matches(node) && node.matches(first),
        "{whence}: {} and {} share op_key {:#x}",
        first.display_op(),
        node.display_op(),
        node.op_key()
    );
}

#[test]
fn non_matching_nodes_never_share_an_op_key() {
    let mut seen: HashMap<u64, ArrayLang> = HashMap::new();
    for rule in rules_for_targets(&Target::ALL, &RuleConfig::default()) {
        let Some(pattern) = rule.searcher_pattern() else {
            continue;
        };
        for node in pattern.nodes() {
            if let PatternNode::ENode(node) = node {
                check(&mut seen, node, rule.name());
            }
        }
    }
    let mut nodes = 0;
    for kernel in Kernel::ALL {
        let (egraph, _) = sweep_pipeline().saturate_for_targets(&kernel.expr(8), &Target::ALL);
        for class in egraph.classes() {
            for node in class.iter() {
                check(&mut seen, node, kernel.name());
                nodes += 1;
            }
        }
    }
    // Enough distinct operators that a weak key would have collided:
    // every literal extent, constant, symbol and De Bruijn index is its
    // own key.
    assert!(nodes > 10_000, "only {nodes} nodes checked");
    assert!(seen.len() > 50, "only {} distinct operators", seen.len());
}
