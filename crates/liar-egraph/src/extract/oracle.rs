//! Whole-graph value-iteration references for the worklist extractors.
//!
//! These are the pass-based fixpoints the priority worklists replaced: every
//! pass re-evaluates *every* class until nothing changes, so they do
//! `passes × classes` work where the worklists do `O(changed)`. They survive
//! here — costs only, no selection bookkeeping — as an executable
//! specification: differential tests assert [`super::Extractor`] and
//! [`super::DagExtractor`] agree with them on every class (tree costs
//! bit-identical; DAG costs within float-summation tolerance, because the
//! worklist sums selected-set marginals in deterministic position order
//! while this reference sums a hash map).

// Only the differential tests call these, but the module compiles in every
// build so the intra-doc links pointing here resolve.
#![allow(dead_code)]

use std::collections::HashMap;

use super::CostFunction;
use crate::{Analysis, EGraph, Id, Language};

/// Best *tree* cost of every extractable class, by improving value
/// iteration (the pre-worklist `Extractor::fixpoint`). Passes are capped at
/// `#classes + 1`, enough for any acyclic dependency chain.
pub fn tree_costs<L: Language, A: Analysis<L>, C: CostFunction<L, A>>(
    egraph: &EGraph<L, A>,
    cost_fn: C,
) -> HashMap<Id, f64> {
    tree_costs_ref(egraph, &cost_fn)
}

fn tree_costs_ref<L: Language, A: Analysis<L>, C: CostFunction<L, A>>(
    egraph: &EGraph<L, A>,
    cost_fn: &C,
) -> HashMap<Id, f64> {
    let classes: Vec<_> = egraph.classes().collect();
    let mut costs: HashMap<Id, f64> = HashMap::new();
    for _ in 0..classes.len() + 1 {
        let mut changed = false;
        for class in &classes {
            let mut min = f64::INFINITY;
            for node in class.iter() {
                let known = node.all(|c| costs.contains_key(&egraph.find(c)));
                if !known {
                    continue;
                }
                let c = cost_fn.cost(egraph, node, &mut |id| costs[&egraph.find(id)]);
                min = min.min(c);
            }
            if min.is_finite() && costs.get(&class.id).is_none_or(|&cur| min < cur) {
                costs.insert(class.id, min);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    costs
}

/// Best greedy *DAG* cost of every extractable class, by the pre-worklist
/// selected-set pass fixpoint (the old `DagExtractor::fixpoint`): each
/// class tracks the set of classes its choice selects, each charged its
/// marginal against the tree-best costs once; passes repeat until no class
/// adopts a strictly cheaper set.
pub fn dag_costs<L: Language, A: Analysis<L>, C: CostFunction<L, A>>(
    egraph: &EGraph<L, A>,
    cost_fn: C,
) -> HashMap<Id, f64> {
    struct Choice {
        total: f64,
        set: HashMap<Id, f64>,
    }
    let tree = tree_costs_ref(egraph, &cost_fn);
    let marginal = |node: &L| -> f64 {
        let mut child_sum = 0.0;
        let mut all_known = true;
        node.for_each(|c| match tree.get(&egraph.find(c)) {
            Some(&c) => child_sum += c,
            None => all_known = false,
        });
        if !all_known {
            return f64::INFINITY;
        }
        let full = cost_fn.cost(egraph, node, &mut |id| tree[&egraph.find(id)]);
        full - child_sum
    };
    let classes: Vec<_> = egraph.classes().collect();
    let mut choices: HashMap<Id, Choice> = HashMap::new();
    for _ in 0..classes.len() + 1 {
        let mut changed = false;
        for class in &classes {
            let mut current = choices.get(&class.id).map(|c| c.total);
            'node: for node in class.iter() {
                let m = marginal(node);
                if !m.is_finite() {
                    continue;
                }
                let mut set: HashMap<Id, f64> = HashMap::new();
                set.insert(class.id, m);
                for &child in node.children() {
                    let child = egraph.find(child);
                    let Some(cc) = choices.get(&child) else {
                        continue 'node; // child has no choice yet
                    };
                    if cc.set.contains_key(&class.id) {
                        continue 'node; // selecting this node would be cyclic
                    }
                    for (&id, &cm) in &cc.set {
                        set.entry(id).or_insert(cm);
                    }
                }
                let total: f64 = set.values().sum();
                if current.is_none_or(|c| total < c) {
                    choices.insert(class.id, Choice { total, set });
                    current = Some(total);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    choices.into_iter().map(|(id, c)| (id, c.total)).collect()
}
