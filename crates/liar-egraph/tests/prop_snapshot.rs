//! Randomized snapshot checks: on seeded evolving e-graphs (random terms,
//! then rounds of adds and unions with rebuilds collapsing classes), a
//! snapshot → restore round trip must reproduce the canonical e-class
//! tables exactly, give the compiled e-matching VM the same match stream,
//! and re-snapshot to the very same bytes.
//!
//! The generator is a seeded splitmix64 (the construction the kernel-input
//! generator and the IR round-trip test use). Every case derives its own
//! seed, and a failure names that seed and the case index, so one case
//! reproduces on its own.

use std::collections::BTreeMap;

use liar_egraph::{EGraph, Id, Language, RecExpr, Rewrite, SymbolLang};

type EG = EGraph<SymbolLang, ()>;

/// Cases per sweep.
const CASES: u64 = 256;

/// Base seed of the sweeps; case `i` runs on `BASE_SEED + i`.
const BASE_SEED: u64 = 0x5a9_2024;

/// splitmix64 (Steele et al., OOPSLA 2014).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A length in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }
}

/// A random term over `a`, `b`, `c`, unary `g` and binary `f`, at most
/// `depth` operators deep.
fn random_term(rng: &mut Rng, depth: usize) -> RecExpr<SymbolLang> {
    fn go(rng: &mut Rng, depth: usize, expr: &mut RecExpr<SymbolLang>) -> Id {
        match if depth == 0 { 0 } else { rng.below(3) } {
            0 => expr.add(SymbolLang::leaf(["a", "b", "c"][rng.below(3)])),
            1 => {
                let x = go(rng, depth - 1, expr);
                expr.add(SymbolLang::new("g", vec![x]))
            }
            _ => {
                let x = go(rng, depth - 1, expr);
                let y = go(rng, depth - 1, expr);
                expr.add(SymbolLang::new("f", vec![x, y]))
            }
        }
    }
    let mut expr = RecExpr::default();
    go(rng, depth, &mut expr);
    expr
}

/// Patterns the behavioral check e-matches with (identity right-hand
/// sides — only the searcher matters).
fn rule_pool() -> Vec<Rewrite<SymbolLang, ()>> {
    [
        "(f ?x ?y)",
        "(g ?x)",
        "(f ?x ?x)",
        "(f (g ?x) ?y)",
        "(g (g ?x))",
    ]
    .iter()
    .enumerate()
    .map(|(i, p)| Rewrite::from_patterns(format!("r{i}"), p, p))
    .collect()
}

/// The canonical e-class table: canonical class id → sorted canonicalized
/// nodes. Two e-graphs with equal tables are indistinguishable to
/// e-matching and extraction.
fn class_table(eg: &EG) -> BTreeMap<Id, Vec<(String, Vec<Id>)>> {
    let mut table: BTreeMap<Id, Vec<(String, Vec<Id>)>> = BTreeMap::new();
    for class in eg.classes() {
        let mut nodes: Vec<(String, Vec<Id>)> = class
            .nodes
            .iter()
            .map(|n| {
                (
                    n.op.clone(),
                    n.children().iter().map(|&c| eg.find(c)).collect(),
                )
            })
            .collect();
        nodes.sort();
        nodes.dedup();
        table.insert(eg.find(class.id), nodes);
    }
    table
}

/// A random evolved e-graph and the roots it was built from: 2–5 seed
/// terms, then 1–4 rounds of up to two adds and up to three unions, each
/// round closed by a rebuild. Odd cases record explanations, so the
/// snapshot carries the explanation forest too.
fn build(rng: &mut Rng, explain: bool) -> (EG, Vec<Id>) {
    let mut eg = EG::default();
    if explain {
        eg = eg.with_explanations_enabled();
    }
    let mut roots: Vec<Id> = (0..rng.range(2, 6))
        .map(|_| {
            let depth = rng.range(1, 5);
            eg.add_expr(&random_term(rng, depth))
        })
        .collect();
    eg.rebuild();
    for _ in 0..rng.range(1, 5) {
        for _ in 0..rng.below(3) {
            let depth = rng.range(1, 4);
            roots.push(eg.add_expr(&random_term(rng, depth)));
        }
        for _ in 0..rng.below(4) {
            let a = roots[rng.below(roots.len())];
            let b = roots[rng.below(roots.len())];
            eg.union(a, b);
        }
        eg.rebuild();
    }
    (eg, roots)
}

/// Run `check` on every case of the sweep with its own generator.
fn sweep(check: impl Fn(&mut Rng, bool) -> Result<(), String>) {
    for case in 0..CASES {
        let seed = BASE_SEED + case;
        if let Err(msg) = check(&mut Rng(seed), case % 2 == 1) {
            panic!("case {case} (seed {seed:#x}): {msg}");
        }
    }
}

/// Fail with `what` unless `a == b`.
fn same<T: PartialEq + std::fmt::Debug>(a: T, b: T, what: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:?} != {b:?}"))
    }
}

/// Fail with `what` unless two snapshots are byte-identical, naming the
/// first differing offset rather than dumping both.
fn same_bytes(a: &[u8], b: &[u8], what: &str) -> Result<(), String> {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        None if a.len() == b.len() => Ok(()),
        Some(at) => Err(format!("{what}: bytes differ at offset {at}")),
        None => Err(format!("{what}: {} bytes vs {}", a.len(), b.len())),
    }
}

/// Snapshot → restore reproduces the canonical class tables, the roots'
/// canonical ids (stable across one further `rebuild()`), and the
/// compiled VM's whole-graph match stream for every pattern in the pool.
#[test]
fn restore_round_trips_canonical_class_tables() {
    sweep(|rng, explain| {
        let (eg, roots) = build(rng, explain);
        let bytes = eg.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        let mut restored = EG::restore((), &bytes).map_err(|e| format!("restore: {e}"))?;

        same(restored.num_nodes(), eg.num_nodes(), "node count")?;
        same(restored.num_classes(), eg.num_classes(), "class count")?;
        same(class_table(&restored), class_table(&eg), "class table")?;
        for &root in &roots {
            same(restored.find(root), eg.find(root), "root id")?;
        }
        // A restored graph is clean: one more rebuild must change nothing.
        restored.rebuild();
        same(
            class_table(&restored),
            class_table(&eg),
            "class table after rebuild",
        )?;
        for &root in &roots {
            same(restored.find(root), eg.find(root), "root id after rebuild")?;
        }
        for rule in rule_pool() {
            let orig = rule.search(&eg, usize::MAX);
            let back = rule.search(&restored, usize::MAX);
            same(
                format!("{orig:?}"),
                format!("{back:?}"),
                &format!("rule {} matches", rule.name()),
            )?;
        }
        Ok(())
    });
}

/// `snapshot(restore(s)) == s`: the format is a canonical function of the
/// e-graph, so a round trip is byte-identical, and so is a second one.
#[test]
fn snapshot_of_restore_is_byte_identical() {
    sweep(|rng, explain| {
        let (eg, _) = build(rng, explain);
        let first = eg.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        let restored = EG::restore((), &first).map_err(|e| format!("restore: {e}"))?;
        let second = restored
            .snapshot()
            .map_err(|e| format!("re-snapshot: {e}"))?;
        same_bytes(&first, &second, "snapshot(restore(s))")?;
        let third = EG::restore((), &second)
            .and_then(|eg| eg.snapshot())
            .map_err(|e| format!("second round trip: {e}"))?;
        same_bytes(&second, &third, "second round trip")
    });
}
