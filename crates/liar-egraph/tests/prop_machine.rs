//! Randomized checks of the e-matching virtual machine: on seeded e-graphs
//! (random terms plus random unions) and random, frequently non-linear
//! patterns, the compiled matcher must produce exactly the oracle
//! matcher's substitution list, its substitutions must be canonical and
//! duplicate-free, and index-driven search must equal a full scan.
//!
//! The generator is a seeded splitmix64 (the construction the kernel-input
//! generator and the IR round-trip test use). Every case derives its own
//! seed, and a failure names that seed and the case index, so one case
//! reproduces on its own.

use liar_egraph::{Binding, EGraph, Id, Pattern, RecExpr, Searcher, Subst, SymbolLang};

type EG = EGraph<SymbolLang, ()>;

/// Cases per sweep.
const CASES: u64 = 256;

/// Base seed of the sweeps; case `i` runs on `BASE_SEED + i`.
const BASE_SEED: u64 = 0x7e_2024;

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

/// A random pattern over the same signature, with a small variable pool so
/// non-linear repeats are common.
fn random_pattern(rng: &mut Rng, depth: usize) -> Pattern<SymbolLang> {
    fn go(rng: &mut Rng, depth: usize) -> String {
        match if depth == 0 { 0 } else { rng.below(3) } {
            0 => ["?x", "?y", "?z", "a", "b"][rng.below(5)].to_string(),
            1 => format!("(g {})", go(rng, depth - 1)),
            _ => {
                let x = go(rng, depth - 1);
                format!("(f {x} {})", go(rng, depth - 1))
            }
        }
    }
    let text = go(rng, depth);
    text.parse()
        .unwrap_or_else(|e| panic!("generated pattern {text} does not parse: {e}"))
}

/// A random e-graph: 2–7 terms, then up to five unions, rebuilt.
fn random_egraph(rng: &mut Rng) -> EG {
    let mut eg = EG::default();
    let ids: Vec<Id> = (0..rng.range(2, 8))
        .map(|_| {
            let depth = rng.range(1, 5);
            eg.add_expr(&random_term(rng, depth))
        })
        .collect();
    for _ in 0..rng.below(6) {
        eg.union(ids[rng.below(ids.len())], ids[rng.below(ids.len())]);
    }
    eg.rebuild();
    eg
}

/// Run `check` on every case of the sweep with its own e-graph and
/// pattern.
fn sweep(check: impl Fn(&EG, &Pattern<SymbolLang>) -> Result<(), String>) {
    for case in 0..CASES {
        let seed = BASE_SEED + case;
        let mut rng = Rng(seed);
        let eg = random_egraph(&mut rng);
        let depth = rng.range(0, 4);
        let pattern = random_pattern(&mut rng, depth);
        if let Err(msg) = check(&eg, &pattern) {
            panic!("case {case} (seed {seed:#x}), pattern {pattern}: {msg}");
        }
    }
}

/// Ordered equality of two substitution lists (class bindings through the
/// union-find).
fn same_substs(eg: &EG, a: &[Subst<SymbolLang>], b: &[Subst<SymbolLang>]) -> bool {
    let find = |id| eg.find(id);
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same_as(y, &find))
}

/// VM ≡ oracle: identical (ordered, canonicalized) substitution lists on
/// every e-class.
#[test]
fn vm_matches_oracle() {
    sweep(|eg, p| {
        for class in eg.class_ids() {
            let vm = p.match_class(eg, class);
            let oracle = p.match_class_oracle(eg, class);
            if !same_substs(eg, &vm, &oracle) {
                return Err(format!("class {class}: vm {vm:?} oracle {oracle:?}"));
            }
        }
        Ok(())
    });
}

/// Substitutions bind canonical class ids only (no shift patterns here)
/// and are duplicate-free under canonical comparison.
#[test]
fn vm_substs_are_canonical_and_deduped() {
    sweep(|eg, p| {
        let find = |id| eg.find(id);
        for class in eg.class_ids() {
            let substs = p.match_class(eg, class);
            for (i, s) in substs.iter().enumerate() {
                for (v, b) in s.iter() {
                    match b {
                        Binding::Class(id) if eg.find(*id) == *id => {}
                        _ => return Err(format!("class {class}: {v} bound to {b:?}")),
                    }
                }
                if substs[i + 1..].iter().any(|other| s.same_as(other, &find)) {
                    return Err(format!("class {class}: duplicate substitution {s:?}"));
                }
            }
        }
        Ok(())
    });
}

/// Index-driven whole-e-graph search equals a brute-force sweep of
/// `match_class` over all classes.
#[test]
fn indexed_search_equals_full_scan() {
    sweep(|eg, p| {
        let searched = Searcher::<SymbolLang, ()>::search(p, eg, usize::MAX);
        let brute: Vec<_> = eg
            .class_ids()
            .into_iter()
            .map(|class| (class, p.match_class(eg, class)))
            .filter(|(_, substs)| !substs.is_empty())
            .collect();
        if searched.len() != brute.len() {
            return Err(format!(
                "{} matching classes vs {}",
                searched.len(),
                brute.len()
            ));
        }
        for (m, (class, substs)) in searched.iter().zip(&brute) {
            if m.class != *class || !same_substs(eg, m.substs(), substs) {
                return Err(format!(
                    "class {} vs {class}: substitutions differ",
                    m.class
                ));
            }
        }
        Ok(())
    });
}
