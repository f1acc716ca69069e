//! Randomized checks of the De Bruijn machinery: the shift and
//! substitution operators that the extraction-based rule appliers rely on
//! (paper §IV.B.3), and the e-class downshift that binds every
//! shift-pattern variable. If these laws break, equality saturation
//! silently derives wrong equalities.
//!
//! The generator is a seeded splitmix64 (the construction the kernel-input
//! generator and the IR round-trip test use). Every case derives its own
//! seed, and a failure names that seed and the case index, so one case
//! reproduces on its own.

use liar_egraph::{Analysis, Binding, Id, Language, Pattern};
use liar_ir::debruijn::{free_vars, shift_up, subst, try_shift_down};
use liar_ir::{dsl, ArrayAnalysis, ArrayEGraph, ArrayLang, Expr, VarSet};

/// Cases per sweep.
const CASES: u64 = 256;

/// Base seed of the sweeps; case `i` runs on `BASE_SEED + i`.
const BASE_SEED: u64 = 0xdb_2024;

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

    /// A number in `lo..hi`.
    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below((hi - lo) as usize) as u32
    }
}

/// A random well-formed expression at most `depth` operators deep.
/// Variables index at most `max_var` binders above their position (at
/// least `•0` is always possible), so terms are often open.
fn random_expr(rng: &mut Rng, depth: u32, max_var: u32) -> Expr {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(4) {
            0 => dsl::num(rng.below(3) as f64),
            1 => dsl::sym("x"),
            2 => dsl::sym("ys"),
            _ => dsl::var(rng.range(0, max_var.max(1))),
        };
    }
    let sub = |rng: &mut Rng| random_expr(rng, depth - 1, max_var);
    match rng.below(9) {
        0 => dsl::lam(sub(rng)),
        1 => dsl::app(sub(rng), sub(rng)),
        2 => {
            let f = sub(rng);
            dsl::build(1 + rng.below(3), dsl::lam(f))
        }
        3 => dsl::get(sub(rng), sub(rng)),
        4 => dsl::add(sub(rng), sub(rng)),
        5 => dsl::mul(sub(rng), sub(rng)),
        6 => dsl::tuple(sub(rng), sub(rng)),
        7 => dsl::fst(sub(rng)),
        _ => dsl::snd(sub(rng)),
    }
}

/// Run `check` on every case of the sweep with its own generator.
fn sweep(check: impl Fn(&mut Rng) -> Result<(), String>) {
    for case in 0..CASES {
        let seed = BASE_SEED + case;
        if let Err(msg) = check(&mut Rng(seed)) {
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

/// Shifting up then down is the identity.
#[test]
fn shift_roundtrip() {
    sweep(|rng| {
        let e = random_expr(rng, 4, 3);
        let d = rng.range(0, 4);
        same(
            try_shift_down(&shift_up(&e, d), d),
            Some(e),
            "shift down ∘ up",
        )
    });
}

/// Shifts compose additively, and shifting by zero is the identity.
#[test]
fn shift_composes_and_zero_is_identity() {
    sweep(|rng| {
        let e = random_expr(rng, 4, 3);
        let (a, b) = (rng.range(0, 3), rng.range(0, 3));
        same(
            shift_up(&shift_up(&e, a), b),
            shift_up(&e, a + b),
            "shift composition",
        )?;
        same(shift_up(&e, 0), e.clone(), "shift up by 0")?;
        same(try_shift_down(&e, 0), Some(e), "shift down by 0")
    });
}

/// The paper's definition: substituting into a shifted term never touches
/// it — `subst(e↑, v) = e`. That is also β on a constant function,
/// `(λ e↑) y = e`, exactly the equality R-IntroLambda installs.
#[test]
fn subst_into_shifted_is_identity() {
    sweep(|rng| {
        let e = random_expr(rng, 4, 3);
        let v = random_expr(rng, 3, 0);
        same(subst(&shift_up(&e, 1), &v), e.clone(), "subst(e↑, v)")?;
        let y = random_expr(rng, 2, 2);
        same(subst(&shift_up(&e, 1), &y), e, "(λ e↑) y")
    });
}

/// A shift by `d` clears every free index below `d` and keeps a term open
/// exactly when it was open.
#[test]
fn shift_moves_free_vars() {
    sweep(|rng| {
        let e = random_expr(rng, 4, 2);
        let d = rng.range(1, 3);
        let (before, after) = (free_vars(&e), free_vars(&shift_up(&e, d)));
        same(after.none_below(d), true, "no free index below d")?;
        same(before.is_empty(), after.is_empty(), "closedness")
    });
}

/// Substitution and shifts leave a closed term alone. Closed terms are
/// made by λ-wrapping a body whose only free index is 0; other cases are
/// skipped.
#[test]
fn closed_terms_are_fixed_points() {
    sweep(|rng| {
        let e = dsl::lam(random_expr(rng, 3, 1));
        let v = random_expr(rng, 2, 1);
        if !free_vars(&e).is_empty() {
            return Ok(());
        }
        same(subst(&shift_up(&e, 1), &v), e.clone(), "subst into closed")?;
        same(shift_up(&e, 2), e.clone(), "shift of closed")?;
        same(try_shift_down(&e, 2), Some(e), "downshift of closed")
    });
}

/// The printer and parser round-trip every expression.
#[test]
fn parse_display_roundtrip() {
    sweep(|rng| {
        let e = random_expr(rng, 4, 3);
        let text = e.to_string();
        let back: Expr = text.parse().map_err(|err| format!("{text:?}: {err}"))?;
        same(back, e, "parse(display(e))")
    });
}

/// `free_vars` agrees with a naive recursive definition.
#[test]
fn free_vars_matches_naive() {
    fn naive(expr: &Expr, id: Id, depth: u32, out: &mut VarSet) {
        match expr.node(id) {
            ArrayLang::Var(i) if *i >= depth => *out = out.union(VarSet::singleton(i - depth)),
            ArrayLang::Var(_) => {}
            ArrayLang::Lam(b) => naive(expr, *b, depth + 1, out),
            node => {
                for c in node.children() {
                    naive(expr, *c, depth, out);
                }
            }
        }
    }
    sweep(|rng| {
        let e = random_expr(rng, 4, 3);
        let mut expect = VarSet::EMPTY;
        naive(&e, e.root(), 0, &mut expect);
        same(free_vars(&e), expect, "free variables")
    });
}

/// The e-class downshift inverts the shift: the class of `e↑ᵈ` downshifts
/// by `d` to `e`, asking twice (the second answer comes from the memo)
/// gives the same term, and by `d + 1` it fails exactly when `e` has a
/// free `•0`.
#[test]
fn class_downshift_inverts_shift_up() {
    sweep(|rng| {
        let e = random_expr(rng, 4, 3);
        let d = rng.range(1, 3);
        let mut eg = ArrayEGraph::default();
        let id = eg.add_expr(&shift_up(&e, d));
        for _ in 0..2 {
            let down = ArrayAnalysis::downshift(&eg, id, d).map(|t| (*t).clone());
            same(down, Some(e.clone()), "downshift(e↑ᵈ, d)")?;
        }
        let deeper = ArrayAnalysis::downshift(&eg, id, d + 1).is_some();
        same(deeper, free_vars(&e).none_below(1), "downshift by d + 1")
    });
}

/// A random e-graph: 2–6 terms, then up to four unions (skipping pairs
/// whose extents disagree, which the analysis rejects), rebuilt.
fn random_egraph(rng: &mut Rng) -> (ArrayEGraph, Vec<Id>) {
    let mut eg = ArrayEGraph::default();
    let roots: Vec<Id> = (0..rng.range(2, 7))
        .map(|_| {
            let depth = rng.range(1, 4);
            let e = random_expr(rng, depth, 3);
            // Half of the terms avoid the innermost binders, so shift
            // patterns have something to find.
            let e = if rng.below(2) == 0 {
                shift_up(&e, 1)
            } else {
                e
            };
            eg.add_expr(&e)
        })
        .collect();
    for _ in 0..rng.below(5) {
        let a = eg.find(roots[rng.below(roots.len())]);
        let b = eg.find(roots[rng.below(roots.len())]);
        let (da, db) = (eg.data(a), eg.data(b));
        let clash =
            |x: Option<usize>, y: Option<usize>| matches!((x, y), (Some(x), Some(y)) if x != y);
        if !clash(da.extent, db.extent) && !clash(da.dim, db.dim) {
            eg.union(a, b);
        }
    }
    eg.rebuild();
    (eg, roots)
}

/// A random pattern with shift-bound variables, over the operators the
/// random terms use.
fn random_pattern(rng: &mut Rng, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return ["?x", "?y", "(sh1 ?x)", "(sh1 ?y)", "(sh2 ?x)", "%0"][rng.below(6)].to_string();
    }
    let sub = |rng: &mut Rng| random_pattern(rng, depth - 1);
    match rng.below(5) {
        0 => format!("(lam {})", sub(rng)),
        1 => format!("(+ {} {})", sub(rng), sub(rng)),
        2 => format!("(get {} {})", sub(rng), sub(rng)),
        3 => format!("(tuple {} {})", sub(rng), sub(rng)),
        _ => format!("(fst {})", sub(rng)),
    }
}

/// VM ≡ oracle with shift patterns: on random e-graphs, the compiled
/// matcher's substitution list equals the recursive oracle's on every
/// class, with downshifted bindings compared by value.
#[test]
fn vm_matches_oracle_on_shift_patterns() {
    let shift_bound = std::cell::Cell::new(0usize);
    sweep(|rng| {
        let (eg, _) = random_egraph(rng);
        let text = random_pattern(rng, 3);
        let pattern: Pattern<ArrayLang> = text.parse().map_err(|e| format!("{text}: {e}"))?;
        let find = |id| eg.find(id);
        for class in eg.class_ids() {
            let vm = pattern.match_class(&eg, class);
            let oracle = pattern.match_class_oracle(&eg, class);
            let agree = vm.len() == oracle.len()
                && vm.iter().zip(&oracle).all(|(a, b)| a.same_as(b, &find));
            if !agree {
                return Err(format!(
                    "pattern {text} on class {class}: vm {vm:?} oracle {oracle:?}"
                ));
            }
            let exprs = vm.iter().flat_map(|s| s.iter());
            let exprs = exprs.filter(|(_, b)| matches!(b, Binding::Expr(_))).count();
            shift_bound.set(shift_bound.get() + exprs);
        }
        Ok(())
    });
    assert!(
        shift_bound.get() > 0,
        "no case bound a shift-pattern variable"
    );
}
