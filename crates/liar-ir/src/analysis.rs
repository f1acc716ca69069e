//! The e-class analysis for the array IR.
//!
//! Every e-class carries:
//!
//! * a **free-variable set** (optimistic: the intersection over members, so
//!   a bit that is set is free in *every* member — sound for rejecting
//!   downshifts early);
//! * a smallest known **representative** term, used by the
//!   extraction-based substitution/shift appliers (paper §IV.B.3, second
//!   approach) and by shift-pattern instantiation;
//! * the **extent** when the class is a `#n` leaf (read by cost models);
//! * the **constant** when the class contains a float literal.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use liar_egraph::fxhash::FxHashMap;
use liar_egraph::{
    Analysis, DidMerge, EGraph, Id, Language, SnapshotAnalysis, SnapshotError, SnapshotReader,
    SnapshotWriter,
};

use crate::debruijn::{self, VarSet};
use crate::{ArrayLang, Expr, Num};

/// Analysis fact attached to every e-class (see module docs).
#[derive(Debug, Clone)]
pub struct ClassData {
    /// Optimistic free-variable set (intersection over members).
    pub free: VarSet,
    /// Smallest known representative term (`Arc`: facts are shared
    /// read-only across the parallel search phase's threads).
    pub repr: Arc<Expr>,
    /// Exact free-variable set of `repr` (the fast path for downshifts).
    pub repr_free: VarSet,
    /// The extent when this class is a `Dim` leaf.
    pub dim: Option<usize>,
    /// The *leading array extent* of this class's value, when statically
    /// known (builds and vector/matrix-producing library calls). Used by
    /// the idiom rules' dimension guards: the untyped IR cannot rule out
    /// `0 = (build 5 (λ 0))[i]` in an 8-element context (the paper's SHIR
    /// carries index types instead), so appliers reject bindings whose
    /// extents disagree.
    pub extent: Option<usize>,
    /// The value when this class contains a float constant.
    pub constant: Option<Num>,
    /// True when some member is a De Bruijn variable (used by the intro
    /// rules to pick candidate `y` classes cheaply).
    pub has_var: bool,
}

/// The leading array extent of a node's value, given a resolver for `Dim`
/// children.
pub fn node_extent(
    node: &ArrayLang,
    dim_of: &mut dyn FnMut(liar_egraph::Id) -> Option<usize>,
) -> Option<usize> {
    use crate::LibFn;
    match node {
        ArrayLang::Build([n, _]) => dim_of(*n),
        ArrayLang::Call(f, args) => match f {
            // Vector- and matrix-producing calls: the leading extent is a
            // dim child.
            LibFn::Axpy
            | LibFn::Memset
            | LibFn::Gemv { .. }
            | LibFn::Gemm { .. }
            | LibFn::TMv
            | LibFn::TMm
            | LibFn::TFull => dim_of(args[0]),
            // transpose(n, m, A) produces an m×n result.
            LibFn::Transpose => dim_of(args[1]),
            // The polymorphic torch ops carry an element *count*, not a
            // leading extent (a lifted add over a 4×8 matrix is
            // `add(#32, …)`): no usable extent.
            LibFn::TAdd | LibFn::TMul => None,
            // Scalar results.
            LibFn::Dot | LibFn::TSum => None,
        },
        _ => None,
    }
}

/// The standard analysis for [`ArrayLang`] e-graphs.
///
/// Carries the downshift memo. Every shift-pattern idiom binds its
/// `?x↑ᵏ` variables through [`Analysis::downshift`], so one search phase
/// asks for the same `(class, k)` many times. The answer is a fact of one
/// e-graph state, and the memo holds it for exactly that state:
///
/// * entries are keyed on the canonical class and tagged with the
///   [`rebuild_count`](EGraph::rebuild_count) they were computed under;
///   the first insert under a new count drops them all;
/// * a dirty e-graph (unions since the last rebuild) bypasses the memo;
/// * adding nodes to a clean e-graph creates classes but never changes an
///   existing one, so adds need no invalidation.
///
/// The memo sits behind a `Mutex` so parallel search workers share hits.
/// It is never serialized: a restored e-graph starts with a cold memo, so
/// give every e-graph its own fresh `ArrayAnalysis`.
#[derive(Debug, Default)]
pub struct ArrayAnalysis {
    downshifts: Mutex<DownshiftMemo>,
}

/// The downshift answers of one e-graph state (see [`ArrayAnalysis`]).
#[derive(Debug, Default)]
struct DownshiftMemo {
    /// The rebuild count the entries were computed under.
    rebuild: u64,
    entries: FxHashMap<(Id, u32), Option<Arc<Expr>>>,
}

impl DownshiftMemo {
    fn get(&self, rebuild: u64, key: (Id, u32)) -> Option<Option<Arc<Expr>>> {
        if self.rebuild != rebuild {
            return None;
        }
        self.entries.get(&key).cloned()
    }

    fn insert(&mut self, rebuild: u64, key: (Id, u32), down: Option<Arc<Expr>>) {
        if self.rebuild != rebuild {
            self.entries.clear();
            self.rebuild = rebuild;
        }
        self.entries.insert(key, down);
    }
}

impl ArrayAnalysis {
    /// Lock the memo. A worker that panicked mid-search leaves it valid
    /// (each update is one whole clear or insert), so poisoning is ignored.
    fn memo(&self) -> MutexGuard<'_, DownshiftMemo> {
        self.downshifts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Downshift class `id` (canonical) by `k > 0`, without the memo.
fn compute_downshift(
    egraph: &EGraph<ArrayLang, ArrayAnalysis>,
    id: Id,
    k: u32,
) -> Option<Arc<Expr>> {
    let data = egraph.data(id);
    // Fast path: the stored representative already avoids the low indices
    // (the overwhelmingly common case).
    let found = if data.repr_free.none_below(k) {
        Arc::clone(&data.repr)
    } else {
        ShiftableFinder::new(egraph).find(id, (1u64 << k) - 1)?
    };
    let down = debruijn::try_shift_down(&found, k);
    debug_assert!(
        down.is_some(),
        "downshift candidate has a free index below {k}"
    );
    down.map(Arc::new)
}

fn make_repr(egraph: &EGraph<ArrayLang, ArrayAnalysis>, enode: &ArrayLang) -> Expr {
    let mut repr = Expr::default();
    let node = enode.clone().map_children(|c| {
        let child = &egraph.data(c).repr;
        repr.append_subtree(child, child.root())
    });
    repr.add(node);
    repr
}

impl Analysis<ArrayLang> for ArrayAnalysis {
    type Data = ClassData;

    fn make(egraph: &EGraph<ArrayLang, Self>, enode: &ArrayLang) -> ClassData {
        let free = debruijn::node_free_vars(enode, &mut |c| egraph.data(c).free);
        let repr_free =
            debruijn::node_free_vars(enode, &mut |c| egraph.data(c).repr_free);
        let repr = Arc::new(make_repr(egraph, enode));
        let extent = node_extent(enode, &mut |c| egraph.data(c).dim);
        ClassData {
            free,
            repr,
            repr_free,
            extent,
            dim: enode.as_dim(),
            constant: enode.as_const().map(Num::new),
            has_var: matches!(enode, ArrayLang::Var(_)),
        }
    }

    fn merge(&mut self, a: &mut ClassData, b: ClassData) -> DidMerge {
        let mut did = DidMerge(false, false);

        let free = a.free.intersect(b.free);
        did.0 |= free != a.free;
        did.1 |= free != b.free;
        a.free = free;

        if b.repr.len() < a.repr.len() {
            a.repr = b.repr;
            a.repr_free = b.repr_free;
            did.0 = true;
        } else if a.repr != b.repr {
            did.1 = true;
        }

        match (a.extent, b.extent) {
            (None, Some(e)) => {
                a.extent = Some(e);
                did.0 = true;
            }
            (Some(_), None) => did.1 = true,
            (Some(x), Some(y)) => {
                debug_assert_eq!(x, y, "merged classes with extents {x} != {y}")
            }
            (None, None) => {}
        }
        match (a.dim, b.dim) {
            (None, Some(d)) => {
                a.dim = Some(d);
                did.0 = true;
            }
            (Some(_), None) => did.1 = true,
            (Some(x), Some(y)) => debug_assert_eq!(x, y, "merged classes with extents {x} != {y}"),
            (None, None) => {}
        }
        match (a.constant, b.constant) {
            (None, Some(c)) => {
                a.constant = Some(c);
                did.0 = true;
            }
            (Some(_), None) => did.1 = true,
            _ => {}
        }
        if b.has_var && !a.has_var {
            a.has_var = true;
            did.0 = true;
        } else if a.has_var && !b.has_var {
            did.1 = true;
        }
        did
    }

    fn representative(egraph: &EGraph<ArrayLang, Self>, id: Id) -> Option<Expr> {
        Some((*egraph.data(id).repr).clone())
    }

    fn downshift(egraph: &EGraph<ArrayLang, Self>, id: Id, k: u32) -> Option<Arc<Expr>> {
        let id = egraph.find(id);
        if k == 0 {
            return Some(Arc::clone(&egraph.data(id).repr));
        }
        if !egraph.is_clean() {
            return compute_downshift(egraph, id, k);
        }
        let rebuild = egraph.rebuild_count();
        if let Some(hit) = egraph.analysis.memo().get(rebuild, (id, k)) {
            return hit;
        }
        // Computed outside the lock so workers do not serialize on
        // misses; racing workers compute the same answer.
        let down = compute_downshift(egraph, id, k);
        egraph
            .analysis
            .memo()
            .insert(rebuild, (id, k), down.clone());
        down
    }

    fn shift_up(expr: &Expr, k: u32) -> Option<Expr> {
        Some(debruijn::shift_up(expr, k))
    }
}

impl SnapshotAnalysis<ArrayLang> for ArrayAnalysis {
    // Facts are serialized, not recomputed: `ClassData::repr` tie-breaks
    // on merge arrival order, so recomputation could change which (equal)
    // representative extraction-based appliers see.
    fn write_data(data: &ClassData, w: &mut SnapshotWriter) {
        let (bits, high) = data.free.to_raw();
        w.write_u64(bits);
        w.write_bool(high);
        let (rbits, rhigh) = data.repr_free.to_raw();
        w.write_u64(rbits);
        w.write_bool(rhigh);
        w.write_str(&data.repr.to_string());
        w.write_opt_u64(data.dim.map(|d| d as u64));
        w.write_opt_u64(data.extent.map(|e| e as u64));
        w.write_opt_u64(data.constant.map(|c| c.get().to_bits()));
        w.write_bool(data.has_var);
    }

    fn read_data(r: &mut SnapshotReader<'_>) -> Result<ClassData, SnapshotError> {
        let free = VarSet::from_raw(r.read_u64()?, r.read_bool()?);
        let repr_free = VarSet::from_raw(r.read_u64()?, r.read_bool()?);
        let repr_text = r.read_str()?;
        let repr: Expr = repr_text
            .parse()
            .map_err(|e| r.corrupt(format!("representative does not parse: {e}")))?;
        let dim = r.read_opt_u64()?.map(|d| d as usize);
        let extent = r.read_opt_u64()?.map(|e| e as usize);
        let constant = match r.read_opt_u64()? {
            Some(bits) => {
                let value = f64::from_bits(bits);
                if value.is_nan() {
                    return Err(r.corrupt("NaN constant in analysis data"));
                }
                Some(Num::new(value))
            }
            None => None,
        };
        let has_var = r.read_bool()?;
        Ok(ClassData {
            free,
            repr: Arc::new(repr),
            repr_free,
            dim,
            extent,
            constant,
            has_var,
        })
    }
}

/// Searches an e-class for a member term avoiding a set of De Bruijn
/// indices (given as a bitmask), preferring small terms.
///
/// This is the "downshift extractor" behind matching `A↑ᵏ` patterns: a
/// class matches `?a` shifted up by `k` exactly when it contains a term
/// with no free index `< k`.
struct ShiftableFinder<'a> {
    egraph: &'a EGraph<ArrayLang, ArrayAnalysis>,
    memo: FxHashMap<(Id, u64), Option<Arc<Expr>>>,
    visiting: Vec<(Id, u64)>,
}

impl<'a> ShiftableFinder<'a> {
    fn new(egraph: &'a EGraph<ArrayLang, ArrayAnalysis>) -> Self {
        ShiftableFinder {
            egraph,
            memo: FxHashMap::default(),
            visiting: Vec::new(),
        }
    }

    fn find(&mut self, class: Id, mask: u64) -> Option<Arc<Expr>> {
        let class = self.egraph.find(class);
        if mask == 0 {
            return Some(Arc::clone(&self.egraph.data(class).repr));
        }
        // Sound early reject: a bit in the optimistic (intersection) set is
        // free in every member.
        if self.egraph.data(class).free.intersects_mask(mask) {
            return None;
        }
        let key = (class, mask);
        if let Some(cached) = self.memo.get(&key) {
            return cached.clone();
        }
        if self.visiting.contains(&key) {
            return None; // Break cycles; another member must provide it.
        }
        self.visiting.push(key);
        let mut best: Option<Arc<Expr>> = None;
        for node in &self.egraph[class].nodes {
            let candidate = self.node_term(node, mask);
            if let Some(c) = candidate {
                if best.as_ref().is_none_or(|b| c.len() < b.len()) {
                    best = Some(c);
                }
            }
        }
        self.visiting.pop();
        self.memo.insert(key, best.clone());
        best
    }

    fn node_term(&mut self, node: &ArrayLang, mask: u64) -> Option<Arc<Expr>> {
        match node {
            ArrayLang::Var(i) => {
                if *i < 64 && mask & (1 << i) != 0 {
                    return None;
                }
                let mut e = Expr::default();
                e.add(ArrayLang::Var(*i));
                Some(Arc::new(e))
            }
            ArrayLang::Lam(body) => {
                // Under a binder, forbidden index i becomes i+1; the new
                // index 0 is always allowed.
                let inner = self.find(*body, mask << 1)?;
                let mut e = Expr::default();
                let root = e.append_subtree(&inner, inner.root());
                e.add(ArrayLang::Lam(root));
                Some(Arc::new(e))
            }
            _ => {
                let mut children = Vec::with_capacity(node.children().len());
                for c in node.children() {
                    children.push(self.find(*c, mask)?);
                }
                let mut e = Expr::default();
                let mut i = 0;
                let node = node.clone().map_children(|_| {
                    let sub = &children[i];
                    i += 1;
                    e.append_subtree(sub, sub.root())
                });
                e.add(node);
                Some(Arc::new(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrayEGraph;

    fn e(s: &str) -> Expr {
        s.parse().unwrap()
    }

    #[test]
    fn repr_tracks_smallest_member() {
        let mut eg = ArrayEGraph::default();
        let big = eg.add_expr(&e("(+ (+ x 0) 0)"));
        let small = eg.add_expr(&e("x"));
        eg.union(big, small);
        eg.rebuild();
        assert_eq!(*eg.data(big).repr, e("x"));
    }

    #[test]
    fn dim_and_constant_facts() {
        let mut eg = ArrayEGraph::default();
        let d = eg.add_expr(&e("#16"));
        let c = eg.add_expr(&e("2.5"));
        assert_eq!(eg.data(d).dim, Some(16));
        assert_eq!(eg.data(c).constant, Some(Num::new(2.5)));
        assert_eq!(eg.data(c).dim, None);
    }

    #[test]
    fn free_vars_propagate() {
        let mut eg = ArrayEGraph::default();
        let id = eg.add_expr(&e("(lam (+ %0 %2))"));
        assert_eq!(eg.data(id).free, VarSet::singleton(1));
        let closed = eg.add_expr(&e("(build #4 (lam (get xs %0)))"));
        assert!(eg.data(closed).free.is_empty());
    }

    #[test]
    fn downshift_closed_class() {
        let mut eg = ArrayEGraph::default();
        let id = eg.add_expr(&e("(get xs %2)"));
        // All free indices are ≥ 2: downshift by 2 is possible.
        let down = ArrayAnalysis::downshift(&eg, id, 2).unwrap();
        assert_eq!(*down, e("(get xs %0)"));
        // …but downshift by 3 is not.
        assert_eq!(ArrayAnalysis::downshift(&eg, id, 3), None);
    }

    #[test]
    fn downshift_uses_other_members() {
        let mut eg = ArrayEGraph::default();
        // Class contains both `(+ %0 junk)`-free `ys` and a member using %0.
        let a = eg.add_expr(&e("(get ys %0)"));
        let b = eg.add_expr(&e("zs"));
        eg.union(a, b);
        eg.rebuild();
        // %0 is free in one member but not the other: downshift by 1 finds
        // `zs`.
        let down = ArrayAnalysis::downshift(&eg, a, 1).unwrap();
        assert_eq!(*down, e("zs"));
    }

    #[test]
    fn downshift_descends_through_lambdas() {
        let mut eg = ArrayEGraph::default();
        // λ body where body uses %0 (bound) and %3 (free index 2).
        let id = eg.add_expr(&e("(lam (get %3 %0))"));
        let down = ArrayAnalysis::downshift(&eg, id, 2).unwrap();
        assert_eq!(*down, e("(lam (get %1 %0))"));
        assert_eq!(ArrayAnalysis::downshift(&eg, id, 3), None);
    }

    /// The memo's entry for `(class, k)` under the current rebuild count.
    fn memoized(eg: &ArrayEGraph, id: Id, k: u32) -> Option<Option<Arc<Expr>>> {
        eg.analysis.memo().get(eg.rebuild_count(), (eg.find(id), k))
    }

    #[test]
    fn downshift_mixed_members_inside_node() {
        let mut eg = ArrayEGraph::default();
        // f(x) where x's class gains a %0-free member after a union. The
        // miss memoized before the union must not survive the rebuild.
        let x = eg.add_expr(&e("(get ys %0)"));
        let fx = eg.add(ArrayLang::Fst(x));
        assert_eq!(ArrayAnalysis::downshift(&eg, fx, 1), None);
        assert_eq!(memoized(&eg, fx, 1), Some(None), "the miss is memoized");
        let zs = eg.add_expr(&e("zs"));
        eg.union(x, zs);
        eg.rebuild();
        assert_eq!(memoized(&eg, fx, 1), None, "a rebuild retires the entries");
        let down = ArrayAnalysis::downshift(&eg, fx, 1).unwrap();
        assert_eq!(*down, e("(fst zs)"));
    }

    #[test]
    fn dirty_graph_never_reads_the_memo() {
        let mut eg = ArrayEGraph::default();
        let x = eg.add_expr(&e("(get ys %0)"));
        let zs = eg.add_expr(&e("zs"));
        // Plant a wrong answer for both classes under the current rebuild
        // count: only a read of the memo could return it, whichever class
        // wins the union.
        let bogus = Some(Arc::new(e("bogus")));
        for id in [x, zs] {
            eg.analysis
                .memo()
                .insert(eg.rebuild_count(), (id, 1), bogus.clone());
            assert_eq!(ArrayAnalysis::downshift(&eg, id, 1), bogus);
        }
        eg.union(x, zs);
        assert!(!eg.is_clean());
        assert_eq!(*ArrayAnalysis::downshift(&eg, x, 1).unwrap(), e("zs"));
        assert_eq!(*ArrayAnalysis::downshift(&eg, zs, 2).unwrap(), e("zs"));
        assert_eq!(memoized(&eg, zs, 2), None, "a dirty graph writes nothing");
    }

    #[test]
    fn add_on_clean_graph_keeps_memo_entries_correct() {
        let mut eg = ArrayEGraph::default();
        let x = eg.add_expr(&e("(get ys %0)"));
        let zs = eg.add_expr(&e("zs"));
        let lam = eg.add_expr(&e("(lam (get %3 %0))"));
        eg.union(x, zs);
        eg.rebuild();
        let old = [x, zs, lam];
        let before: Vec<_> = old
            .iter()
            .flat_map(|&id| (1..=3).map(move |k| (id, k)))
            .map(|(id, k)| ArrayAnalysis::downshift(&eg, id, k))
            .collect();
        // Adds on a clean graph: new classes, some with the old ones as
        // children, and the graph stays clean.
        let fx = eg.add(ArrayLang::Fst(x));
        eg.add_expr(&e("(+ %1 (get ys %0))"));
        assert!(eg.is_clean());
        let bytes = eg.snapshot().unwrap();
        let cold = ArrayEGraph::restore(ArrayAnalysis::default(), &bytes).unwrap();
        let mut i = 0;
        for &id in &old {
            for k in 1..=3 {
                assert!(memoized(&eg, id, k).is_some(), "entry kept across adds");
                let warm = ArrayAnalysis::downshift(&eg, id, k);
                assert_eq!(warm, before[i]);
                assert_eq!(warm, ArrayAnalysis::downshift(&cold, id, k));
                i += 1;
            }
        }
        assert_eq!(
            *ArrayAnalysis::downshift(&eg, fx, 1).unwrap(),
            e("(fst zs)")
        );
    }

    #[test]
    fn snapshot_round_trips_analysis_data() {
        let mut eg = ArrayEGraph::default();
        let big = eg.add_expr(&e("(+ (+ x 0) 0)"));
        let small = eg.add_expr(&e("x"));
        let dims = eg.add_expr(&e("(build #4 (lam 2.5))"));
        eg.union(big, small);
        eg.rebuild();
        let bytes = eg.snapshot().unwrap();
        let restored = ArrayEGraph::restore(ArrayAnalysis::default(), &bytes).unwrap();
        let (a, b) = (eg.find(big), restored.find(big));
        assert_eq!(a, b);
        assert_eq!(*restored.data(b).repr, e("x"));
        assert_eq!(restored.data(b).free, eg.data(a).free);
        assert_eq!(restored.data(dims).extent, Some(4));
        // Byte-determinism: re-snapshotting the restored graph is exact.
        assert_eq!(restored.snapshot().unwrap(), bytes);
    }

    #[test]
    fn representative_hook() {
        let mut eg = ArrayEGraph::default();
        let id = eg.add_expr(&e("(+ a b)"));
        assert_eq!(ArrayAnalysis::representative(&eg, id), Some(e("(+ a b)")));
    }
}
