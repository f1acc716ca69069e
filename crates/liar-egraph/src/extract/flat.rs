//! The flattened e-graph the worklist extractors run over.

use crate::{Analysis, EClass, EGraph, Id, Language};

/// A positional, cost-model-independent snapshot of an e-graph, shared by
/// the worklist extractors.
///
/// Flattening an e-graph — sorting the classes, assigning each a dense
/// index, laying every e-node out in one vector and building the CSR
/// child/watcher adjacency — depends only on the e-graph, not on the cost
/// model, yet it is a significant slice of an extraction. Building a
/// `FlatGraph` once and handing it to [`super::Extractor::with_flat`] /
/// [`super::DagExtractor::with_flat`] amortizes that work across every
/// cost model extracted from the same saturation — exactly the
/// multi-target pipeline's "saturate once, extract everywhere" shape,
/// extended to the flatten.
///
/// [`super::Extractor::new`] builds a private one, so single-target
/// callers never see this type.
///
/// # Example
///
/// ```
/// use liar_egraph::{AstDepth, AstSize, EGraph, Extractor, FlatGraph, SymbolLang};
///
/// let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
/// let root = eg.add_expr(&"(f (g a) (g a))".parse().unwrap());
/// let flat = FlatGraph::new(&eg); // once…
/// let size = Extractor::with_flat(&flat, AstSize); // …many extractions
/// let depth = Extractor::with_flat(&flat, AstDepth);
/// assert_eq!(size.best_cost(root), Some(5.0));
/// assert_eq!(depth.best_cost(root), Some(3.0));
/// ```
pub struct FlatGraph<'a, L: Language, A: Analysis<L>> {
    egraph: &'a EGraph<L, A>,
    /// E-classes sorted by id; all per-class vectors index into this.
    classes: Vec<&'a EClass<L, A::Data>>,
    /// Canonical class id → class index (`u32::MAX` for non-canonical
    /// ids; canonical ids are class ids, so the last sorted class bounds
    /// the table).
    position: Vec<u32>,
    /// Every e-node, flattened class by class. A class's nodes are
    /// contiguous in class iteration order, so among nodes of one class,
    /// smaller index = earlier node — the extractors' tie-break order.
    nodes: Vec<&'a L>,
    /// Owning class index per e-node.
    node_class: Vec<u32>,
    /// Child occurrence count per e-node (the pending-counter seed of the
    /// Dijkstra worklists).
    node_deps: Vec<u32>,
    /// Child *class indices* per e-node, CSR layout: node `w`'s children
    /// are `child_data[child_start[w]..child_start[w + 1]]`.
    child_start: Vec<u32>,
    child_data: Vec<u32>,
    /// E-nodes watching each class (the reverse of `child_data`, with
    /// multiplicity), CSR layout over class indices.
    watcher_start: Vec<u32>,
    watcher_data: Vec<u32>,
}

impl<'a, L: Language, A: Analysis<L>> FlatGraph<'a, L, A> {
    /// Flatten `egraph` (one sweep over all e-nodes). The watcher CSR is
    /// the transpose of the child CSR: count per class, prefix-sum, then
    /// a fill pass with a moving cursor.
    pub fn new(egraph: &'a EGraph<L, A>) -> Self {
        let classes: Vec<_> = egraph.classes().collect();
        let n = classes.len();
        let max_id = classes.last().map_or(0, |c| c.id.index());
        let mut position: Vec<u32> = vec![u32::MAX; max_id + 1];
        for (i, class) in classes.iter().enumerate() {
            position[class.id.index()] = i as u32;
        }
        let mut nodes: Vec<&L> = Vec::new();
        let mut node_class: Vec<u32> = Vec::new();
        let mut node_deps: Vec<u32> = Vec::new();
        let mut child_start: Vec<u32> = vec![0];
        let mut child_data: Vec<u32> = Vec::new();
        let mut watcher_start: Vec<u32> = vec![0; n + 1];
        for (i, class) in classes.iter().enumerate() {
            for node in class.iter() {
                let mut deps = 0u32;
                node.for_each(|c| {
                    deps += 1;
                    let pos = position[egraph.find(c).index()];
                    child_data.push(pos);
                    watcher_start[pos as usize + 1] += 1;
                });
                child_start.push(child_data.len() as u32);
                nodes.push(node);
                node_class.push(i as u32);
                node_deps.push(deps);
            }
        }
        for i in 0..n {
            watcher_start[i + 1] += watcher_start[i];
        }
        let mut cursor: Vec<u32> = watcher_start[..n].to_vec();
        let mut watcher_data: Vec<u32> = vec![0; child_data.len()];
        for (w, window) in child_start.windows(2).enumerate() {
            for &pos in &child_data[window[0] as usize..window[1] as usize] {
                watcher_data[cursor[pos as usize] as usize] = w as u32;
                cursor[pos as usize] += 1;
            }
        }
        FlatGraph {
            egraph,
            classes,
            position,
            nodes,
            node_class,
            node_deps,
            child_start,
            child_data,
            watcher_start,
            watcher_data,
        }
    }

    /// The e-graph this is a snapshot of.
    pub fn egraph(&self) -> &'a EGraph<L, A> {
        self.egraph
    }

    /// Number of e-classes (the range of the dense class index).
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of flattened e-nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The dense class index of an id, if it names a class.
    pub(super) fn class_index(&self, id: Id) -> Option<usize> {
        let pos = *self.position.get(self.egraph.find(id).index())?;
        (pos != u32::MAX).then_some(pos as usize)
    }

    /// Canonical class id → class index table (`u32::MAX` gaps), for hot
    /// paths that have already canonicalized.
    pub(super) fn position(&self) -> &[u32] {
        &self.position
    }

    /// The flattened e-nodes, class by class.
    pub(super) fn nodes(&self) -> &[&'a L] {
        &self.nodes
    }

    /// Owning class index per flattened e-node.
    pub(super) fn node_class(&self) -> &[u32] {
        &self.node_class
    }

    /// Child occurrence count per flattened e-node.
    pub(super) fn node_deps(&self) -> &[u32] {
        &self.node_deps
    }

    /// Child class indices of flattened node `w` (CSR row).
    pub(super) fn node_children(&self, w: usize) -> &[u32] {
        &self.child_data[self.child_start[w] as usize..self.child_start[w + 1] as usize]
    }

    /// E-nodes watching class `i` (CSR row, with multiplicity).
    pub(super) fn class_watchers(&self, i: usize) -> &[u32] {
        &self.watcher_data[self.watcher_start[i] as usize..self.watcher_start[i + 1] as usize]
    }
}

/// An owned-or-borrowed [`FlatGraph`]: [`super::Extractor::new`] flattens
/// for itself, [`super::Extractor::with_flat`] shares a caller's.
// One per extractor, moved once at construction: boxing the owned
// variant would buy nothing but a pointer chase on every access.
#[allow(clippy::large_enum_variant)]
pub(super) enum FlatSource<'a, L: Language, A: Analysis<L>> {
    Owned(FlatGraph<'a, L, A>),
    Shared(&'a FlatGraph<'a, L, A>),
}

impl<'a, L: Language, A: Analysis<L>> FlatSource<'a, L, A> {
    pub(super) fn get(&self) -> &FlatGraph<'a, L, A> {
        match self {
            FlatSource::Owned(flat) => flat,
            FlatSource::Shared(flat) => flat,
        }
    }
}
