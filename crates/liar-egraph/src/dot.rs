//! Graphviz export of e-graphs, for debugging and documentation.

use std::collections::BTreeSet;
use std::fmt;

use crate::{Analysis, EGraph, Id, Language};

/// Renders an e-graph in Graphviz `dot` format via `Display`.
///
/// Each e-class becomes a cluster; e-nodes point at the clusters of their
/// children (mirroring the figures in the paper and the egg docs).
/// [`Dot::with_highlights`] emphasizes a set of classes — the CLI uses it
/// to render the e-classes an explanation's proof path touches
/// (`liar dot --explain`).
///
/// ```
/// use liar_egraph::{Dot, EGraph, SymbolLang};
/// let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
/// eg.add_expr(&"(f a)".parse().unwrap());
/// let dot = Dot::new(&eg).to_string();
/// assert!(dot.starts_with("digraph egraph"));
/// ```
pub struct Dot<'a, L: Language, A: Analysis<L>> {
    egraph: &'a EGraph<L, A>,
    highlights: BTreeSet<Id>,
}

impl<'a, L: Language, A: Analysis<L>> Dot<'a, L, A> {
    /// Wrap an e-graph for rendering.
    pub fn new(egraph: &'a EGraph<L, A>) -> Self {
        Dot {
            egraph,
            highlights: BTreeSet::new(),
        }
    }

    /// Emphasize the given e-classes (ids are canonicalized): their
    /// clusters render bold red, and edges between two highlighted
    /// clusters are drawn red — together, the certificate path of an
    /// explanation.
    pub fn with_highlights(mut self, classes: impl IntoIterator<Item = Id>) -> Self {
        self.highlights = classes.into_iter().map(|id| self.egraph.find(id)).collect();
        self
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl<L: Language, A: Analysis<L>> fmt::Display for Dot<'_, L, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "digraph egraph {{")?;
        writeln!(f, "  compound=true; clusterrank=local;")?;
        for class in self.egraph.classes() {
            let lit = self.highlights.contains(&class.id);
            writeln!(f, "  subgraph cluster_{} {{", class.id)?;
            if lit {
                writeln!(f, "    style=bold; color=red; label=\"e{} *\";", class.id)?;
            } else {
                writeln!(f, "    style=dotted; label=\"e{}\";", class.id)?;
            }
            for (i, node) in class.iter().enumerate() {
                writeln!(
                    f,
                    "    n{}_{} [label=\"{}\"];",
                    class.id,
                    i,
                    escape(&node.display_op())
                )?;
            }
            writeln!(f, "  }}")?;
        }
        for class in self.egraph.classes() {
            let from_lit = self.highlights.contains(&class.id);
            for (i, node) in class.iter().enumerate() {
                for (arg, child) in node.children().iter().enumerate() {
                    let child = self.egraph.find(*child);
                    let attrs = if from_lit && self.highlights.contains(&child) {
                        ", color=red"
                    } else {
                        ""
                    };
                    // Point at the first node of the child's cluster.
                    writeln!(
                        f,
                        "  n{}_{} -> n{}_0 [lhead=cluster_{}, label=\"{}\"{}];",
                        class.id, i, child, child, arg, attrs
                    )?;
                }
            }
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    #[test]
    fn dot_contains_clusters_and_edges() {
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        eg.add_expr(&"(f a b)".parse().unwrap());
        let dot = Dot::new(&eg).to_string();
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("label=\"f\""));
        assert!(dot.contains("->"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn quotes_are_escaped() {
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        eg.add(SymbolLang::leaf("a\"b"));
        let dot = Dot::new(&eg).to_string();
        assert!(dot.contains("a\\\"b"));
    }

    /// Snapshot: the exact render of a tiny highlighted e-graph, pinning
    /// the `--explain` output format (update deliberately when the format
    /// changes).
    #[test]
    fn highlight_snapshot() {
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        let a = eg.add(SymbolLang::leaf("a"));
        eg.add(SymbolLang::new("f", vec![a]));
        let f = eg.lookup_expr(&"(f a)".parse().unwrap()).unwrap();
        let dot = Dot::new(&eg).with_highlights([a, f]).to_string();
        let expected = "\
digraph egraph {
  compound=true; clusterrank=local;
  subgraph cluster_0 {
    style=bold; color=red; label=\"e0 *\";
    n0_0 [label=\"a\"];
  }
  subgraph cluster_1 {
    style=bold; color=red; label=\"e1 *\";
    n1_0 [label=\"f\"];
  }
  n1_0 -> n0_0 [lhead=cluster_0, label=\"0\", color=red];
}
";
        assert_eq!(dot, expected);
    }

    #[test]
    fn unhighlighted_edges_stay_plain() {
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        let a = eg.add(SymbolLang::leaf("a"));
        eg.add(SymbolLang::new("f", vec![a]));
        eg.add(SymbolLang::new("g", vec![a]));
        let dot = Dot::new(&eg).with_highlights([a]).to_string();
        // Only the `a` cluster is bold; no edge connects two highlighted
        // clusters, so no edge is red.
        assert_eq!(dot.matches("style=bold").count(), 1);
        assert!(!dot.contains("color=red]"));
    }
}
