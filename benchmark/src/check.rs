//! Correctness oracles. None of this is timed: it decides whether the
//! numbers a run reports describe correct answers.
//!
//! * [`Answer`] is the comparable content of a multi-target report, the
//!   same whether it came from an in-process `optimize_multi` or off the
//!   wire, so served answers can be checked bit for bit.
//! * [`PAPER`] holds the library-call summaries of Tables II/III.
//! * [`Oracle`] executes extracted solutions on seeded inputs and compares
//!   them with the kernels' hand-written references.
//! * [`cost_violations`] checks the cost-model invariant: a library
//!   target never costs more than pure C in the same report.

use std::collections::{BTreeMap, HashMap};

use liar_core::{MultiReport, Target};
use liar_kernels::{values_approx_eq, Kernel};
use liar_serve::OptimizeResponse;

use crate::plan::Compile;

/// One extracted solution, as both the pipeline and the wire carry it.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Wire name of the target.
    pub target: String,
    /// Tree cost, bit pattern (compared exactly).
    pub cost_bits: u64,
    /// DAG cost, bit pattern.
    pub dag_cost_bits: u64,
    /// The tree-extracted term, printed.
    pub best: String,
    /// Library-call summary, e.g. `2 × gemv + 1 × memset`.
    pub summary: String,
    /// Library calls by family.
    pub lib_calls: BTreeMap<String, usize>,
}

impl Solution {
    /// Tree cost.
    pub fn cost(&self) -> f64 {
        f64::from_bits(self.cost_bits)
    }
}

/// The comparable content of one multi-target answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Why saturation stopped.
    pub stop_reason: String,
    /// E-nodes of the saturated graph.
    pub n_nodes: usize,
    /// E-classes of the saturated graph.
    pub n_classes: usize,
    /// One solution per target, in request order.
    pub solutions: Vec<Solution>,
}

impl Answer {
    /// From an in-process report.
    pub fn from_report(report: &MultiReport) -> Answer {
        Answer {
            stop_reason: report.stop_reason.to_string(),
            n_nodes: report.n_nodes,
            n_classes: report.n_classes,
            solutions: report
                .solutions
                .iter()
                .map(|s| Solution {
                    target: s.target.name().to_string(),
                    cost_bits: s.cost.to_bits(),
                    dag_cost_bits: s.dag_cost.to_bits(),
                    best: s.best.to_string(),
                    summary: s.solution_summary(),
                    lib_calls: s.lib_calls.clone(),
                })
                .collect(),
        }
    }

    /// Whether a served response carries exactly this answer, field for
    /// field (costs compared bit for bit).
    pub fn matches(&self, resp: &OptimizeResponse) -> bool {
        self.stop_reason == resp.stop_reason
            && self.n_nodes == resp.n_nodes
            && self.n_classes == resp.n_classes
            && self.solutions.len() == resp.solutions.len()
            && self.solutions.iter().zip(&resp.solutions).all(|(a, b)| {
                a.target == b.target
                    && a.cost_bits == b.cost.to_bits()
                    && a.dag_cost_bits == b.dag_cost.to_bits()
                    && a.best == b.best
                    && a.summary == b.solution
                    && a.lib_calls == b.lib_calls
            })
    }

    /// The solution for `target`.
    pub fn solution(&self, target: Target) -> Option<&Solution> {
        self.solutions.iter().find(|s| s.target == target.name())
    }
}

/// Format library calls like the paper's tables (and
/// `MultiSolution::solution_summary`): `2 × gemv + 1 × memset`, or `—`
/// for a solution that calls no library.
pub fn summarize(lib_calls: &BTreeMap<String, usize>) -> String {
    if lib_calls.is_empty() {
        return "—".to_string();
    }
    lib_calls
        .iter()
        .map(|(name, count)| format!("{count} × {name}"))
        .collect::<Vec<_>>()
        .join(" + ")
}

/// Library-call summaries per kernel for Table II (BLAS) and Table III
/// (PyTorch), as this reproduction reproduces them at the search size
/// (n = 8) under the daemon's default budget. The paper's text is not in
/// the repository, so each row should be checked against the published
/// tables before it is taken as a fidelity bar; a row that changes here
/// must cite the paper.
pub const PAPER: [(&str, &str, &str); 16] = [
    (
        "2mm",
        "1 × axpy + 2 × gemm + 2 × memset",
        "1 × add + 2 × mm + 2 × mul + 2 × transpose",
    ),
    ("atax", "2 × gemv + 2 × memset", "2 × mv + 1 × transpose"),
    ("doitgen", "1 × gemm + 1 × memset", "1 × mm + 1 × transpose"),
    (
        "gemm",
        "2 × axpy + 1 × gemv + 2 × memset",
        "1 × add + 1 × mm + 2 × mul + 1 × transpose",
    ),
    (
        "gemver",
        "8 × axpy + 2 × gemv + 5 × memset",
        "5 × add + 6 × mul + 2 × mv + 1 × transpose",
    ),
    (
        "gesummv",
        "2 × gemv + 1 × memset",
        "1 × add + 2 × mul + 2 × mv",
    ),
    ("jacobi1d", "1 × gemv + 1 × memset", "1 × full + 1 × mv"),
    (
        "mvt",
        "2 × axpy + 2 × gemv + 2 × memset",
        "2 × add + 2 × mv + 1 × transpose",
    ),
    ("1mm", "1 × gemm + 1 × memset", "1 × mm + 1 × transpose"),
    ("axpy", "1 × axpy", "1 × add + 1 × mul"),
    ("blur1d", "1 × gemv + 1 × memset", "1 × full + 1 × mv"),
    ("gemv", "1 × gemv", "1 × add + 2 × mul + 1 × mv"),
    ("memset", "1 × memset", "1 × full"),
    (
        "slim-2mm",
        "1 × gemm + 1 × gemv + 2 × memset",
        "1 × mm + 1 × mv + 1 × transpose",
    ),
    ("stencil2d", "1 × gemv + 1 × memset", "1 × full + 1 × mv"),
    ("vsum", "1 × dot", "1 × sum"),
];

/// The library targets the paper's tables cover.
pub const LIBRARY_TARGETS: [Target; 2] = [Target::Blas, Target::Torch];

/// The paper's summary for `kernel` under a library `target`.
pub fn paper_summary(kernel: Kernel, target: Target) -> Option<&'static str> {
    let row = PAPER.iter().find(|row| row.0 == kernel.name())?;
    match target {
        Target::Blas => Some(row.1),
        Target::Torch => Some(row.2),
        Target::PureC => None,
    }
}

/// How many of the answer's library solutions match the paper's tables.
pub fn paper_matches(kernel: Kernel, answer: &Answer) -> usize {
    LIBRARY_TARGETS
        .iter()
        .filter(|&&t| answer.solution(t).map(|s| s.summary.as_str()) == paper_summary(kernel, t))
        .count()
}

/// Library targets whose tree cost exceeds the pure-C tree cost of the
/// same report. Listing 6 prices loops alike in every target, so a
/// library optimum can never cost more than pure C; each entry is a
/// defect in the extractor, reported with both costs.
pub fn cost_violations(answer: &Answer) -> Vec<(Target, String)> {
    let Some(c) = answer.solution(Target::PureC) else {
        return Vec::new();
    };
    LIBRARY_TARGETS
        .iter()
        .filter_map(|&t| {
            let s = answer.solution(t)?;
            (s.cost() > c.cost()).then(|| {
                (
                    t,
                    format!(
                        "cost invariant: {:.3e} [{}] > pure-c {:.3e}",
                        s.cost(),
                        s.summary,
                        c.cost()
                    ),
                )
            })
        })
        .collect()
}

/// Executes extracted library solutions with the runtime and compares
/// them with the kernels' references, once per distinct solution.
pub struct Oracle {
    seed: u64,
    verdicts: HashMap<(Compile, String), Option<Result<(), String>>>,
}

impl Oracle {
    /// An oracle drawing inputs from `seed`.
    pub fn new(seed: u64) -> Oracle {
        Oracle {
            seed,
            verdicts: HashMap::new(),
        }
    }

    /// Check every library solution of `report` (a compile of `c`).
    /// Returns per target `None` when the size is above
    /// [`Kernel::bench_size`] — interpreting it would take too long, and
    /// the caller reports it as unchecked — or the verdict.
    pub fn check(
        &mut self,
        c: Compile,
        report: &MultiReport,
    ) -> Vec<(Target, Option<Result<(), String>>)> {
        LIBRARY_TARGETS
            .iter()
            .map(|&t| {
                let Some(sol) = report.solution(t) else {
                    return (t, Some(Err("no solution".to_string())));
                };
                let key = (c, sol.best.to_string());
                let seed = self.seed;
                let verdict = self
                    .verdicts
                    .entry(key)
                    .or_insert_with(|| execute(c, &sol.best, seed))
                    .clone();
                (t, verdict)
            })
            .collect()
    }
}

fn execute(c: Compile, best: &liar_ir::Expr, seed: u64) -> Option<Result<(), String>> {
    if c.n > c.kernel.bench_size() {
        return None;
    }
    let inputs = c.kernel.inputs(c.n, seed);
    let verdict = (|| {
        let reference = c.kernel.reference(c.n, &inputs)?;
        // The runtime's library calls assert their shapes: a solution that
        // trips one is a wrong answer, not a reason to stop the run.
        // The hook is silenced meanwhile: the panic is reported as a
        // failure, not as a backtrace.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = std::panic::catch_unwind(|| liar_runtime::exec::run(best, &inputs));
        std::panic::set_hook(hook);
        let run = run.map_err(|p| panic_message(&p))?;
        let (got, _) = run.map_err(|e| e.to_string())?;
        // The tolerance the figure harness uses: values grow with n.
        if values_approx_eq(&got, &reference, 1e-6 * c.n as f64) {
            Ok(())
        } else {
            Err("value differs from the reference".to_string())
        }
    })();
    Some(verdict)
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    let text = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("(no message)");
    format!("execution panicked: {}", text.replace('\n', " "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_covers_every_kernel_once() {
        for k in Kernel::ALL {
            assert_eq!(PAPER.iter().filter(|r| r.0 == k.name()).count(), 1, "{k}");
            assert!(paper_summary(k, Target::Blas).is_some());
            assert!(paper_summary(k, Target::PureC).is_none());
        }
    }
}
