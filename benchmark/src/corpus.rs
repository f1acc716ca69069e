//! The in-process cold corpus: every pass compiles all 16 kernels with a
//! fresh pipeline under the daemon's default budget, single-threaded, with
//! no cache and no store, and times each compile from outside.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use liar_core::{Liar, Target};
use liar_kernels::Kernel;
use liar_serve::ServerConfig;

use crate::alloc;
use crate::check::{self, Answer, Oracle};
use crate::host;
use crate::plan::Compile;
use crate::Ops;

/// The pipeline a defaulted served request gets: all targets, the
/// daemon's default step and node budgets, `Liar::new`'s match limit.
pub fn pipeline() -> Liar {
    let cfg = ServerConfig::default();
    Liar::new(Target::ALL[0])
        .with_iter_limit(cfg.default_steps)
        .with_node_limit(cfg.default_node_limit)
}

/// What the corpus passes measured.
#[derive(Debug, Default)]
pub struct Corpus {
    /// Wall time of each pass (the sum of its 16 compile times), seconds.
    pub pass_s: Vec<f64>,
    /// Compile times per kernel, milliseconds, one per pass.
    pub compile_ms: BTreeMap<Kernel, Vec<f64>>,
    /// Peak live heap during one compile, bytes, largest per kernel.
    pub heap_bytes: BTreeMap<Kernel, usize>,
    /// Every tree cost of every solution of every pass.
    pub costs: Vec<f64>,
    /// Library solutions matching the paper's tables, summed over passes.
    pub paper_matches: usize,
    /// The first answer of each distinct compile.
    pub answers: HashMap<Compile, Answer>,
    /// Library solutions not executed because their size is above
    /// `Kernel::bench_size()`.
    pub unexecuted: usize,
    /// The host-speed reference, timed before each compile, milliseconds.
    pub reference_ms: Vec<f64>,
    /// Library solutions put to the oracle: executed where the size
    /// allows, and held to the cost invariant.
    pub oracle_checks: u64,
    /// Library solutions the oracle found wrong: a value unlike the
    /// reference, or a tree cost above pure C's.
    pub oracle_failed: u64,
    /// What the oracle found, in order (the first few hundred).
    pub findings: Vec<String>,
}

impl Corpus {
    /// Run one pass. Each compile is one operation per target in `ops`,
    /// failed only when the pipeline refuses it. The oracle's verdicts on
    /// the library solutions are findings about the compiler, kept apart:
    /// they feed `oracle_pass_share`, so a known extractor or runtime
    /// defect is reported on every run without failing the compile.
    pub fn pass(&mut self, pass: &[Compile], oracle: &mut Oracle, ops: &mut Ops) {
        let pipeline = pipeline();
        let mut pass_s = 0.0;
        for &c in pass {
            self.reference_ms.push(host::reference_ms());
            let expr = c.kernel.expr(c.n);
            let baseline = alloc::start_window();
            let start = Instant::now();
            let result = pipeline.optimize_multi(&expr, &Target::ALL, &[1.0]);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let heap = alloc::window_peak(baseline);
            pass_s += ms / 1e3;
            self.compile_ms.entry(c.kernel).or_default().push(ms);
            let max_heap = self.heap_bytes.entry(c.kernel).or_default();
            *max_heap = (*max_heap).max(heap);

            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    for t in Target::ALL {
                        ops.fail(format!("{} {t} n={}: {e}", c.kernel, c.n));
                    }
                    continue;
                }
            };
            let answer = Answer::from_report(&report);
            let violations = check::cost_violations(&answer);
            let verdicts = oracle.check(c, &report);
            for _ in Target::ALL {
                ops.ok();
            }
            for t in check::LIBRARY_TARGETS {
                let what = format!("{} {t} n={}", c.kernel, c.n);
                let finding = if let Some((_, Some(Err(e)))) = verdicts.iter().find(|v| v.0 == t) {
                    Some(format!("{what}: wrong value: {e}"))
                } else {
                    violations
                        .iter()
                        .find(|v| v.0 == t)
                        .map(|(_, why)| format!("{what}: {why}"))
                };
                self.oracle_checks += 1;
                if let Some(finding) = finding {
                    self.oracle_failed += 1;
                    if self.findings.len() < 400 {
                        self.findings.push(finding);
                    }
                }
            }
            self.unexecuted += verdicts.iter().filter(|v| v.1.is_none()).count();
            self.costs.extend(answer.solutions.iter().map(|s| s.cost()));
            self.paper_matches += check::paper_matches(c.kernel, &answer);
            match self.answers.get(&c) {
                Some(first) if *first != answer => {
                    ops.gate(format!("{c}: a repeated compile gave a different answer"));
                }
                Some(_) => {}
                None => {
                    self.answers.insert(c, answer);
                }
            }
        }
        self.pass_s.push(pass_s);
    }
}
