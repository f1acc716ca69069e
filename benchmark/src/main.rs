//! The liar benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <cold-corpus|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload compiles under the daemon's default request budget
//! (all three targets, 8 steps, 300k nodes, `Liar::new`'s match limit), so
//! in-process and served numbers describe the same saturation. A run has
//! four phases; the workload decides which one gets the measured time:
//!
//! 1. **corpus** — in-process cold compiles of all 16 kernels, in cycles
//!    of passes over the size ladder (`cold-corpus` measures here);
//! 2. **set-up** — start a daemon on a fresh snapshot store and send it
//!    the 16 served requests cold, three times (`setup_s` is the median);
//! 3. **hits** — a closed loop of cache hits from two clients
//!    (`serve` measures here for half of `--seconds`);
//! 4. **restarts** — boot a fresh daemon on the store, restore each
//!    request once, shut down (`serve` measures here for the other half).
//!
//! The other phases run a fixed probe (two corpus cycles, a fixed count
//! of hits and restarts), so every end-to-end metric is reported on every
//! workload. Corpus passes, hits and restarts are interleaved over the
//! run (see [`measure`]), and every end-to-end time is scaled by the
//! host-speed reference (see `host.rs`). With `--trace 1` the run
//! instead prints the per-layer ledger (see `ledger.rs`), a fixed amount
//! of work that `--seconds` does not scale. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`.

mod alloc;
mod check;
mod corpus;
mod host;
mod ledger;
mod plan;
mod serve;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use liar_serve::OptimizeRequest;

use crate::check::{Answer, Oracle};
use crate::corpus::Corpus;
use crate::plan::{Compile, Plan};
use crate::serve::Until;
use crate::stats::{geomean, median, tail_percentile, LoopSummary};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Corpus cycles (four passes of 16 compiles each) in every run: eight
/// samples per kernel for the corpus metrics. One cycle takes about 16 s
/// on a 2-thread x86 host. Whole cycles keep every size-dependent metric
/// independent of the seed.
const PROBE_CYCLES: usize = 2;

/// Seconds of `--seconds` per corpus cycle in `cold-corpus`, which runs
/// `--seconds / CYCLE_S` cycles, rounded, at least [`PROBE_CYCLES`].
const CYCLE_S: f64 = 10.0;

/// Unmeasured hit-loop requests per client before the measured loop.
const HIT_WARMUP: usize = 500;

/// Hit-loop requests per client over a run whose measured phase is not
/// the hits.
const HIT_PROBE: usize = 5_000;

/// Restart passes over a run whose measured phase is not the restarts.
const RESTART_PROBE: usize = 16;

/// Operations attempted and failed in one run.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check: an error or refusal, a served
    /// answer unlike the in-process one, or an unexpected cache status.
    /// (The oracle's verdicts on the solutions themselves are reported as
    /// `oracle_pass_share`, see [`corpus::Corpus::pass`].)
    pub failed: u64,
    /// Benchmark gates that failed: the measured numbers would describe
    /// a different program than the one under test (a replay that does
    /// not reproduce `optimize_multi`, a nondeterministic compile, a
    /// snapshot that does not round-trip). Any makes the run incorrect.
    pub gates_failed: u64,
    /// What failed, in order (the first few hundred).
    pub failures: Vec<String>,
}

impl Ops {
    /// One operation passed every check.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// One operation failed a check.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(what);
    }

    /// A benchmark gate (not an operation of its own) failed.
    pub fn gate(&mut self, what: String) {
        self.gates_failed += 1;
        self.note(format!("gate: {what}"));
    }

    /// A closed loop's requests.
    pub fn add_loop(&mut self, summary: &LoopSummary, failures: Vec<String>) {
        self.attempted += summary.attempted;
        self.failed += summary.failed;
        for f in failures {
            self.note(f);
        }
    }

    fn note(&mut self, what: String) {
        if self.failures.len() < 400 {
            self.failures.push(what);
        }
    }
}

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, String, f64)>);

impl Metrics {
    /// Add a metric.
    pub fn add(&mut self, name: &str, unit: &str, value: f64) {
        self.0.push((name.to_string(), unit.to_string(), value));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                };
                format!("{name:?}: {{\"value\": {v}, \"unit\": {unit:?}}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    ColdCorpus,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "cold-corpus" => Some(Workload::ColdCorpus),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdCorpus => "cold-corpus",
            Workload::Serve => "serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: liar-benchmark --workload <cold-corpus|serve> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".bench_out");
    let dir = out.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let knobs = corpus::pipeline().budget_knobs();
    println!(
        "# workload {} seed {} seconds {} trace {} host-threads {threads} budget: targets all, \
         steps {}, nodes {}, match limit {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        knobs.iter_limit,
        knobs.node_limit,
        knobs.match_limit,
    );
    let mut ops = Ops::default();
    let mut metrics = Metrics::default();
    let result = if args.trace {
        ledger::run(
            args.workload.name(),
            &Plan::new(args.seed, 1),
            &dir,
            &out,
            &mut metrics,
            &mut ops,
        )
    } else {
        measure(&args, &dir, &mut metrics, &mut ops)
    };
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        eprintln!("benchmark aborted: {e}");
        return ExitCode::FAILURE;
    }
    for f in &ops.failures {
        println!("# failed: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ops.gates_failed == 0,
        ops.attempted,
        ops.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

/// The untraced run: every end-to-end metric.
///
/// After the first corpus pass (the served set's in-process answers) and
/// the set-ups, the phases are interleaved: each slot runs one more corpus
/// pass, a share of the hit loop and a share of the restarts. Every metric
/// thus samples the whole run rather than one stretch of it, so a host
/// whose speed drifts within a run moves them all alike.
fn measure(args: &Args, dir: &Path, m: &mut Metrics, ops: &mut Ops) -> Result<(), String> {
    let focus = args.workload;
    let cycles = if focus == Workload::ColdCorpus {
        ((args.seconds as f64 / CYCLE_S).round() as usize).max(PROBE_CYCLES)
    } else {
        PROBE_CYCLES
    };
    let plan = Plan::new(args.seed, cycles);
    let passes: Vec<&Vec<Compile>> = plan.passes().collect();
    let slots = passes.len();
    // In `serve`, the hits and the restarts each get half of a slot.
    let slot_budget = Duration::from_secs_f64(args.seconds as f64 / slots as f64 / 2.0);
    let served = plan.served();
    // Seconds spent in the corpus, set-up, hit and restart phases.
    let mut phase_s = [0.0; 4];

    // 1. The first corpus pass.
    let mut oracle = Oracle::new(args.seed);
    let mut corpus = Corpus::default();
    let start = Instant::now();
    corpus.pass(passes[0], &mut oracle, ops);
    phase_s[0] += start.elapsed().as_secs_f64();
    let expected: Vec<Answer> = served
        .iter()
        .map(|c| {
            corpus
                .answers
                .get(c)
                .cloned()
                .ok_or(format!("{c} did not compile"))
        })
        .collect::<Result<_, _>>()?;
    let requests: Vec<OptimizeRequest> = served
        .iter()
        .map(|c| OptimizeRequest::new(c.kernel.expr(c.n).to_string()))
        .collect();

    // 2. Set-up: a daemon on a fresh store, the served set sent cold.
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut server = None;
    let mut store = PathBuf::new();
    for rep in 0..SETUP_REPS {
        store = dir.join(format!("store-{rep}"));
        let start = Instant::now();
        let daemon = serve::start(serve::config(&store, None))?;
        let replies = serve::send_all(daemon.local_addr(), &requests);
        setup_s.push(start.elapsed().as_secs_f64());
        for (i, reply) in replies.iter().enumerate() {
            let what = format!("set-up {}", served[i]);
            serve::check_reply(reply, &expected[i], "miss", &what, ops);
        }
        if rep + 1 < SETUP_REPS {
            daemon.shutdown();
            let _ = std::fs::remove_dir_all(&store);
        } else {
            server = Some(daemon);
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.local_addr();
    // An unmeasured warm-up of the connections and caches.
    let (loops, wall_s, failures) =
        serve::hit_loop(addr, &plan, &requests, &expected, Until::Count(HIT_WARMUP))?;
    ops.add_loop(&LoopSummary::merge(&loops, wall_s), failures);
    phase_s[1] += start.elapsed().as_secs_f64();

    // 3. The interleaved slots. The hit daemon stays up; each restart
    // boots its own daemon on the same store, which only ever reads it.
    let hit_until = match focus {
        Workload::Serve => Until::Time(slot_budget),
        _ => Until::Count((HIT_PROBE / slots).max(1)),
    };
    let mut hit_loops = Vec::new();
    let mut hit_wall_s = 0.0;
    let mut restart_s = Vec::new();
    let mut restore_ms = Vec::new();
    for (slot, pass) in passes.iter().enumerate() {
        if slot > 0 {
            let start = Instant::now();
            corpus.pass(pass, &mut oracle, ops);
            phase_s[0] += start.elapsed().as_secs_f64();
        }

        let start = Instant::now();
        let (loops, wall_s, failures) =
            serve::hit_loop(addr, &plan, &requests, &expected, hit_until)?;
        ops.add_loop(&LoopSummary::merge(&loops, wall_s), failures);
        hit_loops.extend(loops);
        hit_wall_s += wall_s;
        phase_s[2] += start.elapsed().as_secs_f64();

        let start = Instant::now();
        for n in 1.. {
            let (pass_s, replies) = serve::restart_pass(&store, None, &requests)?;
            restart_s.push(pass_s);
            for (i, reply) in replies.iter().enumerate() {
                let what = format!("restart {}", served[i]);
                serve::check_reply(reply, &expected[i], "warm", &what, ops);
                if let Ok((_, ms)) = reply {
                    restore_ms.push(*ms);
                }
            }
            let done = match focus {
                Workload::Serve => start.elapsed() >= slot_budget,
                _ => n >= (RESTART_PROBE / slots).max(1),
            };
            if done {
                break;
            }
        }
        phase_s[3] += start.elapsed().as_secs_f64();
    }
    server.shutdown();
    let hits = LoopSummary::merge(&hit_loops, hit_wall_s);
    println!(
        "# phases: corpus {:.1} s, set-up {:.1} s, hits {:.1} s, restarts {:.1} s",
        phase_s[0], phase_s[1], phase_s[2], phase_s[3]
    );
    let passes = corpus.pass_s.len();
    let per_kernel: Vec<f64> = corpus
        .compile_ms
        .values()
        .filter_map(|v| median(v))
        .collect();
    let heap_max = corpus.heap_bytes.values().copied().max().unwrap_or(0);
    println!(
        "# samples: {passes} corpus passes ({} compiles), {} hits ({} beyond p50, {} beyond \
         p90), {} restarts ({} restores), {SETUP_REPS} set-ups; {} library solutions above \
         Kernel::bench_size() not executed",
        corpus.compile_ms.values().map(Vec::len).sum::<usize>(),
        hits.sorted_ms.len(),
        stats::samples_beyond(hits.sorted_ms.len(), 50.0),
        stats::samples_beyond(hits.sorted_ms.len(), 90.0),
        restart_s.len(),
        restore_ms.len(),
        corpus.unexecuted,
    );
    for (k, bytes) in &corpus.heap_bytes {
        println!(
            "# kernel {k}: median compile {:.1} ms, peak heap {:.2} MB",
            median(&corpus.compile_ms[k]).unwrap_or(f64::NAN),
            *bytes as f64 / 1e6
        );
    }
    println!(
        "# oracle: {} of {} library solutions failed",
        corpus.oracle_failed, corpus.oracle_checks
    );
    for f in &corpus.findings {
        println!("# oracle: {f}");
    }

    // Times are scaled to the reference host (see `host.rs`); the raw
    // values are printed alongside.
    let reference = median(&corpus.reference_ms).ok_or("no reference samples")?;
    let scale = host::REFERENCE_MS / reference;
    let times = [
        ("setup_s", "s", median(&setup_s).unwrap_or(f64::NAN)),
        ("corpus_s", "s", median(&corpus.pass_s).unwrap_or(f64::NAN)),
        (
            "compile_geomean_ms",
            "ms",
            geomean(&per_kernel).unwrap_or(f64::NAN),
        ),
        ("hit_p50_ms", "ms", tail_percentile(&hits.sorted_ms, 50.0)?),
        ("restart_s", "s", median(&restart_s).unwrap_or(f64::NAN)),
    ];
    let raw: Vec<String> = times
        .iter()
        .map(|(name, unit, v)| format!("{name} {v:.4} {unit}"))
        .collect();
    println!(
        "# host reference: median {reference:.3} ms of {} samples, scale {scale:.4}; raw: {}",
        corpus.reference_ms.len(),
        raw.join(", "),
    );
    // The hit tail, the hit throughput and the per-request restore time
    // are printed, not reported as metrics: with clients and workers
    // handing requests across two vCPUs they follow the host's vCPU steal
    // (IQR/median over ten runs at 0–12% steal: p90 0.33, restores 0.25–0.27,
    // against 0.04–0.08 for p50 and 0.09–0.18 for whole restart passes),
    // which no bound could absorb.
    println!(
        "# not gated (raw): hit p90 {:.4} ms, p99 {:.4} ms, {:.1} requests/s; restore \
         geomean {:.4} ms",
        tail_percentile(&hits.sorted_ms, 90.0)?,
        stats::percentile(&hits.sorted_ms, 99.0).unwrap_or(f64::NAN),
        hits.rps,
        geomean(&restore_ms).unwrap_or(f64::NAN)
    );
    for (name, unit, v) in times {
        m.add(name, unit, v * scale);
    }
    m.add(
        "oracle_pass_share",
        "ratio",
        stats::failure_share(corpus.oracle_failed, corpus.oracle_checks)
            .map_or(f64::NAN, |f| 1.0 - f),
    );
    m.add("peak_heap_mb", "MB", heap_max as f64 / 1e6);
    m.add(
        "solution_cost_geomean",
        "cost",
        geomean(&corpus.costs).unwrap_or(f64::NAN),
    );
    m.add(
        "paper_matches",
        "count",
        corpus.paper_matches as f64 / passes.max(1) as f64,
    );
    Ok(())
}
