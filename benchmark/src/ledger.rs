//! The traced run: the per-layer ledger, timed from outside through each
//! crate's public calls.
//!
//! * Saturation, extraction and snapshots: the benchmark drives the
//!   served set's 16 compiles itself — `add_expr`, the public `Runner`
//!   with the union ruleset, the backoff scheduler and the per-rule limits
//!   `Liar` sets, `FlatGraph`, `DagExtractor` per target, `snapshot`,
//!   `SnapshotStore::save`/`load` and `restore` — and must reproduce
//!   `optimize_multi` exactly (the replay gate).
//! * The request path: captured hit payloads are replayed in-process
//!   through parsing, fingerprinting, the cache lookup and the wire codec.
//! * Every row reports its residual: wall time minus its layers.
//! * The liar-trace overhead of each timed phase (a corpus pass, the hit
//!   loop, a restart pass): traced ÷ untraced time.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use liar_core::pipeline::count_lib_calls;
use liar_core::rules::rules_for_targets;
use liar_core::{
    Liar, MachineProfile, RuleConfig, SaturationCache, SnapshotStore, Target, TargetCost,
};
use liar_egraph::{BackoffScheduler, DagExtractor, Extractor, FlatGraph, Runner, RunnerLimits};
use liar_ir::{ArrayAnalysis, ArrayEGraph, Expr};
use liar_serve::{OptimizeRequest, Request, Response, ServerConfig};
use liar_trace::Recorder;

use crate::check::{summarize, Answer, Solution};
use crate::corpus::pipeline;
use crate::plan::{Compile, Plan};
use crate::serve::{self, Until};
use crate::spans::Spans;
use crate::stats::{median, LoopSummary};
use crate::{Metrics, Ops};

/// The rules whose match and application counts the ledger breaks out:
/// the intro rules that drive e-graph growth and their eliminators.
pub const RULES: [&str; 7] = [
    "intro-fst-tuple",
    "intro-snd-tuple",
    "elim-fst-tuple",
    "elim-snd-tuple",
    "intro-lambda",
    "intro-index-build",
    "beta-reduce",
];

/// Names of the timed phases, for the per-phase trace overhead
/// (`bench.trace_overhead.<phase>`): a corpus pass, the hit loop and a
/// restart pass.
const PHASES: [&str; 3] = ["cold-corpus", "serve-hits", "serve-restart"];

/// Hit-loop requests per client in the traced run.
const HITS_PER_CLIENT: usize = 600;

/// Replays of each captured request through the request-path layers.
const REPLAYS: usize = 200;

fn seminaive_default() -> bool {
    std::env::var("LIAR_SEMINAIVE").map_or(true, |v| v != "0")
}

/// The saturation runner `Liar` builds for a cold request, rebuilt from
/// public parts: same limits, scheduler and per-rule budgets.
fn runner(
    egraph: ArrayEGraph,
    root: liar_egraph::Id,
    pipeline: &Liar,
) -> Runner<liar_ir::ArrayLang, ArrayAnalysis> {
    let knobs = pipeline.budget_knobs();
    let limit = knobs.match_limit;
    let scheduler = BackoffScheduler::new(limit, 2)
        .with_rule_limit("intro-lambda", limit / 4)
        .with_rule_limit("intro-index-build", limit / 4)
        .with_rule_limit("intro-fst-tuple", limit / 8)
        .with_rule_limit("intro-snd-tuple", limit / 8);
    Runner::new(egraph)
        .with_root(root)
        .with_limits(RunnerLimits {
            iter_limit: knobs.iter_limit,
            node_limit: knobs.node_limit,
            time_limit: knobs.time_limit,
        })
        .with_scheduler(scheduler)
        .with_threads(1)
        .with_seminaive(seminaive_default())
}

fn cost(target: Target) -> TargetCost {
    TargetCost::new(target)
        .with_discount_scale(1.0)
        .with_profile(MachineProfile::default())
}

/// Per-kernel layer times of the replay, milliseconds.
#[derive(Debug, Default, Clone)]
struct Row {
    load_ms: f64,
    restore_ms: f64,
    extract_ms: f64,
}

/// Sums over the replay of the served set.
#[derive(Debug, Default)]
struct Replay {
    step_ms: f64,
    search_ms: f64,
    apply_ms: f64,
    rebuild_ms: f64,
    compile_ms: f64,
    layers_ms: f64,
    search_candidates: usize,
    frontier_candidates: usize,
    matches: usize,
    applied: usize,
    rebuild_unions: usize,
    nodes: usize,
    classes: usize,
    rule_matches: BTreeMap<String, usize>,
    rule_applied: BTreeMap<String, usize>,
    flatten_ms: f64,
    tree_ms: BTreeMap<&'static str, f64>,
    dag_ms: BTreeMap<&'static str, f64>,
    relaxations: usize,
    encode_ms: f64,
    snapshot_bytes: usize,
    rows: Vec<Row>,
}

/// Replay one compile through the public layers. Returns its answer and
/// its wall time in ms, and adds its layer times to `sums`.
fn replay_one(
    c: Compile,
    pipeline: &Liar,
    store: &SnapshotStore,
    spans: &mut Spans,
    sums: &mut Replay,
    ops: &mut Ops,
) -> (Answer, f64) {
    let expr = c.kernel.expr(c.n);
    let compile = spans.begin(format!("compile/{c}"));
    let ((egraph, root), add_ms) = spans.time("ir/add_expr", || {
        let mut egraph = ArrayEGraph::default();
        let root = egraph.add_expr(&expr);
        (egraph, root)
    });
    let (rules, rules_ms) = spans.time("core/rules", || {
        rules_for_targets(&Target::ALL, &RuleConfig::default())
    });
    let mut runner = runner(egraph, root, pipeline);
    let mut step_ms = 0.0;
    loop {
        let span = spans.begin("sat/step");
        let step = runner.run_one(&rules).cloned();
        let ms = spans.end(span);
        let Ok(it) = step else { break };
        step_ms += ms;
        sums.search_ms += it.search_time.as_secs_f64() * 1e3;
        sums.apply_ms += it.apply_time.as_secs_f64() * 1e3;
        sums.rebuild_ms += it.rebuild_time.as_secs_f64() * 1e3;
        sums.search_candidates += it.search_candidates;
        sums.frontier_candidates += it.frontier_candidates;
        sums.matches += it.search_matches;
        sums.applied += it.total_applied();
        sums.rebuild_unions += it.rebuild_unions;
        for ((name, applied), (_, matched)) in it.applied.iter().zip(&it.searched) {
            *sums.rule_matches.entry(name.clone()).or_default() += matched;
            *sums.rule_applied.entry(name.clone()).or_default() += applied;
        }
    }
    let stop = runner.stop_reason.clone().expect("the runner stopped");
    let egraph = runner.egraph;
    let (flat, flatten_ms) = spans.time("extract/flatten", || FlatGraph::new(&egraph));
    let mut solutions = Vec::new();
    let mut extract_ms = 0.0;
    for t in Target::ALL {
        let span = spans.begin(format!("extract/{t}"));
        let extractor = DagExtractor::with_flat(&flat, cost(t));
        let tree = extractor.tree_extractor().try_find_best(root);
        let dag = extractor.try_find_best(root);
        let relaxations = extractor.stats().relaxations;
        let ms = spans.end(span);
        extract_ms += ms;
        *sums.dag_ms.entry(t.name()).or_default() += ms;
        sums.relaxations += relaxations;
        solutions.push((t, tree, dag));
    }
    let compile_ms = spans.end(compile);
    sums.step_ms += step_ms;
    sums.compile_ms += compile_ms;
    sums.layers_ms += add_ms + rules_ms + step_ms + flatten_ms + extract_ms;
    sums.flatten_ms += flatten_ms;
    sums.nodes += egraph.num_nodes();
    sums.classes += egraph.num_classes();

    // The tree extractor alone, outside the compile row: the DAG time is
    // the pipeline's per-target extraction minus this.
    for t in Target::ALL {
        let (_, ms) = spans.time(format!("extract/tree/{t}"), || {
            Extractor::with_flat(&flat, cost(t))
                .try_find_best(root)
                .map(|(c, _)| c)
        });
        *sums.tree_ms.entry(t.name()).or_default() += ms;
        *sums.dag_ms.entry(t.name()).or_default() -= ms;
    }
    drop(flat);

    // Snapshot layer: encode, persist, load, restore.
    let mut row = Row {
        extract_ms: flatten_ms + extract_ms,
        ..Row::default()
    };
    let (bytes, encode_ms) = spans.time("snapshot/encode", || egraph.snapshot());
    sums.encode_ms += encode_ms;
    match bytes {
        Ok(bytes) => {
            sums.snapshot_bytes += bytes.len();
            let fp = pipeline.request_fingerprint(&expr, &Target::ALL, &[1.0]);
            let saved = store.save(fp, &stop, &bytes);
            let (loaded, load_ms) = spans.time("store/load", || store.load(fp));
            row.load_ms = load_ms;
            match (saved, loaded) {
                (Ok(()), Some((_, loaded))) => {
                    let (restored, restore_ms) = spans.time("snapshot/restore", || {
                        ArrayEGraph::restore(ArrayAnalysis::default(), &loaded)
                    });
                    row.restore_ms = restore_ms;
                    match restored {
                        Ok(g)
                            if g.num_nodes() == egraph.num_nodes()
                                && g.num_classes() == egraph.num_classes() => {}
                        _ => ops.gate(format!(
                            "{c}: the snapshot did not restore to the same graph"
                        )),
                    }
                }
                _ => ops.gate(format!("{c}: the snapshot store did not round-trip")),
            }
        }
        Err(e) => ops.gate(format!("{c}: snapshot failed: {e:?}")),
    }
    sums.rows.push(row);

    let answer = Answer {
        stop_reason: stop.to_string(),
        n_nodes: egraph.num_nodes(),
        n_classes: egraph.num_classes(),
        solutions: solutions
            .into_iter()
            .map(|(t, tree, dag)| {
                // A failed extraction gives an answer no report can
                // equal, so the replay gate fails.
                let (cost, best, lib_calls) = match tree {
                    Ok((cost, best)) => (cost, best.to_string(), count_lib_calls(&best)),
                    Err(_) => (f64::INFINITY, String::new(), BTreeMap::new()),
                };
                Solution {
                    target: t.name().to_string(),
                    cost_bits: cost.to_bits(),
                    dag_cost_bits: dag.map_or(f64::INFINITY, |(c, _)| c).to_bits(),
                    summary: summarize(&lib_calls),
                    best,
                    lib_calls,
                }
            })
            .collect(),
    };
    (answer, compile_ms)
}

/// The in-process corpus pass over `compiles`: answers, reports and the
/// pass time in seconds.
fn reference_pass(
    pipeline: &Liar,
    compiles: &[Compile],
    ops: &mut Ops,
) -> (Vec<Option<liar_core::MultiReport>>, f64) {
    let mut total = 0.0;
    let reports = compiles
        .iter()
        .map(|c| {
            let expr = c.kernel.expr(c.n);
            let start = Instant::now();
            let report = pipeline.optimize_multi(&expr, &Target::ALL, &[1.0]);
            total += start.elapsed().as_secs_f64();
            report.map_err(|e| ops.gate(format!("{c}: {e}"))).ok()
        })
        .collect();
    (reports, total)
}

/// Run the traced ledger for `plan`'s served set, using `dir` for stores;
/// the spans are written to `out`. Adds every per-layer metric to `m`.
pub fn run(
    workload: &str,
    plan: &Plan,
    dir: &Path,
    out: &Path,
    m: &mut Metrics,
    ops: &mut Ops,
) -> Result<(), String> {
    let served = plan.served();
    let pipeline = pipeline();
    let mut spans = Spans::new();

    // Untraced and liar-traced in-process passes: the reference answers
    // and the cold-corpus trace overhead.
    let (reports, untraced_s) = reference_pass(&pipeline, served, ops);
    let traced = pipeline.clone().with_trace(Recorder::new());
    let (_, traced_s) = reference_pass(&traced, served, ops);
    let expected: Vec<Answer> = reports
        .iter()
        .map(|r| {
            r.as_ref()
                .map(Answer::from_report)
                .ok_or("a reference compile failed")
        })
        .collect::<Result<_, _>>()?;

    // The replay, gated on reproducing optimize_multi exactly.
    let store = SnapshotStore::open(dir.join("replay-store")).map_err(|e| e.to_string())?;
    let mut sums = Replay::default();
    let root = spans.begin("replay");
    for (i, &c) in served.iter().enumerate() {
        let (answer, compile_ms) = replay_one(c, &pipeline, &store, &mut spans, &mut sums, ops);
        m.add(&format!("compile_ms.{}", c.kernel), "ms", compile_ms);
        m.add(
            &format!("egraph.nodes.{}", c.kernel),
            "count",
            answer.n_nodes as f64,
        );
        if answer == expected[i] {
            ops.ok();
        } else {
            ops.fail(format!("{c}: replay differs"));
            ops.gate(format!("{c}: the replay does not reproduce optimize_multi"));
        }
    }
    spans.end(root);

    m.add("sat.step_ms", "ms", sums.step_ms);
    m.add("sat.search_ms", "ms", sums.search_ms);
    m.add("sat.apply_ms", "ms", sums.apply_ms);
    m.add("sat.rebuild_ms", "ms", sums.rebuild_ms);
    m.add(
        "sat.residual_ms",
        "ms",
        sums.step_ms - sums.search_ms - sums.apply_ms - sums.rebuild_ms,
    );
    m.add(
        "sat.search_candidates",
        "count",
        sums.search_candidates as f64,
    );
    m.add(
        "sat.frontier_candidates",
        "count",
        sums.frontier_candidates as f64,
    );
    m.add("sat.matches", "count", sums.matches as f64);
    m.add("sat.applied", "count", sums.applied as f64);
    m.add(
        "sat.match_yield",
        "ratio",
        sums.applied as f64 / sums.matches.max(1) as f64,
    );
    m.add("sat.rebuild_unions", "count", sums.rebuild_unions as f64);
    m.add("egraph.nodes", "count", sums.nodes as f64);
    m.add("egraph.classes", "count", sums.classes as f64);
    for rule in RULES {
        m.add(
            &format!("rule.{rule}.matches"),
            "count",
            *sums.rule_matches.get(rule).unwrap_or(&0) as f64,
        );
        m.add(
            &format!("rule.{rule}.applied"),
            "count",
            *sums.rule_applied.get(rule).unwrap_or(&0) as f64,
        );
    }
    m.add(
        "compile.residual_ms",
        "ms",
        sums.compile_ms - sums.layers_ms,
    );
    m.add("extract.flatten_ms", "ms", sums.flatten_ms);
    for t in Target::ALL {
        m.add(
            &format!("extract.tree_ms.{t}"),
            "ms",
            sums.tree_ms[t.name()],
        );
        m.add(&format!("extract.dag_ms.{t}"), "ms", sums.dag_ms[t.name()]);
    }
    m.add("extract.relaxations", "count", sums.relaxations as f64);
    m.add("snapshot.encode_ms", "ms", sums.encode_ms);
    m.add("snapshot.bytes", "bytes", sums.snapshot_bytes as f64);
    m.add(
        "store.load_ms",
        "ms",
        sums.rows.iter().map(|r| r.load_ms).sum(),
    );
    m.add(
        "snapshot.restore_ms",
        "ms",
        sums.rows.iter().map(|r| r.restore_ms).sum(),
    );

    // The request path: prewarm a daemon, then replay the captured hit
    // payloads layer by layer.
    let requests: Vec<OptimizeRequest> = served
        .iter()
        .map(|c| OptimizeRequest::new(c.kernel.expr(c.n).to_string()))
        .collect();
    let store_dir = dir.join("serve-store");
    let server = serve::start(serve::config(&store_dir, None))?;
    let addr = server.local_addr();
    let replies = serve::send_all(addr, &requests);
    let mut responses = Vec::new();
    for (i, reply) in replies.iter().enumerate() {
        serve::check_reply(
            reply,
            &expected[i],
            "miss",
            &format!("prewarm {}", served[i]),
            ops,
        );
        responses.push(
            reply
                .as_ref()
                .map(|(r, _)| r.clone())
                .map_err(|e| e.clone())?,
        );
    }
    let (loops, wall_s, failures) = serve::hit_loop(
        addr,
        plan,
        &requests,
        &expected,
        Until::Count(HITS_PER_CLIENT),
    )?;
    let untraced_hits_s = wall_s;
    let hits = LoopSummary::merge(&loops, wall_s);
    ops.add_loop(&hits, failures);
    let stats = liar_serve::Client::connect(addr)
        .and_then(|mut c| c.stats().map_err(|e| std::io::Error::other(e.to_string())))
        .map_err(|e| format!("stats: {e}"))?;
    server.shutdown();
    m.add(
        "cache.hit_ratio",
        "ratio",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
    );

    let cache = SaturationCache::new(ServerConfig::default().cache_bytes);
    for (c, report) in served.iter().zip(&reports) {
        let expr = c.kernel.expr(c.n);
        let fp = pipeline.request_fingerprint(&expr, &Target::ALL, &[1.0]);
        cache.insert(
            fp,
            std::sync::Arc::new(report.clone().expect("checked above")),
        );
    }
    let mut layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut response_bytes = 0usize;
    let us = |start: Instant| start.elapsed().as_secs_f64() * 1e6;
    let replay_span = spans.begin("request-path");
    for _ in 0..REPLAYS {
        for (req, resp) in requests.iter().zip(&responses) {
            let request = Request::Optimize(req.clone());
            let t = Instant::now();
            let payload = request.to_payload();
            layer
                .entry("wire.request_encode_us")
                .or_default()
                .push(us(t));
            let t = Instant::now();
            let decoded = Request::from_payload(&payload);
            layer
                .entry("wire.request_decode_us")
                .or_default()
                .push(us(t));
            let Ok(Request::Optimize(decoded)) = decoded else {
                ops.gate("a captured request did not decode".to_string());
                continue;
            };
            let t = Instant::now();
            let expr: Result<Expr, _> = decoded.program.parse();
            layer.entry("ir.parse_us").or_default().push(us(t));
            let Ok(expr) = expr else {
                ops.gate("a captured program did not parse".to_string());
                continue;
            };
            let t = Instant::now();
            let fp = pipeline.request_fingerprint(&expr, &Target::ALL, &[1.0]);
            layer.entry("core.fingerprint_us").or_default().push(us(t));
            let t = Instant::now();
            let hit = cache.get(fp);
            layer.entry("cache.lookup_us").or_default().push(us(t));
            if hit.is_none() || fp.to_string() != resp.fingerprint {
                ops.gate("the replayed fingerprint is not the served one".to_string());
            }
            let response = Response::Optimize(resp.clone());
            let t = Instant::now();
            let bytes = response.to_payload();
            layer
                .entry("wire.response_encode_us")
                .or_default()
                .push(us(t));
            response_bytes += bytes.len();
            let t = Instant::now();
            let back = Response::from_payload(&bytes);
            layer
                .entry("wire.response_decode_us")
                .or_default()
                .push(us(t));
            if back.as_ref().ok() != Some(&response) {
                ops.gate("a captured response did not round-trip".to_string());
            }
        }
    }
    spans.end(replay_span);
    let mut layers_us = 0.0;
    for (name, samples) in &layer {
        let v = median(samples).unwrap_or(f64::NAN);
        layers_us += v;
        m.add(name, "us", v);
    }
    m.add(
        "wire.response_bytes",
        "bytes",
        response_bytes as f64 / (REPLAYS * requests.len()) as f64,
    );
    let p50 = crate::stats::percentile(&hits.sorted_ms, 50.0).unwrap_or(f64::NAN);
    m.add("serve.residual_ms", "ms", p50 - layers_us / 1e3);

    // Restarts, untraced then with the daemon's recorder on; the restore
    // row's residual is its wire latency minus load, restore and extract.
    let (untraced_restart_s, restart_replies) = serve::restart_pass(&store_dir, None, &requests)?;
    let mut residual = 0.0;
    for (i, reply) in restart_replies.iter().enumerate() {
        serve::check_reply(
            reply,
            &expected[i],
            "warm",
            &format!("restart {}", served[i]),
            ops,
        );
        if let (Ok((_, ms)), Some(row)) = (reply, sums.rows.get(i)) {
            residual += ms - row.load_ms - row.restore_ms - row.extract_ms;
        }
    }
    m.add(
        "restore.residual_ms",
        "ms",
        residual / requests.len() as f64,
    );
    let trace_dir = dir.join("daemon-trace");
    let (traced_restart_s, traced_replies) =
        serve::restart_pass(&store_dir, Some(trace_dir.clone()), &requests)?;
    for (i, reply) in traced_replies.iter().enumerate() {
        serve::check_reply(
            reply,
            &expected[i],
            "warm",
            &format!("traced restart {}", served[i]),
            ops,
        );
    }

    // Hits with the daemon's recorder on: boot on the store, restore each
    // request once (filling the cache), then the same loop.
    let server = serve::start(serve::config(&store_dir, Some(trace_dir)))?;
    let addr = server.local_addr();
    for (i, reply) in serve::send_all(addr, &requests).iter().enumerate() {
        serve::check_reply(
            reply,
            &expected[i],
            "warm",
            &format!("traced warm-up {}", served[i]),
            ops,
        );
    }
    let (loops, traced_hits_s, failures) = serve::hit_loop(
        addr,
        plan,
        &requests,
        &expected,
        Until::Count(HITS_PER_CLIENT),
    )?;
    ops.add_loop(&LoopSummary::merge(&loops, traced_hits_s), failures);
    server.shutdown();

    for (name, traced, untraced) in [
        (PHASES[0], traced_s, untraced_s),
        (PHASES[1], traced_hits_s, untraced_hits_s),
        (PHASES[2], traced_restart_s, untraced_restart_s),
    ] {
        m.add(
            &format!("bench.trace_overhead.{name}"),
            "ratio",
            traced / untraced,
        );
    }

    let dump = out.join(format!("spans-{workload}-{}.json", plan.seed));
    std::fs::write(&dump, spans.to_json())
        .map_err(|e| format!("writing {}: {e}", dump.display()))?;
    println!(
        "# spans: {} written to {}",
        spans.spans().len(),
        dump.display()
    );
    Ok(())
}
