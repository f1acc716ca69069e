//! The served workloads: an in-process daemon on a snapshot
//! store, closed-loop clients over TCP, and fresh-daemon restarts.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use liar_serve::{Client, OptimizeRequest, OptimizeResponse, Server, ServerConfig};

use crate::check::Answer;
use crate::plan::{Plan, CLIENTS};
use crate::stats::ClosedLoop;
use crate::Ops;

/// What `liar serve --warm <store>` runs: the default configuration
/// (two workers, introspection on) on a durable snapshot store, plus an
/// optional trace directory.
pub fn config(store: &Path, trace_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        warm_dir: Some(store.to_path_buf()),
        trace_dir,
        ..ServerConfig::default()
    }
}

/// Start a daemon, with a message on failure.
pub fn start(config: ServerConfig) -> Result<Server, String> {
    Server::start(config).map_err(|e| format!("cannot start the daemon: {e}"))
}

/// A served reply with its client-observed latency, milliseconds.
pub type Reply = Result<(OptimizeResponse, f64), String>;

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

fn timed(client: &mut Client, req: &OptimizeRequest) -> Reply {
    let start = Instant::now();
    let resp = client.optimize(req.clone()).map_err(|e| e.to_string())?;
    Ok((resp, start.elapsed().as_secs_f64() * 1e3))
}

/// Send every request once from [`CLIENTS`] concurrent clients, each
/// taking the next unsent request from one shared queue in seeded order,
/// so the cold set-up's makespan does not hinge on how the seed splits
/// heavy and light kernels between fixed halves. The requests are
/// distinct, so none is coalesced. Replies come back in request order.
pub fn send_all(addr: SocketAddr, requests: &[OptimizeRequest]) -> Vec<Reply> {
    let next = AtomicUsize::new(0);
    let mut replies: Vec<Reply> = (0..requests.len())
        .map(|_| Err("not sent".into()))
        .collect();
    let per_client: Vec<Vec<(usize, Reply)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut client = connect(addr);
                    let mut sent = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(i) else {
                            break sent;
                        };
                        let reply = match &mut client {
                            Ok(client) => timed(client, req),
                            Err(e) => Err(e.clone()),
                        };
                        sent.push((i, reply));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (i, reply) in per_client.into_iter().flatten() {
        replies[i] = reply;
    }
    replies
}

/// Check one served reply against the in-process answer and the cache
/// status the workload expects, as one operation.
pub fn check_reply(reply: &Reply, expected: &Answer, status: &str, what: &str, ops: &mut Ops) {
    match reply {
        Err(e) => ops.fail(format!("{what}: {e}")),
        Ok((resp, _)) if !expected.matches(resp) => ops.fail(format!(
            "{what}: served answer differs from the in-process one"
        )),
        Ok((resp, _)) if resp.cache != status => ops.fail(format!(
            "{what}: cache {} where {status} was expected",
            resp.cache
        )),
        Ok(_) => ops.ok(),
    }
}

/// How long a closed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// For this long.
    Time(Duration),
    /// This many requests per client.
    Count(usize),
}

/// The closed hit loop: each of [`CLIENTS`] clients sends its seeded
/// stream, waiting for every reply before the next request, and checks
/// that every reply is a cache hit carrying the expected answer.
/// Returns each client's accounting, the loop's wall time in seconds and
/// the first failures seen.
pub fn hit_loop(
    addr: SocketAddr,
    plan: &Plan,
    requests: &[OptimizeRequest],
    expected: &[Answer],
    until: Until,
) -> Result<(Vec<ClosedLoop>, f64, Vec<String>), String> {
    let mut clients = (0..CLIENTS)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let per_client: Vec<(ClosedLoop, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                s.spawn(move || {
                    let (len, deadline) = match until {
                        Until::Time(d) => (usize::MAX, Some(start + d)),
                        Until::Count(n) => (n, None),
                    };
                    let mut acct = ClosedLoop::default();
                    let mut failures = Vec::new();
                    for i in plan.hit_stream(k, len) {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        let reply = timed(client, &requests[i]);
                        let (ok, ms) = match &reply {
                            Ok((resp, ms)) => {
                                (resp.cache == "hit" && expected[i].matches(resp), *ms)
                            }
                            Err(_) => (false, 0.0),
                        };
                        if !ok && failures.len() < 8 {
                            failures.push(match &reply {
                                Ok((resp, _)) => {
                                    format!("hit loop {}: cache {}", plan.served()[i], resp.cache)
                                }
                                Err(e) => format!("hit loop {}: {e}", plan.served()[i]),
                            });
                        }
                        acct.record(ms, ok);
                    }
                    (acct, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (loops, failures): (Vec<_>, Vec<_>) = per_client.into_iter().unzip();
    Ok((loops, wall_s, failures.into_iter().flatten().collect()))
}

/// One restart: boot a fresh daemon on `store`, send each request once
/// from one client (every answer should be a restore, `cache: warm`),
/// and shut it down. Returns the pass time in seconds and the replies.
pub fn restart_pass(
    store: &Path,
    trace_dir: Option<PathBuf>,
    requests: &[OptimizeRequest],
) -> Result<(f64, Vec<Reply>), String> {
    let begin = Instant::now();
    let server = start(config(store, trace_dir))?;
    let replies = match connect(server.local_addr()) {
        Ok(mut client) => requests.iter().map(|r| timed(&mut client, r)).collect(),
        Err(e) => requests.iter().map(|_| Err(e.clone())).collect(),
    };
    server.shutdown();
    Ok((begin.elapsed().as_secs_f64(), replies))
}
