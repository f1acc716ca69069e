//! The host-speed reference.
//!
//! On a shared 2-vCPU host the speed the benchmark gets drifts by up to
//! 2x over minutes (other tenants, busy SMT siblings, frequency), and it
//! moves every time metric of a run together: compiles, hits and restores
//! alike. The reference is a fixed workload of the benchmark's own —
//! hash-map inserts and lookups along a shuffled pointer chase, the
//! access mix of e-graph saturation — timed before every corpus compile,
//! so its samples span the whole run. Every end-to-end time is reported
//! scaled by [`REFERENCE_MS`] ÷ the run's median reference time, i.e. as
//! it would read on a host where the reference takes [`REFERENCE_MS`].
//! The program under test never runs inside the reference, so a change to
//! the program moves a scaled metric exactly as it moves the raw one; the
//! raw values are printed too.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::plan::Rng;

/// The reference time the scaled metrics are expressed at. It only sets
/// the scale: the reference took 10–13 ms on the 2-thread x86 host the
/// bounds were set on.
pub const REFERENCE_MS: f64 = 10.0;

/// Run the reference once; returns its wall time in milliseconds.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(0x5eed);
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    for i in 0..30_000u32 {
        map.entry(rng.next_u64() % 10_000).or_default().push(i);
    }
    let mut next: Vec<u32> = (0..1u32 << 17).collect();
    rng.shuffle(&mut next);
    let mut at = 0u32;
    let mut acc = 0u64;
    for _ in 0..150_000 {
        at = next[at as usize];
        acc = acc.wrapping_add(u64::from(at));
        if let Some(v) = map.get(&(acc % 10_000)) {
            acc = acc.wrapping_add(v.len() as u64);
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}
