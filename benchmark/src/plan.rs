//! The seeded plan of one run: which kernel is compiled at which size in
//! which order, which requests are served, and in what order each client
//! sends them. The same seed always yields the same plan; the program
//! under test only ever sees the generated inputs.

use liar_kernels::Kernel;

/// Problem sizes the draw picks from, spanning the search size (8) up to
/// PolyBench LARGE (~1024).
///
/// Sizes are drawn without replacement within a cycle: over one cycle of
/// [`LADDER`]`.len()` passes every kernel meets every size exactly once,
/// in a seeded order. The multiset of (kernel, size) compiles per cycle is
/// therefore the same for every seed, which keeps the size-dependent
/// metrics (costs, paper matches, failures) comparable across seeds while
/// the seed still decides which pass compiles what, and in which order.
pub const LADDER: [usize; 4] = [8, 64, 256, 1024];

/// Concurrent clients in the served workloads: one per host core here,
/// as `liar submit` callers would be.
pub const CLIENTS: usize = 2;

/// One compile: a kernel at a problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Compile {
    /// The kernel.
    pub kernel: Kernel,
    /// Its problem size.
    pub n: usize,
}

impl std::fmt::Display for Compile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.kernel, self.n)
    }
}

/// SplitMix64: tiny, seedable and good enough for shuffles.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Everything a run draws from its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The seed the plan was drawn from.
    pub seed: u64,
    /// In-process corpus passes, grouped in cycles of [`LADDER`]`.len()`
    /// passes. Each pass compiles all 16 kernels once, in a seeded order.
    pub cycles: Vec<Vec<Vec<Compile>>>,
}

impl Plan {
    /// Draw a plan with `cycles` corpus cycles (at least one).
    pub fn new(seed: u64, cycles: usize) -> Plan {
        let mut rng = Rng::new(seed);
        let cycles = (0..cycles.max(1))
            .map(|_| {
                // One seeded size order per kernel, then one seeded kernel
                // order per pass.
                let orders: Vec<[usize; LADDER.len()]> = Kernel::ALL
                    .iter()
                    .map(|_| {
                        let mut sizes = LADDER;
                        rng.shuffle(&mut sizes);
                        sizes
                    })
                    .collect();
                (0..LADDER.len())
                    .map(|pass| {
                        let mut compiles: Vec<Compile> = Kernel::ALL
                            .iter()
                            .zip(&orders)
                            .map(|(&kernel, sizes)| Compile {
                                kernel,
                                n: sizes[pass],
                            })
                            .collect();
                        rng.shuffle(&mut compiles);
                        compiles
                    })
                    .collect()
            })
            .collect();
        Plan { seed, cycles }
    }

    /// Every corpus pass, in run order.
    pub fn passes(&self) -> impl Iterator<Item = &Vec<Compile>> {
        self.cycles.iter().flatten()
    }

    /// The served request set: one seeded size per kernel, in seeded
    /// order — the first corpus pass, so its in-process answers are the
    /// reference every served answer must equal.
    pub fn served(&self) -> &[Compile] {
        &self.cycles[0][0]
    }

    /// Indices into [`Plan::served`] that `client` owns. The clients own
    /// disjoint halves, so two clients never ask for the same fingerprint
    /// at the same moment and every request is a plain cache hit rather
    /// than a coalesced one.
    pub fn owned(&self, client: usize) -> Vec<usize> {
        (0..self.served().len())
            .filter(|i| i % CLIENTS == client)
            .collect()
    }

    /// The first `len` requests `client` sends in the hit loop, as indices
    /// into [`Plan::served`]: seeded shuffles of its owned requests,
    /// repeated.
    pub fn hit_stream(&self, client: usize, len: usize) -> HitStream {
        HitStream {
            rng: Rng::new(self.seed ^ (0xC11E_0000 + client as u64)),
            owned: self.owned(client),
            round: Vec::new(),
            left: len,
        }
    }
}

/// A client's request sequence (see [`Plan::hit_stream`]); unbounded when
/// drawn with `len == usize::MAX`.
#[derive(Debug, Clone)]
pub struct HitStream {
    rng: Rng,
    owned: Vec<usize>,
    round: Vec<usize>,
    left: usize,
}

impl Iterator for HitStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.left == 0 || self.owned.is_empty() {
            return None;
        }
        self.left -= 1;
        if self.round.is_empty() {
            self.round = self.owned.clone();
            self.rng.shuffle(&mut self.round);
        }
        self.round.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_plan_and_streams() {
        let a = Plan::new(42, 2);
        let b = Plan::new(42, 2);
        assert_eq!(a, b);
        for c in 0..CLIENTS {
            let sa: Vec<usize> = a.hit_stream(c, 100).collect();
            let sb: Vec<usize> = b.hit_stream(c, 100).collect();
            assert_eq!(sa, sb);
            assert_eq!(sa.len(), 100);
        }
        let other = Plan::new(43, 2);
        assert_ne!(a.cycles, other.cycles, "the seed must matter");
    }

    #[test]
    fn every_cycle_meets_every_kernel_at_every_size_once() {
        for seed in 0..20 {
            let plan = Plan::new(seed, 3);
            for cycle in &plan.cycles {
                assert_eq!(cycle.len(), LADDER.len());
                let all: HashSet<Compile> = cycle.iter().flatten().copied().collect();
                assert_eq!(all.len(), Kernel::ALL.len() * LADDER.len());
                for pass in cycle {
                    let kernels: HashSet<Kernel> = pass.iter().map(|c| c.kernel).collect();
                    assert_eq!(kernels.len(), Kernel::ALL.len());
                }
            }
            assert!(plan.served().iter().all(|c| LADDER.contains(&c.n)));
        }
    }

    #[test]
    fn clients_own_disjoint_halves_and_cycle_through_them() {
        let plan = Plan::new(7, 1);
        let a: HashSet<usize> = plan.owned(0).into_iter().collect();
        let b: HashSet<usize> = plan.owned(1).into_iter().collect();
        assert!(a.is_disjoint(&b));
        assert_eq!(a.len() + b.len(), Kernel::ALL.len());
        // Each round of a stream visits every owned request once.
        let s: Vec<usize> = plan.hit_stream(0, 3 * a.len()).collect();
        for round in s.chunks(a.len()) {
            let seen: HashSet<usize> = round.iter().copied().collect();
            assert_eq!(seen, a);
        }
    }
}
