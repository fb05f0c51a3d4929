//! Seeded input generation: the reference graphs the socket workloads
//! build, their open-loop release schedules and the echo payloads.
//!
//! Everything here is a pure function of the seed, so the same
//! `--seed` always yields the same graph and schedule.

use std::collections::VecDeque;

/// SplitMix64: small, fast and fully specified, so a seed means the same
/// inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// An activity of a two-node population: `(node, local index)`. Local
/// indices are the order the driver creates activities on that node.
pub type Slot = (u32, u32);

/// A two-node population in which every activity is live: a few busy
/// roots, everything else idle but reachable from a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Population {
    pub per_node: u32,
    /// Busy roots, per node, in ascending index order.
    pub roots: [Vec<u32>; 2],
    /// Reference edges `from → to`, always across the two nodes.
    pub edges: Vec<(Slot, Slot)>,
}

impl Population {
    pub fn is_root(&self, (node, index): Slot) -> bool {
        self.roots[node as usize].binary_search(&index).is_ok()
    }
}

/// Builds a population of `per_node` activities on each of two nodes.
/// Every activity references `degree` activities on the other node —
/// one per random permutation, so in-degree is `degree` too — and
/// `per_mille`‰ of each node's activities are busy roots. Any activity
/// the roots cannot reach gets an extra edge from a root on the other
/// node, so nothing in the population is garbage.
pub fn population(seed: u64, per_node: u32, degree: u32, per_mille: u32) -> Population {
    assert!(per_node > 0 && degree > 0);
    let mut rng = Rng::new(seed ^ 0x9090_0001);
    let mut edges = Vec::with_capacity((2 * per_node * degree) as usize);
    for from_node in 0..2u32 {
        for _ in 0..degree {
            let mut perm: Vec<u32> = (0..per_node).collect();
            rng.shuffle(&mut perm);
            for (i, &j) in perm.iter().enumerate() {
                edges.push(((from_node, i as u32), (1 - from_node, j)));
            }
        }
    }
    let n_roots = (per_node as u64 * per_mille as u64 / 1000).max(1) as usize;
    let roots: [Vec<u32>; 2] = std::array::from_fn(|_| {
        let mut idx: Vec<u32> = (0..per_node).collect();
        rng.shuffle(&mut idx);
        let mut r = idx[..n_roots].to_vec();
        r.sort_unstable();
        r
    });
    let mut pop = Population {
        per_node,
        roots,
        edges,
    };
    for (k, (node, index)) in unreachable(&pop).into_iter().enumerate() {
        let other = &pop.roots[1 - node as usize];
        let root = other[k % other.len()];
        pop.edges.push(((1 - node, root), (node, index)));
    }
    pop
}

/// Activities no root reaches, in (node, index) order.
fn unreachable(pop: &Population) -> Vec<Slot> {
    let n = pop.per_node as usize;
    let flat = |(node, index): Slot| node as usize * n + index as usize;
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); 2 * n];
    for &(from, to) in &pop.edges {
        adj[flat(from)].push(flat(to));
    }
    let mut seen = vec![false; 2 * n];
    let mut queue = VecDeque::new();
    for node in 0..2u32 {
        for &r in &pop.roots[node as usize] {
            seen[flat((node, r))] = true;
            queue.push_back(flat((node, r)));
        }
    }
    while let Some(v) = queue.pop_front() {
        for &w in &adj[v] {
            if !seen[w] {
                seen[w] = true;
                queue.push_back(w);
            }
        }
    }
    (0..2 * n)
        .filter(|&v| !seen[v])
        .map(|v| ((v / n) as u32, (v % n) as u32))
        .collect()
}

/// The shape of one garbage structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `len` activities in a ring, alternating nodes.
    Cycle,
    /// `len` activities in a line, alternating nodes.
    Chain,
}

/// How a structure is made garbage at its due time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Release {
    /// Its members are busy until due, then all go idle.
    GoIdle,
    /// A live root holds it while its members go idle, and drops its
    /// last reference at the due time.
    DropRoot,
}

/// One garbage structure of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Structure {
    /// When the release is due, from the start of generation.
    pub due_ns: u64,
    pub shape: Shape,
    /// Members, 2..=8.
    pub len: u32,
    pub release: Release,
    /// Node of the first member; members alternate from there.
    pub first_node: u32,
    /// Which of the other node's roots holds it (`DropRoot`), modulo
    /// the root count.
    pub holder: u32,
}

/// An open-loop schedule: Poisson arrivals at `rate` per second over
/// `[start_ns, end_ns)`, each a cycle or a chain of 2–8 members, made
/// garbage by going idle or by a root dropping it.
pub fn schedule(seed: u64, rate: f64, start_ns: u64, end_ns: u64) -> Vec<Structure> {
    assert!(rate > 0.0);
    let mut rng = Rng::new(seed ^ 0x5C4E_D01E);
    let mut out = Vec::new();
    let mut t = start_ns as f64;
    loop {
        // Inverse-CDF exponential gap; `1 - unit` is in (0, 1].
        t += -(1.0 - rng.unit()).ln() / rate * 1e9;
        if t >= end_ns as f64 {
            return out;
        }
        out.push(Structure {
            due_ns: t as u64,
            shape: if rng.below(2) == 0 {
                Shape::Cycle
            } else {
                Shape::Chain
            },
            len: 2 + rng.below(7) as u32,
            release: if rng.below(2) == 0 {
                Release::GoIdle
            } else {
                Release::DropRoot
            },
            first_node: rng.below(2) as u32,
            holder: rng.below(1 << 16) as u32,
        });
    }
}

/// The 64-byte echo request number `seq` of a run seeded with `seed`:
/// the sequence number, then seeded filler, so a reply that is not
/// byte-equal to its own request is caught.
pub fn echo_payload(seed: u64, seq: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ seq.wrapping_mul(0xA24B_AED4_963E_E407));
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&seq.to_le_bytes());
    while out.len() < 64 {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_population_and_schedule() {
        assert_eq!(population(7, 500, 4, 10), population(7, 500, 4, 10));
        assert_ne!(population(7, 500, 4, 10), population(8, 500, 4, 10));
        let s = |seed| schedule(seed, 200.0, 0, 2_000_000_000);
        assert_eq!(s(7), s(7));
        assert_ne!(s(7), s(8));
        assert_eq!(echo_payload(7, 3), echo_payload(7, 3));
        assert_ne!(echo_payload(7, 3), echo_payload(7, 4));
    }

    #[test]
    fn population_is_live_and_cross_node() {
        let pop = population(11, 500, 4, 10);
        assert!(unreachable(&pop).is_empty());
        assert_eq!(pop.roots[0].len(), 5);
        assert!(pop.edges.iter().all(|(a, b)| a.0 != b.0));
        // Every activity references at least `degree` others.
        let mut out = vec![0u32; 1000];
        for ((node, i), _) in &pop.edges {
            out[(*node * 500 + *i) as usize] += 1;
        }
        assert!(out.iter().all(|&d| d >= 4));
    }

    #[test]
    fn schedule_rate_and_shapes() {
        let s = schedule(3, 200.0, 0, 10_000_000_000);
        assert!((1800..2200).contains(&s.len()), "{}", s.len());
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|x| (2..=8).contains(&x.len)));
        assert!(s.iter().any(|x| x.shape == Shape::Cycle));
        assert!(s.iter().any(|x| x.release == Release::DropRoot));
    }
}
