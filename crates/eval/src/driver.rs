//! Shared experiment plumbing: seeded sampling.
//!
//! Every Chapter 5 experiment has the same outer shape — pick sample
//! destinations, solve the BGP stable state once per destination
//! ([`miro_bgp::engine::par_over_dests`] shards them over scoped
//! threads), then evaluate many sources against it.

use miro_bgp::solver::RoutingState;
use miro_core::strategy::avoidable_ases;
use miro_topology::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Sample `n` distinct destinations (fewer if the graph is smaller).
pub fn sample_dests(topo: &Topology, n: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut all: Vec<NodeId> = topo.nodes().collect();
    all.shuffle(&mut rng);
    all.truncate(n);
    all
}

/// Sample `n` distinct sources, excluding `dest`.
pub fn sample_srcs(topo: &Topology, dest: NodeId, n: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed ^ (dest as u64) << 20);
    let mut all: Vec<NodeId> = topo.nodes().filter(|&x| x != dest).collect();
    all.shuffle(&mut rng);
    all.truncate(n);
    all
}

/// Derive a per-destination RNG deterministically.
pub fn rng_for(seed: u64, dest: NodeId, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (dest as u64).wrapping_mul(0x0100_0000_01b3) ^ salt)
}

/// Section 5.3's avoid-AS sample toward `st.dest()`: `n` sources drawn
/// with `src_seed`, each paired with one of its [`avoidable_ases`] drawn
/// from `rng`, as `(src, avoid)`; a source with none is skipped.
pub fn avoid_triples(
    st: &RoutingState<'_>,
    n: usize,
    src_seed: u64,
    mut rng: StdRng,
) -> Vec<(NodeId, NodeId)> {
    sample_srcs(st.topology(), st.dest(), n, src_seed)
        .into_iter()
        .filter_map(|src| {
            let eligible = avoidable_ases(st, src);
            (!eligible.is_empty()).then(|| (src, eligible[rng.gen_range(0..eligible.len())]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_topology::GenParams;

    #[test]
    fn sampling_is_deterministic_and_distinct() {
        let t = GenParams::tiny(1).generate();
        let a = sample_dests(&t, 10, 42);
        let b = sample_dests(&t, 10, 42);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), a.len());
        assert_ne!(sample_dests(&t, 10, 43), a);
    }

    #[test]
    fn src_sampling_excludes_dest() {
        let t = GenParams::tiny(2).generate();
        let d = 5;
        let srcs = sample_srcs(&t, d, 1000, 9);
        assert!(!srcs.contains(&d));
        assert_eq!(srcs.len(), t.num_nodes() - 1);
    }
}
