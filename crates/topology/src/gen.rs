//! Deterministic synthetic-Internet generator.
//!
//! The paper evaluates MIRO on four AS-level topologies derived from
//! RouteViews BGP tables (Table 5.1). Those snapshots are not
//! redistributable, so — per the substitution rule in `DESIGN.md` — this
//! module generates seeded synthetic topologies that reproduce the
//! *properties the paper says its conclusions rest on* (section 5.1): the
//! power-law degree distribution with a small clique-like tier-1 core, the
//! ~90/8/1.5% split between provider-customer / peering / sibling links,
//! mean AS-path lengths around four hops, and a majority-stub population
//! with ~60% multi-homing.
//!
//! The construction is the classic three-tier model: a tier-1 peering
//! clique, transit tiers attached by preferential attachment (which yields
//! the heavy-tailed degree distribution), and a large stub fringe.

use crate::graph::{AsId, AsnHash, NodeId, Topology, TopologyBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The four dataset presets of Table 5.1, plus a RouteViews-scale preset.
///
/// `scale = 1.0` matches the paper's node counts; the default evaluation
/// scale of `0.1` keeps experiments laptop-sized while preserving the
/// degree-distribution shape and relationship mix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DatasetPreset {
    /// "Gao 2000": 8829 nodes, 17793 edges (16531 P/C, 1031 peer, 231 sibling).
    Gao2000,
    /// "Gao 2003": 16130 nodes, 34231 edges (30649 P/C, 3062 peer, 520 sibling).
    Gao2003,
    /// "Gao 2005": 20930 nodes, 44998 edges (40558 P/C, 3753 peer, 687 sibling).
    Gao2005,
    /// "Agarwal 2004": 16921 nodes, 38282 edges (34552 P/C, 3553 peer, 177 sibling).
    Agarwal2004,
    /// Full-Internet scale, calibrated to a present-day RouteViews/CAIDA
    /// snapshot rather than Table 5.1: 70000 nodes, ~349k edges with the
    /// same ~90/8/1.5% P/C / peering / sibling split and tier shape. Not
    /// part of [`DatasetPreset::ALL`] — the Table 5.1 experiments do not
    /// use it; `miro ingest` substitutes and `bench-solver internet`
    /// measures at this size.
    InternetScale,
}

impl std::str::FromStr for DatasetPreset {
    type Err = String;

    /// Parse a preset as spelled by [`DatasetPreset::cli_name`].
    fn from_str(name: &str) -> Result<DatasetPreset, String> {
        let mut all = Self::ALL.into_iter().chain([Self::InternetScale]);
        all.find(|p| p.cli_name() == name).ok_or_else(|| {
            format!("unknown preset {name:?} (expected gao2000|gao2003|gao2005|agarwal2004|internet)")
        })
    }
}

impl DatasetPreset {
    /// All presets, in the order Table 5.1 lists them.
    pub const ALL: [DatasetPreset; 4] = [
        DatasetPreset::Gao2000,
        DatasetPreset::Gao2003,
        DatasetPreset::Gao2005,
        DatasetPreset::Agarwal2004,
    ];

    /// The preset's spelling on every command line and in the REPL's
    /// `gen`; [`FromStr`](std::str::FromStr) is its inverse.
    pub fn cli_name(self) -> &'static str {
        match self {
            DatasetPreset::Gao2000 => "gao2000",
            DatasetPreset::Gao2003 => "gao2003",
            DatasetPreset::Gao2005 => "gao2005",
            DatasetPreset::Agarwal2004 => "agarwal2004",
            DatasetPreset::InternetScale => "internet",
        }
    }

    /// Dataset name as printed in Table 5.1.
    pub fn name(self) -> &'static str {
        match self {
            DatasetPreset::Gao2000 => "Gao 2000",
            DatasetPreset::Gao2003 => "Gao 2003",
            DatasetPreset::Gao2005 => "Gao 2005",
            DatasetPreset::Agarwal2004 => "Agarwal 2004",
            DatasetPreset::InternetScale => "Internet 70k",
        }
    }

    /// Calibration targets: (nodes, P/C links, peering links, sibling
    /// links). For the four Table 5.1 presets these are the paper's
    /// counts; for [`DatasetPreset::InternetScale`] they approximate a
    /// full RouteViews-derived snapshot with the same relationship mix.
    pub fn paper_counts(self) -> (usize, usize, usize, usize) {
        match self {
            DatasetPreset::Gao2000 => (8829, 16531, 1031, 231),
            DatasetPreset::Gao2003 => (16130, 30649, 3062, 520),
            DatasetPreset::Gao2005 => (20930, 40558, 3753, 687),
            DatasetPreset::Agarwal2004 => (16921, 34552, 3553, 177),
            DatasetPreset::InternetScale => (70000, 315900, 28000, 5250),
        }
    }

    /// Generation parameters scaled by `scale` (1.0 = paper size).
    pub fn params(self, scale: f64, seed: u64) -> GenParams {
        let (nodes, pc, peer, sib) = self.paper_counts();
        let s = |v: usize| ((v as f64 * scale).round() as usize).max(4);
        GenParams {
            name: self.name().to_string(),
            num_nodes: s(nodes).max(MIN_NODES),
            target_pc_links: s(pc),
            target_peer_links: s(peer).max(8),
            target_sibling_links: (sib as f64 * scale).round() as usize,
            // The Agarwal inference is known to label more links as peering
            // between mid-tier ASes; emulate by spreading peers lower.
            lowtier_peering: matches!(self, DatasetPreset::Agarwal2004),
            seed,
        }
    }
}

/// The fewest nodes each transit tier of [`GenParams::generate`] gets.
const MIN_TIER1: usize = 3;
const MIN_TIER2: usize = 4;
const MIN_TIER3: usize = 4;

/// The smallest graph [`GenParams::generate`] can build: its three tier
/// floors, with no stub fringe. [`DatasetPreset::params`] never asks for
/// less, whatever scale (tiny, zero, negative, NaN) it is handed.
pub const MIN_NODES: usize = MIN_TIER1 + MIN_TIER2 + MIN_TIER3;

/// Parameters of one synthetic topology.
///
/// ```
/// use miro_topology::gen::DatasetPreset;
///
/// // The paper's "Gao 2005" dataset at 2% scale, fully deterministic:
/// let topo = DatasetPreset::Gao2005.params(0.02, 42).generate();
/// assert_eq!(topo.num_nodes(), 419); // 20930 * 0.02, rounded
/// assert!(topo.is_connected());
/// // Same seed, same graph:
/// let again = DatasetPreset::Gao2005.params(0.02, 42).generate();
/// assert_eq!(topo.num_edges(), again.num_edges());
/// ```
#[derive(Clone, Debug)]
pub struct GenParams {
    /// Dataset label (shows up in Table 5.1 output).
    pub name: String,
    /// Total AS count.
    pub num_nodes: usize,
    /// Target number of provider-customer links.
    pub target_pc_links: usize,
    /// Target number of peer-peer links.
    pub target_peer_links: usize,
    /// Target number of sibling links.
    pub target_sibling_links: usize,
    /// Spread peering links across lower tiers too (Agarwal-style).
    pub lowtier_peering: bool,
    /// RNG seed; equal seeds produce identical topologies.
    pub seed: u64,
}

impl GenParams {
    /// A small, quick topology for unit tests and examples.
    pub fn tiny(seed: u64) -> GenParams {
        GenParams {
            name: "tiny".to_string(),
            num_nodes: 120,
            target_pc_links: 210,
            target_peer_links: 18,
            target_sibling_links: 4,
            lowtier_peering: false,
            seed,
        }
    }

    /// Generate the topology. Deterministic in `self` (including seed).
    ///
    /// Construction:
    /// 1. a tier-1 core (~0.15% of nodes, at least 5) meshed with peer links;
    /// 2. a tier-2 of regional transit ASes (~7%) multi-homed into tier 1 by
    ///    preferential attachment, with peer links among themselves;
    /// 3. a tier-3 of small transit ASes (~23%) homed into tier 2;
    /// 4. a stub fringe (the remainder) homed into tiers 2-3, ~60%
    ///    multi-homed (matching the measurement cited in section 1.2);
    /// 5. sibling links between randomly chosen same-tier pairs.
    ///
    /// The provider side of every attachment is drawn degree-proportionally
    /// (preferential attachment), which produces the heavy-tailed degree
    /// distribution of Figure 5.1.
    pub fn generate(&self) -> Topology {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x4d49_524f); // "MIRO"
        let n = self.num_nodes;
        let n_t1 = ((n as f64 * 0.0015).round() as usize).clamp(MIN_TIER1, 16);
        let n_t2 = ((n as f64 * 0.07).round() as usize).max(MIN_TIER2);
        let n_t3 = ((n as f64 * 0.23).round() as usize).max(MIN_TIER3);
        let n_stub = n.saturating_sub(n_t1 + n_t2 + n_t3);
        debug_assert!(n_stub > 0 || n <= n_t1 + n_t2 + n_t3);

        let mut b = TopologyBuilder::new();
        // AS numbers: deterministic but non-contiguous, so code cannot
        // accidentally conflate AsId and NodeId.
        let asn_of = |i: usize| AsId(100 + 3 * i as u32);
        for i in 0..n {
            b.add_as(asn_of(i));
        }
        let tier1: Vec<usize> = (0..n_t1).collect();
        let tier2: Vec<usize> = (n_t1..n_t1 + n_t2).collect();
        let tier3: Vec<usize> = (n_t1 + n_t2..n_t1 + n_t2 + n_t3).collect();
        let stubs: Vec<usize> = (n_t1 + n_t2 + n_t3..n).collect();

        // Degree counter driving preferential attachment.
        let mut deg = vec![1usize; n]; // +1 smoothing so new nodes are pickable
        let mut pc_links = 0usize;
        let mut peer_links = 0usize;
        // Links made so far, keyed by their lower and higher index. Keys
        // are generator indices, never input, so the set hashes them with
        // one multiply rather than SipHash.
        let mut edges: HashSet<u64, AsnHash> = HashSet::default();
        let key = |x: usize, y: usize| (x.min(y) as u64) << 32 | x.max(y) as u64;
        let add_pc = |b: &mut TopologyBuilder,
                          deg: &mut Vec<usize>,
                          edges: &mut HashSet<u64, AsnHash>,
                          provider: usize,
                          customer: usize|
         -> bool {
            if provider == customer || !edges.insert(key(provider, customer)) {
                return false;
            }
            b.provider_customer(asn_of(provider), asn_of(customer));
            deg[provider] += 1;
            deg[customer] += 1;
            true
        };
        let add_peer = |b: &mut TopologyBuilder,
                            deg: &mut Vec<usize>,
                            edges: &mut HashSet<u64, AsnHash>,
                            x: usize,
                            y: usize|
         -> bool {
            if x == y || !edges.insert(key(x, y)) {
                return false;
            }
            b.peering(asn_of(x), asn_of(y));
            deg[x] += 1;
            deg[y] += 1;
            true
        };

        // 1. Tier-1 full peering mesh.
        for i in 0..tier1.len() {
            for j in i + 1..tier1.len() {
                if add_peer(&mut b, &mut deg, &mut edges, tier1[i], tier1[j]) {
                    peer_links += 1;
                }
            }
        }

        // 2. Tier-2: 2-4 tier-1 providers each.
        let mut pool = PrefPool::new(&tier1, &deg, n);
        for &x in &tier2 {
            let k = rng.gen_range(2..=4usize.min(tier1.len()));
            for _ in 0..k {
                let p = pool.pick(&mut rng);
                if add_pc(&mut b, &mut deg, &mut edges, p, x) {
                    pc_links += 1;
                    pool.bump(p);
                    pool.bump(x);
                }
            }
        }

        // 3. Tier-3: 1-3 providers from tier 2 (preferential).
        let mut pool = PrefPool::new(&tier2, &deg, n);
        for &x in &tier3 {
            let k = rng.gen_range(1..=3usize);
            for _ in 0..k {
                let p = pool.pick(&mut rng);
                if add_pc(&mut b, &mut deg, &mut edges, p, x) {
                    pc_links += 1;
                    pool.bump(p);
                    pool.bump(x);
                }
            }
        }

        // 4. Stubs: ~60% multi-homed, providers from tiers 2-3.
        let transit_pool: Vec<usize> =
            tier2.iter().chain(tier3.iter()).copied().collect();
        let mut pool = PrefPool::new(&transit_pool, &deg, n);
        for &x in &stubs {
            let k = if rng.gen_bool(0.6) { rng.gen_range(2..=3usize) } else { 1 };
            for _ in 0..k {
                let p = pool.pick(&mut rng);
                if add_pc(&mut b, &mut deg, &mut edges, p, x) {
                    pc_links += 1;
                    pool.bump(p);
                    pool.bump(x);
                }
            }
        }

        // Top up provider-customer links toward the target: extra
        // multi-homing for random stubs / tier-3 nodes. (Same pool as
        // phase 4, carried over with its degree counts.)
        let fringe: Vec<usize> = tier3.iter().chain(stubs.iter()).copied().collect();
        let mut guard = 0;
        while pc_links < self.target_pc_links && guard < self.target_pc_links * 20 {
            guard += 1;
            let x = *fringe.choose(&mut rng).expect("fringe non-empty");
            let p = pool.pick(&mut rng);
            // Keep the hierarchy: provider must be in a strictly higher tier
            // slot (lower index) than the customer.
            if p < x && add_pc(&mut b, &mut deg, &mut edges, p, x) {
                pc_links += 1;
                pool.bump(p);
                pool.bump(x);
            }
        }

        // 5. Peering links among transit tiers (and, Agarwal-style, the
        // upper stub fringe) until the target is met.
        let peer_pool: Vec<usize> = if self.lowtier_peering {
            tier2
                .iter()
                .chain(tier3.iter())
                .chain(stubs.iter().take(stubs.len() / 4))
                .copied()
                .collect()
        } else {
            tier2.iter().chain(tier3.iter()).copied().collect()
        };
        let mut pool = PrefPool::new(&peer_pool, &deg, n);
        let mut guard = 0;
        while peer_links < self.target_peer_links && guard < self.target_peer_links * 40 {
            guard += 1;
            let x = pool.pick(&mut rng);
            let y = pool.pick(&mut rng);
            if add_peer(&mut b, &mut deg, &mut edges, x, y) {
                peer_links += 1;
                pool.bump(x);
                pool.bump(y);
            }
        }

        // 6. Sibling links between same-tier pairs.
        let mut sib = 0;
        let mut guard = 0;
        let tiers: [&[usize]; 3] = [&tier2, &tier3, &stubs];
        while sib < self.target_sibling_links && guard < self.target_sibling_links * 50 + 50 {
            guard += 1;
            let tier = tiers[rng.gen_range(0..tiers.len())];
            if tier.len() < 2 {
                continue;
            }
            let x = *tier.choose(&mut rng).expect("tier non-empty");
            let y = *tier.choose(&mut rng).expect("tier non-empty");
            if x != y && edges.insert(key(x, y)) {
                b.sibling(asn_of(x), asn_of(y));
                deg[x] += 1;
                deg[y] += 1;
                sib += 1;
            }
        }

        b.build_checked(true)
            .expect("generator must produce a valid hierarchical topology")
    }
}

/// Degree-proportional sampler over one fixed candidate pool.
///
/// A Fenwick (binary-indexed) tree over the pool members' degrees makes
/// each preferential-attachment pick O(log |pool|) where the old linear
/// walk was O(|pool|) — the difference between ~1 s and ~20 min of
/// generation at the [`DatasetPreset::InternetScale`] preset (~350k picks
/// over a 21k-node transit pool). The draw is bit-for-bit identical to
/// the walk it replaced: one `gen_range(0..total)` call, then the first
/// pool position whose cumulative degree exceeds the draw, so seeds keep
/// producing the same graphs as before the change.
struct PrefPool {
    /// Pool members, in pick-priority order.
    members: Vec<usize>,
    /// `pos[node] + 1` = Fenwick index of the node, or `u32::MAX` if the
    /// node is not in this pool (degree bumps for non-members are no-ops).
    pos: Vec<u32>,
    /// Fenwick tree over member degrees (1-based).
    tree: Vec<usize>,
    total: usize,
}

impl PrefPool {
    /// Snapshot the current degrees of `pool`'s members. Later increments
    /// must be reported through [`PrefPool::bump`].
    fn new(pool: &[usize], deg: &[usize], n: usize) -> PrefPool {
        let mut pos = vec![u32::MAX; n];
        let mut tree = vec![0usize; pool.len() + 1];
        let mut total = 0;
        for (i, &node) in pool.iter().enumerate() {
            pos[node] = i as u32;
            tree[i + 1] = deg[node];
            total += deg[node];
        }
        // In-place Fenwick construction.
        for i in 1..tree.len() {
            let j = i + (i & i.wrapping_neg());
            if j < tree.len() {
                tree[j] += tree[i];
            }
        }
        PrefPool { members: pool.to_vec(), pos, tree, total }
    }

    /// Record a +1 degree change; no-op if `node` is not a member.
    fn bump(&mut self, node: usize) {
        let p = self.pos[node];
        if p == u32::MAX {
            return;
        }
        let mut i = p as usize + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
        self.total += 1;
    }

    /// Draw a member with probability proportional to its degree (the
    /// last member if all degrees are zero, mirroring the linear walk).
    fn pick(&self, rng: &mut StdRng) -> usize {
        let mut t = rng.gen_range(0..self.total.max(1));
        let len = self.members.len();
        let mut idx = 0usize; // number of members whose cumulative sum <= t
        let mut step = len.next_power_of_two();
        while step > 0 {
            let next = idx + step;
            if next <= len && self.tree[next] <= t {
                t -= self.tree[next];
                idx = next;
            }
            step >>= 1;
        }
        self.members
            .get(idx)
            .copied()
            .unwrap_or_else(|| *self.members.last().expect("pool must be non-empty"))
    }
}

/// Convenience: generate a preset dataset at the given scale.
pub fn dataset(preset: DatasetPreset, scale: f64, seed: u64) -> Topology {
    preset.params(scale, seed).generate()
}

/// A hand-built six-AS topology matching Figure 1.1 / Figure 2.1 of the
/// paper (ASes A-F), used by examples and tests.
///
/// Relationships are chosen so the default BGP routes match the figure:
/// A and D are customers of B/D's providers... concretely:
/// F is a customer of C and E; E is a customer of B and D and peers with C;
/// B and D are customers of A's providers — we model A as customer of B and
/// D, and B peers with C.
pub fn figure_1_1() -> (Topology, [NodeId; 6]) {
    let mut b = TopologyBuilder::new();
    let ids = [
        AsId(1), // A
        AsId(2), // B
        AsId(3), // C
        AsId(4), // D
        AsId(5), // E
        AsId(6), // F
    ];
    for a in ids {
        b.add_as(a);
    }
    b.provider_customer(ids[1], ids[0]); // B provides A
    b.provider_customer(ids[3], ids[0]); // D provides A
    b.provider_customer(ids[1], ids[4]); // B provides E
    b.provider_customer(ids[3], ids[4]); // D provides E
    b.peering(ids[1], ids[2]); // B - C peer
    b.provider_customer(ids[4], ids[5]); // E provides F
    b.provider_customer(ids[2], ids[5]); // C provides F
    b.peering(ids[2], ids[4]); // C - E peer
    let t = b.build_checked(true).expect("figure 1.1 topology is valid");
    let nodes = ids.map(|a| t.node(a).expect("node interned"));
    (t, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Rel;

    #[test]
    fn tiny_is_valid_and_connected() {
        let t = GenParams::tiny(7).generate();
        assert_eq!(t.num_nodes(), 120);
        assert!(t.is_connected(), "generated graph must be connected");
        assert!(t.customer_to_provider_order().is_some());
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = GenParams::tiny(42).generate();
        let b = GenParams::tiny(42).generate();
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        for x in a.nodes() {
            assert_eq!(a.neighbors(x), b.neighbors(x));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = GenParams::tiny(1).generate();
        let b = GenParams::tiny(2).generate();
        let same = a.nodes().all(|x| a.neighbors(x) == b.neighbors(x));
        assert!(!same, "different seeds should give different graphs");
    }

    #[test]
    fn presets_scale_counts() {
        let p = DatasetPreset::Gao2005.params(0.05, 1);
        assert_eq!(p.num_nodes, (20930.0_f64 * 0.05).round() as usize);
        let t = p.generate();
        assert_eq!(t.num_nodes(), p.num_nodes);
        // Edge total should be within 20% of the scaled paper total.
        let target = p.target_pc_links + p.target_peer_links + p.target_sibling_links;
        let got = t.num_edges();
        assert!(
            (got as f64) > 0.75 * target as f64 && (got as f64) < 1.25 * target as f64,
            "edges {got} vs target {target}"
        );
    }

    /// Scales that round below the tier floors once indexed past the end
    /// of a 4-node builder; they now get the smallest buildable graph.
    #[test]
    fn every_preset_generates_at_degenerate_scales() {
        for preset in DatasetPreset::ALL.into_iter().chain([DatasetPreset::InternetScale]) {
            for scale in [0.0, 1e-9, 0.001, -1.0, f64::NAN] {
                let p = preset.params(scale, 42);
                assert!(p.num_nodes >= MIN_NODES, "{preset:?} @ {scale}");
                let t = p.generate();
                assert_eq!(t.num_nodes(), p.num_nodes);
                assert!(t.is_connected(), "{preset:?} @ {scale}");
            }
        }
    }

    #[test]
    fn majority_are_stubs_and_many_multihomed() {
        let t = dataset(DatasetPreset::Gao2005, 0.05, 3);
        let stubs = t.nodes().filter(|&x| t.is_stub(x)).count();
        assert!(
            stubs * 2 > t.num_nodes(),
            "most ASes must be stubs ({stubs}/{})",
            t.num_nodes()
        );
        let multi = t.nodes().filter(|&x| t.is_multihomed_stub(x)).count();
        assert!(
            multi as f64 > 0.35 * stubs as f64,
            "multi-homing should be common: {multi}/{stubs}"
        );
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let t = dataset(DatasetPreset::Gao2005, 0.05, 3);
        let mut degs: Vec<usize> = t.nodes().map(|x| t.degree(x)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let max = degs[0];
        let median = degs[degs.len() / 2];
        assert!(
            max > 10 * median.max(1),
            "tier-1 degree ({max}) should dwarf the median ({median})"
        );
    }

    #[test]
    fn pref_pool_matches_linear_walk() {
        // The retired O(|pool|) walk, kept as the oracle.
        fn linear(t: usize, pool: &[usize], deg: &[usize]) -> usize {
            let mut t = t;
            for &i in pool {
                if t < deg[i] {
                    return i;
                }
                t -= deg[i];
            }
            *pool.last().unwrap()
        }
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..200 {
            let n = 3 + (trial % 37);
            let pool: Vec<usize> = (0..n).collect();
            let mut deg: Vec<usize> = (0..n).map(|_| rng.gen_range(0..5usize)).collect();
            let mut pp = PrefPool::new(&pool, &deg, n);
            for _ in 0..20 {
                let total: usize = pool.iter().map(|&i| deg[i]).sum();
                assert_eq!(pp.total, total);
                let t = rng.gen_range(0..total.max(1));
                // Drive both from the same draw (pick() consumes the rng,
                // so feed it a clone).
                let mut probe = StdRng::seed_from_u64(trial as u64 * 31 + t as u64);
                let picked = PrefPool::pick(&pp, &mut probe);
                let mut replay = StdRng::seed_from_u64(trial as u64 * 31 + t as u64);
                let drawn = replay.gen_range(0..total.max(1));
                assert_eq!(picked, linear(drawn, &pool, &deg), "n={n} t={drawn}");
                // Mutate a random member and keep the tree in sync.
                let bumped = rng.gen_range(0..n);
                deg[bumped] += 1;
                pp.bump(bumped);
            }
        }
    }

    #[test]
    fn internet_scale_preset_is_valid_when_scaled_down() {
        // 1% of the full preset: 700 nodes, ~3.5k edges — the full 70k
        // graph is exercised by `bench-solver internet`, not unit tests.
        let p = DatasetPreset::InternetScale.params(0.01, 11);
        assert_eq!(p.num_nodes, 700);
        let t = p.generate();
        assert!(t.is_connected());
        assert!(t.customer_to_provider_order().is_some());
        let census = crate::stats::link_census(&t);
        assert!(census.pc_links > 10 * census.peering_links.max(1) / 2, "P/C dominates");
        assert!(census.stubs * 2 > census.nodes, "stub majority");
    }

    #[test]
    fn internet_scale_is_not_in_table_5_1() {
        assert!(!DatasetPreset::ALL.contains(&DatasetPreset::InternetScale));
        assert_eq!(DatasetPreset::InternetScale.name(), "Internet 70k");
        let (nodes, pc, peer, sib) = DatasetPreset::InternetScale.paper_counts();
        assert_eq!(nodes, 70000);
        let edges = pc + peer + sib;
        assert!((340_000..360_000).contains(&edges), "~350k edges: {edges}");
    }

    #[test]
    fn figure_1_1_shape() {
        let (t, [a, b, c, d, e, f]) = figure_1_1();
        assert_eq!(t.num_nodes(), 6);
        assert_eq!(t.rel(a, b), Some(Rel::Provider));
        assert_eq!(t.rel(b, c), Some(Rel::Peer));
        assert_eq!(t.rel(e, f), Some(Rel::Customer));
        assert_eq!(t.rel(c, f), Some(Rel::Customer));
        assert!(t.reachable_avoiding(a, f, e), "A can avoid E via B-C-F");
        let _ = d;
    }
}
