//! The annotated AS graph.
//!
//! [`Topology`] is immutable once built: the evaluation harness builds one
//! graph per dataset and then runs hundreds of thousands of routing
//! computations against it, so the representation is optimized for reads
//! (dense `u32` node indices, flat adjacency vectors) and constructed
//! through a validating [`TopologyBuilder`].

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A public Autonomous System number, as carried in BGP AS paths.
///
/// The dissertation (Chapter 1) describes 16-bit AS numbers with 32-bit
/// numbers being introduced; we use `u32` throughout.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsId(pub u32);

impl fmt::Debug for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The ASN → node index's hasher: one folded multiply (the 128-bit
/// product's halves xored) of the key under a seed drawn once per process
/// from [`RandomState`]. SipHash cost twice as much per lookup, and the
/// daemon makes two or three lookups a query. The keys an outsider picks
/// are safe without SipHash: a client's ASN only probes an index built
/// at start-up, and an ingest file's ASNs are inserted under a seed the
/// file's author cannot know. The generator's link set hashes its `u64`
/// keys the same way.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AsnHash(u64);

impl Default for AsnHash {
    fn default() -> AsnHash {
        static SEED: OnceLock<u64> = OnceLock::new();
        AsnHash(*SEED.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

impl BuildHasher for AsnHash {
    type Hasher = AsnHasher;

    fn build_hasher(&self) -> AsnHasher {
        AsnHasher(self.0)
    }
}

pub(crate) struct AsnHasher(u64);

impl Hasher for AsnHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(b.into()));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        let m = u128::from(self.0 ^ n) * 0x5851_f42d_4c95_7f2d;
        self.0 = m as u64 ^ (m >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Dense index of an AS inside one [`Topology`].
///
/// All hot-path data structures (routing tables, candidate sets, traffic
/// counters) are `Vec`s indexed by `NodeId`; the mapping to the sparse
/// [`AsId`] space happens only at the edges of the system.
pub type NodeId = u32;

/// What a neighbor *is to me* across one inter-AS link (section 2.2.1).
///
/// Relationships are stored from the perspective of the node that owns the
/// adjacency list: if `x`'s entry for `y` says [`Rel::Customer`], then `y`
/// pays `x` for transit, and `y`'s entry for `x` must say [`Rel::Provider`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Rel {
    /// The neighbor is my customer (it pays me for transit).
    Customer,
    /// The neighbor is my provider (I pay it for transit).
    Provider,
    /// Settlement-free peer: we exchange our customers' traffic only.
    Peer,
    /// Sibling: same institution; mutual full transit.
    Sibling,
}

impl Rel {
    /// The same link seen from the other endpoint.
    pub fn reverse(self) -> Rel {
        match self {
            Rel::Customer => Rel::Provider,
            Rel::Provider => Rel::Customer,
            Rel::Peer => Rel::Peer,
            Rel::Sibling => Rel::Sibling,
        }
    }

    /// Short single-letter tag used by the text serialization format.
    pub fn tag(self) -> char {
        match self {
            Rel::Customer => 'c',
            Rel::Provider => 'p',
            Rel::Peer => 'e',
            Rel::Sibling => 's',
        }
    }

    /// Inverse of [`Rel::tag`].
    pub fn from_tag(c: char) -> Option<Rel> {
        match c {
            'c' => Some(Rel::Customer),
            'p' => Some(Rel::Provider),
            'e' => Some(Rel::Peer),
            's' => Some(Rel::Sibling),
            _ => None,
        }
    }
}

/// Errors detected while building a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The same AS number was registered twice.
    DuplicateAs(AsId),
    /// An edge references an AS that was never registered.
    UnknownAs(AsId),
    /// A self-loop was declared.
    SelfLoop(AsId),
    /// The same unordered pair was given two conflicting relationships.
    ConflictingEdge(AsId, AsId),
    /// The provider-customer subgraph contains a cycle, so the graph is not
    /// hierarchical (section 7.1.3 requires a DAG for the convergence results).
    ProviderCycle(AsId),
    /// An AS has more neighbours than a `u16` slot can index
    /// ([`MAX_DEGREE`]).
    DegreeTooHigh(AsId, usize),
    /// More links were declared than a builder numbers
    /// ([`MAX_DECLARATIONS`]).
    TooManyLinks,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateAs(a) => write!(f, "duplicate AS {a}"),
            TopologyError::UnknownAs(a) => write!(f, "edge references unknown AS {a}"),
            TopologyError::SelfLoop(a) => write!(f, "self loop at AS {a}"),
            TopologyError::ConflictingEdge(a, b) => {
                write!(f, "conflicting relationship declared for link {a}-{b}")
            }
            TopologyError::ProviderCycle(a) => {
                write!(f, "customer-provider cycle through AS {a}")
            }
            TopologyError::DegreeTooHigh(a, d) => {
                write!(f, "AS {a} has {d} neighbours, more than the {MAX_DEGREE} a slot indexes")
            }
            TopologyError::TooManyLinks => {
                write!(f, "more than {MAX_DECLARATIONS} link declarations")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Builder that accumulates ASes and annotated links, then validates.
///
/// Every link declaration is one 12-byte entry in a `Vec`: the pair as
/// (lower node id, higher node id), then the declaration's index, the
/// side it was declared from and the relationship. Nothing is looked up
/// per link. [`TopologyBuilder::tally`] (which the build calls) sorts the
/// entries once, so each pair's declarations sit side by side in the
/// order they were made: the first one is the link, a later one with the
/// same relationship a duplicate, one with another relationship a
/// conflict. The sorted order is also every neighbour list's id order, so
/// the build places the lists and their class partitions by counting,
/// with no per-list sort.
///
/// Validation enforces: unique AS numbers, known endpoints, no self-loops,
/// reciprocal relationship consistency, and (optionally) acyclicity of the
/// customer-provider subgraph.
///
/// ```
/// use miro_topology::{AsId, Rel, TopologyBuilder};
///
/// let mut b = TopologyBuilder::new();
/// for asn in [701, 7018, 88] {
///     b.add_as(AsId(asn));
/// }
/// b.peering(AsId(701), AsId(7018));          // two tier-1 peers
/// b.provider_customer(AsId(7018), AsId(88)); // 7018 provides 88
/// let topo = b.build_checked(true).unwrap();
///
/// let stub = topo.node(AsId(88)).unwrap();
/// assert!(topo.is_leaf(stub));
/// let t1 = topo.node(AsId(701)).unwrap();
/// assert_eq!(topo.rel(stub, topo.node(AsId(7018)).unwrap()), Some(Rel::Provider));
/// assert_eq!(topo.peers(t1).count(), 1);
/// ```
#[derive(Default)]
pub struct TopologyBuilder {
    asns: Vec<AsId>,
    index: HashMap<AsId, NodeId, AsnHash>,
    /// The first AS `declare` was last handed: ingest sources list a
    /// node's links together, so this saves a probe of `index` a link.
    recent: Option<(AsId, NodeId)>,
    /// Link declarations; after a tally, sorted with one entry a link.
    decls: Vec<Decl>,
    /// Declarations made, the next one's index.
    declared: usize,
    /// How many entries of `decls` the last tally left.
    tallied: usize,
    tally: LinkTally,
    last_conflict: Option<(usize, AsId, AsId)>,
    duplicate: Option<AsId>,
    unknown: Option<AsId>,
    self_loop: Option<AsId>,
    too_many: bool,
}

/// The most link declarations one builder numbers.
pub const MAX_DECLARATIONS: usize = 1 << 29;

/// One link declaration: the pair's lower and higher node id, and `tag`,
/// which is the declaration's index << 3 | whether it named `hi` first
/// << 2 | the [`SLOT_ORDER`] class of what `hi` is to `lo`.
#[derive(Clone, Copy)]
struct Decl {
    lo: NodeId,
    hi: NodeId,
    tag: u32,
}

impl Decl {
    fn index(self) -> usize {
        (self.tag >> 3) as usize
    }

    fn named_hi_first(self) -> bool {
        self.tag & 4 != 0
    }

    fn class(self) -> usize {
        (self.tag & 3) as usize
    }
}

/// Sort declarations by (`lo`, `hi`) in two counting passes over node
/// ids — by `hi`, then stably by `lo` — so a pair's declarations keep the
/// order they sat in: declaration order, as a tally leaves the links it
/// kept ahead of every later declaration.
fn radix_sort(decls: &mut [Decl], n: usize) {
    let mut by_hi = vec![Decl { lo: 0, hi: 0, tag: 0 }; decls.len()];
    counting_pass(decls, &mut by_hi, n, |d| d.hi);
    counting_pass(&by_hi, decls, n, |d| d.lo);
}

fn counting_pass(from: &[Decl], to: &mut [Decl], n: usize, key: impl Fn(Decl) -> NodeId) {
    let mut at = vec![0u32; n + 1];
    for &d in from {
        at[key(d) as usize + 1] += 1;
    }
    for i in 0..n {
        at[i + 1] += at[i];
    }
    for &d in from {
        let k = key(d) as usize;
        to[at[k] as usize] = d;
        at[k] += 1;
    }
}

/// What [`TopologyBuilder::tally`] found among the link declarations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkTally {
    /// Distinct links: each unordered pair once.
    pub links: usize,
    /// Later declarations of a pair with the relationship it was first
    /// declared with.
    pub duplicates: usize,
    /// The earliest declaration of a pair with a relationship other than
    /// its first: its index among all declarations (from 0), and its two
    /// ASes in the order it named them.
    pub conflict: Option<(usize, AsId, AsId)>,
}

impl TopologyBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder with room for `links` link declarations, so a load of
    /// known size grows nothing.
    pub fn with_capacity(links: usize) -> Self {
        TopologyBuilder { decls: Vec::with_capacity(links), ..Self::default() }
    }

    /// Register an AS. Returns its dense node id.
    pub fn add_as(&mut self, asn: AsId) -> NodeId {
        let fresh = self.asns.len();
        let id = self.intern_as(asn);
        if self.asns.len() == fresh {
            self.duplicate = Some(asn);
        }
        id
    }

    /// Register an AS if new, otherwise return the existing id. Unlike
    /// [`TopologyBuilder::add_as`] this never flags a duplicate.
    pub fn intern_as(&mut self, asn: AsId) -> NodeId {
        let asns = &mut self.asns;
        *self.index.entry(asn).or_insert_with(|| {
            asns.push(asn);
            (asns.len() - 1) as NodeId
        })
    }

    /// Declare that `b` is `rel` *to* `a` — e.g. `link(a, b, Rel::Customer)`
    /// means `b` is a customer of `a`. Both must be registered.
    pub fn link(&mut self, a: AsId, b: AsId, rel: Rel) -> &mut Self {
        if a == b {
            self.self_loop = Some(a);
            return self;
        }
        match (self.index.get(&a), self.index.get(&b)) {
            (Some(&ia), Some(&ib)) => self.push(ia, ib, rel),
            (None, _) => self.unknown = Some(a),
            (_, None) => self.unknown = Some(b),
        }
        self
    }

    /// [`TopologyBuilder::link`], registering `a` and then `b` if new — the
    /// entry point for ingest, which numbers ASes in order of first
    /// appearance. A self-loop is refused as `link` refuses it, and
    /// registers neither end.
    pub fn declare(&mut self, a: AsId, b: AsId, rel: Rel) -> &mut Self {
        if a == b {
            self.self_loop = Some(a);
            return self;
        }
        let ia = match self.recent {
            Some((asn, id)) if asn == a => id,
            _ => self.intern_as(a),
        };
        self.recent = Some((a, ia));
        let ib = self.intern_as(b);
        self.push(ia, ib, rel);
        self
    }

    fn push(&mut self, ia: NodeId, ib: NodeId, rel: Rel) {
        if self.declared == MAX_DECLARATIONS {
            self.too_many = true;
            return;
        }
        let (lo, hi, swapped, class) =
            if ia < ib { (ia, ib, 0, slot_class(rel)) } else { (ib, ia, 1, slot_class(rel.reverse())) };
        self.decls.push(Decl { lo, hi, tag: (self.declared as u32) << 3 | swapped << 2 | class as u32 });
        self.declared += 1;
    }

    /// Sort the declarations and keep each pair's first: count the later
    /// ones that restate it, and note the earliest (and the latest) that
    /// contradict it. The build calls this; an ingest path calls it first
    /// to place a conflict in its input. A second call sorts only if more
    /// was declared since, and keeps the counts.
    pub fn tally(&mut self) -> LinkTally {
        if self.decls.len() != self.tallied {
            radix_sort(&mut self.decls, self.asns.len());
            let mut kept = 0usize;
            for i in 0..self.decls.len() {
                let d = self.decls[i];
                match kept.checked_sub(1).map(|k| self.decls[k]) {
                    Some(first) if (first.lo, first.hi) == (d.lo, d.hi) => {
                        if first.class() == d.class() {
                            self.tally.duplicates += 1;
                        } else {
                            self.note_conflict(d);
                        }
                    }
                    _ => {
                        self.decls[kept] = d;
                        kept += 1;
                    }
                }
            }
            self.decls.truncate(kept);
            self.decls.shrink_to_fit();
            (self.tallied, self.tally.links) = (kept, kept);
        }
        self.tally
    }

    fn note_conflict(&mut self, d: Decl) {
        let (lo, hi) = (self.asns[d.lo as usize], self.asns[d.hi as usize]);
        let named = if d.named_hi_first() { (d.index(), hi, lo) } else { (d.index(), lo, hi) };
        if self.tally.conflict.is_none_or(|c| c.0 > named.0) {
            self.tally.conflict = Some(named);
        }
        if self.last_conflict.is_none_or(|c| c.0 < named.0) {
            self.last_conflict = Some(named);
        }
    }

    /// Convenience: declare a customer-provider link (`customer` pays
    /// `provider`).
    pub fn provider_customer(&mut self, provider: AsId, customer: AsId) -> &mut Self {
        self.link(provider, customer, Rel::Customer)
    }

    /// Convenience: declare a settlement-free peering link.
    pub fn peering(&mut self, a: AsId, b: AsId) -> &mut Self {
        self.link(a, b, Rel::Peer)
    }

    /// Convenience: declare a sibling link.
    pub fn sibling(&mut self, a: AsId, b: AsId) -> &mut Self {
        self.link(a, b, Rel::Sibling)
    }

    /// Validate and freeze. `require_hierarchy` additionally checks that the
    /// customer-provider subgraph is a DAG (the standing assumption of the
    /// Chapter 7 convergence results). Of several conflicting
    /// declarations, the latest is named.
    pub fn build_checked(mut self, require_hierarchy: bool) -> Result<Topology, TopologyError> {
        if let Some(a) = self.duplicate {
            return Err(TopologyError::DuplicateAs(a));
        }
        if let Some(a) = self.unknown {
            return Err(TopologyError::UnknownAs(a));
        }
        if let Some(a) = self.self_loop {
            return Err(TopologyError::SelfLoop(a));
        }
        if self.too_many {
            return Err(TopologyError::TooManyLinks);
        }
        self.tally();
        if let Some((_, a, b)) = self.last_conflict {
            return Err(TopologyError::ConflictingEdge(a, b));
        }
        let n = self.asns.len();
        // Each node's count of neighbours in each class of its slot
        // order, then their prefix sums: where each partition starts.
        let mut part_off = vec![0u32; 4 * n + 1];
        for d in &self.decls {
            part_off[4 * d.lo as usize + d.class() + 1] += 1;
            part_off[4 * d.hi as usize + slot_class(SLOT_ORDER[d.class()].reverse()) + 1] += 1;
        }
        // A transit AS has a customer or a sibling.
        let mut transit = vec![false; n];
        for x in 0..n {
            let count = &part_off[4 * x + 1..4 * x + 5];
            let degree = count.iter().sum::<u32>() as usize;
            if degree > MAX_DEGREE {
                return Err(TopologyError::DegreeTooHigh(self.asns[x], degree));
            }
            transit[x] = count[CLASS_SIBLING] + count[CLASS_CUSTOMER] > 0;
        }
        for i in 0..4 * n {
            part_off[i + 1] += part_off[i];
        }
        let offsets: Vec<u32> = part_off.iter().step_by(4).copied().collect();

        // The declarations are sorted by (lower id, higher id), so each
        // node receives its lower neighbours in id order, then its higher
        // ones: appending builds id-sorted lists.
        let total = offsets[n] as usize;
        let mut adj = vec![(0, Rel::Customer); total];
        let mut cursor = offsets.clone();
        for d in std::mem::take(&mut self.decls) {
            let rel = SLOT_ORDER[d.class()];
            adj[cursor[d.lo as usize] as usize] = (d.hi, rel);
            cursor[d.lo as usize] += 1;
            adj[cursor[d.hi as usize] as usize] = (d.lo, rel.reverse());
            cursor[d.hi as usize] += 1;
        }
        drop(cursor);

        // The slot order: each list split by class into its partition,
        // in id order. Beside each entry `y` of `x`'s list, `x`'s slot in
        // `y`'s list: nodes are visited in id order, so each partition of
        // `y` is met in its own order.
        let mut part = vec![0; total];
        let mut back = vec![0u16; total];
        let mut met = part_off.clone();
        for x in 0..n {
            let mut next: [u32; 4] = std::array::from_fn(|c| part_off[4 * x + c]);
            for &(y, rel) in &adj[offsets[x] as usize..offsets[x + 1] as usize] {
                let i = &mut next[slot_class(rel)];
                let at = &mut met[4 * y as usize + slot_class(rel.reverse())];
                part[*i as usize] = y;
                back[*i as usize] = (*at - part_off[4 * y as usize]) as u16;
                *i += 1;
                *at += 1;
            }
        }
        drop(met);

        // Each node's `transit_down` slice: siblings, then the customers
        // that are not sinks, with the same back slots.
        let (mut tdown, mut tdown_back, mut tdown_off) = (Vec::new(), Vec::new(), Vec::with_capacity(n + 1));
        tdown_off.push(0u32);
        for x in 0..n {
            let (sib, cust) = (4 * x + CLASS_SIBLING, 4 * x + CLASS_CUSTOMER);
            let keep = |&i: &usize| i < part_off[cust] as usize || transit[part[i] as usize];
            for i in (part_off[sib] as usize..part_off[cust + 1] as usize).filter(keep) {
                tdown.push(part[i]);
                tdown_back.push(back[i]);
            }
            tdown_off.push(tdown.len() as u32);
        }
        let sinks = (0..n as NodeId).filter(|&x| !transit[x as usize]).collect();
        let (asns, index) = (self.asns, self.index);
        let topo =
            Topology { asns, index, offsets, adj, part, part_off, back, tdown, tdown_back, tdown_off, sinks };
        if require_hierarchy {
            if let Some(node) = topo.find_provider_cycle() {
                return Err(TopologyError::ProviderCycle(topo.asn(node)));
            }
        }
        Ok(topo)
    }

    /// Validate and freeze without the hierarchy check.
    pub fn build(self) -> Result<Topology, TopologyError> {
        self.build_checked(false)
    }
}

/// An immutable, validated AS-level topology with relationship annotations.
///
/// Adjacency is stored twice, both in flat CSR (compressed sparse row)
/// form so traversals touch contiguous memory instead of chasing one heap
/// allocation per node:
///
/// * `offsets`/`adj` — node `i`'s neighbors, sorted by id, are
///   `adj[offsets[i]..offsets[i+1]]`. Backs [`Topology::neighbors`] and the
///   binary-searched [`Topology::rel`].
/// * `part_off`/`part` — the same neighbor ids grouped per node by
///   relationship class in the fixed order Provider, Sibling, Customer,
///   Peer. Each routing sweep's edge set (providers+siblings going up,
///   siblings+customers going down, peers sideways) is then one contiguous
///   slice: see [`Topology::up_offers`] and friends.
///
/// The second copy is each node's **slot order**: a route table names a
/// next hop by its index in that list ([`Topology::slot_neighbors`]).
/// `back` holds, beside each `part` entry `y` of node `x`, `x`'s slot in
/// `y`'s list — the slot an offer from `x` settles at `y` — so the
/// solver never searches for one. A slot is a `u16`, which bounds every
/// degree at [`MAX_DEGREE`].
///
/// A *sink* is an AS with no customers and no siblings: it passes no
/// route on in any sweep. `tdown_off`/`tdown`/`tdown_back` hold each
/// node's [`Topology::transit_down_offers`] slice (siblings, then the customers
/// that are not sinks) with its back slots, and `sinks` lists the sinks
/// by id.
#[derive(Clone, Debug)]
pub struct Topology {
    asns: Vec<AsId>,
    index: HashMap<AsId, NodeId, AsnHash>,
    offsets: Vec<u32>,
    adj: Vec<(NodeId, Rel)>,
    part: Vec<NodeId>,
    part_off: Vec<u32>,
    back: Vec<u16>,
    tdown: Vec<NodeId>,
    tdown_back: Vec<u16>,
    tdown_off: Vec<u32>,
    sinks: Vec<NodeId>,
}

/// The most neighbours an AS may have: a slot is a `u16`, and every slot
/// of a list of this length is below `u16::MAX`.
pub const MAX_DEGREE: usize = u16::MAX as usize;

/// The class partitions of a node's slot order, in order.
pub const SLOT_ORDER: [Rel; 4] = [Rel::Provider, Rel::Sibling, Rel::Customer, Rel::Peer];

/// Index of `rel`'s partition in [`SLOT_ORDER`].
const fn slot_class(rel: Rel) -> usize {
    match rel {
        Rel::Provider => CLASS_PROVIDER,
        Rel::Sibling => CLASS_SIBLING,
        Rel::Customer => CLASS_CUSTOMER,
        Rel::Peer => CLASS_PEER,
    }
}

/// Index of each relationship class inside a node's `part` partition. The
/// order makes both sweep unions (`Provider+Sibling`, `Sibling+Customer`)
/// contiguous.
const CLASS_PROVIDER: usize = 0;
const CLASS_SIBLING: usize = 1;
const CLASS_CUSTOMER: usize = 2;
const CLASS_PEER: usize = 3;

impl Topology {
    /// Number of ASes.
    pub fn num_nodes(&self) -> usize {
        self.asns.len()
    }

    /// Number of inter-AS links (each unordered pair counted once).
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// All node ids, `0..num_nodes`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.asns.len() as NodeId
    }

    /// The AS number of a node.
    pub fn asn(&self, id: NodeId) -> AsId {
        self.asns[id as usize]
    }

    /// Look up the dense id of an AS number.
    pub fn node(&self, asn: AsId) -> Option<NodeId> {
        self.index.get(&asn).copied()
    }

    /// Neighbors of `id` with the relationship each neighbor is *to* `id`,
    /// sorted by neighbor id.
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[(NodeId, Rel)] {
        &self.adj[self.offsets[id as usize] as usize..self.offsets[id as usize + 1] as usize]
    }

    /// The relationship `b` is to `a`, if the link exists.
    pub fn rel(&self, a: NodeId, b: NodeId) -> Option<Rel> {
        let list = self.neighbors(a);
        list.binary_search_by_key(&b, |&(id, _)| id)
            .ok()
            .map(|i| list[i].1)
    }

    /// Degree (total neighbor count) of a node.
    #[inline]
    pub fn degree(&self, id: NodeId) -> usize {
        (self.offsets[id as usize + 1] - self.offsets[id as usize]) as usize
    }

    /// Where classes `lo..hi` of `id`'s slot order sit in `part`.
    #[inline]
    fn class_range(&self, id: NodeId, lo: usize, hi: usize) -> std::ops::Range<usize> {
        let base = 4 * id as usize;
        self.part_off[base + lo] as usize..self.part_off[base + hi] as usize
    }

    /// One class partition of `id`'s neighbors: classes `lo..hi` in the
    /// Provider, Sibling, Customer, Peer order.
    #[inline]
    fn class_slice(&self, id: NodeId, lo: usize, hi: usize) -> &[NodeId] {
        &self.part[self.class_range(id, lo, hi)]
    }

    /// Classes `lo..hi` of `id`'s neighbors, and beside each, `id`'s slot
    /// in that neighbor's list.
    #[inline]
    fn class_offers(&self, id: NodeId, lo: usize, hi: usize) -> (&[NodeId], &[u16]) {
        let r = self.class_range(id, lo, hi);
        (&self.part[r.clone()], &self.back[r])
    }

    /// Every neighbor of `id` in **slot order** — the class partitions
    /// Provider, Sibling, Customer, Peer ([`SLOT_ORDER`]), each sorted by
    /// id. A route table names a next hop by its index here.
    #[inline]
    pub fn slot_neighbors(&self, id: NodeId) -> &[NodeId] {
        self.class_slice(id, CLASS_PROVIDER, CLASS_PEER + 1)
    }

    /// The neighbor at `slot` of `id`'s slot order.
    #[inline]
    pub fn slot_neighbor(&self, id: NodeId, slot: usize) -> NodeId {
        // A node's list starts where its id-sorted adjacency does.
        self.part[self.offsets[id as usize] as usize + slot]
    }

    /// [`Topology::slot_neighbors`] of `id`, and beside each, `id`'s slot
    /// in that neighbor's list.
    #[inline]
    pub fn slot_offers(&self, id: NodeId) -> (&[NodeId], &[u16]) {
        self.class_offers(id, CLASS_PROVIDER, CLASS_PEER + 1)
    }

    /// Where each class partition of `id`'s slot order starts, and its
    /// end: partition `c` of [`SLOT_ORDER`] is slots `bounds[c]..bounds[c + 1]`.
    #[inline]
    pub fn slot_bounds(&self, id: NodeId) -> [usize; 5] {
        let base = 4 * id as usize;
        let start = self.part_off[base];
        std::array::from_fn(|c| (self.part_off[base + c] - start) as usize)
    }

    /// `y`'s slot in `x`'s list, if they are neighbors.
    pub fn slot(&self, x: NodeId, y: NodeId) -> Option<u16> {
        let c = slot_class(self.rel(x, y)?);
        let (start, part) = (self.class_range(x, 0, 0).start, self.class_range(x, c, c + 1));
        let at = self.part[part.clone()].binary_search(&y).ok()?;
        Some((part.start - start + at) as u16)
    }

    /// Neighbors a route propagates to on the way *up* the hierarchy —
    /// providers and siblings, one contiguous slice — and beside each,
    /// `id`'s slot in that neighbor's list.
    #[inline]
    pub fn up_offers(&self, id: NodeId) -> (&[NodeId], &[u16]) {
        self.class_offers(id, CLASS_PROVIDER, CLASS_CUSTOMER)
    }

    /// Neighbors a route propagates to on the way *down* — siblings and
    /// customers, one contiguous slice — with back slots.
    #[inline]
    pub fn down_offers(&self, id: NodeId) -> (&[NodeId], &[u16]) {
        self.class_offers(id, CLASS_SIBLING, CLASS_PEER)
    }

    /// [`Topology::sibling_neighbors`] with back slots.
    #[inline]
    pub fn sibling_offers(&self, id: NodeId) -> (&[NodeId], &[u16]) {
        self.class_offers(id, CLASS_SIBLING, CLASS_CUSTOMER)
    }

    /// [`Topology::peer_neighbors`] with back slots.
    #[inline]
    pub fn peer_offers(&self, id: NodeId) -> (&[NodeId], &[u16]) {
        self.class_offers(id, CLASS_PEER, CLASS_PEER + 1)
    }

    /// Siblings of `id`, then its customers that are not sinks — where a
    /// provider-class route travels on from `id` — with back slots.
    #[inline]
    pub fn transit_down_offers(&self, id: NodeId) -> (&[NodeId], &[u16]) {
        let r = self.tdown_off[id as usize] as usize..self.tdown_off[id as usize + 1] as usize;
        (&self.tdown[r.clone()], &self.tdown_back[r])
    }

    /// Provider neighbors of `id` as a contiguous slice.
    #[inline]
    pub fn provider_neighbors(&self, id: NodeId) -> &[NodeId] {
        self.class_slice(id, CLASS_PROVIDER, CLASS_SIBLING)
    }

    /// Sibling neighbors of `id` as a contiguous slice.
    #[inline]
    pub fn sibling_neighbors(&self, id: NodeId) -> &[NodeId] {
        self.class_slice(id, CLASS_SIBLING, CLASS_CUSTOMER)
    }

    /// Customer neighbors of `id` as a contiguous slice.
    #[inline]
    pub fn customer_neighbors(&self, id: NodeId) -> &[NodeId] {
        self.class_slice(id, CLASS_CUSTOMER, CLASS_PEER)
    }

    /// Peer neighbors of `id` as a contiguous slice.
    #[inline]
    pub fn peer_neighbors(&self, id: NodeId) -> &[NodeId] {
        self.class_slice(id, CLASS_PEER, CLASS_PEER + 1)
    }

    /// Every sink (no customers, no siblings), in id order.
    pub fn sinks(&self) -> &[NodeId] {
        &self.sinks
    }

    /// Customers of `id`.
    pub fn customers(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.customer_neighbors(id).iter().copied()
    }

    /// Providers of `id`.
    pub fn providers(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.provider_neighbors(id).iter().copied()
    }

    /// Peers of `id`.
    pub fn peers(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.peer_neighbors(id).iter().copied()
    }

    /// Siblings of `id`.
    pub fn siblings(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.sibling_neighbors(id).iter().copied()
    }

    /// A *leaf node* in the sense of section 7.3.2: an AS that acts only as a
    /// customer in every one of its inter-AS agreements.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        !self.neighbors(id).is_empty()
            && self.neighbors(id).iter().all(|&(_, r)| r == Rel::Provider)
    }

    /// A *stub AS*: no customers (it provides transit to nobody). Stubs may
    /// still have peers; leaf nodes are the stricter notion.
    pub fn is_stub(&self, id: NodeId) -> bool {
        self.customers(id).next().is_none()
    }

    /// A multi-homed stub: a stub with at least two providers (section 5.4's
    /// study population).
    pub fn is_multihomed_stub(&self, id: NodeId) -> bool {
        self.is_stub(id) && self.providers(id).count() >= 2
    }

    /// Is the graph connected when edges are taken as undirected?
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut count = 1;
        while let Some(x) = stack.pop() {
            for &(y, _) in self.neighbors(x) {
                if !seen[y as usize] {
                    seen[y as usize] = true;
                    count += 1;
                    stack.push(y);
                }
            }
        }
        count == n
    }

    /// Whether `dst` stays reachable from `src` after deleting `avoid`
    /// (ignoring all policy). This is exactly the paper's feasibility test
    /// for the avoid-AS application: "a depth-first search algorithm is run
    /// on the graph to identify those nodes" (section 5.3.1). Source routing
    /// succeeds if and only if this returns `true`.
    pub fn reachable_avoiding(&self, src: NodeId, dst: NodeId, avoid: NodeId) -> bool {
        if src == avoid || dst == avoid {
            return false;
        }
        if src == dst {
            return true;
        }
        let mut seen = vec![false; self.num_nodes()];
        seen[src as usize] = true;
        seen[avoid as usize] = true; // never enter the avoided AS
        let mut stack = vec![src];
        while let Some(x) = stack.pop() {
            for &(y, _) in self.neighbors(x) {
                if y == dst {
                    return true;
                }
                if !seen[y as usize] {
                    seen[y as usize] = true;
                    stack.push(y);
                }
            }
        }
        false
    }

    /// Topological order of the customer->provider DAG (customers first).
    /// Sibling and peer edges are ignored. Returns `None` if the
    /// provider-customer subgraph has a cycle.
    pub fn customer_to_provider_order(&self) -> Option<Vec<NodeId>> {
        // Kahn's algorithm over edges customer -> provider.
        let n = self.num_nodes();
        let mut indeg = vec![0usize; n]; // number of customers
        for x in self.nodes() {
            indeg[x as usize] = self.customers(x).count();
        }
        let mut queue: Vec<NodeId> =
            self.nodes().filter(|&x| indeg[x as usize] == 0).collect();
        // Deterministic order.
        queue.sort_unstable();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            order.push(x);
            for p in self.providers(x) {
                indeg[p as usize] -= 1;
                if indeg[p as usize] == 0 {
                    queue.push(p);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    fn find_provider_cycle(&self) -> Option<NodeId> {
        if self.customer_to_provider_order().is_some() {
            return None;
        }
        // Find some node on a cycle for the error message: any node whose
        // in-degree never drained.
        let n = self.num_nodes();
        let mut indeg = vec![0usize; n];
        for x in self.nodes() {
            indeg[x as usize] = self.customers(x).count();
        }
        let mut queue: Vec<NodeId> =
            self.nodes().filter(|&x| indeg[x as usize] == 0).collect();
        let mut head = 0;
        let mut drained = vec![false; n];
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            drained[x as usize] = true;
            for p in self.providers(x) {
                indeg[p as usize] -= 1;
                if indeg[p as usize] == 0 {
                    queue.push(p);
                }
            }
        }
        self.nodes().find(|&x| !drained[x as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_node() -> Topology {
        // D provides to A and B; A-B peer; B provides to C.
        let mut b = TopologyBuilder::new();
        for n in [1, 2, 3, 4] {
            b.add_as(AsId(n));
        }
        b.provider_customer(AsId(4), AsId(1));
        b.provider_customer(AsId(4), AsId(2));
        b.peering(AsId(1), AsId(2));
        b.provider_customer(AsId(2), AsId(3));
        b.build_checked(true).unwrap()
    }

    #[test]
    fn builds_and_reports_sizes() {
        let t = four_node();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_edges(), 4);
        assert!(t.is_connected());
    }

    #[test]
    fn reciprocal_relationships() {
        let t = four_node();
        let a = t.node(AsId(1)).unwrap();
        let d = t.node(AsId(4)).unwrap();
        assert_eq!(t.rel(a, d), Some(Rel::Provider)); // D is A's provider
        assert_eq!(t.rel(d, a), Some(Rel::Customer)); // A is D's customer
    }

    #[test]
    fn peer_is_symmetric() {
        let t = four_node();
        let a = t.node(AsId(1)).unwrap();
        let b = t.node(AsId(2)).unwrap();
        assert_eq!(t.rel(a, b), Some(Rel::Peer));
        assert_eq!(t.rel(b, a), Some(Rel::Peer));
    }

    #[test]
    fn missing_link_is_none() {
        let t = four_node();
        let a = t.node(AsId(1)).unwrap();
        let c = t.node(AsId(3)).unwrap();
        assert_eq!(t.rel(a, c), None);
    }

    #[test]
    fn leaf_and_stub_census() {
        let t = four_node();
        let a = t.node(AsId(1)).unwrap();
        let c = t.node(AsId(3)).unwrap();
        let d = t.node(AsId(4)).unwrap();
        assert!(t.is_stub(a)); // A has no customers (peer + provider only)
        assert!(!t.is_leaf(a)); // ... but A peers, so not a leaf
        assert!(t.is_leaf(c));
        assert!(!t.is_stub(d));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_as(AsId(1));
        b.link(AsId(1), AsId(1), Rel::Peer);
        assert_eq!(b.build().unwrap_err(), TopologyError::SelfLoop(AsId(1)));
    }

    #[test]
    fn duplicate_as_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_as(AsId(7));
        b.add_as(AsId(7));
        assert_eq!(b.build().unwrap_err(), TopologyError::DuplicateAs(AsId(7)));
    }

    #[test]
    fn conflicting_edge_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_as(AsId(1));
        b.add_as(AsId(2));
        b.peering(AsId(1), AsId(2));
        b.provider_customer(AsId(1), AsId(2));
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::ConflictingEdge(_, _)
        ));
    }

    #[test]
    fn redeclaring_same_edge_is_fine() {
        let mut b = TopologyBuilder::new();
        b.add_as(AsId(1));
        b.add_as(AsId(2));
        b.provider_customer(AsId(1), AsId(2));
        // Same fact from the other side.
        b.link(AsId(2), AsId(1), Rel::Provider);
        assert!(b.build().is_ok());
    }

    #[test]
    fn provider_cycle_detected() {
        let mut b = TopologyBuilder::new();
        for n in [1, 2, 3] {
            b.add_as(AsId(n));
        }
        b.provider_customer(AsId(1), AsId(2));
        b.provider_customer(AsId(2), AsId(3));
        b.provider_customer(AsId(3), AsId(1));
        assert!(matches!(
            b.build_checked(true).unwrap_err(),
            TopologyError::ProviderCycle(_)
        ));
        // Without the hierarchy requirement the same graph is accepted.
        let mut b = TopologyBuilder::new();
        for n in [1, 2, 3] {
            b.add_as(AsId(n));
        }
        b.provider_customer(AsId(1), AsId(2));
        b.provider_customer(AsId(2), AsId(3));
        b.provider_customer(AsId(3), AsId(1));
        assert!(b.build().is_ok());
    }

    #[test]
    fn tally_counts_restatements_and_places_the_first_conflict() {
        let mut b = TopologyBuilder::new();
        b.declare(AsId(1), AsId(2), Rel::Customer);
        assert_eq!(b.tally(), LinkTally { links: 1, duplicates: 0, conflict: None });
        // The same fact from the same side and from the other; another link.
        b.declare(AsId(1), AsId(2), Rel::Customer).declare(AsId(2), AsId(1), Rel::Provider);
        b.declare(AsId(3), AsId(4), Rel::Peer);
        assert_eq!(b.tally(), LinkTally { links: 2, duplicates: 2, conflict: None });
        // Declarations 4 and 5 contradict declaration 0: the tally places
        // the first, as declared; the build names the last.
        b.declare(AsId(2), AsId(1), Rel::Peer).declare(AsId(1), AsId(2), Rel::Sibling);
        let want = LinkTally { links: 2, duplicates: 2, conflict: Some((4, AsId(2), AsId(1))) };
        assert_eq!(b.tally(), want);
        assert_eq!(b.build().unwrap_err(), TopologyError::ConflictingEdge(AsId(1), AsId(2)));
    }

    #[test]
    fn declare_numbers_ases_by_first_appearance_and_refuses_self_loops() {
        let mut b = TopologyBuilder::new();
        b.declare(AsId(9), AsId(5), Rel::Customer).declare(AsId(5), AsId(7), Rel::Peer);
        let t = b.build().unwrap();
        assert_eq!([t.asn(0), t.asn(1), t.asn(2)], [AsId(9), AsId(5), AsId(7)]);
        assert_eq!(t.rel(0, 1), Some(Rel::Customer));
        let mut b = TopologyBuilder::new();
        b.declare(AsId(1), AsId(2), Rel::Peer).declare(AsId(3), AsId(3), Rel::Peer);
        assert_eq!(b.build().unwrap_err(), TopologyError::SelfLoop(AsId(3)));
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_as(AsId(1));
        b.peering(AsId(1), AsId(99));
        assert_eq!(b.build().unwrap_err(), TopologyError::UnknownAs(AsId(99)));
    }

    #[test]
    fn reachability_avoiding_cut_node() {
        // Chain 1 - 2 - 3: node 2 separates 1 from 3.
        let mut b = TopologyBuilder::new();
        for n in [1, 2, 3] {
            b.add_as(AsId(n));
        }
        b.provider_customer(AsId(2), AsId(1));
        b.provider_customer(AsId(2), AsId(3));
        let t = b.build().unwrap();
        let (n1, n2, n3) = (
            t.node(AsId(1)).unwrap(),
            t.node(AsId(2)).unwrap(),
            t.node(AsId(3)).unwrap(),
        );
        assert!(!t.reachable_avoiding(n1, n3, n2));
        assert!(t.reachable_avoiding(n1, n2, n3));
    }

    #[test]
    fn reachability_avoiding_with_detour() {
        let t = four_node();
        let a = t.node(AsId(1)).unwrap();
        let b = t.node(AsId(2)).unwrap();
        let d = t.node(AsId(4)).unwrap();
        // A can reach B either directly (peer) or via D.
        assert!(t.reachable_avoiding(a, b, d));
    }

    #[test]
    fn csr_partitions_cover_all_neighbors() {
        let t = four_node();
        for x in t.nodes() {
            let mut from_classes: Vec<NodeId> = t
                .provider_neighbors(x)
                .iter()
                .chain(t.sibling_neighbors(x))
                .chain(t.customer_neighbors(x))
                .chain(t.peer_neighbors(x))
                .copied()
                .collect();
            from_classes.sort_unstable();
            let all: Vec<NodeId> = t.neighbors(x).iter().map(|&(y, _)| y).collect();
            assert_eq!(from_classes, all, "partitions partition the adjacency");
            assert_eq!(
                t.up_offers(x).0.len(),
                t.provider_neighbors(x).len() + t.sibling_neighbors(x).len()
            );
            assert_eq!(
                t.down_offers(x).0.len(),
                t.sibling_neighbors(x).len() + t.customer_neighbors(x).len()
            );
            for &y in t.up_offers(x).0 {
                assert!(matches!(t.rel(x, y), Some(Rel::Provider | Rel::Sibling)));
            }
            for &y in t.down_offers(x).0 {
                assert!(matches!(t.rel(x, y), Some(Rel::Sibling | Rel::Customer)));
            }
            assert_eq!(t.degree(x), t.neighbors(x).len());
        }
    }

    proptest::proptest! {
        /// The transit-down slice and the sink list equal their filter
        /// definitions: a sink has no customer and no sibling; a node's
        /// slice is its siblings, then its customers that are not sinks.
        #[test]
        fn transit_down_and_sinks_match_their_definitions(
            edges in proptest::collection::vec((0u32..24, 0u32..24, 0u8..4), 0..60),
        ) {
            let mut b = TopologyBuilder::new();
            for n in 0..24 {
                b.intern_as(AsId(100 + n));
            }
            let mut seen = std::collections::HashSet::new();
            for (x, y, r) in edges {
                let rel = [Rel::Customer, Rel::Provider, Rel::Peer, Rel::Sibling][r as usize];
                if x != y && seen.insert((x.min(y), x.max(y))) {
                    b.declare(AsId(100 + x), AsId(100 + y), rel);
                }
            }
            let t = b.build().unwrap();
            let transit = |r: Rel| matches!(r, Rel::Customer | Rel::Sibling);
            let sink = |x: NodeId| !t.neighbors(x).iter().any(|&(_, r)| transit(r));
            let sinks: Vec<NodeId> = t.nodes().filter(|&x| sink(x)).collect();
            proptest::prop_assert_eq!(t.sinks(), &sinks[..]);
            for x in t.nodes() {
                let want: Vec<NodeId> =
                    t.siblings(x).chain(t.customers(x).filter(|&y| !sink(y))).collect();
                proptest::prop_assert_eq!(t.transit_down_offers(x).0, &want[..]);
            }
        }
    }

    #[test]
    fn topological_order_respects_hierarchy() {
        let t = four_node();
        let order = t.customer_to_provider_order().unwrap();
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &x)| (x, i)).collect();
        // Every customer precedes its provider.
        for x in t.nodes() {
            for p in t.providers(x) {
                assert!(pos[&x] < pos[&p], "customer must precede provider");
            }
        }
    }

    /// Every back slot names the node in its neighbour's list; `slot`
    /// finds each neighbour where the slot order puts it; every offer
    /// slice carries the back slots of its own entries.
    #[test]
    fn back_slots_and_slot_agree_with_the_slot_order() {
        let t = crate::GenParams::tiny(9).generate();
        for x in t.nodes() {
            let (ys, backs) = t.slot_offers(x);
            assert_eq!(ys, t.slot_neighbors(x));
            for (s, (&y, &back)) in ys.iter().zip(backs).enumerate() {
                assert_eq!(t.slot_neighbor(y, back as usize), x, "{x}'s slot in {y}'s list");
                assert_eq!(t.slot(x, y), Some(s as u16));
                assert_eq!(t.slot_neighbor(x, s), y);
            }
            let bounds = t.slot_bounds(x);
            for (c, rel) in SLOT_ORDER.into_iter().enumerate() {
                assert!(ys[bounds[c]..bounds[c + 1]].iter().all(|&y| t.rel(x, y) == Some(rel)));
            }
            for (ys, backs) in [t.up_offers(x), t.down_offers(x), t.sibling_offers(x), t.peer_offers(x), t.transit_down_offers(x)] {
                for (&y, &back) in ys.iter().zip(backs) {
                    assert_eq!(t.slot(y, x), Some(back));
                }
            }
            assert_eq!(t.slot(x, x), None);
        }
    }

    #[test]
    fn a_degree_past_what_a_slot_indexes_is_refused() {
        let mut b = TopologyBuilder::with_capacity(MAX_DEGREE + 1);
        for asn in 0..=MAX_DEGREE as u32 + 1 {
            b.intern_as(AsId(asn));
        }
        for leaf in 1..=MAX_DEGREE as u32 {
            b.provider_customer(AsId(0), AsId(leaf));
        }
        let mut wider = TopologyBuilder::with_capacity(MAX_DEGREE + 1);
        for asn in 0..=MAX_DEGREE as u32 + 1 {
            wider.intern_as(AsId(asn));
        }
        for leaf in 1..=MAX_DEGREE as u32 + 1 {
            wider.provider_customer(AsId(0), AsId(leaf));
        }
        assert_eq!(b.build().map(|t| t.degree(0)), Ok(MAX_DEGREE));
        let err = wider.build().unwrap_err();
        assert_eq!(err, TopologyError::DegreeTooHigh(AsId(0), MAX_DEGREE + 1));
        assert!(err.to_string().contains("more than the 65535"), "{err}");
    }
}
