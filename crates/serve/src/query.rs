//! Query semantics over a solved route table: next-hop, full-path, and
//! alternate-path-avoiding-AS.
//!
//! The table stores, per destination row, every AS's *installed* route
//! (next hop, hop count, business class). The three query kinds are:
//!
//! * **next-hop** — one cell probe: `row[dest][src]`.
//! * **path** — chase next hops from the source to the destination. The
//!   chain is finite in a well-formed table (rows are routing trees); a
//!   hop budget of `num_nodes` turns a corrupt table's cycle into a
//!   clean per-query error.
//! * **alternate avoiding AS X** — the MIRO §2 question, answered from
//!   precomputed state. If the default path already avoids X, it *is*
//!   the answer. Otherwise the engine walks the default path's prefix
//!   (the ASes before the first occurrence of X — exactly the on-path
//!   ASes a MIRO source would negotiate with, in contact order) and
//!   looks for the first neighbor `n` of an on-path AS `v` such that
//!
//!   1. `n`'s installed route toward the destination avoids X,
//!   2. `n` would actually export that route to `v` under the
//!      Gao-Rexford export rule ([`ExportScope::allows`], using the
//!      class byte stored in the table), and
//!   3. the splice `src → … → v → n → … → dest` is loop-free.
//!
//!   The first `(v, n)` in path-then-adjacency order wins, so answers
//!   are deterministic for a given table + topology. This is the
//!   serving-plane analogue of the offline negotiation experiments in
//!   `miro-eval::avoid`: those enumerate full candidate sets per
//!   responder; the serving plane answers from installed routes only,
//!   which is what a precomputed-alternates daemon can promise in
//!   microseconds. Tail-avoidance is memoized per query in a
//!   generation-stamped [`QueryScratch`], so the worst case is O(V)
//!   once, not per candidate.
//!
//! [`Engine::reply`] is the allocation-free core the daemon calls: a `Copy`
//! [`Reply`] head, the path left in [`QueryScratch::path`].

use std::sync::atomic::{AtomicU64, Ordering};

use miro_bgp::route::ExportScope;
use miro_bgp::solver::UNROUTED_NEXT;
use miro_shard::format::BAD_SLOT;
use miro_topology::{NodeId, RouteClass, Topology};

use crate::cache::ShardedCache;
use crate::{RowRead, TableSource};

/// One route query, in node-id terms (the wire layer maps ASNs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// The installed next hop of `src` toward `dest`.
    NextHop { src: NodeId, dest: NodeId },
    /// The full installed AS path `src … dest`.
    Path { src: NodeId, dest: NodeId },
    /// An alternate path from `src` to `dest` that does not traverse
    /// `avoid`.
    Alternate { src: NodeId, dest: NodeId, avoid: NodeId },
}

impl Query {
    /// Stable 64-bit key for the hot cache (FNV-1a over the packed
    /// discriminant + operands).
    pub fn cache_hash(&self) -> u64 {
        let (kind, a, b, c): (u8, u32, u32, u32) = match *self {
            Query::NextHop { src, dest } => (1, src, dest, 0),
            Query::Path { src, dest } => (2, src, dest, 0),
            Query::Alternate { src, dest, avoid } => (3, src, dest, avoid),
        };
        let mut bytes = [0u8; 13];
        bytes[0] = kind;
        bytes[1..5].copy_from_slice(&a.to_le_bytes());
        bytes[5..9].copy_from_slice(&b.to_le_bytes());
        bytes[9..13].copy_from_slice(&c.to_le_bytes());
        miro_shard::fnv1a(&bytes)
    }
}

/// A query's answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// Next-hop probe: the raw table cell.
    NextHop { next: NodeId, hops: u16, class: u8 },
    /// Full installed path, source first, destination last
    /// (`[src]` alone when source *is* the destination).
    Path { path: Vec<NodeId> },
    /// An avoiding path. `via: None` means the default path already
    /// avoids the AS; `via: Some((v, n))` means the path deviates from
    /// the default at on-path AS `v` through its neighbor `n`.
    Alternate { via: Option<(NodeId, NodeId)>, path: Vec<NodeId> },
    /// The source has no installed route toward the destination.
    Unrouted,
    /// No policy-compliant alternate avoiding the AS exists in the
    /// served table (MIRO would have to negotiate deeper state than
    /// installed routes to do better).
    NoAlternate,
}

/// An answer's head: everything but its path, which [`Engine::reply`]
/// leaves in [`QueryScratch::path`] (empty unless `Path`/`Alternate`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    NextHop { next: NodeId, hops: u16, class: u8 },
    Path,
    Alternate { via: Option<(NodeId, NodeId)> },
    Unrouted,
    NoAlternate,
}

impl Reply {
    /// The owned answer this head and its path stand for.
    pub fn to_answer(self, path: &[NodeId]) -> Answer {
        match self {
            Reply::NextHop { next, hops, class } => Answer::NextHop { next, hops, class },
            Reply::Path => Answer::Path { path: path.to_vec() },
            Reply::Alternate { via } => Answer::Alternate { via, path: path.to_vec() },
            Reply::Unrouted => Answer::Unrouted,
            Reply::NoAlternate => Answer::NoAlternate,
        }
    }
}

impl Answer {
    /// Head and borrowed path: the inverse of [`Reply::to_answer`].
    pub fn parts(&self) -> (Reply, &[NodeId]) {
        match *self {
            Answer::NextHop { next, hops, class } => (Reply::NextHop { next, hops, class }, &[]),
            Answer::Path { ref path } => (Reply::Path, path),
            Answer::Alternate { via, ref path } => (Reply::Alternate { via }, path),
            Answer::Unrouted => (Reply::Unrouted, &[]),
            Answer::NoAlternate => (Reply::NoAlternate, &[]),
        }
    }
}

/// Why a query could not be answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The destination has no row in the served table.
    UnknownDest(NodeId),
    /// A query operand is not a node of the served topology.
    NodeOutOfRange(NodeId),
    /// Asking to avoid the source itself is meaningless.
    AvoidIsSource,
    /// The table failed validation under this query (first-touch row
    /// checksum mismatch, or a next-hop chain that cycles).
    Corrupt(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownDest(d) => {
                write!(f, "destination {d} has no row in the served table")
            }
            QueryError::NodeOutOfRange(n) => write!(f, "node {n} is not in the topology"),
            QueryError::AvoidIsSource => write!(f, "cannot avoid the source AS itself"),
            QueryError::Corrupt(why) => write!(f, "table corrupt: {why}"),
        }
    }
}

/// Per-thread query scratch: generation-stamped memo tables sized to the
/// topology, so steady-state queries allocate nothing (the repo's
/// `SolveScratch` idiom).
#[derive(Default)]
pub struct QueryScratch {
    gen: u32,
    /// Tail-avoidance memo: `tail_ok[x]` is valid iff `tail_stamp[x] == gen`.
    tail_stamp: Vec<u32>,
    tail_ok: Vec<bool>,
    /// Splice-prefix membership: `on_prefix[x] == gen` iff `x` is on the
    /// default path's kept prefix.
    on_prefix: Vec<u32>,
    /// Chase buffer for tail walks.
    walk: Vec<NodeId>,
    /// The last [`Engine::reply`]'s path.
    path: Vec<NodeId>,
}

impl QueryScratch {
    pub fn new() -> QueryScratch {
        QueryScratch::default()
    }

    /// The last [`Engine::reply`]'s path (empty unless `Path`/`Alternate`).
    pub fn path(&self) -> &[NodeId] {
        &self.path
    }

    fn begin(&mut self, nodes: usize) -> u32 {
        if self.tail_stamp.len() < nodes {
            self.tail_stamp.resize(nodes, 0);
            self.tail_ok.resize(nodes, false);
            self.on_prefix.resize(nodes, 0);
        }
        if self.gen == u32::MAX {
            self.tail_stamp.iter_mut().for_each(|s| *s = 0);
            self.on_prefix.iter_mut().for_each(|s| *s = 0);
            self.gen = 0;
        }
        self.gen += 1;
        self.gen
    }
}

/// Served-query counters (all relaxed: they are metrics, not locks).
#[derive(Default)]
pub struct EngineStats {
    pub next_hop: AtomicU64,
    pub path: AtomicU64,
    pub alternate: AtomicU64,
    pub errors: AtomicU64,
}

impl EngineStats {
    pub fn queries(&self) -> u64 {
        self.next_hop.load(Ordering::Relaxed)
            + self.path.load(Ordering::Relaxed)
            + self.alternate.load(Ordering::Relaxed)
    }
}

/// The query engine: a [`TableSource`], the topology it was solved over
/// (adjacency + export relationships for alternate queries), and an
/// optional hot cache in front of the two non-trivial query kinds
/// (next-hop probes are a single cell read — caching them through a
/// mutex stripe would cost more than the probe). `miro serve` runs it
/// without the cache, which costs more than a path from the table.
pub struct Engine<T: TableSource> {
    table: T,
    topo: Topology,
    /// Row of each node's destination, `u32::MAX` for unserved nodes.
    dest_index: Vec<u32>,
    cache: Option<ShardedCache>,
    pub stats: EngineStats,
}

impl<T: TableSource> Engine<T> {
    /// Build an engine. The topology must be the one the table was
    /// solved over: the node count, and then every neighbour list,
    /// partition end and AS number the table carries, must be the
    /// topology's, or the error names the first AS whose sections differ.
    pub fn new(table: T, topo: Topology, cache: Option<ShardedCache>) -> Result<Engine<T>, String> {
        if table.num_nodes() as usize != topo.num_nodes() {
            return Err(format!(
                "table solved over {} nodes, topology has {} — wrong topology for this table",
                table.num_nodes(),
                topo.num_nodes()
            ));
        }
        if let Some(x) = table.adjacency().first_difference(&topo) {
            return Err(format!(
                "the table's neighbour list of AS {} (node {x}) is not the topology's — wrong topology for this table",
                topo.asn(x)
            ));
        }
        let mut dest_index = vec![u32::MAX; topo.num_nodes()];
        for (i, &d) in table.dests().iter().enumerate() {
            if let Some(row) = dest_index.get_mut(d as usize) {
                *row = i as u32;
            }
        }
        Ok(Engine { table, topo, dest_index, cache, stats: EngineStats::default() })
    }

    pub fn table(&self) -> &T {
        &self.table
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn cache(&self) -> Option<&ShardedCache> {
        self.cache.as_ref()
    }

    /// [`Engine::reply`] as an owned [`Answer`].
    pub fn answer(&self, q: Query, scratch: &mut QueryScratch) -> Result<Answer, QueryError> {
        self.reply(q, scratch).map(|r| r.to_answer(&scratch.path))
    }

    /// Answer one query without allocating: the head is returned, the
    /// path left in [`QueryScratch::path`]. `scratch` is per-thread
    /// state; answers are a pure function of (table, topology, query).
    pub fn reply(&self, q: Query, scratch: &mut QueryScratch) -> Result<Reply, QueryError> {
        let out = self.reply_uncounted(q, scratch);
        match (&out, q) {
            (Err(_), _) => self.stats.errors.fetch_add(1, Ordering::Relaxed),
            (Ok(_), Query::NextHop { .. }) => self.stats.next_hop.fetch_add(1, Ordering::Relaxed),
            (Ok(_), Query::Path { .. }) => self.stats.path.fetch_add(1, Ordering::Relaxed),
            (Ok(_), Query::Alternate { .. }) => {
                self.stats.alternate.fetch_add(1, Ordering::Relaxed)
            }
        };
        out
    }

    fn reply_uncounted(&self, q: Query, scratch: &mut QueryScratch) -> Result<Reply, QueryError> {
        scratch.path.clear();
        let (src, dest, avoid) = match q {
            Query::NextHop { src, dest } => {
                let row = self.dest_row(dest)?;
                self.check_node(src)?;
                let (next, hops, class) = self.row(row)?.route(src as usize);
                if next == UNROUTED_NEXT {
                    return Ok(Reply::Unrouted);
                }
                if next == BAD_SLOT {
                    return Err(QueryError::Corrupt(format!("the next-hop slot of {src} names no neighbour")));
                }
                return Ok(Reply::NextHop { next, hops, class });
            }
            Query::Path { src, dest } => (src, dest, None),
            Query::Alternate { src, dest, avoid } => (src, dest, Some(avoid)),
        };
        if let Some(hit) = self.cache.as_ref().and_then(|c| c.get_into(&q, &mut scratch.path)) {
            return Ok(hit);
        }
        let reply = match avoid {
            None => self.full_path(src, dest, &mut scratch.path)?,
            Some(avoid) => self.alternate(src, dest, avoid, scratch)?,
        };
        if let Some(cache) = &self.cache {
            cache.put_from(&q, reply, &scratch.path);
        }
        Ok(reply)
    }

    fn check_node(&self, n: NodeId) -> Result<(), QueryError> {
        if (n as usize) < self.topo.num_nodes() {
            Ok(())
        } else {
            Err(QueryError::NodeOutOfRange(n))
        }
    }

    fn dest_row(&self, dest: NodeId) -> Result<usize, QueryError> {
        self.check_node(dest)?;
        match self.dest_index[dest as usize] {
            u32::MAX => Err(QueryError::UnknownDest(dest)),
            row => Ok(row as usize),
        }
    }

    fn row(&self, i: usize) -> Result<T::Row<'_>, QueryError> {
        self.table.row(i).map_err(QueryError::Corrupt)
    }

    /// Chase installed next hops from `src` to `dest` into `path`, source
    /// first; `false` (and `path` empty) when `src` is unrouted.
    fn chase(
        &self,
        row: &T::Row<'_>,
        src: NodeId,
        dest: NodeId,
        path: &mut Vec<NodeId>,
    ) -> Result<bool, QueryError> {
        path.clear();
        let mut next = row.next(src as usize);
        if next == UNROUTED_NEXT {
            return Ok(false);
        }
        let mut at = src;
        path.push(at);
        while at != dest {
            if path.len() > self.topo.num_nodes() {
                return Err(QueryError::Corrupt(format!(
                    "next-hop chain from {src} toward {dest} cycles"
                )));
            }
            at = next;
            if at == UNROUTED_NEXT {
                return Err(QueryError::Corrupt(format!(
                    "next-hop chain from {src} toward {dest} dead-ends at an unrouted AS"
                )));
            }
            self.check_node(at).map_err(|_| {
                QueryError::Corrupt(format!(
                    "next-hop chain from {src} toward {dest} leaves the topology"
                ))
            })?;
            path.push(at);
            if at != dest {
                next = row.next(at as usize);
            }
        }
        Ok(true)
    }

    fn full_path(&self, src: NodeId, dest: NodeId, path: &mut Vec<NodeId>) -> Result<Reply, QueryError> {
        let row = self.dest_row(dest)?;
        self.check_node(src)?;
        let r = self.row(row)?;
        Ok(if self.chase(&r, src, dest, path)? { Reply::Path } else { Reply::Unrouted })
    }

    /// Does the installed tail from `n` to the row's destination avoid
    /// `avoid`? Memoized in `scratch` under the current generation: a
    /// verdict learned on one chase answers every node of that chase.
    fn tail_avoids(
        &self,
        r: &T::Row<'_>,
        n: NodeId,
        dest: NodeId,
        avoid: NodeId,
        scratch: &mut QueryScratch,
        gen: u32,
    ) -> Result<bool, QueryError> {
        scratch.walk.clear();
        let mut at = n;
        let verdict = loop {
            if at == avoid {
                break false;
            }
            if scratch.tail_stamp[at as usize] == gen {
                break scratch.tail_ok[at as usize];
            }
            scratch.walk.push(at);
            if at == dest {
                break true;
            }
            if scratch.walk.len() > self.topo.num_nodes() {
                return Err(QueryError::Corrupt(format!(
                    "next-hop chain from {n} toward {dest} cycles"
                )));
            }
            let next = r.next(at as usize);
            if next == UNROUTED_NEXT || next as usize >= self.topo.num_nodes() {
                break false;
            }
            at = next;
        };
        // Every node walked before the verdict point shares the verdict:
        // their tails all run through `at`.
        for &x in &scratch.walk {
            scratch.tail_stamp[x as usize] = gen;
            scratch.tail_ok[x as usize] = verdict;
        }
        Ok(verdict)
    }

    /// The alternate-path search described in the module docs; the
    /// answer's path is left in `scratch.path`.
    fn alternate(
        &self,
        src: NodeId,
        dest: NodeId,
        avoid: NodeId,
        scratch: &mut QueryScratch,
    ) -> Result<Reply, QueryError> {
        let row = self.dest_row(dest)?;
        self.check_node(src)?;
        self.check_node(avoid)?;
        if avoid == src {
            return Err(QueryError::AvoidIsSource);
        }
        if avoid == dest {
            // Every path to the destination "traverses" it.
            return Ok(Reply::NoAlternate);
        }
        let r = self.row(row)?;
        if !self.chase(&r, src, dest, &mut scratch.path)? {
            return Ok(Reply::Unrouted);
        }
        let Some(offender) = scratch.path.iter().position(|&x| x == avoid) else {
            return Ok(Reply::Alternate { via: None });
        };

        let gen = scratch.begin(self.topo.num_nodes());
        // Contact the on-path ASes before the offender, in path order —
        // the MIRO source's negotiation order.
        for vi in 0..offender {
            let v = scratch.path[vi];
            scratch.on_prefix[v as usize] = gen;
            for &(n, rel) in self.topo.neighbors(v) {
                if n == avoid || scratch.on_prefix[n as usize] == gen {
                    continue;
                }
                // Would n export its installed route to v at all? Any
                // route to a customer or sibling, only a customer route
                // to a provider or peer — so only then is its class read.
                // An unrouted n has no tail that avoids anything.
                let every_route = ExportScope::allows(RouteClass::Provider, rel.reverse());
                if !every_route && !r.customer(n as usize) {
                    continue;
                }
                if !self.tail_avoids(&r, n, dest, avoid, scratch, gen)? {
                    continue;
                }
                // Loop check: the tail must not re-enter the kept prefix.
                scratch.walk.clear();
                let mut at = n;
                let looped = loop {
                    scratch.walk.push(at);
                    if at == dest {
                        break false;
                    }
                    at = r.next(at as usize);
                    if scratch.on_prefix[at as usize] == gen {
                        break true;
                    }
                };
                if looped {
                    continue;
                }
                scratch.path.truncate(vi + 1);
                scratch.path.extend_from_slice(&scratch.walk);
                return Ok(Reply::Alternate { via: Some((v, n)) });
            }
        }
        scratch.path.clear();
        Ok(Reply::NoAlternate)
    }
}
