//! The route-query serving plane: MIRO's offline-solve / online-serve
//! split.
//!
//! The sharded solver ([`miro_shard`]) turns a topology into a
//! checksummed [`RouteTableSet`] on disk. This crate is the
//! *read path* over that artifact:
//!
//! * [`mmap::MappedTable`] — a zero-copy memory-mapped reader
//!   (validate once at open, borrow rows from the map, per-row
//!   checksum verification on first touch);
//! * [`query::Engine`] — the query semantics: next-hop, full-path, and
//!   alternate-path-avoiding-AS answers over any [`TableSource`]. The
//!   daemon runs it uncached: an answer from the table costs less than a
//!   probe of [`cache::ShardedCache`], which stays for the repo
//!   benchmark's in-process rows;
//! * [`wire`] — the length-prefixed query protocol, framed by the same
//!   codec and frame sum the shard service speaks
//!   ([`miro_shard::protocol::read_raw_frame`]);
//! * [`server`] — the TCP daemon behind `miro serve`.
//!
//! The split matters because MIRO's economics assume alternate-path
//! lookups are *cheap at query time*: an AS solves policy-compliant
//! routing offline (minutes, sharded, checkpointed) and then answers
//! "give me the default route / give me an alternate avoiding AS X"
//! online in microseconds, for millions of users, from one immutable
//! artifact.
//!
//! [`RouteTableSet`]: miro_shard::format::RouteTableSet

pub mod cache;
pub mod mmap;
pub mod query;
pub mod server;
pub mod wire;

use miro_shard::format::{Adjacency, RouteTableSet, RowView};
use miro_topology::NodeId;

/// Read access to one destination's route row: for each AS `x`, the
/// next hop, AS-hop count, and business-class code of `x`'s installed
/// route toward the row's destination ([`miro_bgp::solver`]'s
/// `UNROUTED_*` sentinels mark unreachable ASes, and a next hop of
/// [`BAD_SLOT`](miro_shard::format::BAD_SLOT) a cell whose slot names no
/// neighbour). [`CellRow`] is the one implementation; a caller that
/// needs more than the next hop reads [`RowRead::route`] once, because a
/// sink's route is derived on each access.
pub trait RowRead {
    /// `(next, hops, class)` of AS `x`.
    fn route(&self, x: usize) -> (u32, u16, u8);

    fn next(&self, x: usize) -> u32 {
        self.route(x).0
    }

    fn hops(&self, x: usize) -> u16 {
        self.route(x).1
    }

    fn class(&self, x: usize) -> u8 {
        self.route(x).2
    }

    /// Does AS `x` hold a customer-class route?
    fn customer(&self, x: usize) -> bool {
        self.class(x) == 0
    }
}

/// A solved whole-table artifact the query engine can serve: the mmap'd
/// file ([`mmap::MappedTable`]) in production, the in-memory
/// [`RouteTableSet`] as the equivalence oracle in tests. `row` may fail
/// (first-touch checksum or slot check failing on a corrupt file), and
/// the engine surfaces that as a per-query error rather than dying.
pub trait TableSource {
    type Row<'a>: RowRead
    where
        Self: 'a;

    fn num_nodes(&self) -> u32;
    fn dests(&self) -> &[NodeId];
    fn row(&self, i: usize) -> Result<Self::Row<'_>, String>;
    /// The sections the table's slots index and its sinks derive from,
    /// as the table carries them.
    fn adjacency(&self) -> &Adjacency;

    /// How many rows have passed first-touch verification (0 for
    /// sources without lazy verification, e.g. the in-memory set).
    fn rows_verified(&self) -> u64 {
        0
    }
}

impl TableSource for RouteTableSet {
    type Row<'a> = CellRow<'a>;

    fn num_nodes(&self) -> u32 {
        self.num_nodes()
    }

    fn dests(&self) -> &[NodeId] {
        self.dests()
    }

    /// Rows were checked when the set was decoded (or built by a solve).
    fn row(&self, i: usize) -> Result<CellRow<'_>, String> {
        if i >= self.dests().len() {
            return Err(format!("row {i} out of range ({} rows)", self.dests().len()));
        }
        Ok(CellRow(self.view(i)))
    }

    fn adjacency(&self) -> &Adjacency {
        self.adjacency()
    }
}

/// One destination's row as file bytes — borrowed from the map or from
/// an in-memory image alike — with its exceptions and the table's
/// sections: a transit AS's cell unpacks on access, a sink's route is
/// derived by the sink rule ([`RowView::route`]), so the view needs no
/// alignment and no materialization. Only rows whose checksum and slots
/// were checked are handed out.
#[derive(Clone, Copy)]
pub struct CellRow<'a>(pub RowView<'a>);

impl RowRead for CellRow<'_> {
    #[inline]
    fn route(&self, x: usize) -> (u32, u16, u8) {
        self.0.route(x)
    }

    #[inline]
    fn customer(&self, x: usize) -> bool {
        self.0.customer(x)
    }
}
