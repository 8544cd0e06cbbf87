//! Zero-copy memory-mapped [`RouteTableSet`](miro_shard::format::RouteTableSet) reader.
//!
//! [`miro_shard::format::RouteTableSet::decode`] is the batch reader: it
//! verifies everything up front and copies the whole file into memory —
//! right for a merge step, wrong for a serving daemon that holds a
//! multi-gigabyte table and answers point queries. [`MappedTable`] maps
//! the file read-only and *borrows* rows straight out of the map:
//!
//! * **At open**: one streamed pass of [`TableReader`] — positioned reads
//!   through one bounded buffer, never through the map — validates magic,
//!   version and geometry, decodes the destination index (a few KiB) and,
//!   by default, checks the whole-file
//!   [`checksum`](miro_shard::format::checksum). No page of the
//!   mapping is resident after open; a row becomes resident when a query
//!   first touches it. [`MappedTable::open_unverified`] skips the
//!   checksum, which saves start time, not memory.
//!   The table's adjacency sections (the neighbour lists its slots
//!   index, each AS's partition ends and AS number, a few hundred KiB)
//!   are read and parsed the same way and kept in memory, and so is its
//!   exception list (empty for a solved table), which both opens check
//!   entry by entry ([`Adjacency::check_exceptions`]) before any sink is
//!   derived from it.
//! * **On first touch of a row**: the row's bytes and its exception
//!   entries are checksummed against the file's per-row checksum table
//!   once, and every transit slot is checked against its AS's list
//!   ([`RowView::check`]); then a per-row "verified" bit (an atomic
//!   bitmap, safe under concurrent readers) marks it trusted. Verified
//!   rows are served with no further copying or hashing — [`CellRow`] is
//!   a borrowed byte view: a transit AS's cell is a little-endian read of
//!   one 2-byte cell at its rank, with no cast of the map to `&[u16]` and
//!   no unsafe code, and a next hop is one load from the adjacency; a
//!   sink, which has no cell, is derived from its neighbours' cells by
//!   the solver's sink rule.
//!
//! Why validate-once-then-borrow is safe: the mapping is private and
//! read-only, the daemon never writes the table, and every answer is
//! derived from bytes that passed either the whole-file pass or the
//! row's own checksum and slot check. A table corrupted *between* solve
//! and open is rejected; a row corrupted on disk before open is rejected
//! the first time a query lands on it (checksum mismatch → the query
//! errors, the daemon keeps serving other rows).

use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};

use miro_shard::format::{le_u64, row_checksum, row_exceptions, Adjacency, Layout, RowView, TableReader};
use miro_topology::NodeId;

use crate::{CellRow, TableSource};

// ---------------------------------------------------------------- mmap

/// A read-only memory mapping (unix `mmap(2)` via direct libc FFI — no
/// external crate; the toolchain links libc anyway). Unix only, as the
/// positioned reads of [`TableReader`] are.
mod map {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    #[allow(non_camel_case_types)]
    type c_int = i32;
    extern "C" {
        fn mmap(
            addr: *mut u8,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> c_int;
    }
    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    const MAP_FAILED: *mut u8 = usize::MAX as *mut u8;

    pub struct Map {
        ptr: *mut u8,
        len: usize,
    }

    // The mapping is immutable (PROT_READ, never remapped) for the life
    // of the Map, so shared references to its bytes are safe to send.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        /// `len` must not be 0 (mmap(2) refuses it; the caller refuses
        /// files too short to be a table first).
        pub fn of(file: &File, len: usize) -> std::io::Result<Map> {
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr == MAP_FAILED || ptr.is_null() {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Map { ptr, len })
        }

        pub fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

// --------------------------------------------------------- MappedTable

/// A [`miro_shard::format::RouteTableSet`] file served in place; where
/// its parts sit is [`Layout`]'s business.
pub struct MappedTable {
    map: map::Map,
    layout: Layout,
    /// Decoded destination index and adjacency (the only copied regions:
    /// lookup structure, not row data).
    dests: Vec<NodeId>,
    adj: Adjacency,
    /// The checked exception list.
    exceptions: Vec<u8>,
    /// One bit per row, set once that row's checksum and slots have been
    /// verified.
    verified: Vec<AtomicU64>,
    rows_verified: AtomicU64,
}

impl MappedTable {
    /// Open and fully validate: header, geometry, destination index, and
    /// the whole-file checksum, in one streamed pass that leaves no page
    /// of the mapping resident. Rows additionally verify their own
    /// checksum on first touch, which catches bytes that rot *after* this
    /// pass (or a checksum table that lied).
    pub fn open(path: &std::path::Path) -> Result<MappedTable, String> {
        Self::open_with(path, true)
    }

    /// Open without the whole-file checksum: header, geometry, and the
    /// destination index are still read and validated, through the same
    /// bounded buffer, but row bytes are only checksummed when a query
    /// first touches them. Either way nothing is resident until a row is
    /// served, so skipping the pass saves start time, not memory.
    pub fn open_unverified(path: &std::path::Path) -> Result<MappedTable, String> {
        Self::open_with(path, false)
    }

    fn open_with(path: &std::path::Path, verify_whole_file: bool) -> Result<MappedTable, String> {
        let file =
            File::open(path).map_err(|e| format!("cannot open table {path:?}: {e}"))?;
        let len = file
            .metadata()
            .map_err(|e| format!("cannot stat table {path:?}: {e}"))?
            .len() as usize;
        if len < 24 {
            return Err(format!(
                "table {path:?} is {len} bytes — too short for even an empty RouteTableSet"
            ));
        }
        let map = map::Map::of(&file, len).map_err(|e| format!("cannot map {path:?}: {e}"))?;
        let at = |e: String| format!("table {path:?}: {e}");
        let read = |e: std::io::Error| at(format!("cannot read: {e}"));
        let mut table = TableReader::open(file, len).map_err(read)?.map_err(at)?;
        let layout = table.layout();
        if layout.num_dests() == 0 {
            return Err(format!("table {path:?} holds zero destinations — nothing to serve"));
        }
        if layout.num_nodes() == 0 {
            return Err(format!("table {path:?} claims a zero-node topology"));
        }
        layout.check_len(len).map_err(at)?;
        if verify_whole_file {
            table.stream(false, |_, _, _| Ok(())).map_err(read)?.map_err(at)?;
        }
        let dests = table.dests().map_err(read)?;
        let adj = table.adjacency().map_err(read)?.map_err(at)?;
        let exceptions = table.exceptions(&adj).map_err(read)?.map_err(at)?;
        Ok(MappedTable {
            map,
            layout,
            dests,
            adj,
            exceptions,
            verified: (0..(layout.num_dests() as usize).div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            rows_verified: AtomicU64::new(0),
        })
    }

    /// Total mapped size in bytes.
    pub fn file_bytes(&self) -> usize {
        self.map.bytes().len()
    }

    /// How many rows have passed their first-touch check so far.
    pub fn rows_verified(&self) -> u64 {
        self.rows_verified.load(Ordering::Relaxed)
    }

    /// Borrow row `i`, checksumming it (with its exceptions) and checking
    /// its slots on first
    /// touch. Concurrent first touches may both verify (harmless —
    /// verification is idempotent and the bitmap is monotonic), but only
    /// the one whose `fetch_or` found the bit clear counts the row; a
    /// failure fails every touch, because the bit is only set after
    /// success.
    fn checked_row(&self, i: usize) -> Result<CellRow<'_>, String> {
        let row = &self.map.bytes()[self.layout.row_at(i)..self.layout.row_at(i + 1)];
        let (exceptions, dest) = (row_exceptions(&self.exceptions, i), self.dests[i]);
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        let view = RowView { cells: row, exceptions, adj: &self.adj, dest };
        if self.verified[word].load(Ordering::Acquire) & bit == 0 {
            if row_checksum(row, exceptions) != le_u64(&self.map.bytes()[self.layout.sums_at() + 8 * i..]) {
                return Err(format!("row {i} (destination {dest}) checksum mismatch — table corrupt on disk"));
            }
            view.check().map_err(|e| format!("row {i} (destination {dest}): {e}"))?;
            if self.verified[word].fetch_or(bit, Ordering::AcqRel) & bit == 0 {
                self.rows_verified.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(CellRow(view))
    }
}

impl TableSource for MappedTable {
    type Row<'a> = CellRow<'a>;

    fn num_nodes(&self) -> u32 {
        self.layout.num_nodes()
    }

    fn dests(&self) -> &[NodeId] {
        &self.dests
    }

    fn row(&self, i: usize) -> Result<CellRow<'_>, String> {
        if i >= self.dests.len() {
            return Err(format!("row {i} out of range ({} rows)", self.dests.len()));
        }
        self.checked_row(i)
    }

    fn adjacency(&self) -> &Adjacency {
        &self.adj
    }

    fn rows_verified(&self) -> u64 {
        MappedTable::rows_verified(self)
    }
}
