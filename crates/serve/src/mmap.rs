//! Zero-copy memory-mapped [`RouteTableSet`](miro_shard::format::RouteTableSet) reader.
//!
//! [`miro_shard::format::RouteTableSet::decode`] is the batch reader: it
//! copies every row into owned columns and verifies everything up front —
//! right for a merge step, wrong for a serving daemon that holds a
//! multi-gigabyte table and answers point queries. [`MappedTable`] maps
//! the file read-only and *borrows* rows straight out of the map:
//!
//! * **At open**: one streamed pass of [`TableReader`] — positioned reads
//!   through one bounded buffer, never through the map — validates magic,
//!   version and geometry, decodes the destination index (a few KiB) and,
//!   by default, checks the whole-file [`checksum`]. No page of the
//!   mapping is resident after open; a row becomes resident when a query
//!   first touches it. [`MappedTable::open_unverified`] skips the
//!   checksum, which saves start time, not memory.
//! * **On first touch of a row**: the row's bytes are checksummed
//!   against the file's per-row checksum table once, then a per-row "verified"
//!   bit (an atomic bitmap, safe under concurrent readers) marks it
//!   trusted. Verified rows are served with no further copying or
//!   hashing — [`MappedRow`] is a borrowed byte view that decodes cells with
//!   `from_le_bytes` on access, so row starts need no alignment (a row
//!   is `7 * num_nodes` bytes; odd `num_nodes` would misalign any
//!   borrowed `&[u32]`).
//!
//! Why validate-once-then-borrow is safe: the mapping is private and
//! read-only, the daemon never writes the table, and every answer is
//! derived from bytes that passed either the whole-file pass or the
//! row's own checksum. A table corrupted *between* solve and open is
//! rejected; a row corrupted on disk before open is rejected the first
//! time a query lands on it (checksum mismatch → the query errors, the
//! daemon keeps serving other rows).

use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};

use miro_shard::format::{checksum, le_u64, Layout, TableReader};
use miro_topology::NodeId;

use crate::{RowRead, TableSource};

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
    /// Decoded destination index (the only copied region: `4D` bytes of
    /// lookup structure, not row data).
    dests: Vec<NodeId>,
    /// One bit per row, set once that row's checksum has been verified.
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
            table.stream(false, |_, _| Ok(())).map_err(read)?.map_err(at)?;
        }
        let dests = table.dests().map_err(read)?;
        Ok(MappedTable {
            map,
            layout,
            dests,
            verified: (0..(layout.num_dests() as usize).div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            rows_verified: AtomicU64::new(0),
        })
    }

    /// Total mapped size in bytes.
    pub fn file_bytes(&self) -> usize {
        self.map.bytes().len()
    }

    /// How many rows have passed their first-touch checksum so far.
    pub fn rows_verified(&self) -> u64 {
        self.rows_verified.load(Ordering::Relaxed)
    }

    /// Borrow row `i`, checksumming it on first touch. Concurrent first
    /// touches may both verify (harmless — verification is idempotent
    /// and the bitmap is monotonic), but only the one whose `fetch_or`
    /// found the bit clear counts the row; a mismatch fails every
    /// touch, set bit or not, because the bit is only set after success.
    fn checked_row(&self, i: usize) -> Result<MappedRow<'_>, String> {
        let row = &self.map.bytes()[self.layout.row_at(i)..self.layout.row_at(i + 1)];
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.verified[word].load(Ordering::Acquire) & bit == 0 {
            if checksum(row) != le_u64(&self.map.bytes()[self.layout.sums_at() + 8 * i..]) {
                return Err(format!(
                    "row {i} (destination {}) checksum mismatch — table corrupt on disk",
                    self.dests[i]
                ));
            }
            if self.verified[word].fetch_or(bit, Ordering::AcqRel) & bit == 0 {
                self.rows_verified.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(MappedRow { bytes: row, v: self.layout.num_nodes() as usize })
    }
}

impl TableSource for MappedTable {
    type Row<'a> = MappedRow<'a>;

    fn num_nodes(&self) -> u32 {
        self.layout.num_nodes()
    }

    fn dests(&self) -> &[NodeId] {
        &self.dests
    }

    fn row(&self, i: usize) -> Result<MappedRow<'_>, String> {
        if i >= self.dests.len() {
            return Err(format!("row {i} out of range ({} rows)", self.dests.len()));
        }
        self.checked_row(i)
    }

    fn rows_verified(&self) -> u64 {
        MappedTable::rows_verified(self)
    }
}

/// One destination's columns, borrowed from the map. Cells decode on
/// access with `from_le_bytes`, so the view needs no alignment and no
/// materialization.
#[derive(Clone, Copy)]
pub struct MappedRow<'a> {
    bytes: &'a [u8],
    v: usize,
}

impl RowRead for MappedRow<'_> {
    #[inline]
    fn next(&self, x: usize) -> u32 {
        u32::from_le_bytes(self.bytes[4 * x..4 * x + 4].try_into().unwrap())
    }

    #[inline]
    fn hops(&self, x: usize) -> u16 {
        let at = 4 * self.v + 2 * x;
        u16::from_le_bytes(self.bytes[at..at + 2].try_into().unwrap())
    }

    #[inline]
    fn class(&self, x: usize) -> u8 {
        self.bytes[6 * self.v + x]
    }
}
