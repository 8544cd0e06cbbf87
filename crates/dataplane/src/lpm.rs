//! Longest-prefix-match forwarding table: a binary trie to build and
//! edit, compiled once into a stride table to forward from.
//!
//! BGP's destination-based forwarding (section 2.1.1) performs a
//! longest-prefix match on the destination address: `12.34.56.78` matches
//! `12.34.0.0/16` unless a more specific `12.34.56.0/24` exists. This is
//! also how multi-homed stubs today hack inbound control by announcing
//! smaller subnets (section 1.2 footnote), so the experiments comparing
//! MIRO against that practice need a real LPM.
//!
//! [`PrefixTrie`] is the reference: one bit per level, insert / remove /
//! exact `get`, and a `lookup` that walks up to 32 boxed nodes.
//! [`StrideTable`] is what the burst engine forwards from: the same
//! entries expanded into a 16-4-4-8 multibit table, so a lookup is one
//! to four dependent loads (two for a /20).

use crate::ipv4::Ipv4Addr4;
use std::collections::HashMap;
use std::hash::Hash;

/// A prefix: address plus mask length.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Prefix {
    pub addr: Ipv4Addr4,
    pub len: u8,
}

impl Prefix {
    /// Construct, canonicalizing host bits to zero. Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr4, len: u8) -> Prefix {
        assert!(len <= 32, "prefix length out of range");
        let raw = addr.to_u32();
        let masked = if len == 0 { 0 } else { raw & (!0u32 << (32 - len)) };
        Prefix { addr: Ipv4Addr4::from_u32(masked), len }
    }

    /// Does this prefix cover `addr`?
    pub fn covers(&self, addr: Ipv4Addr4) -> bool {
        if self.len == 0 {
            return true;
        }
        let mask = !0u32 << (32 - self.len);
        (addr.to_u32() & mask) == self.addr.to_u32()
    }
}

impl std::fmt::Display for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

#[derive(Default)]
struct Node<T> {
    children: [Option<Box<Node<T>>>; 2],
    value: Option<T>,
}

/// A binary trie keyed by IPv4 prefixes.
///
/// ```
/// use miro_dataplane::ipv4::Ipv4Addr4;
/// use miro_dataplane::lpm::{Prefix, PrefixTrie};
///
/// // The Table 1.1 situation: a /24 shadows the /16 it sits inside.
/// let mut t = PrefixTrie::new();
/// t.insert(Prefix::new(Ipv4Addr4::new(128, 112, 0, 0), 16), "via 10466");
/// t.insert(Prefix::new(Ipv4Addr4::new(128, 113, 11, 0), 24), "via 3754");
/// let (p, next) = t.lookup(Ipv4Addr4::new(128, 113, 11, 9)).unwrap();
/// assert_eq!(*next, "via 3754");
/// assert_eq!(p.len, 24);
/// ```
pub struct PrefixTrie<T> {
    root: Node<T>,
    len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        PrefixTrie {
            root: Node { children: [None, None], value: None },
            len: 0,
        }
    }
}

impl<T> PrefixTrie<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert (or replace) the entry for `prefix`. Returns the previous
    /// value if the prefix was already present.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let bits = prefix.addr.to_u32();
        let mut node = &mut self.root;
        for i in 0..prefix.len {
            let b = ((bits >> (31 - i)) & 1) as usize;
            node = node.children[b]
                .get_or_insert_with(|| Box::new(Node { children: [None, None], value: None }));
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove the entry for exactly `prefix`.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        let bits = prefix.addr.to_u32();
        let mut node = &mut self.root;
        for i in 0..prefix.len {
            let b = ((bits >> (31 - i)) & 1) as usize;
            node = node.children[b].as_deref_mut()?;
        }
        let old = node.value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Longest-prefix match: the most specific entry covering `addr`.
    pub fn lookup(&self, addr: Ipv4Addr4) -> Option<(Prefix, &T)> {
        let bits = addr.to_u32();
        let mut node = &self.root;
        let mut best: Option<(u8, &T)> = node.value.as_ref().map(|v| (0, v));
        for i in 0..32u8 {
            let b = ((bits >> (31 - i)) & 1) as usize;
            match node.children[b].as_deref() {
                Some(next) => {
                    node = next;
                    if let Some(v) = node.value.as_ref() {
                        best = Some((i + 1, v));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, v)| (Prefix::new(addr, len), v))
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        let bits = prefix.addr.to_u32();
        let mut node = &self.root;
        for i in 0..prefix.len {
            let b = ((bits >> (31 - i)) & 1) as usize;
            node = node.children[b].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Every stored entry, in no particular order.
    pub fn entries(&self) -> Vec<(Prefix, &T)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![(&self.root, 0u32, 0u8)];
        while let Some((node, bits, depth)) = stack.pop() {
            if let Some(v) = &node.value {
                out.push((Prefix::new(Ipv4Addr4::from_u32(bits), depth), v));
            }
            for (b, child) in node.children.iter().enumerate() {
                if let Some(child) = child {
                    stack.push((child, bits | ((b as u32) << (31 - depth)), depth + 1));
                }
            }
        }
        out
    }

    /// Compile the trie into a [`StrideTable`] with the same longest
    /// matches. Linear in entries plus the chunks they expand into.
    pub fn compile(&self) -> StrideTable<T>
    where
        T: Clone + Eq + Hash,
    {
        let mut entries = self.entries();
        entries.sort_unstable_by_key(|(p, _)| p.len);
        let mut table = StrideTable {
            // `vec![0; n]` is a zeroed allocation: root pages no prefix
            // is painted over are never made resident.
            root: vec![0; 1 << ENDS[0]].into_boxed_slice(),
            chunks: Vec::new(),
            values: Vec::new(),
        };
        let mut slot_of: HashMap<&T, u32> = HashMap::new();
        for (prefix, value) in entries {
            let slot = *slot_of.entry(value).or_insert_with(|| {
                table.values.push(value.clone());
                table.values.len() as u32
            });
            assert!(slot < CHUNK, "more distinct values than a table entry can name");
            table.paint(prefix, slot);
        }
        table
    }
}

/// Address bits consumed once each level of a [`StrideTable`] is read:
/// a 2^16-entry root, then chunks of 4, 4 and 8 bits. A 4-bit chunk is
/// sixteen `u32`s, one 64-byte cache line.
const ENDS: [u32; 4] = [16, 20, 24, 32];

/// Tag bit of a table entry that points at a chunk (the rest of the
/// entry is the chunk's offset in [`StrideTable::chunks`]). An untagged
/// entry is 0 for "no route" or `1 +` an index into the value table.
const CHUNK: u32 = 1 << 31;

/// Bits `from..to` of `addr` (counted from the most significant bit): the
/// index of `addr`'s entry within the level that consumes them.
fn index(addr: u32, from: u32, to: u32) -> usize {
    ((addr << from) >> (32 - (to - from))) as usize
}

/// A [`PrefixTrie`] compiled for forwarding: every prefix is painted over
/// the range of entries it covers at the first level deep enough to hold
/// it, shortest prefixes first, so a longer prefix overwrites the shorter
/// ones it sits inside. Values are stored once each, however many
/// prefixes share them. Immutable: recompile after editing the trie.
pub struct StrideTable<T> {
    root: Box<[u32]>,
    chunks: Vec<u32>,
    values: Vec<T>,
}

impl<T> StrideTable<T> {
    /// Longest-prefix match: the value of the most specific prefix
    /// covering `addr`, as [`PrefixTrie::lookup`] finds it.
    #[inline]
    pub fn get(&self, addr: Ipv4Addr4) -> Option<&T> {
        let addr = addr.to_u32();
        let mut entry = self.root[index(addr, 0, ENDS[0])];
        for w in ENDS.windows(2) {
            if entry & CHUNK == 0 {
                break;
            }
            entry = self.chunks[(entry & !CHUNK) as usize + index(addr, w[0], w[1])];
        }
        entry.checked_sub(1).map(|i| &self.values[i as usize])
    }

    /// Distinct values stored.
    pub fn distinct_values(&self) -> usize {
        self.values.len()
    }

    /// Bytes held by the root, the chunks and the value table.
    pub fn bytes(&self) -> usize {
        4 * (self.root.len() + self.chunks.len()) + self.values.len() * size_of::<T>()
    }

    /// Paint `prefix` with `entry`: walk (creating chunks as needed) to
    /// the level whose last bit is at or past the prefix's length, then
    /// overwrite the aligned range the prefix covers there. A new chunk
    /// starts as copies of the entry it replaces, so shorter prefixes
    /// painted earlier still answer inside it.
    fn paint(&mut self, prefix: Prefix, entry: u32) {
        let (addr, len) = (prefix.addr.to_u32(), u32::from(prefix.len));
        let mut at: Option<usize> = None; // the root, or a chunk's offset
        let mut from = 0;
        for (level, &to) in ENDS.iter().enumerate() {
            let i = index(addr, from, to);
            if len <= to {
                let span = 1 << (to - len);
                let range = &mut self.level(at, to - from)[i..i + span];
                debug_assert!(range.iter().all(|&e| e & CHUNK == 0), "painted shortest first");
                range.fill(entry);
                return;
            }
            let old = self.level(at, to - from)[i];
            let chunk = if old & CHUNK != 0 {
                (old & !CHUNK) as usize
            } else {
                let off = self.chunks.len();
                self.chunks.resize(off + (1 << (ENDS[level + 1] - to)), old);
                self.level(at, to - from)[i] = CHUNK | off as u32;
                off
            };
            at = Some(chunk);
            from = to;
        }
    }

    /// The entries of the root (`None`) or of the `width`-bit chunk at
    /// offset `at`.
    fn level(&mut self, at: Option<usize>, width: u32) -> &mut [u32] {
        match at {
            None => &mut self.root,
            Some(off) => &mut self.chunks[off..off + (1 << width)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(a: u8, b: u8, c: u8, d: u8, len: u8) -> Prefix {
        Prefix::new(Ipv4Addr4::new(a, b, c, d), len)
    }

    #[test]
    fn longest_match_wins() {
        // The Table 1.1 / section 2.1.1 example: a /24 shadows the /16.
        let mut t = PrefixTrie::new();
        t.insert(p(12, 34, 0, 0, 16), "via-16");
        t.insert(p(12, 34, 56, 0, 24), "via-24");
        let hit = t.lookup(Ipv4Addr4::new(12, 34, 56, 78)).unwrap();
        assert_eq!(*hit.1, "via-24");
        assert_eq!(hit.0, p(12, 34, 56, 0, 24));
        let hit = t.lookup(Ipv4Addr4::new(12, 34, 99, 1)).unwrap();
        assert_eq!(*hit.1, "via-16");
        assert!(t.lookup(Ipv4Addr4::new(99, 0, 0, 1)).is_none());
    }

    #[test]
    fn default_route() {
        let mut t = PrefixTrie::new();
        t.insert(p(0, 0, 0, 0, 0), "default");
        t.insert(p(10, 0, 0, 0, 8), "ten");
        assert_eq!(*t.lookup(Ipv4Addr4::new(1, 2, 3, 4)).unwrap().1, "default");
        assert_eq!(*t.lookup(Ipv4Addr4::new(10, 2, 3, 4)).unwrap().1, "ten");
    }

    #[test]
    fn insert_replace_remove() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(p(10, 0, 0, 0, 8), 1), None);
        assert_eq!(t.insert(p(10, 0, 0, 0, 8), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p(10, 0, 0, 0, 8)), Some(&2));
        assert_eq!(t.remove(p(10, 0, 0, 0, 8)), Some(2));
        assert_eq!(t.remove(p(10, 0, 0, 0, 8)), None);
        assert!(t.is_empty());
        assert!(t.lookup(Ipv4Addr4::new(10, 1, 1, 1)).is_none());
    }

    #[test]
    fn host_bits_canonicalized() {
        assert_eq!(p(12, 34, 56, 78, 16), p(12, 34, 0, 0, 16));
        let mut t = PrefixTrie::new();
        t.insert(p(12, 34, 56, 78, 16), "x");
        assert_eq!(t.get(p(12, 34, 0, 0, 16)), Some(&"x"));
    }

    #[test]
    fn covers() {
        assert!(p(128, 112, 0, 0, 16).covers(Ipv4Addr4::new(128, 112, 7, 7)));
        assert!(!p(128, 112, 0, 0, 16).covers(Ipv4Addr4::new(128, 113, 7, 7)));
        assert!(p(0, 0, 0, 0, 0).covers(Ipv4Addr4::new(255, 255, 255, 255)));
    }

    #[test]
    fn removing_specific_falls_back_to_general() {
        let mut t = PrefixTrie::new();
        t.insert(p(12, 34, 0, 0, 16), "general");
        t.insert(p(12, 34, 56, 0, 24), "specific");
        t.remove(p(12, 34, 56, 0, 24));
        assert_eq!(*t.lookup(Ipv4Addr4::new(12, 34, 56, 78)).unwrap().1, "general");
    }

    #[test]
    fn an_empty_table_routes_nothing() {
        let t = PrefixTrie::<u32>::new().compile();
        for a in [0, 1, 0x8000_0000, u32::MAX] {
            assert_eq!(t.get(Ipv4Addr4::from_u32(a)), None);
        }
        assert_eq!(t.distinct_values(), 0);
        assert_eq!(t.bytes(), 4 << 16, "the root alone");
    }

    #[test]
    fn a_lone_default_route_answers_everywhere() {
        let mut trie = PrefixTrie::new();
        trie.insert(p(0, 0, 0, 0, 0), 7u32);
        let t = trie.compile();
        for a in [0, 1, 0x0a00_0001, 0x8000_0000, u32::MAX] {
            assert_eq!(t.get(Ipv4Addr4::from_u32(a)), Some(&7));
        }
        assert_eq!(t.bytes(), (4 << 16) + 4, "no chunk for a prefix the root holds");
    }

    #[test]
    fn a_slash_20_shadowed_inside_one_chunk() {
        // The /28 and the /32 land in the same last-level chunk the /20
        // is expanded into; everything around them still sees the /20.
        let mut trie = PrefixTrie::new();
        trie.insert(p(12, 34, 48, 0, 20), 20u32);
        trie.insert(p(12, 34, 56, 16, 28), 28);
        trie.insert(p(12, 34, 56, 20, 32), 32);
        let t = trie.compile();
        let at = |c, d| t.get(Ipv4Addr4::new(12, 34, c, d)).copied();
        assert_eq!(at(48, 0), Some(20));
        assert_eq!(at(63, 255), Some(20));
        assert_eq!(at(56, 15), Some(20));
        assert_eq!(at(56, 16), Some(28));
        assert_eq!(at(56, 19), Some(28));
        assert_eq!(at(56, 20), Some(32));
        assert_eq!(at(56, 21), Some(28));
        assert_eq!(at(56, 31), Some(28));
        assert_eq!(at(56, 32), Some(20));
        assert_eq!(at(64, 0), None);
        assert_eq!(at(47, 255), None);
        // One 4-bit chunk under the root, one under it, one 8-bit chunk.
        assert_eq!(t.bytes(), 4 * ((1 << 16) + 16 + 16 + 256) + 3 * 4);
    }

    #[test]
    fn repeated_values_share_one_slot() {
        let mut trie = PrefixTrie::new();
        for i in 0u32..1000 {
            trie.insert(Prefix::new(Ipv4Addr4::from_u32(i << 12), 20), i % 3);
        }
        let t = trie.compile();
        assert_eq!(t.distinct_values(), 3);
        for i in 0u32..1000 {
            assert_eq!(t.get(Ipv4Addr4::from_u32((i << 12) | 0x5a5)), Some(&(i % 3)));
        }
    }

    #[test]
    fn dense_insertion_lookups_agree_with_linear_scan() {
        let mut t = PrefixTrie::new();
        let mut table = Vec::new();
        for i in 0u32..200 {
            let pr = Prefix::new(Ipv4Addr4::from_u32(i << 22), (8 + (i % 17)) as u8);
            t.insert(pr, i);
            table.push((pr, i));
        }
        let compiled = t.compile();
        for probe in (0u32..=u32::MAX).step_by(0x0123_4567) {
            let addr = Ipv4Addr4::from_u32(probe);
            let expect = table
                .iter()
                .filter(|(pr, _)| pr.covers(addr))
                .max_by_key(|(pr, _)| pr.len)
                .map(|&(_, v)| v);
            assert_eq!(t.lookup(addr).map(|(_, &v)| v), expect, "addr {addr}");
            assert_eq!(compiled.get(addr).copied(), expect, "addr {addr}");
        }
    }
}
