//! The query-serving wire protocol: ASN-keyed request/response messages
//! over the same length-prefixed, frame-summed codec the shard service
//! speaks ([`miro_shard::protocol::read_raw_frame`] /
//! [`write_raw_frame`] — one framing layer, one fuzz surface, two
//! message sets).
//!
//! Requests carry a client-chosen `id` that the matching response echoes
//! (the daemon answers in order per connection, but ids make client
//! pipelining and logging unambiguous). All operands are **AS numbers**,
//! not node ids: the daemon translates at the edge, so clients never see
//! the table's internal interning.
//!
//! Kind bytes live in a disjoint range (32+) from the shard protocol's
//! (1–6): a frame from the wrong service decodes to a clean
//! `unknown message kind`, not a confused parse.
//!
//! Each message has one byte layout: [`encode_payload`] and the daemon's
//! borrowed-parts writers ([`put_r_path`], [`put_r_alternate`],
//! [`put_r_err`], framed in place by [`push_frame`]) share serialisers.
//!
//! [`write_raw_frame`]: miro_shard::protocol::write_raw_frame

use miro_shard::format::frame_sum;
use miro_shard::protocol::{read_raw_frame, FrameError};
use std::io::{Read, Write};

/// Protocol revision spoken in `Hello`/`Welcome`; both sides must agree.
/// Version 2 seals frames with [`frame_sum`] instead of FNV-1a.
pub const QUERY_PROTOCOL_VERSION: u32 = 2;

/// The largest payload the daemon accepts from a client. Requests are
/// fixed-size and the biggest (`Alternate`: kind, id, three ASNs) is 21
/// bytes, so a longer length prefix is refused before a byte of it is
/// buffered.
pub const MAX_REQUEST: usize = 32;

/// One protocol message (either direction; `R`-prefixed = server reply).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMsg {
    /// Client → server, once per connection.
    Hello { protocol: u32 },
    /// Server → client: connection accepted; the served table's shape.
    Welcome { protocol: u32, num_nodes: u32, num_dests: u32 },
    /// The query universe: which source/destination ASNs are servable.
    Universe { id: u64 },
    RUniverse { id: u64, src_asns: Vec<u32>, dest_asns: Vec<u32> },
    /// Next-hop probe.
    NextHop { id: u64, src: u32, dest: u32 },
    RNextHop { id: u64, next: u32, hops: u16, class: u8 },
    /// Full installed path.
    Path { id: u64, src: u32, dest: u32 },
    RPath { id: u64, path: Vec<u32> },
    /// Alternate path avoiding an AS.
    Alternate { id: u64, src: u32, dest: u32, avoid: u32 },
    /// `splice_at`/`via` are meaningful iff `deviates` (the default path
    /// already avoided the AS otherwise).
    RAlternate { id: u64, deviates: bool, splice_at: u32, via: u32, path: Vec<u32> },
    /// Source has no route to the destination.
    RUnrouted { id: u64 },
    /// No policy-compliant avoiding alternate exists in the table.
    RNoAlternate { id: u64 },
    /// Serving counters snapshot.
    Stats { id: u64 },
    RStats {
        id: u64,
        queries: u64,
        cache_hits: u64,
        cache_misses: u64,
        cache_evictions: u64,
        rows_verified: u64,
        connections: u64,
    },
    /// The query failed (unknown ASN, corrupt row, …). `msg` is
    /// human-readable; the connection stays up.
    RErr { id: u64, msg: String },
    /// Client → server: stop the daemon (acked with `RBye`, then the
    /// accept loop drains and exits). The serve daemon is an
    /// experiment-harness component, so shutdown is a first-class
    /// message rather than a signal dance.
    Shutdown,
    /// Server → client: goodbye (shutdown ack, or a hello the server
    /// refuses after version mismatch).
    RBye,
}

const KIND_HELLO: u8 = 32;
const KIND_WELCOME: u8 = 33;
const KIND_UNIVERSE: u8 = 34;
const KIND_R_UNIVERSE: u8 = 35;
const KIND_NEXT_HOP: u8 = 36;
const KIND_R_NEXT_HOP: u8 = 37;
const KIND_PATH: u8 = 38;
const KIND_R_PATH: u8 = 39;
const KIND_ALTERNATE: u8 = 40;
const KIND_R_ALTERNATE: u8 = 41;
const KIND_R_UNROUTED: u8 = 42;
const KIND_R_NO_ALTERNATE: u8 = 43;
const KIND_STATS: u8 = 44;
const KIND_R_STATS: u8 = 45;
const KIND_R_ERR: u8 = 46;
const KIND_SHUTDOWN: u8 = 47;
const KIND_R_BYE: u8 = 48;

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A count, then the entries written into place: one length check for
/// the vector rather than one per entry.
fn push_vec(out: &mut Vec<u8>, v: impl ExactSizeIterator<Item = u32>) {
    push_u32(out, v.len() as u32);
    let at = out.len();
    out.resize(at + 4 * v.len(), 0);
    for (slot, x) in out[at..].chunks_exact_mut(4).zip(v) {
        slot.copy_from_slice(&x.to_le_bytes());
    }
}

/// Append an `RPath` payload.
pub fn put_r_path(p: &mut Vec<u8>, id: u64, path: impl ExactSizeIterator<Item = u32>) {
    p.push(KIND_R_PATH);
    push_u64(p, id);
    push_vec(p, path);
}

/// Append an `RAlternate` payload.
pub fn put_r_alternate<P>(p: &mut Vec<u8>, id: u64, deviates: bool, splice_at: u32, via: u32, path: P)
where
    P: ExactSizeIterator<Item = u32>,
{
    p.push(KIND_R_ALTERNATE);
    push_u64(p, id);
    p.push(deviates as u8);
    push_u32(p, splice_at);
    push_u32(p, via);
    push_vec(p, path);
}

/// Append an `RErr` payload, its text formatted in place.
pub fn put_r_err(p: &mut Vec<u8>, id: u64, msg: impl std::fmt::Display) {
    p.push(KIND_R_ERR);
    push_u64(p, id);
    write!(p, "{msg}").expect("writing to a Vec cannot fail");
}

/// Append one frame to `out`, its payload written in place by `payload`:
/// [`encode_raw_frame`]'s bytes, built where they are sent from.
///
/// [`encode_raw_frame`]: miro_shard::protocol::encode_raw_frame
pub fn push_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    let sum = frame_sum(&out[at + 4..]);
    push_u64(out, sum);
}

/// Append one message to `out` as a frame.
pub fn push_msg(out: &mut Vec<u8>, msg: &WireMsg) {
    push_frame(out, |p| put_payload(p, msg));
}

/// Serialize one message as a payload (no framing).
pub fn encode_payload(msg: &WireMsg) -> Vec<u8> {
    let mut p = Vec::new();
    put_payload(&mut p, msg);
    p
}

fn put_payload(p: &mut Vec<u8>, msg: &WireMsg) {
    match msg {
        WireMsg::Hello { protocol } => {
            p.push(KIND_HELLO);
            push_u32(p, *protocol);
        }
        WireMsg::Welcome { protocol, num_nodes, num_dests } => {
            p.push(KIND_WELCOME);
            push_u32(p, *protocol);
            push_u32(p, *num_nodes);
            push_u32(p, *num_dests);
        }
        WireMsg::Universe { id } => {
            p.push(KIND_UNIVERSE);
            push_u64(p, *id);
        }
        WireMsg::RUniverse { id, src_asns, dest_asns } => {
            p.push(KIND_R_UNIVERSE);
            push_u64(p, *id);
            push_vec(p, src_asns.iter().copied());
            push_vec(p, dest_asns.iter().copied());
        }
        WireMsg::NextHop { id, src, dest } => {
            p.push(KIND_NEXT_HOP);
            push_u64(p, *id);
            push_u32(p, *src);
            push_u32(p, *dest);
        }
        WireMsg::RNextHop { id, next, hops, class } => {
            p.push(KIND_R_NEXT_HOP);
            push_u64(p, *id);
            push_u32(p, *next);
            p.extend_from_slice(&hops.to_le_bytes());
            p.push(*class);
        }
        WireMsg::Path { id, src, dest } => {
            p.push(KIND_PATH);
            push_u64(p, *id);
            push_u32(p, *src);
            push_u32(p, *dest);
        }
        WireMsg::RPath { id, path } => put_r_path(p, *id, path.iter().copied()),
        WireMsg::Alternate { id, src, dest, avoid } => {
            p.push(KIND_ALTERNATE);
            push_u64(p, *id);
            push_u32(p, *src);
            push_u32(p, *dest);
            push_u32(p, *avoid);
        }
        WireMsg::RAlternate { id, deviates, splice_at, via, path } => {
            put_r_alternate(p, *id, *deviates, *splice_at, *via, path.iter().copied())
        }
        WireMsg::RUnrouted { id } => {
            p.push(KIND_R_UNROUTED);
            push_u64(p, *id);
        }
        WireMsg::RNoAlternate { id } => {
            p.push(KIND_R_NO_ALTERNATE);
            push_u64(p, *id);
        }
        WireMsg::Stats { id } => {
            p.push(KIND_STATS);
            push_u64(p, *id);
        }
        WireMsg::RStats {
            id,
            queries,
            cache_hits,
            cache_misses,
            cache_evictions,
            rows_verified,
            connections,
        } => {
            p.push(KIND_R_STATS);
            push_u64(p, *id);
            push_u64(p, *queries);
            push_u64(p, *cache_hits);
            push_u64(p, *cache_misses);
            push_u64(p, *cache_evictions);
            push_u64(p, *rows_verified);
            push_u64(p, *connections);
        }
        WireMsg::RErr { id, msg } => put_r_err(p, *id, msg),
        WireMsg::Shutdown => p.push(KIND_SHUTDOWN),
        WireMsg::RBye => p.push(KIND_R_BYE),
    }
}

/// Write one message as a frame and flush.
pub fn write_msg<W: Write>(w: &mut W, msg: &WireMsg) -> std::io::Result<()> {
    let mut frame = Vec::new();
    push_msg(&mut frame, msg);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one message. Blocks until a full frame (or EOF) arrives.
pub fn read_msg<R: Read>(r: &mut R) -> Result<WireMsg, FrameError> {
    decode_payload(&read_raw_frame(r)?)
}

/// Split the first frame off a buffer of received bytes: the daemon's
/// side of [`read_raw_frame`], for a reader that takes whatever the
/// socket holds and finds frames in it afterwards. `Ok(None)` means the
/// frame is not all there yet; otherwise the verified payload and the
/// bytes it took. A zero or over-`max_payload` length prefix is corrupt
/// as soon as its four bytes are in, a checksum mismatch once the
/// trailer is — the verdicts `read_raw_frame` reaches on the same bytes.
pub fn split_frame(buf: &[u8], max_payload: usize) -> Result<Option<(&[u8], usize)>, FrameError> {
    let Some(len4) = buf.first_chunk::<4>() else { return Ok(None) };
    let len = u32::from_le_bytes(*len4) as usize;
    if len == 0 {
        return Err(FrameError::Corrupt("zero-length payload".to_string()));
    }
    if len > max_payload {
        return Err(FrameError::Corrupt(format!("{len}-byte payload exceeds {max_payload}")));
    }
    let Some(sum8) = buf.get(4 + len..12 + len) else { return Ok(None) };
    let payload = &buf[4..4 + len];
    if frame_sum(payload) != u64::from_le_bytes(sum8.try_into().expect("eight bytes")) {
        return Err(FrameError::Corrupt("checksum mismatch".to_string()));
    }
    Ok(Some((payload, 12 + len)))
}

struct Body<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Body<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let b = self.bytes.get(self.at..self.at + N).ok_or_else(|| FrameError::Corrupt("short body".to_string()))?;
        self.at += N;
        Ok(b.try_into().expect("N bytes"))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        self.take().map(u64::from_le_bytes)
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        self.take().map(u16::from_le_bytes)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        self.take().map(|[b]| b)
    }

    /// A `u32` count followed by that many `u32`s. The count is bounded
    /// by the bytes actually present, so a corrupt length cannot force
    /// an over-allocation beyond the (already frame-capped) payload.
    fn vec(&mut self) -> Result<Vec<u32>, FrameError> {
        let n = self.u32()? as usize;
        let remaining = (self.bytes.len() - self.at) / 4;
        if n > remaining {
            return Err(FrameError::Corrupt(format!(
                "vector claims {n} entries, body holds {remaining}"
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn rest_utf8(&mut self) -> Result<String, FrameError> {
        let s = std::str::from_utf8(&self.bytes[self.at..])
            .map_err(|_| FrameError::Corrupt("error text is not UTF-8".to_string()))?
            .to_string();
        self.at = self.bytes.len();
        Ok(s)
    }

    fn done(self, kind: u8) -> Result<(), FrameError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(FrameError::Corrupt(format!("kind {kind}: bad body length")))
        }
    }
}

/// Parse one verified frame payload. Every message must consume its body
/// exactly — trailing bytes are corruption, same as the shard codec.
pub fn decode_payload(payload: &[u8]) -> Result<WireMsg, FrameError> {
    if payload.is_empty() {
        return Err(FrameError::Corrupt("zero-length payload".to_string()));
    }
    let kind = payload[0];
    let mut b = Body { bytes: &payload[1..], at: 0 };
    let msg = match kind {
        KIND_HELLO => WireMsg::Hello { protocol: b.u32()? },
        KIND_WELCOME => WireMsg::Welcome {
            protocol: b.u32()?,
            num_nodes: b.u32()?,
            num_dests: b.u32()?,
        },
        KIND_UNIVERSE => WireMsg::Universe { id: b.u64()? },
        KIND_R_UNIVERSE => {
            WireMsg::RUniverse { id: b.u64()?, src_asns: b.vec()?, dest_asns: b.vec()? }
        }
        KIND_NEXT_HOP => WireMsg::NextHop { id: b.u64()?, src: b.u32()?, dest: b.u32()? },
        KIND_R_NEXT_HOP => WireMsg::RNextHop {
            id: b.u64()?,
            next: b.u32()?,
            hops: b.u16()?,
            class: b.u8()?,
        },
        KIND_PATH => WireMsg::Path { id: b.u64()?, src: b.u32()?, dest: b.u32()? },
        KIND_R_PATH => WireMsg::RPath { id: b.u64()?, path: b.vec()? },
        KIND_ALTERNATE => WireMsg::Alternate {
            id: b.u64()?,
            src: b.u32()?,
            dest: b.u32()?,
            avoid: b.u32()?,
        },
        KIND_R_ALTERNATE => {
            let id = b.u64()?;
            let deviates = match b.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(FrameError::Corrupt(format!(
                        "alternate deviates flag must be 0/1, got {other}"
                    )))
                }
            };
            WireMsg::RAlternate {
                id,
                deviates,
                splice_at: b.u32()?,
                via: b.u32()?,
                path: b.vec()?,
            }
        }
        KIND_R_UNROUTED => WireMsg::RUnrouted { id: b.u64()? },
        KIND_R_NO_ALTERNATE => WireMsg::RNoAlternate { id: b.u64()? },
        KIND_STATS => WireMsg::Stats { id: b.u64()? },
        KIND_R_STATS => WireMsg::RStats {
            id: b.u64()?,
            queries: b.u64()?,
            cache_hits: b.u64()?,
            cache_misses: b.u64()?,
            cache_evictions: b.u64()?,
            rows_verified: b.u64()?,
            connections: b.u64()?,
        },
        KIND_R_ERR => WireMsg::RErr { id: b.u64()?, msg: b.rest_utf8()? },
        KIND_SHUTDOWN => WireMsg::Shutdown,
        KIND_R_BYE => WireMsg::RBye,
        other => return Err(FrameError::Corrupt(format!("unknown message kind {other}"))),
    };
    b.done(kind)?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_shard::protocol::encode_raw_frame;

    /// One of every message — the round-trip pin the satellite asks for.
    pub fn all_msgs() -> Vec<WireMsg> {
        vec![
            WireMsg::Hello { protocol: QUERY_PROTOCOL_VERSION },
            WireMsg::Welcome { protocol: QUERY_PROTOCOL_VERSION, num_nodes: 70_000, num_dests: 512 },
            WireMsg::Universe { id: 1 },
            WireMsg::RUniverse { id: 1, src_asns: vec![100, 103, 106], dest_asns: vec![106] },
            WireMsg::NextHop { id: 2, src: 100, dest: 106 },
            WireMsg::RNextHop { id: 2, next: 103, hops: 2, class: 1 },
            WireMsg::Path { id: 3, src: 100, dest: 106 },
            WireMsg::RPath { id: 3, path: vec![100, 103, 106] },
            WireMsg::Alternate { id: 4, src: 100, dest: 106, avoid: 103 },
            WireMsg::RAlternate {
                id: 4,
                deviates: true,
                splice_at: 100,
                via: 109,
                path: vec![100, 109, 106],
            },
            WireMsg::RAlternate { id: 5, deviates: false, splice_at: 0, via: 0, path: vec![100] },
            WireMsg::RUnrouted { id: 6 },
            WireMsg::RNoAlternate { id: 7 },
            WireMsg::Stats { id: 8 },
            WireMsg::RStats {
                id: 8,
                queries: 9000,
                cache_hits: 7000,
                cache_misses: 2000,
                cache_evictions: 3,
                rows_verified: 512,
                connections: 64,
            },
            WireMsg::RErr { id: 9, msg: "destination 9999 has no row".to_string() },
            WireMsg::Shutdown,
            WireMsg::RBye,
        ]
    }

    #[test]
    fn every_message_round_trips_back_to_back() {
        let msgs = all_msgs();
        let mut stream = Vec::new();
        for m in &msgs {
            write_msg(&mut stream, m).unwrap();
        }
        let mut r = &stream[..];
        for m in &msgs {
            assert_eq!(&read_msg(&mut r).unwrap(), m);
        }
        assert!(matches!(read_msg(&mut r), Err(FrameError::Eof)));
    }

    /// A frame built in place is the frame built from an owned payload,
    /// appended after whatever the buffer already holds.
    #[test]
    fn push_msg_appends_exactly_the_encoded_frame() {
        let mut out = vec![0xAB];
        let mut want = vec![0xAB];
        for m in all_msgs() {
            push_msg(&mut out, &m);
            want.extend_from_slice(&encode_raw_frame(&encode_payload(&m)));
        }
        assert_eq!(out, want);
    }

    /// Every request fits [`MAX_REQUEST`], and `split_frame` refuses a
    /// longer one on its length prefix alone — nothing of the payload
    /// has to arrive, let alone be buffered.
    #[test]
    fn requests_fit_max_request_and_longer_prefixes_are_refused_at_once() {
        let requests = all_msgs().into_iter().filter(|m| {
            use WireMsg::*;
            matches!(m, Hello { .. } | Universe { .. } | NextHop { .. } | Path { .. } | Alternate { .. } | Stats { .. } | Shutdown)
        });
        let longest = requests.map(|m| encode_payload(&m).len()).max().unwrap();
        assert_eq!(longest, 21);
        assert!(longest <= MAX_REQUEST);

        let frame = encode_raw_frame(&[7u8; MAX_REQUEST + 1]);
        assert!(matches!(split_frame(&frame[..3], MAX_REQUEST), Ok(None)));
        let err = split_frame(&frame[..4], MAX_REQUEST).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(ref w) if w.contains("exceeds")), "{err}");
        let (payload, used) = split_frame(&frame, MAX_REQUEST + 1).unwrap().expect("whole frame");
        assert_eq!((payload, used), (&[7u8; MAX_REQUEST + 1][..], frame.len()));
    }

    /// `read_raw_frame`'s and `split_frame`'s verdicts on `frame`: both
    /// must refuse it, and `mismatch` says they must name the sum.
    fn refused_by_both(frame: &[u8], mismatch: bool, what: &str) {
        let stream = read_raw_frame(&mut &frame[..]);
        let split = split_frame(frame, usize::MAX);
        assert!(matches!(stream, Err(FrameError::Corrupt(_))), "{what}: read_raw_frame took it");
        assert!(!matches!(split, Ok(Some(_))), "{what}: split_frame took it");
        if mismatch {
            for why in [stream.unwrap_err(), split.unwrap_err()] {
                assert!(matches!(why, FrameError::Corrupt(ref w) if w == "checksum mismatch"), "{what}: {why}");
            }
        }
    }

    /// Every single-byte flip of a frame of each message kind — up to
    /// three words long where the kind allows, then at every length
    /// `all_msgs` has — is refused by both readers; a flip past the
    /// length prefix is a checksum mismatch.
    #[test]
    fn every_one_byte_flip_of_every_kind_is_refused_by_both_readers() {
        let short = [
            WireMsg::RUniverse { id: 1, src_asns: vec![], dest_asns: vec![] },
            WireMsg::RPath { id: 3, path: vec![100, 103] },
            WireMsg::RAlternate { id: 4, deviates: false, splice_at: 0, via: 0, path: vec![] },
            WireMsg::RErr { id: 9, msg: "busy".to_string() },
        ];
        let mut kinds = std::collections::BTreeSet::new();
        for m in short.into_iter().chain(all_msgs()) {
            let payload = encode_payload(&m);
            kinds.insert((payload[0], payload.len() <= 24));
            let frame = encode_raw_frame(&payload);
            for at in 0..frame.len() {
                for flip in [0x01, 0x80, 0xff] {
                    let mut bad = frame.clone();
                    bad[at] ^= flip;
                    refused_by_both(&bad, at >= 4, &format!("{m:?}, byte {at}, flip {flip:#x}"));
                }
            }
        }
        // Every kind but RStats (57 bytes) has a frame of at most three words.
        let short_kinds = kinds.iter().filter(|k| k.1).map(|k| k.0).collect::<std::collections::BTreeSet<_>>();
        assert_eq!(short_kinds.len(), 16);
        assert!(!short_kinds.contains(&KIND_R_STATS));
    }

    /// A frame sealed with FNV-1a, as query protocol 1 sealed it, is
    /// refused by both readers with a checksum mismatch.
    #[test]
    fn a_frame_sealed_with_fnv1a_is_a_checksum_mismatch() {
        for m in all_msgs() {
            let payload = encode_payload(&m);
            let mut old = (payload.len() as u32).to_le_bytes().to_vec();
            old.extend_from_slice(&payload);
            old.extend_from_slice(&miro_shard::fnv1a(&payload).to_le_bytes());
            refused_by_both(&old, true, &format!("{m:?}"));
        }
    }

    #[test]
    fn trailing_bytes_and_bad_flags_are_corrupt() {
        // A Shutdown with a stray byte must not decode.
        let mut p = encode_payload(&WireMsg::Shutdown);
        p.push(0);
        assert!(matches!(decode_payload(&p), Err(FrameError::Corrupt(_))));

        // A deviates flag outside 0/1.
        let mut p = encode_payload(&WireMsg::RAlternate {
            id: 1,
            deviates: true,
            splice_at: 2,
            via: 3,
            path: vec![4],
        });
        p[9] = 7; // kind(1) + id(8) → flag byte
        assert!(matches!(decode_payload(&p), Err(FrameError::Corrupt(_))));

        // A vector length claiming more entries than the body holds.
        let mut p = encode_payload(&WireMsg::RPath { id: 1, path: vec![1, 2, 3] });
        let at = 1 + 8; // kind + id → count
        p[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_payload(&p).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(ref w) if w.contains("entries")), "{err}");

        // Non-UTF-8 error text.
        let mut p = encode_payload(&WireMsg::RErr { id: 1, msg: "x".to_string() });
        *p.last_mut().unwrap() = 0xFF;
        assert!(matches!(decode_payload(&p), Err(FrameError::Corrupt(_))));

        // Unknown kind.
        assert!(matches!(decode_payload(&[200u8]), Err(FrameError::Corrupt(_))));

        // Empty payload.
        assert!(matches!(decode_payload(&[]), Err(FrameError::Corrupt(_))));
    }
}
