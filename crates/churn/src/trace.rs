//! The `MCT1` churn trace format.
//!
//! A trace file is:
//!
//! ```text
//! magic "MCT1"                                  (4 raw bytes)
//! header frame:  u8 version | u64 LE event count | topology text (UTF-8)
//! chunk frame*:  u32 LE count | count * event
//! event:         varint delta-time-ms | u8 kind | varint asn [| varint asn]
//! ```
//!
//! Every frame after the magic uses the shard codec's checksummed raw
//! framing under FNV-1a (`u32 len | payload | u64 FNV-1a`: the wire
//! protocols moved to [`frame_sum`](miro_shard::format::frame_sum), trace
//! files did not), so a flipped byte anywhere
//! is caught by the checksum and truncation mid-frame is caught by the
//! length prefix. Truncation at a *frame boundary* — the one cut framing
//! alone cannot see — is caught by the header's total event count: decode
//! fails unless the chunks sum to exactly that many events and the stream
//! then ends cleanly.
//!
//! The embedded topology uses [`miro_topology::io::to_text`]'s line
//! format, which both the strict parser and the lenient streaming ingest
//! path (`topology::io::stream`) read — a trace is a self-contained
//! workload, and `miro ingest` can sniff the magic and load the topology
//! straight out of a `.mct` file.
//!
//! Events are stored with varint *delta* times, so timestamps are
//! monotone by construction on decode and co-temporal bursts (delta 0)
//! cost one byte. Kinds: `0` link down, `1` link up, `2` origin withdraw,
//! `3` origin announce. Link kinds carry two ASN varints, origin kinds
//! one. ASNs are not validated against the embedded topology here — the
//! replay engine counts events naming unknown ASes as ignored, mirroring
//! how a real feed carries prefixes you have no route to.

use miro_shard::fnv1a;
use miro_shard::protocol::{encode_sealed_frame, read_sealed_frame, FrameError};
use miro_topology::{io as topo_io, Topology};
use std::io::Read;

/// File magic: `MCT1` ("MIRO churn trace, version family 1").
pub const MAGIC: [u8; 4] = *b"MCT1";

/// Current format version carried inside the header frame.
pub const VERSION: u8 = 1;

/// Events per chunk frame. Small enough that a corrupt chunk loses
/// little, large enough that framing overhead is noise.
pub const CHUNK_EVENTS: usize = 4096;

/// What happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// The session between the two ASes dropped.
    LinkDown(u32, u32),
    /// The session between the two ASes came back.
    LinkUp(u32, u32),
    /// The AS withdrew its prefix.
    Withdraw(u32),
    /// The AS (re-)announced its prefix.
    Announce(u32),
}

impl EventKind {
    fn code(self) -> u8 {
        match self {
            EventKind::LinkDown(..) => 0,
            EventKind::LinkUp(..) => 1,
            EventKind::Withdraw(_) => 2,
            EventKind::Announce(_) => 3,
        }
    }
}

/// One timestamped event. Times are absolute milliseconds from the start
/// of the trace; equal times mean "co-temporal" and are what the batched
/// replay coalesces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// Milliseconds since trace start.
    pub at_ms: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Decode errors. Every malformed input must land in one of these —
/// never a panic — which is what the fuzz suite pins.
#[derive(Debug)]
pub enum TraceError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// A frame failed the shard codec (checksum, length, truncation).
    Frame(FrameError),
    /// A frame payload was malformed (short header, bad varint, unknown
    /// event kind, trailing bytes, oversized chunk...).
    Malformed(&'static str),
    /// The stream ended before the header's event count was reached.
    Truncated {
        /// Events promised by the header.
        expected: u64,
        /// Events actually decoded.
        got: u64,
    },
    /// Bytes (or whole frames) follow the final chunk.
    TrailingData,
    /// The embedded topology text failed to parse.
    BadTopology(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a churn trace (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Frame(e) => write!(f, "frame error: {e}"),
            TraceError::Malformed(what) => write!(f, "malformed trace: {what}"),
            TraceError::Truncated { expected, got } => {
                write!(f, "truncated trace: header promised {expected} events, found {got}")
            }
            TraceError::TrailingData => write!(f, "trailing data after final chunk"),
            TraceError::BadTopology(e) => write!(f, "embedded topology: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<FrameError> for TraceError {
    fn from(e: FrameError) -> Self {
        TraceError::Frame(e)
    }
}

/// A churn trace: the topology it was recorded over (in the ingest text
/// format) plus a time-sorted event stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trace {
    /// The topology, serialized with [`miro_topology::io::to_text`].
    pub topo_text: String,
    /// Events, non-decreasing in `at_ms`.
    pub events: Vec<Event>,
}

impl Trace {
    /// Parse the embedded topology (strict parser — traces are generated
    /// artifacts and deserve hard errors).
    pub fn topology(&self) -> Result<Topology, TraceError> {
        topo_io::from_text(&self.topo_text).map_err(|e| TraceError::BadTopology(e.to_string()))
    }

    /// Iterate co-temporal batches: maximal runs of equal `at_ms`.
    pub fn batches(&self) -> impl Iterator<Item = &[Event]> {
        self.events.chunk_by(|a, b| a.at_ms == b.at_ms)
    }

    /// Total duration covered, in milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.events.last().map_or(0, |e| e.at_ms)
    }

    /// Per-kind counts: `(downs, ups, withdraws, announces)`.
    pub fn kind_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for e in &self.events {
            match e.kind {
                EventKind::LinkDown(..) => c.0 += 1,
                EventKind::LinkUp(..) => c.1 += 1,
                EventKind::Withdraw(_) => c.2 += 1,
                EventKind::Announce(_) => c.3 += 1,
            }
        }
        c
    }

    /// Serialize. Events must be sorted by time (the generator's output
    /// always is); returns `Malformed` if not, since delta encoding
    /// cannot represent time running backwards.
    pub fn encode(&self) -> Result<Vec<u8>, TraceError> {
        let mut out = Vec::with_capacity(64 + self.topo_text.len() + self.events.len() * 4);
        out.extend_from_slice(&MAGIC);

        let mut header = Vec::with_capacity(9 + self.topo_text.len());
        header.push(VERSION);
        header.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        header.extend_from_slice(self.topo_text.as_bytes());
        out.extend_from_slice(&encode_sealed_frame(&header, fnv1a));

        let mut prev = 0u64;
        for chunk in self.events.chunks(CHUNK_EVENTS) {
            let mut payload = Vec::with_capacity(4 + chunk.len() * 6);
            payload.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
            for ev in chunk {
                let dt = ev
                    .at_ms
                    .checked_sub(prev)
                    .ok_or(TraceError::Malformed("events not sorted by time"))?;
                prev = ev.at_ms;
                put_varint(&mut payload, dt);
                payload.push(ev.kind.code());
                match ev.kind {
                    EventKind::LinkDown(a, b) | EventKind::LinkUp(a, b) => {
                        put_varint(&mut payload, a as u64);
                        put_varint(&mut payload, b as u64);
                    }
                    EventKind::Withdraw(a) | EventKind::Announce(a) => {
                        put_varint(&mut payload, a as u64);
                    }
                }
            }
            out.extend_from_slice(&encode_sealed_frame(&payload, fnv1a));
        }
        Ok(out)
    }

    /// Decode from a byte slice. See the module docs for the validation
    /// performed; the embedded topology is parsed (and discarded) so a
    /// successful decode guarantees a replayable trace.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        let mut r = bytes;
        let t = Trace::read_from(&mut r)?;
        if !r.is_empty() {
            return Err(TraceError::TrailingData);
        }
        Ok(t)
    }

    /// Decode from a reader. Stops exactly at the end of the final chunk
    /// frame (trailing bytes in the stream are the caller's business;
    /// [`Trace::decode`] rejects them).
    pub fn read_from<R: Read>(r: &mut R) -> Result<Trace, TraceError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(|_| TraceError::BadMagic)?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }

        let header = read_sealed_frame(r, fnv1a)?;
        if header.len() < 9 {
            return Err(TraceError::Malformed("header frame too short"));
        }
        if header[0] != VERSION {
            return Err(TraceError::BadVersion(header[0]));
        }
        let total = u64::from_le_bytes(header[1..9].try_into().unwrap());
        let topo_text = String::from_utf8(header[9..].to_vec())
            .map_err(|_| TraceError::Malformed("topology text is not UTF-8"))?;

        let mut events = Vec::with_capacity(total.min(1 << 20) as usize);
        let mut now = 0u64;
        while (events.len() as u64) < total {
            let chunk = match read_sealed_frame(r, fnv1a) {
                Ok(c) => c,
                Err(FrameError::Eof) => {
                    return Err(TraceError::Truncated { expected: total, got: events.len() as u64 })
                }
                Err(e) => return Err(e.into()),
            };
            let mut p = &chunk[..];
            let count = take_u32(&mut p)? as usize;
            if count == 0 || count > CHUNK_EVENTS {
                return Err(TraceError::Malformed("bad chunk event count"));
            }
            if events.len() as u64 + count as u64 > total {
                return Err(TraceError::Malformed("chunks overflow header event count"));
            }
            for _ in 0..count {
                let dt = take_varint(&mut p)?;
                now = now
                    .checked_add(dt)
                    .ok_or(TraceError::Malformed("timestamp overflow"))?;
                let kind = take_u8(&mut p)?;
                let kind = match kind {
                    0 | 1 => {
                        let a = take_asn(&mut p)?;
                        let b = take_asn(&mut p)?;
                        if kind == 0 {
                            EventKind::LinkDown(a, b)
                        } else {
                            EventKind::LinkUp(a, b)
                        }
                    }
                    2 => EventKind::Withdraw(take_asn(&mut p)?),
                    3 => EventKind::Announce(take_asn(&mut p)?),
                    _ => return Err(TraceError::Malformed("unknown event kind")),
                };
                events.push(Event { at_ms: now, kind });
            }
            if !p.is_empty() {
                return Err(TraceError::Malformed("trailing bytes in chunk"));
            }
        }

        let t = Trace { topo_text, events };
        t.topology()?;
        Ok(t)
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn take_u8(p: &mut &[u8]) -> Result<u8, TraceError> {
    let (&b, rest) = p.split_first().ok_or(TraceError::Malformed("chunk ends mid-event"))?;
    *p = rest;
    Ok(b)
}

fn take_u32(p: &mut &[u8]) -> Result<u32, TraceError> {
    if p.len() < 4 {
        return Err(TraceError::Malformed("chunk ends mid-event"));
    }
    let v = u32::from_le_bytes(p[..4].try_into().unwrap());
    *p = &p[4..];
    Ok(v)
}

fn take_varint(p: &mut &[u8]) -> Result<u64, TraceError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = take_u8(p)?;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            // Reject non-canonical encodings (a continuation into bits
            // past 63, or a redundant trailing zero byte) so every value
            // has exactly one byte representation.
            if shift > 0 && b == 0 {
                return Err(TraceError::Malformed("overlong varint"));
            }
            if shift == 63 && b > 1 {
                return Err(TraceError::Malformed("varint overflows u64"));
            }
            return Ok(v);
        }
    }
    Err(TraceError::Malformed("varint overflows u64"))
}

fn take_asn(p: &mut &[u8]) -> Result<u32, TraceError> {
    let v = take_varint(p)?;
    u32::try_from(v).map_err(|_| TraceError::Malformed("ASN overflows u32"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_topology::gen as topo_gen;
    use miro_topology::io::to_text;

    fn sample() -> Trace {
        let (topo, _) = topo_gen::figure_1_1();
        Trace {
            topo_text: to_text(&topo),
            events: vec![
                Event { at_ms: 0, kind: EventKind::LinkDown(2, 5) },
                Event { at_ms: 0, kind: EventKind::Withdraw(6) },
                Event { at_ms: 17, kind: EventKind::Announce(6) },
                Event { at_ms: 17, kind: EventKind::LinkUp(2, 5) },
                Event { at_ms: 4000, kind: EventKind::LinkDown(3, 6) },
            ],
        }
    }

    #[test]
    fn round_trips() {
        let t = sample();
        let bytes = t.encode().unwrap();
        assert_eq!(&bytes[..4], &MAGIC);
        let back = Trace::decode(&bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.duration_ms(), 4000);
        assert_eq!(back.kind_counts(), (2, 1, 1, 1));
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace { topo_text: to_text(&topo_gen::figure_1_1().0), events: Vec::new() };
        let back = Trace::decode(&t.encode().unwrap()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.batches().count(), 0);
    }

    #[test]
    fn batches_group_equal_timestamps() {
        let t = sample();
        let sizes: Vec<usize> = t.batches().map(|b| b.len()).collect();
        assert_eq!(sizes, [2, 2, 1]);
    }

    #[test]
    fn chunking_covers_multi_frame_traces() {
        let (topo, _) = topo_gen::figure_1_1();
        let events: Vec<Event> = (0..(CHUNK_EVENTS as u64 * 2 + 7))
            .map(|i| Event {
                at_ms: i / 3,
                kind: if i % 2 == 0 {
                    EventKind::LinkDown(2, 5)
                } else {
                    EventKind::LinkUp(2, 5)
                },
            })
            .collect();
        let t = Trace { topo_text: to_text(&topo), events };
        let back = Trace::decode(&t.encode().unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn unsorted_events_refuse_to_encode() {
        let mut t = sample();
        t.events.swap(2, 4);
        assert!(matches!(t.encode(), Err(TraceError::Malformed(_))));
    }

    #[test]
    fn frame_boundary_truncation_is_detected() {
        let t = sample();
        let bytes = t.encode().unwrap();
        // Cut right after the header frame: framing alone cannot see this,
        // the header event count must.
        let header_end = 4 + 4 + (bytes[4..8].try_into().map(u32::from_le_bytes).unwrap() as usize) + 8;
        match Trace::decode(&bytes[..header_end]) {
            Err(TraceError::Truncated { expected: 5, got: 0 }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn trailing_frames_are_rejected() {
        let t = sample();
        let mut bytes = t.encode().unwrap();
        bytes.extend_from_slice(&encode_sealed_frame(b"extra", fnv1a));
        assert!(matches!(Trace::decode(&bytes), Err(TraceError::TrailingData)));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let t = sample();
        let mut bytes = t.encode().unwrap();
        bytes[0] ^= 0x20;
        assert!(matches!(Trace::decode(&bytes), Err(TraceError::BadMagic)));

        // Flip the version byte *and* refresh the frame so only the
        // version check can object.
        let mut header = vec![9u8];
        header.extend_from_slice(&0u64.to_le_bytes());
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&encode_sealed_frame(&header, fnv1a));
        assert!(matches!(Trace::decode(&bytes), Err(TraceError::BadVersion(9))));
    }

    #[test]
    fn garbage_topology_is_rejected() {
        let mut header = vec![VERSION];
        header.extend_from_slice(&0u64.to_le_bytes());
        header.extend_from_slice(b"1 1 c\n");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&encode_sealed_frame(&header, fnv1a));
        assert!(matches!(Trace::decode(&bytes), Err(TraceError::BadTopology(_))));
    }
}
