//! The coordinator↔worker wire protocol: length-prefixed, checksummed
//! frames over the worker's stdin/stdout.
//!
//! Frame layout (all little-endian):
//!
//! ```text
//! u32  payload length N (kind byte + body)
//! u8   message kind        ┐
//! ...  body (N-1 bytes)    ┘ payload
//! u64  frame sum of the payload (format::frame_sum)
//! ```
//!
//! A frame whose checksum does not match, whose kind is unknown, or whose
//! body does not parse exactly is a [`FrameError::Corrupt`] — the
//! coordinator treats a worker that sends one as crashed (kill, reassign
//! its block). Clean EOF between frames is [`FrameError::Eof`]; EOF *in*
//! a frame is corruption (a torn write). The length field is capped by
//! [`MAX_FRAME`] so a corrupted length cannot make the reader allocate
//! gigabytes.
//!
//! The framing itself (length prefix + frame-sum trailer) is message-set
//! agnostic and split out as [`encode_raw_frame`] / [`write_raw_frame`] /
//! [`read_raw_frame`]: the shard [`Msg`] codec here and the route-query
//! serving protocol in `miro-serve` both speak it, so one fuzz corpus
//! covers both wire formats' framing.

use crate::format::frame_sum;
use std::io::{Read, Write};

/// Protocol revision spoken in [`Msg::Hello`]; both sides must agree.
pub const PROTOCOL_VERSION: u32 = 6;

/// Largest acceptable payload, far above anything either protocol built
/// on this framing sends.
pub const MAX_FRAME: u32 = 256 << 20;

/// One protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// Worker → coordinator, once at startup: `adjacency` is the
    /// table's adjacency sections — neighbour lists, partition ends, AS
    /// numbers — as the worker's topology writes them
    /// ([`crate::format::Adjacency::write`]); the coordinator lays out the
    /// table from the first one and ends the job if a later one differs.
    Hello { protocol: u32, worker: u32, adjacency: Vec<u8> },
    /// Coordinator → worker: solve destinations `start..start+len` (block
    /// indices into the job's canonical destination list).
    Assign { block: u32, start: u32, len: u32 },
    /// Worker → coordinator, periodically: still alive; `block` is the
    /// assignment in progress (`u32::MAX` when idle).
    Heartbeat { worker: u32, block: u32 },
    /// Coordinator → worker, once after `Hello`: the pre-sized table file
    /// the worker writes its blocks' rows into.
    Output { path: String },
    /// Worker → coordinator: the block's rows are in the table file;
    /// `table` is their checksum table, one little-endian row checksum `u64`
    /// per row (any other length is corrupt).
    BlockResult { block: u32, table: Vec<u8> },
    /// Coordinator → worker: drain and exit.
    Shutdown,
    /// Worker → coordinator: clean exit acknowledgement.
    Bye { worker: u32, blocks_done: u32 },
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream between frames (worker exited / closed pipe).
    Eof,
    /// The stream broke mid-frame or the bytes fail validation.
    Corrupt(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
            FrameError::Io(e) => write!(f, "frame read error: {e}"),
        }
    }
}

const KIND_HELLO: u8 = 1;
const KIND_ASSIGN: u8 = 2;
const KIND_HEARTBEAT: u8 = 3;
const KIND_BLOCK_RESULT: u8 = 4;
const KIND_SHUTDOWN: u8 = 5;
const KIND_BYE: u8 = 6;
const KIND_OUTPUT: u8 = 7;

/// Wrap an opaque payload as a frame: `u32` length, the payload, a
/// [`frame_sum`] trailer. The message-set-agnostic half of the codec.
pub fn encode_raw_frame(payload: &[u8]) -> Vec<u8> {
    encode_sealed_frame(payload, frame_sum)
}

/// [`encode_raw_frame`] under another trailer sum: the churn trace file
/// format keeps the FNV-1a its files were written with.
pub fn encode_sealed_frame(payload: &[u8], sum: impl Fn(&[u8]) -> u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&sum(payload).to_le_bytes());
    out
}

/// Write one payload as a frame and flush (frames carry control flow, so
/// they must not sit in a BufWriter).
pub fn write_raw_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&encode_raw_frame(payload))?;
    w.flush()
}

/// Read one frame's payload, verifying the length cap and the
/// [`frame_sum`] trailer. Blocks until a full frame (or EOF) arrives. The payload is
/// returned unparsed — message-set decoding is the caller's layer.
pub fn read_raw_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    read_sealed_frame(r, frame_sum)
}

/// [`read_raw_frame`] under another trailer sum ([`encode_sealed_frame`]).
pub fn read_sealed_frame<R: Read>(r: &mut R, sum: impl Fn(&[u8]) -> u64) -> Result<Vec<u8>, FrameError> {
    let mut len4 = [0u8; 4];
    read_exact_or(r, &mut len4, true)?;
    let len = u32::from_le_bytes(len4);
    if len == 0 {
        return Err(FrameError::Corrupt("zero-length payload".to_string()));
    }
    if len > MAX_FRAME {
        return Err(FrameError::Corrupt(format!("{len}-byte payload exceeds MAX_FRAME")));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(r, &mut payload, false)?;
    let mut sum8 = [0u8; 8];
    read_exact_or(r, &mut sum8, false)?;
    if sum(&payload) != u64::from_le_bytes(sum8) {
        return Err(FrameError::Corrupt("checksum mismatch".to_string()));
    }
    Ok(payload)
}

/// Serialize one message as a frame.
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    // A kind byte, then little-endian words, then the variable tail.
    let payload = |kind: u8, words: &[u32], tail: &[u8]| {
        let mut out = vec![kind];
        out.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        out.extend_from_slice(tail);
        encode_raw_frame(&out)
    };
    match msg {
        Msg::Hello { protocol, worker, adjacency } => payload(KIND_HELLO, &[*protocol, *worker], adjacency),
        Msg::Assign { block, start, len } => payload(KIND_ASSIGN, &[*block, *start, *len], &[]),
        Msg::Heartbeat { worker, block } => payload(KIND_HEARTBEAT, &[*worker, *block], &[]),
        Msg::Output { path } => payload(KIND_OUTPUT, &[], path.as_bytes()),
        Msg::BlockResult { block, table } => payload(KIND_BLOCK_RESULT, &[*block], table),
        Msg::Shutdown => payload(KIND_SHUTDOWN, &[], &[]),
        Msg::Bye { worker, blocks_done } => payload(KIND_BYE, &[*worker, *blocks_done], &[]),
    }
}

/// Write one message as a frame and flush (frames carry control flow, so
/// they must not sit in a BufWriter).
pub fn write_frame<W: Write>(w: &mut W, msg: &Msg) -> std::io::Result<()> {
    w.write_all(&encode_frame(msg))?;
    w.flush()
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8], start_of_frame: bool) -> Result<(), FrameError> {
    let mut at = 0;
    while at < buf.len() {
        match r.read(&mut buf[at..]) {
            Ok(0) => {
                return Err(if start_of_frame && at == 0 {
                    FrameError::Eof
                } else {
                    FrameError::Corrupt("stream ended mid-frame".to_string())
                });
            }
            Ok(n) => at += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Read one message. Blocks until a full frame (or EOF) arrives.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Msg, FrameError> {
    decode_payload(&read_raw_frame(r)?)
}

/// Parse one verified frame payload into a [`Msg`]. Split from
/// [`read_frame`] so fuzzers can hit the parser without the framing.
pub fn decode_payload(payload: &[u8]) -> Result<Msg, FrameError> {
    if payload.is_empty() {
        return Err(FrameError::Corrupt("zero-length payload".to_string()));
    }
    let (kind, body) = (payload[0], &payload[1..]);
    // The body as exactly `n` little-endian words.
    let words = |n: usize| -> Result<Vec<u32>, FrameError> {
        if body.len() != 4 * n {
            return Err(FrameError::Corrupt(format!("kind {kind}: bad body length")));
        }
        Ok(body.chunks_exact(4).map(|w| u32::from_le_bytes(w.try_into().expect("four bytes"))).collect())
    };
    match kind {
        KIND_HELLO => match body.split_first_chunk::<8>() {
            Some((head, adjacency)) => Ok(Msg::Hello {
                protocol: u32::from_le_bytes(head[..4].try_into().expect("four bytes")),
                worker: u32::from_le_bytes(head[4..].try_into().expect("four bytes")),
                adjacency: adjacency.to_vec(),
            }),
            None => Err(FrameError::Corrupt("hello without header".to_string())),
        },
        KIND_ASSIGN => words(3).map(|w| Msg::Assign { block: w[0], start: w[1], len: w[2] }),
        KIND_HEARTBEAT => words(2).map(|w| Msg::Heartbeat { worker: w[0], block: w[1] }),
        KIND_OUTPUT => String::from_utf8(body.to_vec())
            .map(|path| Msg::Output { path })
            .map_err(|_| FrameError::Corrupt("output path is not UTF-8".to_string())),
        KIND_BLOCK_RESULT => match body.split_first_chunk::<4>() {
            Some((block, table)) => {
                Ok(Msg::BlockResult { block: u32::from_le_bytes(*block), table: table.to_vec() })
            }
            None => Err(FrameError::Corrupt("block result without header".to_string())),
        },
        KIND_SHUTDOWN => words(0).map(|_| Msg::Shutdown),
        KIND_BYE => words(2).map(|w| Msg::Bye { worker: w[0], blocks_done: w[1] }),
        other => Err(FrameError::Corrupt(format!("unknown message kind {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_msgs() -> Vec<Msg> {
        vec![
            Msg::Hello { protocol: PROTOCOL_VERSION, worker: 3, adjacency: vec![0, 0, 0, 0, 9, 0] },
            Msg::Assign { block: 7, start: 448, len: 64 },
            Msg::Heartbeat { worker: 3, block: u32::MAX },
            Msg::Output { path: "/tmp/table.mirt.partial".to_string() },
            Msg::BlockResult { block: 7, table: vec![1, 2, 3, 250, 0, 9] },
            Msg::Shutdown,
            Msg::Bye { worker: 3, blocks_done: 12 },
        ]
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let msgs = all_msgs();
        let mut stream = Vec::new();
        for m in &msgs {
            write_frame(&mut stream, m).unwrap();
        }
        let mut r = &stream[..];
        for m in &msgs {
            assert_eq!(&read_frame(&mut r).unwrap(), m);
        }
        assert!(matches!(read_frame(&mut r), Err(FrameError::Eof)));
    }

    #[test]
    fn corruption_truncation_and_oversize_are_rejected() {
        let good = encode_frame(&Msg::Assign { block: 1, start: 2, len: 3 });

        // Bit flip in the body → checksum mismatch.
        let mut bad = good.clone();
        bad[6] ^= 0x01;
        let err = read_frame(&mut &bad[..]).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(ref w) if w.contains("checksum")), "{err}");

        // The same frame sealed with FNV-1a, as protocol 4 sealed it.
        let mut old = good[..good.len() - 8].to_vec();
        old.extend_from_slice(&crate::fnv1a(&good[4..good.len() - 8]).to_le_bytes());
        let err = read_frame(&mut &old[..]).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(ref w) if w == "checksum mismatch"), "{err}");

        // Bit flip in the trailing checksum itself.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x80;
        assert!(matches!(read_frame(&mut &bad[..]).unwrap_err(), FrameError::Corrupt(_)));

        // Torn mid-frame: corruption, not clean EOF.
        let err = read_frame(&mut &good[..good.len() - 2]).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(ref w) if w.contains("mid-frame")), "{err}");

        // Absurd length prefix refuses before allocating.
        let mut bad = good.clone();
        bad[..4].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let err = read_frame(&mut &bad[..]).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(ref w) if w.contains("MAX_FRAME")), "{err}");

        // Unknown kind (re-checksummed so only the kind is wrong).
        let mut payload = vec![99u8];
        payload.extend_from_slice(&[0; 12]);
        let mut bad = Vec::new();
        bad.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bad.extend_from_slice(&payload);
        bad.extend_from_slice(&frame_sum(&payload).to_le_bytes());
        let err = read_frame(&mut &bad[..]).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(ref w) if w.contains("unknown message kind")), "{err}");

        // A wrong body length for a known kind.
        let payload = vec![KIND_SHUTDOWN, 0xAB];
        let mut bad = Vec::new();
        bad.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bad.extend_from_slice(&payload);
        bad.extend_from_slice(&frame_sum(&payload).to_le_bytes());
        assert!(matches!(read_frame(&mut &bad[..]).unwrap_err(), FrameError::Corrupt(_)));
    }
}
