//! Fuzz the query wire protocol: arbitrary byte soup and corrupted
//! frames must come back as clean [`FrameError`]s — never a panic, never
//! a silently wrong message — and every message kind must survive a
//! round trip with arbitrary field values.
//!
//! This is the serve-side half of the shared-codec satellite; the raw
//! frame layer itself (length cap, FNV trailer) is fuzzed from
//! `miro-shard`'s side in `crates/shard/tests/codec_fuzz.rs`. The
//! daemon's own frame splitter ([`split_frame`], which finds frames in
//! bytes already received) must reach `read_msg`'s verdict on the same
//! bytes: [`same_verdict`] rides along in the soup, flip and truncate
//! cases.

use miro_serve::wire::{
    decode_payload, encode_payload, read_msg, split_frame, write_msg, WireMsg,
    QUERY_PROTOCOL_VERSION,
};
use miro_shard::protocol::{encode_raw_frame, FrameError, MAX_FRAME};
use proptest::prelude::*;
use std::io::Cursor;

/// One of every wire message, fields driven by the fuzzer.
fn all_msgs(id: u64, v: u32, asns: Vec<u32>, text: String) -> Vec<WireMsg> {
    vec![
        WireMsg::Hello { protocol: v },
        WireMsg::Welcome { protocol: v, num_nodes: v, num_dests: v.wrapping_add(1) },
        WireMsg::Universe { id },
        WireMsg::RUniverse { id, src_asns: asns.clone(), dest_asns: asns.clone() },
        WireMsg::NextHop { id, src: v, dest: v.wrapping_mul(3) },
        WireMsg::RNextHop { id, next: v, hops: (v % (u16::MAX as u32 + 1)) as u16, class: (v % 256) as u8 },
        WireMsg::Path { id, src: v, dest: v },
        WireMsg::RPath { id, path: asns.clone() },
        WireMsg::Alternate { id, src: v, dest: v, avoid: v.wrapping_add(7) },
        WireMsg::RAlternate { id, deviates: id.is_multiple_of(2), splice_at: v, via: v, path: asns },
        WireMsg::RUnrouted { id },
        WireMsg::RNoAlternate { id },
        WireMsg::Stats { id },
        WireMsg::RStats {
            id,
            queries: id,
            cache_hits: id / 2,
            cache_misses: id / 3,
            cache_evictions: id / 5,
            rows_verified: id / 7,
            connections: id % 65,
        },
        WireMsg::RErr { id, msg: text },
        WireMsg::Shutdown,
        WireMsg::RBye,
    ]
}

/// The buffer-side splitter against the stream-side reader on the same
/// bytes: a message from one is the same message (and length) from the
/// other, "not all here yet" is the reader running out of stream, and
/// corrupt is corrupt. Returns the reader's result for the caller's own
/// checks.
fn same_verdict(bytes: &[u8]) -> Result<WireMsg, FrameError> {
    let mut cursor = Cursor::new(bytes);
    let read = read_msg(&mut cursor);
    let split = split_frame(bytes, MAX_FRAME as usize)
        .and_then(|frame| frame.map(|(payload, used)| Ok((decode_payload(payload)?, used))).transpose());
    match (&read, &split) {
        (Ok(a), Ok(Some((b, used)))) => {
            assert_eq!(a, b);
            assert_eq!(*used as u64, cursor.position());
        }
        (Err(FrameError::Eof), Ok(None)) => assert!(bytes.is_empty()),
        (Err(FrameError::Corrupt(why)), Ok(None)) => assert!(why.contains("mid-frame"), "{why}"),
        (Err(FrameError::Corrupt(a)), Err(FrameError::Corrupt(b))) => {
            // Same failure, apart from how the over-long length is worded.
            assert!(a == b || (a.contains("exceeds") && b.contains("exceeds")), "{a} / {b}");
        }
        _ => panic!("read_msg: {read:?}, split_frame: {split:?}"),
    }
    read
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Raw byte soup handed straight to the payload decoder: every
    /// outcome is Ok or Corrupt — no panic, no Eof (Eof is a framing
    /// concept, not a payload one).
    #[test]
    fn byte_soup_decodes_or_fails_cleanly(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        match decode_payload(&bytes) {
            Ok(msg) => {
                // Anything that decodes must re-encode to the same bytes
                // it was decoded from (the codec has no redundancy).
                prop_assert_eq!(encode_payload(&msg), bytes);
            }
            Err(FrameError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// Byte soup as a *stream*: the framed reader never panics and never
    /// fabricates a message from garbage that fails its checksum.
    #[test]
    fn framed_byte_soup_errors_cleanly(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        match same_verdict(&bytes) {
            Ok(msg) => {
                // Only possible if the soup happened to be a valid frame;
                // re-framing the message must reproduce a prefix of it.
                let frame = encode_raw_frame(&encode_payload(&msg));
                prop_assert_eq!(&bytes[..frame.len()], &frame[..]);
            }
            Err(FrameError::Eof) => prop_assert!(bytes.is_empty() || bytes.len() < 4),
            Err(FrameError::Corrupt(_)) | Err(FrameError::Io(_)) => {}
        }
    }

    /// Round trip with arbitrary field values, both per-payload and
    /// through the framed stream back-to-back.
    #[test]
    fn every_message_round_trips(
        id in any::<u64>(),
        v in any::<u32>(),
        asns in proptest::collection::vec(any::<u32>(), 0..12),
        text in "[ -~]{0,40}",
    ) {
        let msgs = all_msgs(id, v, asns, text);
        let mut stream = Vec::new();
        for msg in &msgs {
            prop_assert_eq!(&decode_payload(&encode_payload(msg)).unwrap(), msg);
            write_msg(&mut stream, msg).unwrap();
        }
        let mut cursor = Cursor::new(&stream);
        for msg in &msgs {
            prop_assert_eq!(&read_msg(&mut cursor).unwrap(), msg);
        }
        prop_assert!(matches!(read_msg(&mut cursor), Err(FrameError::Eof)));
    }

    /// Any single flipped byte in a valid frame is caught: by the FNV
    /// trailer if it hit payload/trailer bytes, by the length check if it
    /// hit the header. Never a panic; Ok only for a same-bytes decode
    /// (impossible for a real flip, so effectively never).
    #[test]
    fn single_byte_flip_is_always_caught(pick in any::<u16>(), flip in 0u8..255) {
        let flip = flip.wrapping_add(1); // 1..=255: never a no-op flip
        let msg = WireMsg::RAlternate {
            id: 77,
            deviates: true,
            splice_at: 4,
            via: 9,
            path: vec![4, 9, 11, 30],
        };
        let mut frame = encode_raw_frame(&encode_payload(&msg));
        let at = pick as usize % frame.len();
        frame[at] ^= flip;
        match same_verdict(&frame) {
            Err(FrameError::Corrupt(_)) | Err(FrameError::Io(_)) | Err(FrameError::Eof) => {}
            Ok(got) => prop_assert!(false, "flipped frame decoded as {got:?}"),
        }
    }
}

#[test]
fn truncated_frames_error_cleanly_at_every_cut() {
    let msg = WireMsg::RPath { id: 3, path: vec![100, 103, 106] };
    let frame = encode_raw_frame(&encode_payload(&msg));
    for cut in 0..frame.len() {
        match same_verdict(&frame[..cut]) {
            Err(FrameError::Eof) => assert!(cut < 4, "Eof only between frames, cut={cut}"),
            Err(FrameError::Corrupt(_)) | Err(FrameError::Io(_)) => {}
            Ok(got) => panic!("truncated frame (cut={cut}) decoded as {got:?}"),
        }
    }
}

#[test]
fn corrupt_trailer_is_checksum_mismatch() {
    let frame = encode_raw_frame(&encode_payload(&WireMsg::Stats { id: 12 }));
    let mut bad = frame.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    match read_msg(&mut Cursor::new(&bad)) {
        Err(FrameError::Corrupt(why)) => assert!(why.contains("checksum"), "{why}"),
        other => panic!("unexpected: {other:?}"),
    }
}

/// The two services share the raw codec but disjoint kind ranges (shard
/// 1–6, serve 32+): a frame from the *other* service decodes to a clean
/// "unknown message kind", not a mangled message.
#[test]
fn cross_service_frames_are_rejected_by_kind() {
    let shard = miro_shard::protocol::encode_frame(&miro_shard::protocol::Msg::Assign {
        block: 3,
        start: 96,
        len: 32,
    });
    match read_msg(&mut Cursor::new(&shard)) {
        Err(FrameError::Corrupt(why)) => assert!(why.contains("unknown message kind"), "{why}"),
        other => panic!("unexpected: {other:?}"),
    }

    let serve = encode_raw_frame(&encode_payload(&WireMsg::Hello {
        protocol: QUERY_PROTOCOL_VERSION,
    }));
    match miro_shard::protocol::read_frame(&mut Cursor::new(&serve)) {
        Err(FrameError::Corrupt(why)) => assert!(why.contains("unknown message kind"), "{why}"),
        other => panic!("unexpected: {other:?}"),
    }
}
