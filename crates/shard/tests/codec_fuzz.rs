//! Fuzz the FNV-framed codec both services share: arbitrary byte soup,
//! truncations, and bit flips must surface as clean [`FrameError`]s —
//! never a panic, never a fabricated message — and every shard message
//! must round-trip with arbitrary field values.
//!
//! The serve-side message set reuses this raw framing; its payload
//! parser is fuzzed separately in `crates/serve/tests/wire_fuzz.rs`.

use miro_shard::protocol::{
    decode_payload, encode_frame, encode_raw_frame, read_frame, read_raw_frame, write_frame,
    FrameError, Msg, MAX_FRAME, PROTOCOL_VERSION,
};
use proptest::prelude::*;
use std::io::Cursor;

fn all_msgs(worker: u32, block: u32, table: Vec<u8>, path: String) -> Vec<Msg> {
    vec![
        Msg::Hello { protocol: PROTOCOL_VERSION, worker, adjacency: table.iter().rev().copied().collect() },
        Msg::Output { path },
        Msg::Assign { block, start: block.wrapping_mul(64), len: 64 },
        Msg::Heartbeat { worker, block },
        Msg::BlockResult { block, table },
        Msg::Shutdown,
        Msg::Bye { worker, blocks_done: block.wrapping_add(1) },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Byte soup into the payload parser: Ok (canonical bytes) or
    /// Corrupt. Nothing else, and never a panic.
    #[test]
    fn byte_soup_decodes_or_fails_cleanly(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        match decode_payload(&bytes) {
            Ok(msg) => {
                // The codec has one encoding per message: whatever
                // decodes must re-encode to the exact payload.
                let frame = encode_frame(&msg);
                prop_assert_eq!(&frame[4..frame.len() - 8], &bytes[..]);
            }
            Err(FrameError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// Byte soup as a framed stream: the reader never panics, never
    /// returns a message whose re-encoding disagrees with the stream,
    /// and only reports Eof when the soup died before the length field.
    #[test]
    fn framed_byte_soup_errors_cleanly(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        match read_frame(&mut Cursor::new(&bytes)) {
            Ok(msg) => {
                let frame = encode_frame(&msg);
                prop_assert_eq!(&bytes[..frame.len()], &frame[..]);
            }
            Err(FrameError::Eof) => prop_assert!(bytes.len() < 4),
            Err(FrameError::Corrupt(_)) | Err(FrameError::Io(_)) => {}
        }
    }

    /// Round trip with arbitrary field values, back-to-back on one
    /// stream, ending in a clean Eof.
    #[test]
    fn every_message_round_trips(
        worker in any::<u32>(),
        block in any::<u32>(),
        table in proptest::collection::vec(any::<u8>(), 0..80),
        path in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let msgs = all_msgs(worker, block, table, String::from_utf8_lossy(&path).into_owned());
        let mut stream = Vec::new();
        for msg in &msgs {
            write_frame(&mut stream, msg).unwrap();
        }
        let mut cursor = Cursor::new(&stream);
        for msg in &msgs {
            prop_assert_eq!(&read_frame(&mut cursor).unwrap(), msg);
        }
        prop_assert!(matches!(read_frame(&mut cursor), Err(FrameError::Eof)));
    }

    /// One flipped byte anywhere in a frame is caught by the length
    /// check, the FNV trailer, or the payload parser.
    #[test]
    fn single_byte_flip_is_always_caught(pick in any::<u16>(), flip in 0u8..255, output in any::<bool>()) {
        let flip = flip.wrapping_add(1); // 1..=255: never a no-op flip
        let frame = encode_frame(&if output {
            Msg::Output { path: "/tmp/été/table.mirt.partial".to_string() }
        } else {
            Msg::BlockResult { block: 9, table: vec![5, 0, 250, 17] }
        });
        let mut bad = frame.clone();
        let at = pick as usize % bad.len();
        bad[at] ^= flip;
        match read_frame(&mut Cursor::new(&bad)) {
            Err(FrameError::Corrupt(_)) | Err(FrameError::Io(_)) | Err(FrameError::Eof) => {}
            Ok(got) => prop_assert!(false, "flipped frame decoded as {got:?}"),
        }
    }

    /// The raw layer returns corrupt-trailer payloads to no one: a
    /// damaged checksum is always "checksum mismatch", regardless of
    /// payload contents.
    #[test]
    fn corrupt_trailer_is_checksum_mismatch(payload in proptest::collection::vec(any::<u8>(), 1..60), which in 0usize..8) {
        let mut frame = encode_raw_frame(&payload);
        let at = frame.len() - 8 + which;
        frame[at] ^= 0x80;
        match read_raw_frame(&mut Cursor::new(&frame)) {
            Err(FrameError::Corrupt(why)) => prop_assert!(why.contains("checksum"), "{why}"),
            other => prop_assert!(false, "unexpected: {other:?}"),
        }
    }
}

#[test]
fn truncation_at_every_cut_errors_cleanly() {
    for msg in [
        Msg::Assign { block: 2, start: 128, len: 64 },
        Msg::Output { path: "out/table.mirt.partial".to_string() },
    ] {
        let frame = encode_frame(&msg);
        for cut in 0..frame.len() {
            match read_frame(&mut Cursor::new(&frame[..cut])) {
                Err(FrameError::Eof) => assert!(cut < 4, "Eof mid-frame at cut {cut}"),
                Err(FrameError::Corrupt(_)) => {}
                other => panic!("{msg:?} cut {cut}: unexpected {other:?}"),
            }
        }
    }
}

/// The one variable-length text body: bytes that are not UTF-8 are a
/// corrupt frame, not a lossy path.
#[test]
fn output_path_must_be_utf8() {
    let payload = [7u8, b'/', 0xFF, 0xFE];
    match decode_payload(&payload) {
        Err(FrameError::Corrupt(why)) => assert!(why.contains("UTF-8"), "{why}"),
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn hostile_length_fields_are_bounded() {
    // A length claiming more than MAX_FRAME must be rejected before any
    // allocation of that size is attempted.
    let mut huge = vec![0u8; 4];
    huge[..4].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    match read_raw_frame(&mut Cursor::new(&huge)) {
        Err(FrameError::Corrupt(why)) => assert!(why.contains("MAX_FRAME"), "{why}"),
        other => panic!("unexpected: {other:?}"),
    }

    // Zero-length payloads are equally meaningless.
    let zero = [0u8; 4];
    match read_raw_frame(&mut Cursor::new(&zero[..])) {
        Err(FrameError::Corrupt(why)) => assert!(why.contains("zero-length"), "{why}"),
        other => panic!("unexpected: {other:?}"),
    }
}
