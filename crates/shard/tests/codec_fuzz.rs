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

// ------------------------------------------------ table sections and exceptions

use miro_bgp::solver::RoutingState;
use miro_shard::format::{checksum, row_checksum, row_exceptions, Adjacency, Layout, RouteTableSet, EXCEPTION_BYTES};
use miro_topology::gen::GenParams;

/// A tiny graph's table whose rows 0 and 1 are masked solves, each
/// without the link of a sink to its provider: one exception or more.
fn excepted() -> RouteTableSet {
    let topo = GenParams::tiny(3).generate();
    let mut set = RouteTableSet::from_solves(&topo, &miro_shard::sample_dests(topo.num_nodes(), 6), 1);
    let n = topo.num_nodes();
    let sinks: Vec<u32> = topo.sinks().iter().copied().filter(|&s| topo.providers(s).count() >= 2).collect();
    for (i, &s) in sinks.iter().take(2).enumerate() {
        let st = RoutingState::solve(&topo, set.dests()[i]);
        let p = st.best(s).expect("a multihomed sink is routed").next;
        let (mut next, mut hops, mut class) = (vec![0u32; n], vec![0u16; n], vec![0u8; n]);
        RoutingState::solve_without_link(&topo, set.dests()[i], s, p).write_table_row(&mut next, &mut hops, &mut class);
        set.set_row(i, &next, &hops, &class);
    }
    assert!(set.layout().num_exceptions() >= 2);
    set
}

/// Every row checksum (over the row and its exceptions as readers find
/// them) and the whole-file checksum recomputed.
fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
    let l = Layout::parse(&bytes).unwrap();
    let end = bytes.len() - 8;
    let exceptions = bytes[l.exceptions_at()..end].to_vec();
    for i in 0..l.num_dests() as usize {
        let sum = row_checksum(&bytes[l.row_at(i)..l.row_at(i + 1)], row_exceptions(&exceptions, i));
        bytes[l.sums_at() + 8 * i..][..8].copy_from_slice(&sum.to_le_bytes());
    }
    let total = checksum(&bytes[..end]);
    bytes[end..].copy_from_slice(&total.to_le_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A Hello's sections are parsed before the coordinator lays anything
    /// out: any words written into a good section parse or are refused,
    /// never a panic; what parses writes back to the same bytes, and
    /// rebuilds a topology whose sections they are, or is refused.
    #[test]
    fn hello_sections_parse_or_fail_cleanly(writes in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 1..6)) {
        let topo = GenParams::tiny(3).generate();
        let mut bytes = Vec::new();
        Adjacency::of(&topo).write(&mut bytes);
        let ends_at = 4 * (topo.num_nodes() + 1 + 2 * topo.num_edges());
        for &(at, value, in_ends) in &writes {
            // Half the writes land in the partition ends (provider,
            // sibling and customer end of each AS), where a small value
            // is likely to parse.
            let at = if in_ends { ends_at + 2 * (at as usize % (3 * topo.num_nodes())) } else { 2 * (at as usize % (bytes.len() / 2)) };
            bytes[at..at + 2].copy_from_slice(&((value % 8) as u16).to_le_bytes());
        }
        if let Ok(adj) = Adjacency::parse(topo.num_nodes() as u32, &bytes) {
            let mut back = Vec::new();
            adj.write(&mut back);
            prop_assert_eq!(back, bytes);
            if let Ok(rebuilt) = adj.topology() {
                prop_assert_eq!(Adjacency::of(&rebuilt), adj);
            }
        }
    }

    /// Any words in the sections or the exception list of a table with
    /// exceptions, resealed: `decode` refuses it or reads every row,
    /// never a panic.
    #[test]
    fn hostile_sections_and_exceptions_decode_or_fail_cleanly(
        writes in proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u16>()), 1..5),
    ) {
        let set = excepted();
        let l = set.layout();
        let mut bytes = set.encode();
        for &(in_exceptions, at, word) in &writes {
            let region = if in_exceptions {
                l.exceptions_at()..l.exceptions_at() + EXCEPTION_BYTES * l.num_exceptions() as usize
            } else {
                l.ends_at()..l.sums_at()
            };
            let at = region.start + 2 * (at as usize % (region.len() / 2));
            bytes[at..at + 2].copy_from_slice(&(word % 16).to_le_bytes());
        }
        if let Ok(back) = RouteTableSet::decode(&resealed(bytes)) {
            for i in 0..back.dests().len() {
                back.row(i);
            }
        }
    }
}
