//! Fuzz the ingest cache decoder the way the shard, serve and churn
//! codecs are fuzzed: byte soup, single-byte flips and truncation at
//! every cut must each decode or fail with an error — never a panic —
//! and whatever decodes must be a cache the writer spells and the
//! decoder reads back unchanged.

use miro_topology::io::stream::{IngestCache, ParseStats};
use miro_topology::io::TopologyDoc;
use miro_topology::GenParams;
use proptest::prelude::*;

fn fixture(seed: u64) -> IngestCache {
    let t = GenParams::tiny(seed).generate();
    let stats = ParseStats { edges: t.num_edges(), nodes: t.num_nodes(), ..Default::default() };
    IngestCache::new("fuzz \"é\"".into(), "generated".into(), stats, TopologyDoc::of(&t))
}

/// Decode `bytes`; if that succeeds, the result survives the writer and
/// its topology builds or is refused with an error.
fn decode_or_error(bytes: &[u8]) -> bool {
    let Ok(cache) = IngestCache::from_json(bytes) else { return false };
    let again = serde_json::to_string(&cache).expect("a decoded cache serializes");
    assert_eq!(IngestCache::from_json(again).expect("the writer's spelling decodes"), cache);
    let _ = cache.topology.build();
    true
}

/// JSON fragments a cache is made of, for soup that gets past the first
/// byte.
const TOKENS: [&str; 24] = [
    "{", "}", "[", "]", ",", ":", " ", "\"format_version\"", "\"name\"", "\"source\"", "\"stats\"",
    "\"topology\"", "\"links\"", "\"isolated\"", "\"lines\"", "2", "1", "-1", "4294967296", "0.5",
    "\"c\"", "\"x\\u0041\"", "null", "\"",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Raw byte soup, and soup behind the opening of a real cache.
    #[test]
    fn byte_soup_decodes_or_errors(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        decode_or_error(&bytes);
        let mut behind = br#"{"format_version":2,"topology":{"links":[[1,2,"c"],"#.to_vec();
        behind.extend_from_slice(&bytes);
        decode_or_error(&behind);
    }

    /// Soup of the document's own tokens reaches every member decoder.
    #[test]
    fn token_soup_decodes_or_errors(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..120)) {
        let doc: String = picks.iter().map(|&i| TOKENS[i]).collect();
        decode_or_error(doc.as_bytes());
    }

    /// One flipped byte anywhere in a compact or pretty cache.
    #[test]
    fn single_byte_flip_decodes_or_errors(seed in 0u64..64, pick in any::<u32>(), flip in 0u8..255, pretty in any::<bool>()) {
        let flip = flip + 1; // 1..=255: never a no-op
        let cache = fixture(seed);
        let mut bytes = if pretty {
            serde_json::to_string_pretty(&cache).unwrap()
        } else {
            serde_json::to_string(&cache).unwrap()
        }
        .into_bytes();
        let at = pick as usize % bytes.len();
        bytes[at] ^= flip;
        decode_or_error(&bytes);
    }
}

#[test]
fn truncation_at_every_cut_is_an_error() {
    let cache = fixture(3);
    for json in [serde_json::to_string(&cache).unwrap(), serde_json::to_string_pretty(&cache).unwrap()] {
        assert!(decode_or_error(json.as_bytes()));
        for cut in 0..json.len() {
            assert!(!decode_or_error(&json.as_bytes()[..cut]), "cut {cut} decoded");
        }
    }
}
