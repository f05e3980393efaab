//! Seeded mutation fuzzing of the plain-text graph and demand parsers.
//!
//! Both sit on an input boundary (`sor eval --demand file:PATH` reads a
//! demand from disk), so malformed input must come back as an `Err`,
//! never a panic. Each parser gets a valid document, every char-boundary
//! truncation of it, and 256 seeded byte flips.

use sor_flow::{demand_from_text, demand_to_text, Demand};
use sor_graph::{gen, graph_from_text, graph_to_text, NodeId};

/// SplitMix64 over (seed, index): a deterministic stream without rand.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bytes a flip draws from: the formats' keywords, digits, separators and
/// sign/exponent characters reach the deep parser states; the tail is
/// arbitrary (possibly invalid UTF-8, repaired lossily before parsing).
const FLIP_BYTES: &[u8] = b"graphedgdemandflow 0123456789\n\t#-+.eEinfNa\x00\x7f\xc3\xff";

/// Every char-boundary prefix of `text`, then 256 seeded mutations of 1
/// to 4 flipped bytes each, fed to `parse`; reaching the end is the test.
fn never_panics(text: &str, seed: u64, parse: impl Fn(&str) -> bool) {
    for (i, _) in text.char_indices() {
        parse(&text[..i]);
    }
    let len = u64::try_from(text.len()).expect("small document");
    let flips = u64::try_from(FLIP_BYTES.len()).expect("small table");
    for round in 0..256u64 {
        let mut bytes = text.as_bytes().to_vec();
        for f in 0..1 + mix(seed, round) % 4 {
            let at = mix(seed, 1_000 + round * 8 + f) % len;
            let pick = mix(seed, 2_000 + round * 8 + f) % flips;
            bytes[usize::try_from(at).expect("in range")] =
                FLIP_BYTES[usize::try_from(pick).expect("in range")];
        }
        parse(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn graph_text_mutations_never_panic() {
    let text = graph_to_text(&gen::abilene());
    assert!(graph_from_text(&text).is_ok());
    never_panics(&text, 0x6a09_e667, |t| graph_from_text(t).is_ok());
}

#[test]
fn huge_graph_header_is_an_error_not_an_allocation() {
    // 18 bytes that once asked `Graph::new` for four billion vertex lists
    assert!(graph_from_text("graph 4000000000 0").is_err());
    never_panics("graph 4000000000 0", 0x3c6e_f372, |t| {
        graph_from_text(t).is_ok()
    });
}

#[test]
fn demand_text_mutations_never_panic() {
    let demand = Demand::from_triples([
        (NodeId(0), NodeId(7), 1.5),
        (NodeId(3), NodeId(1), 0.25),
        (NodeId(10), NodeId(4), 12.0),
    ]);
    let text = demand_to_text(&demand);
    assert_eq!(demand_from_text(&text, 11), Ok(demand));
    never_panics(&text, 0xbb67_ae85, |t| demand_from_text(t, 11).is_ok());
}
