//! Seeded mutation fuzzing of the hand-rolled JSON and journal parsers.
//!
//! Both parsers sit on an input boundary (`sor forensics` reads journal
//! dumps from disk), so malformed input must come back as an `Err`,
//! never a panic. Each case builds a valid `sor-journal/3` dump from its
//! seed, checks the unmutated dump round-trips event for event, then
//! feeds `parse_json` and `parse_journal` every char-boundary truncation,
//! a batch of byte flips, and nesting past the depth guard. (The vendored
//! proptest stub generates numeric values only, so each case draws a
//! seed and derives its document and mutations from it.)

use proptest::prelude::*;
use sor_obs::{parse_journal, parse_json, Journal, JournalEvent};

/// SplitMix64 over (seed, index): a deterministic stream without rand.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One epoch of every journal event type. `E` takes the epoch, `N` a
/// seeded integer and `F` a seeded float; `seq` is rewritten on record.
/// The `epoch_end` row carries a fresh baseline and an SLO breach.
const EPOCH_TEMPLATE: &str = r#"{"format":"sor-journal/3","events":[
{"seq":0,"type":"edge_fail","epoch":E,"edges":[N,N]},
{"seq":0,"type":"edge_restore","epoch":E,"restored":N},
{"seq":0,"type":"top_edges","epoch":E,"edges":[{"edge":N,"load":F,"utilization":F}]},
{"seq":0,"type":"path_churn","epoch":E,"src":N,"dst":N,"new_pair":false},
{"seq":0,"type":"epoch_end","epoch":E,"admitted":N,"rejected":N,"cache_hit":true,
 "cache":{"hits":N,"misses":N,"evictions":N,"invalidations":N},"congestion":F,
 "fresh_congestion":F,"congestion_ratio":F,"fallback_pairs":N,"unserved_pairs":N,
 "queue_depth":N,"failed_edges":N,"epoch_wall_ns":N,"slo_breaches":["min_cache_hit_rate"],
 "demand_fp":N,"lower_bound":F}]}"#;

/// The template's events for `epoch`, with seeded numbers filled in.
fn epoch_events(seed: u64, epoch: u64) -> Vec<JournalEvent> {
    let mut doc = String::new();
    for (i, c) in (0u64..).zip(EPOCH_TEMPLATE.chars()) {
        let r = mix(seed ^ epoch, i);
        match c {
            'E' => doc.push_str(&epoch.to_string()),
            'N' => doc.push_str(&(r % 1000).to_string()),
            #[allow(clippy::cast_precision_loss)]
            'F' => doc.push_str(&((r % (1 << 20)) as f64 / 64.0).to_string()),
            c => doc.push(c),
        }
    }
    let dump = parse_journal(&doc).expect("the template parses");
    dump.events.into_iter().map(|(_, e)| e).collect()
}

/// A journal whose ring may have wrapped (a capacity below the event
/// count drops the oldest events), dumped with multi-byte and escaped
/// metadata so truncations land inside every token kind.
fn dump(seed: u64) -> (Journal, String) {
    let journal = Journal::with_capacity(8 + usize::try_from(mix(seed, 1) % 16).expect("small"));
    for epoch in 0..1 + mix(seed, 2) % 3 {
        for e in epoch_events(seed, epoch) {
            journal.record(e);
        }
    }
    let note = format!("seed {seed}: \"quoted\" \\ é → ✓ 🛰");
    let text = journal.dump_json(&[("source", "parser_fuzz"), ("note", note.as_str())]);
    (journal, text)
}

/// Bytes a flip draws from: JSON punctuation and literal starters are
/// the mutations most likely to reach deep parser states; the rest are
/// arbitrary (possibly invalid UTF-8, repaired lossily before parsing).
const FLIP_BYTES: &[u8] = b"\"\\{}[]:,-+.eE0123456789tfnu \t\n\x00\x7f\xc3\xe2\xf0\xff";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn unmutated_dumps_round_trip_event_for_event(seed in 0u64..1_000_000) {
        let (journal, text) = dump(seed);
        let parsed = parse_journal(&text).expect("a fresh dump parses");
        prop_assert_eq!(&parsed.events, &journal.events());
        prop_assert_eq!(parsed.recorded, journal.recorded());
        prop_assert_eq!(parsed.dropped, journal.dropped());
        prop_assert!(parsed.meta.iter().any(|(k, v)| k == "note" && v.contains("é → ✓ 🛰")));
        prop_assert!(parse_json(&text).is_ok());
    }

    #[test]
    fn truncations_at_every_char_boundary_are_errors(seed in 0u64..1_000_000) {
        let (_, text) = dump(seed);
        let complete = text.trim_end().len();
        for (i, _) in text.char_indices() {
            let prefix = &text[..i];
            // the top-level object only closes at its last byte, so every
            // shorter prefix is incomplete
            let json = parse_json(prefix);
            prop_assert!(i >= complete || json.is_err(), "prefix {} parsed", i);
            let journal = parse_journal(prefix);
            prop_assert!(i >= complete || journal.is_err(), "prefix {} parsed", i);
        }
    }

    #[test]
    fn byte_flips_never_panic(seed in 0u64..1_000_000) {
        let (_, text) = dump(seed);
        let len = u64::try_from(text.len()).expect("small dump");
        for round in 0..64u64 {
            let mut bytes = text.clone().into_bytes();
            for f in 0..1 + mix(seed, 2_000 + round) % 4 {
                let at = mix(seed, 3_000 + round * 8 + f) % len;
                let pick = mix(seed, 4_000 + round * 8 + f) % FLIP_BYTES.len() as u64;
                bytes[usize::try_from(at).expect("in range")] =
                    FLIP_BYTES[usize::try_from(pick).expect("in range")];
            }
            let mutated = String::from_utf8_lossy(&bytes);
            // Ok or Err are both fine; reaching the next line is the test
            let _ = parse_json(&mutated);
            let _ = parse_journal(&mutated);
        }
    }
}

#[test]
fn nesting_past_the_depth_guard_is_an_error() {
    let nest = |depth: usize, open: &str, close: &str| {
        format!("{}{}", open.repeat(depth), close.repeat(depth))
    };
    // 64 levels is the documented limit; one more is rejected
    assert!(parse_json(&nest(64, "[", "]")).is_ok());
    let err = parse_json(&nest(65, "[", "]")).expect_err("65 levels");
    assert!(err.message.contains("nesting too deep"), "{err}");
    let objects = format!("{}1{}", "{\"a\":".repeat(65), "}".repeat(65));
    assert!(parse_json(&objects).is_err());
    // far past the guard: still an error, not a stack overflow
    assert!(parse_json(&nest(100_000, "[", "]")).is_err());
    // inside a journal document, where the events array adds two levels
    let deep_events = format!(
        "{{\"format\":\"sor-journal/3\",\"events\":[{}]}}",
        nest(65, "[", "]")
    );
    assert!(parse_journal(&deep_events).is_err());
}
