//! The byte format of the committed `results/BENCH_e{12,18,19,22}.json`
//! artifacts, pinned.
//!
//! The smoke gates (`bench_smoke.rs`, `scale_smoke.rs`) read these files,
//! and the `bench` binary rewrites them, so the writer must reproduce a
//! committed file byte for byte from its parsed value. A file cut short
//! anywhere before its closing brace must be rejected rather than read
//! as a smaller baseline, and no input may make the reader panic.

use std::fs;
use std::path::PathBuf;

use dam_bench::baseline::{AdaptiveBaseline, AsyncBaseline, Baseline};
use dam_bench::scale::ScaleBaseline;
use proptest::collection;
use proptest::prelude::*;

fn committed(id: &str) -> String {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/BENCH_{id}.json"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing {}: {e}", path.display()))
}

/// Every committed artifact, each with its reader and writer composed
/// into `Ok(to_json(from_json(text)))`.
#[allow(clippy::type_complexity)]
const ARTIFACTS: [(&str, fn(&str) -> Result<String, String>); 4] = [
    ("e12", |t| Baseline::from_json(t).map(|b| b.to_json())),
    ("e18", |t| AsyncBaseline::from_json(t).map(|b| b.to_json())),
    ("e19", |t| AdaptiveBaseline::from_json(t).map(|b| b.to_json())),
    ("e22", |t| ScaleBaseline::from_json(t).map(|b| b.to_json())),
];

#[test]
fn committed_artifacts_round_trip_byte_for_byte() {
    for (id, reencode) in ARTIFACTS {
        let text = committed(id);
        let back = reencode(&text).unwrap_or_else(|e| panic!("BENCH_{id}.json must parse: {e}"));
        assert_eq!(back, text, "BENCH_{id}.json does not re-encode to its committed bytes");
    }
}

#[test]
fn every_prefix_before_the_closing_brace_is_rejected() {
    for (id, reencode) in ARTIFACTS {
        let text = committed(id);
        let last = text.rfind('}').expect("an artifact is one object");
        for cut in (0..=last).filter(|&c| text.is_char_boundary(c)) {
            assert!(
                reencode(&text[..cut]).is_err(),
                "BENCH_{id}.json cut to {cut} of {} bytes still parses",
                text.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_reader_never_panics_on_noise(bytes in collection::vec(any::<u8>(), 0..120)) {
        let text = String::from_utf8_lossy(&bytes);
        for (_, reencode) in ARTIFACTS {
            let _ = reencode(&text);
        }
    }

    #[test]
    fn the_reader_never_panics_on_a_flipped_byte(at in any::<usize>(), mask in 1u8..=255) {
        for (id, reencode) in ARTIFACTS {
            let mut bytes = committed(id).into_bytes();
            let i = at % bytes.len();
            bytes[i] ^= mask;
            let _ = reencode(&String::from_utf8_lossy(&bytes));
        }
    }
}
