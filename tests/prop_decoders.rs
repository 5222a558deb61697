//! No-panic soups for the JSON decoders that read files this process did
//! not just write: a `campaign --plan` fault plan and a `campaign
//! --replay` artifact, a seed's or an `ecfd mc` counterexample's.
//! Whatever the file holds, the
//! answer is an `Err` the CLI turns into exit 2 — never a panic, and
//! never a value conjured from half a document. (The byte-level
//! decoders, WAL frames and snapshots, have their soups beside them in
//! `fd-kv`.)

use ecfd::prelude::*;
use fd_bench::mc::{mc_net, McParams};
use fd_campaign::Artifact;
use fd_chaos::{ChaosKind, ChaosPlan, DetectorKind};
use fd_mc::Choice;
use proptest::prelude::*;
use serde::Deserialize;

/// A plan that passes through every `ChaosKind`.
fn plan() -> ChaosPlan {
    let p = ProcessId;
    ChaosPlan::new(4, DetectorKind::Ring, Time::from_secs(2))
        .push(
            Time::from_millis(100),
            ChaosKind::Partition {
                groups: vec![vec![p(0)], vec![p(1), p(2)]],
            },
        )
        .push(
            Time::from_millis(150),
            ChaosKind::CutLinks {
                links: vec![(p(3), p(0))],
            },
        )
        .push(Time::from_millis(200), ChaosKind::Heal)
        .push(
            Time::from_millis(250),
            ChaosKind::Mangle(fd_sim::LinkMangler {
                drop: 0.25,
                duplicate: 0.5,
                reorder: 1.0,
                skew: SimDuration::from_millis(3),
            }),
        )
        .push(Time::from_millis(300), ChaosKind::Unmangle)
        .push(Time::from_millis(350), ChaosKind::Crash { pid: p(1) })
        .push(Time::from_millis(400), ChaosKind::Restart { pid: p(1) })
        .push(Time::from_millis(450), ChaosKind::GstMarker)
}

/// One valid document per decoder, as the writers produce them.
fn documents() -> [String; 3] {
    let net = NetworkConfig::new(3)
        .with_default(LinkModel::fair_lossy(
            SimDuration::from_millis(1),
            SimDuration::from_millis(4),
            0.125,
        ))
        .with_link(ProcessId(0), ProcessId(1), LinkModel::Dead);
    let artifact = Artifact {
        scenario: "e8".into(),
        seed: 7,
        property: "agreement".into(),
        detail: "p0 decided 1, p2 decided \"2\"\n".into(),
        digest: u64::MAX,
        plan: RunPlan::new(7, Time::from_secs(1), net).with_crash(ProcessId(2), Time(5)),
    };
    let params = McParams {
        depth: 6,
        drops: 1,
        choices: vec![Choice::Event(2), Choice::Drop(0)],
    };
    let mc = Artifact {
        scenario: "mc-ec".into(),
        seed: 0,
        property: "consensus.termination".into(),
        detail: "correct p1 never decided".into(),
        digest: 1 << 63,
        plan: RunPlan::new(0, Time::from_millis(300), mc_net(3))
            .with_crash(ProcessId(2), Time::from_millis(25))
            .with_params(serde_json::to_value(&params)),
    };
    [
        serde_json::to_string_pretty(&plan()).unwrap(),
        serde_json::to_string(&artifact).unwrap(),
        serde_json::to_string_pretty(&mc).unwrap(),
    ]
}

/// Decode `text` as each document type, an mc artifact down to its
/// params; `true` iff any of them accepted it. Returning at all is the
/// no-panic property.
fn any_decoder_accepts(text: &str) -> bool {
    fn ok<T: Deserialize>(text: &str) -> bool {
        serde_json::from_str::<T>(text).is_ok()
    }
    let mc_params = || {
        let artifact = serde_json::from_str::<Artifact>(text).ok()?;
        McParams::of(&artifact.plan).ok()
    };
    ok::<ChaosPlan>(text) | ok::<Artifact>(text) | mc_params().is_some()
}

#[test]
fn every_truncation_of_a_valid_document_is_an_error() {
    for (which, doc) in documents().iter().enumerate() {
        assert!(any_decoder_accepts(doc), "document {which} is not valid");
        for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            assert!(
                !any_decoder_accepts(&doc[..cut]),
                "document {which} cut at byte {cut} was accepted"
            );
        }
    }
}

/// JSON-shaped debris: structure, the writers' own field names and
/// variant tags, and numbers at the edges of every integer width.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u12",
    "\\ud800",
    "null",
    "true",
    "nul",
    "\"n\"",
    "\"events\"",
    "\"plan\"",
    "\"choices\"",
    "\"Crash\"",
    "\"Heal\"",
    "{\"pid\":",
    "{\"Event\":",
    "0",
    "-",
    "-0",
    "-1",
    "0.5",
    "1e999",
    "-1e-999",
    "4294967296",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    " ",
    "\n",
    "é",
    "🦀",
    "\u{0}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fragment_soup_is_an_error(picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..80)) {
        let soup: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        prop_assert!(!any_decoder_accepts(&soup), "accepted {soup:?}");
    }

    #[test]
    fn arbitrary_characters_are_an_error(codes in prop::collection::vec(any::<u32>(), 0..200)) {
        let soup: String = codes
            .iter()
            .filter_map(|&c| char::from_u32(c % 0x11_0000))
            .collect();
        prop_assert!(!any_decoder_accepts(&soup), "accepted {soup:?}");
    }

    /// A valid document with a stretch overwritten by a fragment: it may
    /// still be valid (a digit for a digit), so only returning matters.
    #[test]
    fn a_damaged_document_never_panics(
        which in 0usize..3,
        at in any::<usize>(),
        len in 0usize..12,
        pick in 0usize..FRAGMENTS.len(),
    ) {
        let doc = &documents()[which];
        let floor = |mut i: usize| {
            while !doc.is_char_boundary(i) {
                i -= 1;
            }
            i
        };
        let from = floor(at % doc.len());
        let to = floor((from + len).min(doc.len()));
        let damaged = [&doc[..from], FRAGMENTS[pick], &doc[to..]].concat();
        any_decoder_accepts(&damaged);
    }
}
