//! Seeded no-panic fuzzing of the RSL front end (the offline stand-in for
//! a fuzzer): 10k inputs of 0–64 characters built from RSL punctuation,
//! digits, letters, quotes, backslashes, whitespace and multi-byte
//! characters. `lex`, `parse` and `job_spec` must return without
//! panicking, and every request that parses must re-parse equal from its
//! `Display`.

use rb_rsl::{job_spec, lex, parse};
use rb_simcore::SimRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

const ATTRS: &[&str] = &[
    "count",
    "adaptive",
    "module",
    "start_script",
    "arch",
    "a.b-c_1",
];
const OPS: &[&str] = &["=", "!=", ">=", "<=", ">", "<"];
/// Integer literals around the edges `job_spec` and the lexer care about.
const INTS: &[&str] = &[
    "0",
    "1",
    "-1",
    "42",
    "4294967294",
    "4294967295",
    "4294967296",
    "-9223372036854775808",
    "99999999999999999999",
];
/// Characters string values and noise are drawn from.
const CHARS: &[char] = &[
    'a', 'Z', '_', '.', '-', '0', '9', ' ', '\t', '\n', '"', '\\', '(', ')', '+', '&', '=', '!',
    '<', '>', '@', 'é', '€', '😀',
];

fn noise(rng: &mut SimRng, max: usize) -> String {
    (0..rng.index(max + 1))
        .map(|_| CHARS[rng.index(CHARS.len())])
        .collect()
}

/// A mostly well-formed `(attr op value)` clause; each part is replaced by
/// noise one time in twenty, so inputs sit near the grammar rather than
/// failing at the first character.
fn clause(rng: &mut SimRng) -> String {
    let value = match rng.index(3) {
        0 => INTS[rng.index(INTS.len())].to_string(),
        1 => format!("\"{}\"", noise(rng, 8)),
        _ => ATTRS[rng.index(ATTRS.len())].to_string(),
    };
    let parts = [
        "(".to_string(),
        ATTRS[rng.index(ATTRS.len())].to_string(),
        OPS[rng.index(OPS.len())].to_string(),
        value,
        ")".to_string(),
    ];
    parts
        .into_iter()
        .map(|p| if rng.chance(0.05) { noise(rng, 3) } else { p })
        .collect()
}

fn input(rng: &mut SimRng) -> String {
    let len = rng.index(65);
    let mut s = match rng.index(4) {
        0 => "+".to_string(),
        1 => "&".to_string(),
        _ => String::new(),
    };
    loop {
        let piece = if rng.chance(0.9) {
            clause(rng)
        } else {
            noise(rng, 3)
        };
        let room = len.saturating_sub(s.chars().count());
        if piece.chars().count() > room {
            // Sometimes end on a cut-off piece, as truncated input would.
            if rng.chance(0.2) {
                s.extend(piece.chars().take(room));
            }
            return s;
        }
        s.push_str(&piece);
    }
}

#[test]
fn front_end_never_panics_and_parsed_requests_round_trip() {
    let mut rng = SimRng::seeded(0x5f22);
    let mut parsed = 0;
    for _ in 0..10_000 {
        let src = input(&mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = lex(&src);
            let Ok(req) = parse(&src) else {
                return false;
            };
            let _ = job_spec(&req);
            let shown = req.to_string();
            assert_eq!(parse(&shown).as_ref(), Ok(&req), "displayed as {shown:?}");
            true
        }));
        match outcome {
            Ok(ok) => parsed += ok as usize,
            Err(_) => panic!("input {src:?} failed (see the panic above)"),
        }
    }
    // The generator must reach the evaluator and the printer, not only
    // the lexer's error paths.
    assert!(parsed > 1_000, "only {parsed} of 10000 inputs parsed");
}
