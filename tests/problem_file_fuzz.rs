//! Fuzzing the problem-file boundary: `ProblemFile::from_json` on mutated
//! problem files must return `Ok` or `Err`, never panic. A file that loads
//! must save and reload to the same problem, and an engine built from it
//! must step without panicking.
//!
//! The mutations start from real files (the paper's base workload and a
//! small lossy one) so that most cases stay close enough to the format to
//! reach validation and the engine: byte flips, truncation, deleted and
//! duplicated tokens, swapped enum tags, deep nesting, and numbers replaced
//! by values at the edges of what JSON and `f64` can say.

use lrgp::{Engine, LrgpConfig, Reliability};
use lrgp_model::io::ProblemFile;
use lrgp_model::workloads::{base_workload, lossy_link_bottleneck_workload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The files every case mutates.
fn seed_files() -> [String; 2] {
    [
        ProblemFile::new("base", base_workload()).to_json().unwrap(),
        ProblemFile::new("lossy", lossy_link_bottleneck_workload(500.0, 0.1)).to_json().unwrap(),
    ]
}

/// Byte ranges of the JSON tokens in `text`: strings, numbers, keywords
/// and single punctuation characters.
fn tokens(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b' ' | b'\n' | b'\r' | b'\t' => {
                i += 1;
                continue;
            }
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(bytes.len());
            }
            b'-' | b'0'..=b'9' => {
                while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = bytes.get(i) {
                    i += 1;
                }
            }
            b'a'..=b'z' => {
                while i < bytes.len() && bytes[i].is_ascii_lowercase() {
                    i += 1;
                }
            }
            _ => i += text[i..].chars().next().map_or(1, char::len_utf8),
        }
        out.push((start, i));
    }
    out
}

const TAGS: [&str; 4] = ["\"Log\"", "\"Power\"", "\"Linear\"", "\"Saturating\""];
const EDGE_NUMBERS: [&str; 4] = ["-0", "1e309", "1e-320", "18446744073709551616"];

/// Applies mutation `kind` to `text`, drawing positions from `rng`.
fn mutate(text: &str, kind: u8, rng: &mut StdRng) -> String {
    let toks = tokens(text);
    if toks.is_empty() {
        return text.to_string();
    }
    let pick = |rng: &mut StdRng, of: &[(usize, usize)]| of[rng.gen_range(0..of.len())];
    let splice = |(start, end): (usize, usize), with: &str| {
        format!("{}{with}{}", &text[..start], &text[end..])
    };
    match kind {
        0 => {
            let mut bytes = text.as_bytes().to_vec();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
            String::from_utf8_lossy(&bytes).into_owned()
        }
        1 => {
            let mut cut = rng.gen_range(0..text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_string()
        }
        2 => splice(pick(rng, &toks), ""),
        3 => {
            let (start, end) = pick(rng, &toks);
            splice((end, end), &text[start..end])
        }
        4 => {
            let tags: Vec<_> = toks
                .iter()
                .copied()
                .filter(|&(s, e)| TAGS.contains(&&text[s..e]))
                .collect();
            if tags.is_empty() {
                return text.to_string();
            }
            splice(pick(rng, &tags), TAGS[rng.gen_range(0..TAGS.len())])
        }
        5 => {
            // Wrap one token in arrays, or add an unknown key holding them.
            let depth = if rng.gen_bool(0.1) { 100_000 } else { rng.gen_range(1..300) };
            let (open, close) = ("[".repeat(depth), "]".repeat(depth));
            if rng.gen_bool(0.5) {
                let (start, end) = pick(rng, &toks);
                splice((start, end), &format!("{open}{}{close}", &text[start..end]))
            } else {
                splice((1, 1), &format!("\"junk\": {open}{close},"))
            }
        }
        _ => {
            let numbers: Vec<_> = toks
                .iter()
                .copied()
                .filter(|&(s, _)| matches!(text.as_bytes()[s], b'-' | b'0'..=b'9'))
                .collect();
            if numbers.is_empty() {
                return text.to_string();
            }
            splice(pick(rng, &numbers), EDGE_NUMBERS[rng.gen_range(0..EDGE_NUMBERS.len())])
        }
    }
}

/// The property every input must meet; returns whether the file loaded.
fn check(text: &str) -> Result<bool, TestCaseError> {
    let Ok(file) = ProblemFile::from_json(text) else { return Ok(false) };
    let saved = file.to_json().map_err(|e| TestCaseError::fail(format!("re-save: {e}")))?;
    let again = ProblemFile::from_json(&saved)
        .map_err(|e| TestCaseError::fail(format!("reload of a saved file: {e}")))?;
    prop_assert_eq!(format!("{again:?}"), format!("{file:?}"));
    let reliability = if file.problem.reliability().is_some() {
        Reliability::Joint
    } else {
        Reliability::Off
    };
    let mut engine = Engine::new(file.problem, LrgpConfig { reliability, ..LrgpConfig::default() });
    for _ in 0..20 {
        engine.step();
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 384, ..ProptestConfig::default() })]

    /// One or two mutations of a seed file: `Ok` or `Err`, never a panic,
    /// and a loaded file saves and reloads to itself.
    #[test]
    fn mutated_problem_files_load_or_fail_cleanly(
        file in 0usize..2,
        kinds in proptest::collection::vec(0u8..7, 1..3),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut text = seed_files()[file].clone();
        for kind in kinds {
            text = mutate(&text, kind, &mut rng);
        }
        check(&text)?;
    }
}

#[test]
fn mutations_reach_both_outcomes() {
    // Guards the fuzzer itself: a mutation that never changes the file, or
    // a corpus that never loads or never fails, would test nothing.
    let base = &seed_files()[0];
    let (mut loaded, mut refused) = (0, 0);
    for kind in 0..7u8 {
        let texts: Vec<String> =
            (0..32).map(|seed| mutate(base, kind, &mut StdRng::seed_from_u64(seed))).collect();
        assert!(texts.iter().any(|t| t != base), "mutation kind {kind} changes nothing");
        for text in &texts {
            match check(text) {
                Ok(true) => loaded += 1,
                Ok(false) => refused += 1,
                Err(e) => panic!("kind {kind}: {e:?}"),
            }
        }
    }
    assert!(loaded >= 16 && refused >= 16, "{loaded} loaded, {refused} refused");
}

/// The edge numbers in a utility weight: `1e309` is refused by the
/// parser, the others load and save back unchanged.
#[test]
fn edge_numbers_in_a_weight_are_refused_or_kept() {
    let base = &seed_files()[0];
    let start = base.find("\"weight\": ").unwrap() + "\"weight\": ".len();
    let end = start + base[start..].find(['\n', ',', '}']).unwrap();
    for (number, loads) in
        [("-0", true), ("1e309", false), ("1e-320", true), ("18446744073709551616", true)]
    {
        let text = format!("{}{number}{}", &base[..start], &base[end..]);
        assert_eq!(check(&text).unwrap(), loads, "weight {number}");
    }
}
