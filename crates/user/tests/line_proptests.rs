//! Totality and round trips of the shared line codec (`hinn_user::line`).
//!
//! The session snapshot, the response recording and the wire protocol all
//! parse through this module, so these properties are the ones every
//! format inherits:
//!
//! - any text — arbitrary bytes, or a real document truncated or with a
//!   flipped bit — reads to a typed [`line::Error`] or a value, never a
//!   panic;
//! - every rendered list and scalar parses back bit for bit.

use hinn_user::line::{self, Float, Hex128, Hex64, Lines, COMMAS, SPACED};
use hinn_user::session_from_string;
use proptest::prelude::*;

/// A document touching every construct: extension lines before and after
/// the header, indented and keyed lines, fields, lists, groups, hex.
const DOCUMENT: &str = "x-pre 1\n\
    hinn-session v1\n\
    open tenant=alice query=1.5,-2.0,1e-300\n  \
    x-mid note\n\
    x-pin 7 00abcdef0123456789abcdef01234567\n\
    neighbors 3,5,9\n\
    \x20 probabilities 0.5,0.25,0.125\n\
    picks 1,3ff0000000000000;2,4000000000000000\n\
    cursor 1 2 3\n\
    values 3ff0000000000000 - 0000000000000000\n\
    \x20 free text kept as written\n\
    threshold 0.25 note=weak\n";

/// Drive every reader of the codec over `text`, discarding the results:
/// the assertion is that none of them panics.
fn exercise(text: &str) {
    let mut lines = Lines::new(text).watch("x-pin");
    let _ = lines.peek();
    let _ = lines.clone().header("hinn-session v1");
    let _ = lines.clone().expect("open");
    let _ = lines
        .clone()
        .value("cursor", |s| line::tuple::<usize, 3>(s, line::num));
    let mut turn = 0usize;
    loop {
        turn += 1;
        let next = if turn.is_multiple_of(3) {
            lines.next_text()
        } else {
            lines.next()
        };
        let Some(l) = next else { break };
        let text = l.text();
        let _ = Lines::new(text).header("hinn-session v1");
        let _ = l.fields(1).map(|f| {
            let _ = f.require("session", line::num::<u64>);
            let _ = f.get("query", |v| COMMAS.parse(v, line::num::<f64>));
            let _ = f.get("tenant", Ok);
        });
        let _ = l.fields(2);
        let (key, rest) = text.split_once(' ').unwrap_or((text, ""));
        let _ = l.keyed(key);
        let payload = line::payload(rest);
        let _: Vec<_> = line::groups::<2>(payload).collect();
        let _: Vec<_> = line::groups::<3>(payload).collect();
        let _ = line::tuple::<u64, 3>(rest, line::num);
        let _ = SPACED.parse(rest, line::hex64);
        let _ = SPACED.parse(rest, line::num::<usize>);
        let _ = COMMAS.parse(rest, line::num::<f64>);
        let _ = COMMAS.parse(rest, line::num::<usize>);
        for tok in rest.split_whitespace() {
            let _ = line::hex128(tok);
            let _ = line::num::<u8>(tok);
        }
    }
    let _ = lines.end();
    if let Some(pin) = lines.watched() {
        assert!(pin.keyed("x-pin").is_some_and(|rest| !rest.is_empty()));
    }
    let _ = session_from_string(text);
}

/// Read [`DOCUMENT`]'s structure strictly; a damaged copy must give a
/// typed error or values of the right shape.
fn read_document(text: &str) -> Result<(Vec<f64>, Vec<usize>), line::Error> {
    let mut lines = Lines::new(text).watch("x-pin");
    lines.header("hinn-session v1")?;
    let open = lines.next().ok_or(line::Error {
        line: 0,
        kind: line::ErrorKind::Empty,
    })?;
    let fields = open.fields(1)?;
    let query = fields.require("query", |v| COMMAS.parse(v, line::num::<f64>))?;
    let neighbors = lines.value("neighbors", |v| COMMAS.parse(v, line::num::<usize>))?;
    let _ = lines.value("probabilities", |v| COMMAS.parse(v, line::num::<f64>))?;
    let _ = lines.value("picks", |v| {
        line::groups::<2>(v)
            .map(|g| g.and_then(|[n, w]| Ok((line::num::<usize>(n)?, line::hex64(w)?))))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let _: [usize; 3] = lines.value("cursor", |s| line::tuple(s, line::num))?;
    let _ = lines.value("values", |v| SPACED.parse(v, line::hex64));
    Ok((query, neighbors))
}

fn bits() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(f64::from_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(raw in proptest::collection::vec(0u32..256, 0..300)) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        exercise(&String::from_utf8_lossy(&bytes));
    }

    /// Arbitrary text over the codec's own alphabet reaches deeper than
    /// random bytes do.
    #[test]
    fn arbitrary_codec_text_never_panics(raw in proptest::collection::vec(0usize..16, 0..200)) {
        const ALPHABET: [&str; 16] = [
            "\n", " ", "\t", "x-", "=", ",", ";", "-", "0", "9", "f", "e",
            "hinn-session v1", "row", "x-pin 7 ", "\u{e9}",
        ];
        let text: String = raw.into_iter().map(|i| ALPHABET[i]).collect();
        exercise(&text);
    }

    /// Response lines over awkward number tokens: a typed refusal or a
    /// response, never a panic.
    #[test]
    fn awkward_response_numbers_never_panic(
        picks in proptest::collection::vec(0usize..8, 3..10),
        polygon in 0usize..2,
    ) {
        const NUMBERS: [&str; 8] = ["NaN", "inf", "-inf", "0", "-0", "1e-300", "1", "x"];
        let nums: Vec<&str> = picks.iter().map(|&i| NUMBERS[i]).collect();
        let line = if polygon == 1 {
            let groups: Vec<String> = nums.chunks(3).map(|g| g.join(",")).collect();
            format!("polygon {}", groups.join(";"))
        } else {
            format!("threshold {}", nums[0])
        };
        let _ = hinn_user::response_from_line(&line);
    }

    #[test]
    fn truncations_never_panic(frac in 0.0..1.0f64) {
        let mut cut = (DOCUMENT.len() as f64 * frac) as usize;
        while !DOCUMENT.is_char_boundary(cut) {
            cut -= 1;
        }
        let text = &DOCUMENT[..cut];
        exercise(text);
        let _ = read_document(text);
    }

    #[test]
    fn byte_flips_never_panic(pos_frac in 0.0..1.0f64, bit in 0usize..8) {
        let mut bytes = DOCUMENT.as_bytes().to_vec();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        let text = String::from_utf8_lossy(&bytes);
        exercise(&text);
        if let Ok((query, neighbors)) = read_document(&text) {
            prop_assert!(!query.is_empty() && !neighbors.is_empty());
        }
    }

    #[test]
    fn hex_lists_round_trip_bit_exactly(xs in proptest::collection::vec(bits(), 0..24)) {
        let text = SPACED.join(&xs, |x| Hex64(*x));
        let back = SPACED.parse(&text, line::hex64).unwrap();
        prop_assert_eq!(
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// Shortest round-trip decimal floats, NaN aside (it has no single
    /// bit pattern to come back to).
    #[test]
    fn float_lists_round_trip_bit_exactly(xs in proptest::collection::vec(bits(), 0..24)) {
        let xs: Vec<f64> = xs.into_iter().filter(|x| !x.is_nan()).collect();
        let text = COMMAS.join(&xs, |x| Float(*x));
        let back = COMMAS.parse(&text, line::num::<f64>).unwrap();
        prop_assert_eq!(
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn integer_lists_and_fingerprints_round_trip(
        ids in proptest::collection::vec(0usize..=usize::MAX, 0..24),
        hi in 0u64..=u64::MAX,
        lo in 0u64..=u64::MAX,
    ) {
        for format in [SPACED, COMMAS] {
            let text = format.join(&ids, usize::clone);
            prop_assert_eq!(format.parse(&text, line::num::<usize>).unwrap(), ids.clone());
        }
        let fp = (u128::from(hi) << 64) | u128::from(lo);
        let text = Hex128(fp).to_string();
        prop_assert_eq!(text.len(), 32);
        prop_assert_eq!(line::hex128(&text).unwrap(), fp);
    }

    #[test]
    fn groups_round_trip(pairs in proptest::collection::vec((0usize..1_000_000, bits()), 1..12)) {
        let text = pairs
            .iter()
            .map(|(n, w)| format!("{n},{}", Hex64(*w)))
            .collect::<Vec<_>>()
            .join(";");
        let back: Vec<(usize, u64)> = line::groups::<2>(&text)
            .map(|g| {
                let [n, w] = g.unwrap();
                (line::num(n).unwrap(), line::hex64(w).unwrap().to_bits())
            })
            .collect();
        prop_assert_eq!(
            back,
            pairs.iter().map(|(n, w)| (*n, w.to_bits())).collect::<Vec<_>>()
        );
    }
}
