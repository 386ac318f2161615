//! The line codec of every session text format: the response recording
//! and the wire protocol (`hinn-session v1`), and the session snapshot
//! (`hinn-session-state v1`). The envelope rule, for all three:
//!
//! - Lines are `trim_end`ed. Blank lines and extension lines (text
//!   starting with `x-`) are skipped anywhere, before the header too: a
//!   newer writer may annotate, an older reader skips. A reader may
//!   [`Lines::watch`] one named extension line to read it in the pass.
//! - Headers (`<family> v<major>`), verbs and keyed lines (`key rest`)
//!   ignore leading whitespace. Free text ([`Lines::next_text`]) is kept
//!   as written, so there only an `x-` in the first column marks an
//!   extension line.
//! - `key=value` fields ([`Fields`]) refuse a duplicate of any key.
//! - Lists take their separator and empty marker as data ([`SPACED`],
//!   [`COMMAS`]); scalars render as [`Float`] (`{:?}`), [`Hex64`] and
//!   [`Hex128`], and parse back bit for bit.
//!
//! Parsing is total: malformed text is an [`Error`], never a panic.

use std::fmt;

/// A malformed text: what went wrong, on which (1-based) line.
#[derive(Clone, Debug, PartialEq)]
pub struct Error {
    /// The line number.
    pub line: usize,
    /// What went wrong.
    pub kind: ErrorKind,
}

/// What can be wrong with a text; each codec maps these to its own error.
#[derive(Clone, Debug, PartialEq)]
pub enum ErrorKind {
    /// No content line at all.
    Empty,
    /// The first content line is not a header of the family.
    BadHeader(String),
    /// The header names another version.
    UnsupportedVersion(String),
    /// The text ended where the keyed line `key` was expected.
    MissingLine(String),
    /// `(key, line)`: a line with another key than the one expected.
    UnexpectedLine(String, String),
    /// A content line after the end.
    TrailingContent(String),
    /// The same key twice on one line.
    DuplicateKey(String),
    /// `(owner, key)`: a required field is absent.
    MissingField(String, String),
    /// `(key, detail)`: a value or token that does not parse.
    BadValue(String, String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ErrorKind::Empty => write!(f, "empty text"),
            ErrorKind::BadHeader(l) => write!(f, "bad header {l:?}"),
            ErrorKind::UnsupportedVersion(l) => write!(f, "unsupported version {l:?}"),
            ErrorKind::MissingLine(key) => write!(f, "missing {key:?} line"),
            ErrorKind::UnexpectedLine(key, l) => write!(f, "expected {key:?}, found {l:?}"),
            ErrorKind::TrailingContent(l) => write!(f, "trailing content {l:?}"),
            ErrorKind::DuplicateKey(key) => write!(f, "duplicated key {key:?}"),
            ErrorKind::MissingField(owner, key) => write!(f, "{owner:?} is missing {key}="),
            ErrorKind::BadValue(key, detail) => write!(f, "bad {key}: {detail}"),
        }
    }
}

impl std::error::Error for Error {}

impl ErrorKind {
    /// This error, on line `line`.
    pub fn at(self, line: usize) -> Error {
        Error { line, kind: self }
    }
}

/// Parses a token or a line's rest; the error is a detail for [`ErrorKind::BadValue`].
pub type Parse<'a, T> = fn(&'a str) -> Result<T, String>;

/// Does `text` start as an extension line does?
pub fn is_extension(text: &str) -> bool {
    text.starts_with("x-")
}

/// A content line: its number and its `trim_end`ed text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Line<'a> {
    /// The line number.
    pub no: usize,
    /// The text as written, without trailing whitespace.
    pub raw: &'a str,
}

impl<'a> Line<'a> {
    /// The text without leading whitespace.
    pub fn text(&self) -> &'a str {
        self.raw.trim_start()
    }

    /// The trimmed rest of the keyed line `key rest` (or just `key`).
    pub fn keyed(&self, key: &str) -> Option<&'a str> {
        match self.text().strip_prefix(key)? {
            "" => Some(""),
            rest => rest.strip_prefix(' ').map(str::trim),
        }
    }

    /// [`Line::keyed`], where another key is an error.
    pub fn rest(&self, key: &str) -> Result<&'a str, Error> {
        let found = || ErrorKind::UnexpectedLine(key.into(), self.text().into()).at(self.no);
        self.keyed(key).ok_or_else(found)
    }

    /// The `key=value` fields after the first `skip` tokens, the last of
    /// which owns them.
    pub fn fields(&self, skip: usize) -> Result<Fields<'a>, Error> {
        let mut tokens = self.text().split_whitespace();
        let owner = tokens.by_ref().take(skip).last().unwrap_or("");
        Fields::parse(self.no, owner, tokens)
    }

    /// A bad `key` value on this line.
    pub fn bad(&self, key: &str, detail: impl fmt::Display) -> Error {
        ErrorKind::BadValue(key.into(), detail.to_string()).at(self.no)
    }
}

/// The content lines of a text.
#[derive(Clone, Debug)]
pub struct Lines<'a> {
    iter: std::str::Lines<'a>,
    no: usize,
    watch: Option<(&'static str, Option<Line<'a>>)>,
}

impl<'a> Lines<'a> {
    /// The content lines of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            iter: text.lines(),
            no: 0,
            watch: None,
        }
    }

    /// Keep the first skipped extension line `name rest` with a rest.
    pub fn watch(self, name: &'static str) -> Self {
        let watch = Some((name, None));
        Self { watch, ..self }
    }

    /// The watched line, if it has been skipped so far.
    pub fn watched(&self) -> Option<Line<'a>> {
        self.watch.and_then(|(_, found)| found)
    }

    /// The next non-blank line that `skip` passes on.
    fn advance(&mut self, skip: impl Fn(&'a str) -> bool) -> Option<Line<'a>> {
        loop {
            self.no += 1;
            let line = Line {
                no: self.no,
                raw: self.iter.next()?.trim_end(),
            };
            if !line.raw.is_empty() && !skip(line.raw) {
                return Some(line);
            }
            if let Some((name, found @ None)) = &mut self.watch {
                if line.keyed(name).is_some_and(|rest| !rest.is_empty()) {
                    *found = Some(line);
                }
            }
        }
    }

    /// The next content line, not consumed.
    pub fn peek(&self) -> Option<Line<'a>> {
        self.clone().next()
    }

    /// The next line read as free text.
    pub fn next_text(&mut self) -> Option<Line<'a>> {
        self.advance(is_extension)
    }

    /// Consume the header line `<family> v<major>`, given as `expected`;
    /// its family with another version is [`ErrorKind::UnsupportedVersion`].
    pub fn header(&mut self, expected: &str) -> Result<(), Error> {
        let line = self.next().ok_or_else(|| ErrorKind::Empty.at(self.no))?;
        let (family, version) = expected.rsplit_once(' ').unwrap_or((expected, ""));
        match line.keyed(family) {
            Some(v) if v == version => Ok(()),
            Some(v) if !v.is_empty() => {
                Err(ErrorKind::UnsupportedVersion(line.raw.into()).at(line.no))
            }
            _ => Err(ErrorKind::BadHeader(line.raw.into()).at(line.no)),
        }
    }

    /// Consume the keyed line `key rest` and return its rest.
    pub fn expect(&mut self, key: &str) -> Result<&'a str, Error> {
        self.value(key, Ok)
    }

    /// Consume the keyed line `key rest` and parse its rest.
    pub fn value<T>(&mut self, key: &str, parse: Parse<'a, T>) -> Result<T, Error> {
        let Some(line) = self.next() else {
            return Err(ErrorKind::MissingLine(key.into()).at(self.no));
        };
        parse(line.rest(key)?).map_err(|e| line.bad(key, e))
    }

    /// Require the end of the text.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.next() {
            None => Ok(()),
            Some(line) => Err(ErrorKind::TrailingContent(line.raw.into()).at(line.no)),
        }
    }
}

impl<'a> Iterator for Lines<'a> {
    type Item = Line<'a>;

    fn next(&mut self) -> Option<Line<'a>> {
        self.advance(|raw| is_extension(raw.trim_start()))
    }
}

/// The `key=value` fields of a line. Unknown keys are kept for readers
/// to ignore; a duplicate of any key is refused.
#[derive(Clone, Debug)]
pub struct Fields<'a> {
    no: usize,
    owner: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// Parse `tokens` of line `no`; a token without `=` is refused.
    pub fn parse(
        no: usize,
        owner: &'a str,
        tokens: impl Iterator<Item = &'a str>,
    ) -> Result<Self, Error> {
        let mut pairs: Vec<(&'a str, &'a str)> = Vec::new();
        for tok in tokens {
            let not_kv = || ErrorKind::BadValue(tok.into(), "expected key=value".into()).at(no);
            let (key, value) = tok.split_once('=').ok_or_else(not_kv)?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(ErrorKind::DuplicateKey(key.into()).at(no));
            }
            pairs.push((key, value));
        }
        Ok(Self { no, owner, pairs })
    }

    /// The field `key`, parsed, if present.
    pub fn get<T>(&self, key: &str, parse: Parse<'a, T>) -> Result<Option<T>, Error> {
        let bad = |e| ErrorKind::BadValue(key.into(), e).at(self.no);
        let value = self.pairs.iter().find(|(k, _)| *k == key);
        value.map(|(_, v)| parse(v).map_err(bad)).transpose()
    }

    /// The field `key`, parsed; it must be present.
    pub fn require<T>(&self, key: &str, parse: Parse<'a, T>) -> Result<T, Error> {
        let missing = || ErrorKind::MissingField(self.owner.into(), key.into()).at(self.no);
        self.get(key, parse)?.ok_or_else(missing)
    }
}

/// A decimal number: an integer, or a float as [`Float`] renders it.
pub fn num<T: std::str::FromStr<Err: fmt::Display>>(s: &str) -> Result<T, String> {
    s.parse().map_err(|e| format!("{e} ({s:?})"))
}

/// An `f64` from its bit pattern in hex, as [`Hex64`] renders it.
pub fn hex64(s: &str) -> Result<f64, String> {
    let bits = u64::from_str_radix(s, 16).map_err(|e| format!("bad f64 hex {s:?}: {e}"))?;
    Ok(f64::from_bits(bits))
}

/// A `u128` fingerprint in hex, as [`Hex128`] renders it.
pub fn hex128(s: &str) -> Result<u128, String> {
    u128::from_str_radix(s, 16).map_err(|e| format!("bad fingerprint {s:?}: {e}"))
}

macro_rules! renderer {
    ($($(#[$doc:meta])* $name:ident($t:ty) => $fmt:literal $(, $conv:ident)?;)*) => {$(
        $(#[$doc])*
        #[derive(Clone, Copy, Debug)]
        pub struct $name(pub $t);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, $fmt, self.0 $(.$conv())?)
            }
        }
    )*};
}

renderer! {
    /// Renders an `f64` in its shortest round-trip form (`{:?}`).
    Float(f64) => "{:?}";
    /// Renders an `f64` as its 16-hex-digit bit pattern.
    Hex64(f64) => "{:016x}", to_bits;
    /// Renders a `u128` fingerprint as 32 hex digits.
    Hex128(u128) => "{:032x}";
}

/// How a format writes a list: the item separator (a space reads any
/// run of whitespace) and the whole list when it is empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ListFormat(pub char, pub &'static str);

/// Space-separated, `-` when empty (the snapshot's lists).
pub const SPACED: ListFormat = ListFormat(' ', "-");

/// Comma-separated, nothing when empty (the wire's lists).
pub const COMMAS: ListFormat = ListFormat(',', "");

impl ListFormat {
    /// `items`, each rendered by `item`.
    pub fn join<T, D: fmt::Display>(self, items: &[T], item: impl Fn(&T) -> D) -> String {
        use fmt::Write as _;
        let mut out = String::from(if items.is_empty() { self.1 } else { "" });
        for (i, x) in items.iter().enumerate() {
            if i > 0 {
                out.push(self.0);
            }
            let _ = write!(out, "{}", item(x));
        }
        out
    }

    /// Parse a list [`ListFormat::join`] rendered.
    pub fn parse<'s, T>(self, s: &'s str, item: Parse<'s, T>) -> Result<Vec<T>, String> {
        match (s == self.1, self.0) {
            (true, _) => Ok(Vec::new()),
            (false, ' ') => s.split_whitespace().map(item).collect(),
            (false, sep) => s.split(sep).map(item).collect(),
        }
    }
}

/// Groups of `N` items, `a,b,c;a,b,c;…`; whitespace around items is
/// ignored.
pub fn groups<const N: usize>(s: &str) -> impl Iterator<Item = Result<[&str; N], String>> {
    s.split(';').map(|group| {
        let items: Vec<&str> = group.split(',').map(str::trim).collect();
        items
            .try_into()
            .map_err(|_| format!("expected {N} items in {group:?}"))
    })
}

/// The first `N` whitespace-separated tokens, parsed; a missing token
/// parses as the empty string, and later tokens are ignored.
pub fn tuple<'s, T, const N: usize>(s: &'s str, item: Parse<'s, T>) -> Result<[T; N], String> {
    let tokens = s.split_whitespace().chain(std::iter::repeat(""));
    let parsed = tokens.take(N).map(item).collect::<Result<Vec<T>, _>>()?;
    parsed
        .try_into()
        .map_err(|_| format!("expected {N} tokens"))
}

/// A line's rest up to its first `key=value` token, trimmed: the payload
/// without the extension fields a newer writer may append.
pub fn payload(rest: &str) -> &str {
    // A token with `=` cannot occur inside an earlier token without one.
    let fields = rest.split_whitespace().find(|tok| tok.contains('='));
    let end = fields.and_then(|tok| rest.find(tok)).unwrap_or(rest.len());
    rest[..end].trim()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_lines_skip_blanks_and_extensions_everywhere() {
        let text = "\n  x-pre 1\nhinn-session v1\n\n x-mid\n  open a=1  \nx-post";
        let mut lines = Lines::new(text);
        lines.header("hinn-session v1").unwrap();
        let verb = lines.next().unwrap();
        assert_eq!(
            (verb.no, verb.raw, verb.text()),
            (6, "  open a=1", "open a=1")
        );
        assert_eq!(lines.end(), Ok(()));
    }

    #[test]
    fn free_text_keeps_leading_whitespace() {
        let mut lines = Lines::new("  x-not-an-extension  \nx-extension\n");
        let text = lines.next_text().unwrap();
        assert_eq!(text.raw, "  x-not-an-extension");
        assert_eq!(lines.next_text(), None);
    }

    #[test]
    fn headers_classify() {
        let h = |t| Lines::new(t).header("fam v1").map_err(|e| e.kind);
        assert_eq!(h("fam v1"), Ok(()));
        assert_eq!(h("  fam  v1  "), Ok(()));
        for t in ["fam v2", "fam v1.1", "fam v+1", "fam v01"] {
            assert_eq!(h(t), Err(ErrorKind::UnsupportedVersion(t.into())));
        }
        for t in ["fam", "family v1", "fam-state v1", "fam\tv1"] {
            assert_eq!(h(t), Err(ErrorKind::BadHeader(t.into())));
        }
        assert_eq!(h(" \n"), Err(ErrorKind::Empty));
    }

    #[test]
    fn keyed_lines_and_watched_extensions() {
        let mut lines = Lines::new("n 5\nx-pin 7 ab\nx-pin 8 cd\nq\nr\t1\n").watch("x-pin");
        assert_eq!(lines.value("n", num::<usize>), Ok(5));
        assert_eq!(lines.expect("q"), Ok(""));
        let err = lines.expect("r").unwrap_err();
        assert_eq!(err.line, 5);
        assert!(matches!(err.kind, ErrorKind::UnexpectedLine(..)));
        assert_eq!(lines.watched().and_then(|l| l.keyed("x-pin")), Some("7 ab"));
        let missing = lines.expect("s").unwrap_err();
        assert_eq!(missing.kind, ErrorKind::MissingLine("s".into()));
    }

    #[test]
    fn fields_refuse_duplicates_and_bare_tokens() {
        let fields = |raw| Line { no: 2, raw }.fields(1).map_err(|e| e.kind);
        let view = fields("view session=1 zzz=a").unwrap();
        assert_eq!(view.require("session", num::<u64>), Ok(1));
        assert_eq!(view.get("epoch", num::<u64>), Ok(None));
        let missing = view.require("major", num::<u64>).unwrap_err().kind;
        assert_eq!(
            missing,
            ErrorKind::MissingField("view".into(), "major".into())
        );
        let dup = fields("v a=1 b=2 a=3").unwrap_err();
        assert_eq!(dup, ErrorKind::DuplicateKey("a".into()));
        let bare = fields("v a=1 junk").unwrap_err();
        assert_eq!(
            bare,
            ErrorKind::BadValue("junk".into(), "expected key=value".into())
        );
    }

    #[test]
    fn payload_stops_at_the_first_field() {
        assert_eq!(payload("0.25 note=weak junk"), "0.25");
        assert_eq!(payload("1,2,3;  4,5,6  a=b"), "1,2,3;  4,5,6");
        assert_eq!(payload("k=v"), "");
        assert_eq!(payload(""), "");
    }

    #[test]
    fn lists_and_groups() {
        let xs = [1.5, -0.0, 0.1 + 0.2];
        let spaced = SPACED.join(&xs, |x| Hex64(*x));
        assert_eq!(SPACED.parse(&spaced, hex64).unwrap(), xs.to_vec());
        assert_eq!(SPACED.join::<f64, _>(&[], |x| Hex64(*x)), "-");
        assert_eq!(SPACED.parse("-", hex64), Ok(vec![]));
        assert_eq!(
            COMMAS.join(&xs, |x| Float(*x)),
            "1.5,-0.0,0.30000000000000004"
        );
        assert_eq!(COMMAS.parse("", num::<f64>), Ok(vec![]));
        assert!(COMMAS.parse("1,,2", num::<f64>).is_err());
        let g: Vec<_> = groups::<2>("1, a;2,b").collect();
        assert_eq!(g, vec![Ok(["1", "a"]), Ok(["2", "b"])]);
        assert!(groups::<3>("1,2").next().unwrap().is_err());
        assert!(groups::<3>("1,2,3,4").next().unwrap().is_err());
        assert_eq!(tuple::<usize, 2>("4 5 6", num), Ok([4, 5]));
        assert!(tuple::<usize, 2>("4", num).is_err());
    }
}
