//! The JSON codec of the registry manifest ([`Registry::metadata_json`] /
//! [`Registry::parse_manifest`]).
//!
//! The document is one object, `{"models": [...], "datasets": [...]}`,
//! whose members are the five metadata structs of [`crate::registry`] with
//! field names as keys (`json_struct!` lists them once for both
//! directions). The writer emits them two-space indented; the reader is a
//! recursive descent over exactly that grammar and takes outside input, so
//! every malformed document is a typed [`CoreError::Metadata`]: keys it does
//! not know are skipped (to a fixed nesting depth), a key given twice or not
//! at all is an error, and numbers must be finite `f64`s (`u64` for
//! `weight`).
//!
//! [`Registry::metadata_json`]: crate::registry::Registry::metadata_json
//! [`Registry::parse_manifest`]: crate::registry::Registry::parse_manifest

use crate::registry::{DatasetMetadata, ModelMetadata, ParamSpec, PerfStats, PortSpec};
use crate::CoreError;
use mde_numeric::obs::json_escape;

/// How deep a skipped (unknown-key) value may nest. The known grammar is
/// six levels deep and descends through fixed functions; only the skipper
/// recurses on input, and this bounds its stack.
const MAX_SKIP_DEPTH: usize = 16;

fn bad(what: impl std::fmt::Display) -> CoreError {
    CoreError::Metadata(format!("manifest: {what}"))
}

/// A type with a JSON form in the manifest.
trait Json: Sized {
    /// Write the value of the member `field` (named in errors).
    fn write(&self, w: &mut Writer, field: &str) -> crate::Result<()>;
    /// Read a value the reader is positioned at.
    fn read(r: &mut Reader) -> crate::Result<Self>;
}

impl Json for String {
    fn write(&self, w: &mut Writer, _: &str) -> crate::Result<()> {
        w.out.push('"');
        json_escape(self, &mut w.out);
        w.out.push('"');
        Ok(())
    }

    fn read(r: &mut Reader) -> crate::Result<String> {
        r.string()
    }
}

impl Json for f64 {
    /// A non-finite number is refused rather than emitted as invalid JSON.
    fn write(&self, w: &mut Writer, field: &str) -> crate::Result<()> {
        if !self.is_finite() {
            return Err(bad(format!("`{field}` is not finite ({self})")));
        }
        // `{:?}` is the shortest text that parses back to the same bits.
        w.out.push_str(&format!("{self:?}"));
        Ok(())
    }

    fn read(r: &mut Reader) -> crate::Result<f64> {
        let (text, _) = r.number()?;
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            _ => r.err("number is not a finite f64"),
        }
    }
}

impl Json for u64 {
    fn write(&self, w: &mut Writer, _: &str) -> crate::Result<()> {
        w.out.push_str(&self.to_string());
        Ok(())
    }

    fn read(r: &mut Reader) -> crate::Result<u64> {
        let (text, integer) = r.number()?;
        match text.parse::<u64>() {
            Ok(n) if integer => Ok(n),
            _ => r.err("number is not a u64"),
        }
    }
}

impl<T: Json> Json for Vec<T> {
    fn write(&self, w: &mut Writer, field: &str) -> crate::Result<()> {
        w.array(self, field)
    }

    fn read(r: &mut Reader) -> crate::Result<Vec<T>> {
        r.array(T::read)
    }
}

/// A struct as a JSON object keyed by its field names, both directions from
/// the one field list. The struct literal makes a forgotten field a compile
/// error.
macro_rules! json_struct {
    ($ty:ident: $($field:ident),+) => {
        impl Json for $ty {
            fn write(&self, w: &mut Writer, _: &str) -> crate::Result<()> {
                w.open('{');
                $(
                    w.key(stringify!($field));
                    self.$field.write(w, stringify!($field))?;
                )+
                w.close('}');
                Ok(())
            }

            fn read(r: &mut Reader) -> crate::Result<$ty> {
                $(let mut $field = None;)+
                r.object(|r, key| match key {
                    $(stringify!($field) => set(&mut $field, key, Json::read(r)?),)+
                    _ => r.skip_value(0),
                })?;
                Ok($ty {
                    $($field: need($field, stringify!($field))?),+
                })
            }
        }
    };
}

json_struct!(PortSpec: name, channels, tick);
json_struct!(ParamSpec: name, default, lo, hi);
json_struct!(PerfStats: cost, output_variance, weight);
json_struct!(ModelMetadata: name, description, inputs, output, params, perf);
json_struct!(DatasetMetadata: name, description, port, provenance);

// ---------------------------------------------------------------- writer

/// An indenting JSON writer. `element` / `key` start an array element or an
/// object member on its own line; the value is written right after.
struct Writer {
    out: String,
    indent: usize,
    /// Whether the open container is still empty (no comma before the next
    /// element, and it closes on its opening line: `[]`).
    empty: bool,
}

impl Writer {
    fn newline(&mut self) {
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(self.indent));
    }

    fn element(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    fn key(&mut self, key: &str) {
        self.element();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\": ");
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.indent += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.indent -= 1;
        if !self.empty {
            self.newline();
        }
        self.out.push(bracket);
        self.empty = false;
    }

    fn array<'a, T: Json + 'a>(
        &mut self,
        items: impl IntoIterator<Item = &'a T>,
        field: &str,
    ) -> crate::Result<()> {
        self.open('[');
        for item in items {
            self.element();
            item.write(self, field)?;
        }
        self.close(']');
        Ok(())
    }
}

/// Write the manifest.
pub(crate) fn write<'a>(
    models: impl IntoIterator<Item = &'a ModelMetadata>,
    datasets: impl IntoIterator<Item = &'a DatasetMetadata>,
) -> crate::Result<String> {
    let mut w = Writer {
        out: String::new(),
        indent: 0,
        empty: true,
    };
    w.open('{');
    w.key("models");
    w.array(models, "models")?;
    w.key("datasets");
    w.array(datasets, "datasets")?;
    w.close('}');
    Ok(w.out)
}

// ---------------------------------------------------------------- reader

struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

/// Store a member's value, refusing a second one.
fn set<T>(slot: &mut Option<T>, key: &str, value: T) -> crate::Result<()> {
    if slot.replace(value).is_some() {
        return Err(bad(format!("duplicate key `{key}`")));
    }
    Ok(())
}

fn need<T>(slot: Option<T>, key: &str) -> crate::Result<T> {
    slot.ok_or_else(|| bad(format!("missing key `{key}`")))
}

impl<'a> Reader<'a> {
    fn err<T>(&self, what: &str) -> crate::Result<T> {
        Err(bad(format!("{what} at byte {}", self.pos)))
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, then consume `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        self.ws();
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect(&mut self, byte: u8) -> crate::Result<()> {
        if self.eat(byte) {
            Ok(())
        } else {
            self.err(&format!("expected `{}`", byte as char))
        }
    }

    /// `{ "key": value, … }`, calling `member` positioned at each value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> crate::Result<()>,
    ) -> crate::Result<()> {
        self.expect(b'{')?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            member(self, &key)?;
            if self.eat(b'}') {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    /// `[ item, … ]`.
    fn array<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> crate::Result<T>,
    ) -> crate::Result<Vec<T>> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.eat(b']') {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if self.eat(b']') {
                return Ok(out);
            }
            self.expect(b',')?;
        }
    }

    fn string(&mut self) -> crate::Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.src[self.pos..];
            let Some(c) = rest.chars().next() else {
                return self.err("unterminated string");
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => out.push(self.escape()?),
                c if (c as u32) < 0x20 => return self.err("raw control character in string"),
                c => out.push(c),
            }
        }
    }

    /// The character named by the escape whose backslash was just read.
    fn escape(&mut self) -> crate::Result<char> {
        let Some(b) = self.peek() else {
            return self.err("unterminated escape");
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = match hi {
                    0xD800..=0xDBFF => {
                        if !self.src[self.pos..].starts_with("\\u") {
                            return self.err("lone surrogate in \\u escape");
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&lo) {
                            return self.err("lone surrogate in \\u escape");
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    }
                    _ => hi,
                };
                match char::from_u32(code) {
                    Some(c) => c,
                    // Only a low surrogate without its high half gets here.
                    None => return self.err("lone surrogate in \\u escape"),
                }
            }
            _ => return self.err("unknown escape"),
        })
    }

    fn hex4(&mut self) -> crate::Result<u32> {
        // `from_str_radix` alone would take a sign.
        let value = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok());
        match value {
            Some(v) => {
                self.pos += 4;
                Ok(v)
            }
            None => self.err("bad \\u escape"),
        }
    }

    /// A JSON number token: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    /// Returns its text and whether it is a plain non-negative integer.
    fn number(&mut self) -> crate::Result<(&'a str, bool)> {
        self.ws();
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return self.err("expected a number"),
        }
        let mut integer = !negative;
        if self.peek() == Some(b'.') {
            integer = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.err("expected a digit after `.`");
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integer = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.err("expected a digit in the exponent");
            }
            self.digits();
        }
        Ok((&self.src[start..self.pos], integer))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// Skip one value of any shape (the value of a key this reader does not
    /// know), checking its syntax.
    fn skip_value(&mut self, depth: usize) -> crate::Result<()> {
        if depth > MAX_SKIP_DEPTH {
            return self.err("value nested too deeply");
        }
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip_value(depth + 1)),
            Some(b'[') => self.array(|r| r.skip_value(depth + 1)).map(drop),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => {
                for word in ["true", "false", "null"] {
                    if self.src[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(());
                    }
                }
                self.err("expected a value")
            }
        }
    }
}

/// Parse a manifest document.
pub(crate) fn parse(json: &str) -> crate::Result<(Vec<ModelMetadata>, Vec<DatasetMetadata>)> {
    let mut r = Reader { src: json, pos: 0 };
    let (mut models, mut datasets) = (None, None);
    r.object(|r, key| match key {
        "models" => set(&mut models, key, Json::read(r)?),
        "datasets" => set(&mut datasets, key, Json::read(r)?),
        _ => r.skip_value(0),
    })?;
    r.ws();
    if r.pos != json.len() {
        return r.err("trailing characters");
    }
    Ok((need(models, "models")?, need(datasets, "datasets")?))
}

#[cfg(test)]
mod tests {
    //! Hostile manifests: the reader takes outside input, so every way of
    //! damaging a valid document must come back as `CoreError::Metadata`.

    use super::*;
    use crate::registry::testutil::{demand_model, revenue_model};

    /// A valid two-model manifest.
    fn valid() -> String {
        let (a, b) = (demand_model(), revenue_model());
        write([a.metadata(), b.metadata()], []).unwrap()
    }

    /// `json` is refused, with the typed error.
    fn refused(json: &str) -> String {
        match parse(json) {
            Err(CoreError::Metadata(m)) => m,
            other => panic!("expected a metadata error for {json:?}, got {other:?}"),
        }
    }

    /// The valid manifest with `from` (which must occur) replaced by `to`.
    fn edited(from: &str, to: &str) -> String {
        let json = valid();
        assert!(json.contains(from), "{from:?} not in the manifest");
        json.replacen(from, to, 1)
    }

    #[test]
    fn every_truncation_is_refused() {
        let json = valid();
        for cut in 0..json.len() {
            refused(&json[..cut]);
        }
        refused(&format!("{json} x"));
        assert!(parse(&format!(" \n{json}\r\n\t ")).is_ok());
    }

    #[test]
    fn every_single_byte_flip_parses_or_is_refused() {
        let json = valid();
        let (mut accepted, mut rejected) = (0, 0);
        for at in 0..json.len() {
            for bit in 0..8 {
                let mut bytes = json.clone().into_bytes();
                bytes[at] ^= 1 << bit;
                // A flip that leaves UTF-8 never reaches the reader: it
                // takes `&str`.
                let Ok(flipped) = String::from_utf8(bytes) else {
                    continue;
                };
                match parse(&flipped) {
                    // E.g. a letter changed inside a description.
                    Ok(_) => accepted += 1,
                    Err(CoreError::Metadata(_)) => rejected += 1,
                    Err(other) => panic!("byte {at} bit {bit}: {other:?}"),
                }
            }
        }
        assert!(
            accepted > 0 && rejected > accepted,
            "{accepted} / {rejected}"
        );
    }

    #[test]
    fn nesting_bombs_are_refused_without_recursing_into_them() {
        for depth in [MAX_SKIP_DEPTH + 2, 100_000] {
            for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
                let bomb = format!("{}1{}", open.repeat(depth), close.repeat(depth));
                // As the whole document, where the grammar wants a struct,
                // and under a key the reader skips.
                refused(&bomb);
                refused(&edited("\"tick\": 7.0", &format!("\"tick\": {bomb}")));
                let m = refused(&edited(
                    "\"tick\": 7.0",
                    &format!("\"tick\": 7.0, \"x\": {bomb}"),
                ));
                assert!(m.contains("nested too deeply"), "{m}");
            }
        }
        // Up to the bound an unknown value of any shape is skipped.
        let deep = format!(
            "{}{}",
            "[".repeat(MAX_SKIP_DEPTH),
            "]".repeat(MAX_SKIP_DEPTH)
        );
        let skipped = format!(
            "\"tick\": 7.0, \"x\": {{\"a\": [1, -2.5e3, true, false, null, \"s\\n\"], \"b\": {deep}}}"
        );
        assert_eq!(
            parse(&edited("\"tick\": 7.0", &skipped)).unwrap(),
            parse(&valid()).unwrap()
        );
    }

    #[test]
    fn duplicate_and_missing_keys_are_errors_and_unknown_keys_are_ignored() {
        for key in [
            "models",
            "datasets",
            "name",
            "description",
            "inputs",
            "output",
            "params",
            "perf",
            "channels",
            "tick",
            "default",
            "lo",
            "hi",
            "cost",
            "output_variance",
            "weight",
        ] {
            let quoted = format!("\"{key}\":");
            let m = refused(&edited(&quoted, &format!("\"not_{key}\":")));
            assert!(m.contains(&format!("missing key `{key}`")), "{key}: {m}");
        }
        for (member, key) in [
            ("\"tick\": 7.0", "tick"),
            ("\"weight\": 0", "weight"),
            ("\"name\": \"price\"", "name"),
            ("\"datasets\": []", "datasets"),
            ("\"inputs\": []", "inputs"),
        ] {
            let m = refused(&edited(member, &format!("{member}, {member}")));
            assert!(m.contains(&format!("duplicate key `{key}`")), "{key}: {m}");
        }
        // An unknown key may even repeat; it is never looked at.
        let extra = "\"tick\": 7.0, \"unit\": \"days\", \"unit\": null";
        assert_eq!(
            parse(&edited("\"tick\": 7.0", extra)).unwrap(),
            parse(&valid()).unwrap()
        );
    }

    #[test]
    fn numbers_must_be_finite_f64s_and_weight_a_u64() {
        for bad in [
            "1e999",
            "-1e999",
            "NaN",
            "Infinity",
            "-Infinity",
            "01",
            "1.",
            ".5",
            "+1",
            "1e",
            "1e+",
            "-",
            "0x10",
            "\"7\"",
            "null",
            "true",
            "[7]",
        ] {
            refused(&edited("\"tick\": 7.0", &format!("\"tick\": {bad}")));
        }
        for good in ["7", "-0", "7.000", "70e-1", "0.7E+1", "7e0"] {
            let json = edited("\"tick\": 7.0", &format!("\"tick\": {good}"));
            let (models, _) = parse(&json).unwrap();
            assert_eq!(
                models[1].inputs[0].tick.abs(),
                if good == "-0" { 0.0 } else { 7.0 }
            );
        }
        for bad in [
            "18446744073709551616", // u64::MAX + 1
            "99999999999999999999999999",
            "-1",
            "-0",
            "1.0",
            "1e3",
            "\"1\"",
            "null",
        ] {
            refused(&edited("\"weight\": 0", &format!("\"weight\": {bad}")));
        }
        let json = edited("\"weight\": 0", "\"weight\": 18446744073709551615");
        assert_eq!(parse(&json).unwrap().0[0].perf.weight, u64::MAX);
    }

    #[test]
    fn escapes_decode_and_lone_surrogates_and_bad_escapes_are_refused() {
        let with = |body: &str| edited("\"daily demand source\"", &format!("\"{body}\""));
        for (body, want) in [
            (r"Aé日", "Aé日"),
            (r"🦀", "🦀"),
            (r#"\"\\\/\b\f\n\r\t"#, "\"\\/\u{8}\u{c}\n\r\t"),
            ("é日🦀", "é日🦀"),
        ] {
            assert_eq!(parse(&with(body)).unwrap().0[0].description, want);
        }
        for body in [
            r"\ud83e",       // high surrogate, nothing after
            r"\ud83e rest",  // high surrogate, no escape after
            r"\ud83eA",      // high surrogate, not a low one after
            r"\ud83e\ud83e", // two high surrogates
            r"\udd80",       // low surrogate alone
            r"\u12",         // short
            r"\u12G4",       // not hex
            r"\u+123",       // a sign is not a hex digit
            r"\x41",         // unknown escape
            r"\é",           // unknown escape, multi-byte
            "\\",            // escape cut by the closing quote
            "a\u{1}b",       // raw control character
            "line\nbreak",   // raw newline
        ] {
            refused(&with(body));
        }
    }
}
