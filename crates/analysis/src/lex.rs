//! A lightweight, lossless Rust *masking* lexer.
//!
//! The passes in this crate match textual patterns (`unsafe`, `.lock()`,
//! `Ordering::`, …), and the classic failure mode of grep-style lint is a
//! hit inside a string literal or a comment.  Instead of a full parser,
//! [`mask`] produces two same-length views of a source file:
//!
//! * **code** — the program text with every comment body and every
//!   string/char literal *content* replaced by spaces.  Delimiters (the
//!   quotes) and all newlines survive, so byte offsets and line numbers in
//!   the mask are identical to the original file.  Pattern matches against
//!   this view can never land inside a literal or a comment.
//! * **comments** — the dual: only comment text (including the `//` / `/*`
//!   markers) survives, everything else is blanked.  Directive lookups
//!   (`SAFETY:`, `ij-analysis: allow(panic)`) run against this view, so a
//!   directive inside a string does not count.
//!
//! The lexer understands nested block comments, doc comments, `"…"` with
//! escapes, raw strings `r"…"` / `r#"…"#` (any number of `#`s), byte and
//! raw-byte strings, char literals (including escapes), and tells
//! lifetimes/labels (`'a`, `'outer:`) apart from char literals with the
//! standard two-byte lookahead heuristic.

/// The two masked views of one source file.  Both have exactly the same
/// byte length as the input, with every `\n` preserved.
#[derive(Debug)]
pub struct Masked {
    pub code: String,
    pub comments: String,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Masks `text`.  Invalid or exotic syntax degrades gracefully: an
/// unterminated literal or comment simply blanks through to end-of-file,
/// which is conservative for every pass (nothing is invented, only hidden).
pub fn mask(text: &str) -> Masked {
    let bytes = text.as_bytes();
    let n = bytes.len();
    // Pre-fill both masks with spaces, newlines already in place.
    let mut code = vec![b' '; n];
    let mut comments = vec![b' '; n];
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            code[i] = b'\n';
            comments[i] = b'\n';
        }
    }
    let keep_code = |code: &mut [u8], i: usize| code[i] = bytes[i];

    let mut i = 0usize;
    while i < n {
        let b = bytes[i];
        let next = |k: usize| bytes.get(i + k).copied().unwrap_or(0);
        match b {
            b'/' if next(1) == b'/' => {
                // Line comment (incl. `///` and `//!`).
                while i < n && bytes[i] != b'\n' {
                    comments[i] = bytes[i];
                    i += 1;
                }
            }
            b'/' if next(1) == b'*' => {
                // Block comment, nested.
                let mut depth = 0usize;
                while i < n {
                    if bytes[i] == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
                        depth += 1;
                        comments[i] = bytes[i];
                        comments[i + 1] = bytes[i + 1];
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < n && bytes[i + 1] == b'/' {
                        depth -= 1;
                        comments[i] = bytes[i];
                        comments[i + 1] = bytes[i + 1];
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] != b'\n' {
                            comments[i] = bytes[i];
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                i = lex_plain_string(bytes, i, &mut code);
            }
            b'r' | b'b' if i == 0 || !is_ident(bytes[i - 1]) => {
                // Possible raw string (`r"`, `r#"`), byte string (`b"`),
                // raw byte string (`br"`, `br#"`) or byte char (`b'x'`).
                let (prefix_len, raw) = match (b, next(1), next(2)) {
                    (b'r', b'"', _) | (b'r', b'#', _) => (1, true),
                    (b'b', b'r', b'"') | (b'b', b'r', b'#') => (2, true),
                    (b'b', b'"', _) => (1, false),
                    (b'b', b'\'', _) => {
                        keep_code(&mut code, i);
                        code[i + 1] = b'\''; // opening quote
                        i = lex_char(bytes, i + 2, &mut code);
                        continue;
                    }
                    _ => {
                        keep_code(&mut code, i);
                        i += 1;
                        continue;
                    }
                };
                if raw {
                    // Count `#`s after the prefix; require a `"` next, else
                    // this is a raw identifier like `r#fn` — plain code.
                    let mut j = i + prefix_len;
                    while j < n && bytes[j] == b'#' {
                        j += 1;
                    }
                    if j < n && bytes[j] == b'"' {
                        let hashes = j - (i + prefix_len);
                        for k in i..=j {
                            keep_code(&mut code, k);
                        }
                        i = lex_raw_string(bytes, j + 1, hashes, &mut code);
                    } else {
                        keep_code(&mut code, i);
                        i += 1;
                    }
                } else {
                    keep_code(&mut code, i); // the `b`
                    i = lex_plain_string(bytes, i + 1, &mut code);
                }
            }
            b'\'' => {
                // Char literal vs lifetime/label: `'\…'` is always a char;
                // otherwise it is a char only if one character later comes
                // a closing `'` (so `'a'` yes, `'a`, `'static`, `'out:` no).
                let is_char = if next(1) == b'\\' {
                    true
                } else {
                    // One UTF-8 character = 1..=4 bytes.
                    let ch_len = text[i + 1..].chars().next().map_or(1, char::len_utf8);
                    next(1 + ch_len) == b'\''
                };
                if is_char {
                    keep_code(&mut code, i);
                    i = lex_char(bytes, i + 1, &mut code);
                } else {
                    keep_code(&mut code, i);
                    i += 1;
                }
            }
            _ => {
                keep_code(&mut code, i);
                i += 1;
            }
        }
    }

    // Both masks only ever contain original-text bytes or ASCII spaces, so
    // multi-byte characters are either kept whole or blanked whole-by-byte.
    Masked {
        code: String::from_utf8_lossy(&code).into_owned(),
        comments: String::from_utf8_lossy(&comments).into_owned(),
    }
}

/// Lexes a `"…"` body starting at the opening quote index; returns the
/// index just past the closing quote.  Quotes stay in `code`.
fn lex_plain_string(bytes: &[u8], open: usize, code: &mut [u8]) -> usize {
    let n = bytes.len();
    code[open] = b'"';
    let mut i = open + 1;
    while i < n {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                code[i] = b'"';
                return i + 1;
            }
            _ => i += 1,
        }
    }
    // Unterminated: swallow to EOF.
    n
}

/// Lexes a raw string body (cursor just past the opening quote) terminated
/// by `"` + `hashes` × `#`; returns the index past the full terminator.
fn lex_raw_string(bytes: &[u8], start: usize, hashes: usize, code: &mut [u8]) -> usize {
    let n = bytes.len();
    let mut i = start;
    while i < n {
        if bytes[i] == b'"'
            && bytes[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&b| b == b'#')
                .count()
                == hashes
        {
            let end = (i + 1 + hashes).min(n);
            code[i..end].copy_from_slice(&bytes[i..end]);
            return i + 1 + hashes;
        }
        i += 1;
    }
    n
}

/// Lexes a char-literal body (cursor just past the opening `'`); returns
/// the index past the closing `'`.
fn lex_char(bytes: &[u8], start: usize, code: &mut [u8]) -> usize {
    let n = bytes.len();
    let mut i = start;
    while i < n {
        match bytes[i] {
            b'\\' => i += 2,
            b'\'' => {
                code[i] = b'\'';
                return i + 1;
            }
            _ => i += 1,
        }
    }
    n
}

/// Byte ranges (into the masked/original text) of `#[cfg(…test…)] mod …`
/// bodies — regions the hot-path panic lint skips.  Detection runs on the
/// **code mask**, so `test` inside a feature-name string does not trigger,
/// while `#[cfg(test)]` and `#[cfg(all(test, feature = "x"))]` both do.
pub fn test_mod_regions(code: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let n = bytes.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(rel) = code[i..].find("#[cfg(") {
        let attr_open = i + rel + "#[cfg".len(); // index of the `(`
        let Some(attr_close) = matching(bytes, attr_open, b'(', b')') else {
            break;
        };
        i = attr_close + 1;
        let inner = &code[attr_open + 1..attr_close];
        if !has_word(inner, "test") {
            continue;
        }
        // Skip the attribute's trailing `]`, whitespace, and any further
        // attributes, then require a `mod` item with an inline body.
        let mut j = attr_close + 1;
        loop {
            while j < n && (bytes[j] == b']' || bytes[j].is_ascii_whitespace()) {
                j += 1;
            }
            if j < n && bytes[j] == b'#' {
                let Some(close) = matching(bytes, j + 1, b'[', b']') else {
                    return out;
                };
                j = close + 1;
            } else {
                break;
            }
        }
        let rest = &code[j..];
        if !(rest.starts_with("mod") && rest[3..].starts_with(|c: char| c.is_whitespace())) {
            if rest.starts_with("pub") {
                // `pub mod` — rare for test modules but harmless to honour.
                let k = j + 3;
                if !code[k..].trim_start().starts_with("mod ") {
                    continue;
                }
            } else {
                continue;
            }
        }
        let Some(body_rel) = code[j..].find('{') else {
            continue; // out-of-line `mod x;`
        };
        let body_open = j + body_rel;
        let body_close = matching(bytes, body_open, b'{', b'}').unwrap_or(n.saturating_sub(1));
        out.push((body_open, body_close + 1));
        i = body_close + 1;
    }
    out
}

/// Index of the delimiter matching `open_at` (which must hold `open`).
fn matching(bytes: &[u8], open_at: usize, open: u8, close: u8) -> Option<usize> {
    debug_assert_eq!(bytes[open_at], open);
    let mut depth = 0usize;
    for (k, &b) in bytes.iter().enumerate().skip(open_at) {
        if b == open {
            depth += 1;
        } else if b == close {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Whether `needle` occurs in `hay` as a whole word (identifier boundaries).
pub fn has_word(hay: &str, needle: &str) -> bool {
    find_word(hay, needle, 0).is_some()
}

/// First whole-word occurrence of `needle` in `hay` at or after `from`.
pub fn find_word(hay: &str, needle: &str, from: usize) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut i = from;
    while let Some(rel) = hay[i..].find(needle) {
        let at = i + rel;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        i = at + 1;
    }
    None
}

/// 1-indexed line number of byte `offset` (clamped to the last line).
pub fn line_of(line_starts: &[usize], offset: usize) -> usize {
    match line_starts.binary_search(&offset) {
        Ok(k) => k + 1,
        Err(k) => k, // first start > offset, so offset is on line k
    }
}

/// Byte offsets at which each line begins (line 1 starts at 0).
pub fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_leave_the_code_mask() {
        let src = r##"let a = "unsafe { }"; // unsafe here too
/* unsafe */ let b = r#"also "unsafe""#;
let c = 'x'; let d: &'static str = b"unsafe";"##;
        let m = mask(src);
        assert_eq!(m.code.len(), src.len());
        assert!(!has_word(&m.code, "unsafe"));
        assert!(has_word(&m.code, "let"));
        // Both comments made it into the comment mask.
        assert!(m.comments.contains("// unsafe here too"));
        assert!(m.comments.contains("/* unsafe */"));
        // All three literals blanked, their delimiters kept.
        assert!(m.code.starts_with(r#"let a = "          ";"#));
        let blank = " ".repeat(r#"also "unsafe""#.len());
        assert!(m.code.contains(&format!(r##"let b = r#"{blank}"#;"##)));
        assert!(m.code.ends_with(r#"let d: &'static str = b"      ";"#));
    }

    #[test]
    fn lifetimes_and_labels_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) { 'outer: loop { break 'outer; } } let c = '\\'';";
        let m = mask(src);
        assert!(has_word(&m.code, "loop"));
        assert!(has_word(&m.code, "break"));
        // The escaped-quote char literal's content is blanked.
        assert!(!m.code.contains("\\'"));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* a /* b */ c */ unsafe {}";
        let m = mask(src);
        assert!(has_word(&m.code, "unsafe"));
        assert!(m.comments.contains("c */"));
    }

    #[test]
    fn test_mod_regions_cover_cfg_test_bodies() {
        let src = "fn hot() { x.unwrap(); }\n#[cfg(all(test, feature = \"failpoints\"))]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let m = mask(src);
        let regions = test_mod_regions(&m.code);
        assert_eq!(regions.len(), 1);
        let (a, b) = regions[0];
        assert!(src[a..b].contains("y.unwrap"));
        assert!(!src[a..b].contains("hot"));
    }

    #[test]
    fn byte_char_quote_does_not_open_a_string() {
        // Regression: `b'"'` once fed its opening quote back into the
        // char lexer, which "closed" instantly and let the `"` open a
        // phantom string that swallowed the rest of the file.
        let src = "let q = b'\"'; unsafe { hot() } let s = \"unsafe\";";
        let m = mask(src);
        assert!(has_word(&m.code, "unsafe"));
        // The one string is blanked to its end, and nothing past it.
        assert!(m.code.ends_with("let s = \"      \";"));
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let src = "let r#fn = 1; let s = r\"x\";";
        let m = mask(src);
        assert!(has_word(&m.code, "r#fn"));
        assert!(m.code.ends_with("let s = r\" \";"));
    }
}
