//! A lightweight Rust source scanner.
//!
//! The static auditor must reason about *code*, not comments or string
//! literals: `// unsafe` in a doc comment or `"panic!"` in an error
//! message must not trip the TCB gate. [`strip_noncode`] blanks every
//! comment and literal with spaces, preserving byte offsets and line
//! structure so findings can report accurate line numbers.
//!
//! This is not a full lexer — it recognizes exactly the constructs that
//! can hide token-lookalikes: line comments, (nested) block comments,
//! string literals with escapes, raw strings with `#` fences, byte and
//! char literals. That subset is total: unterminated constructs blank to
//! end of input rather than erroring, which is the conservative choice
//! for an auditor (text inside an unterminated literal is not code).

/// Replaces comments and string/char literals with spaces (newlines are
/// kept so line numbers survive).
pub fn strip_noncode(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;

    // Writes `n` bytes of blank, preserving newlines.
    fn blank(out: &mut Vec<u8>, bytes: &[u8], from: usize, to: usize) {
        for &b in &bytes[from..to] {
            out.push(if b == b'\n' { b'\n' } else { b' ' });
        }
    }

    while i < bytes.len() {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied();
        if b == b'/' && next == Some(b'/') {
            let end = line_end(bytes, i);
            blank(&mut out, bytes, i, end);
            i = end;
        } else if b == b'/' && next == Some(b'*') {
            let end = block_comment_end(bytes, i);
            blank(&mut out, bytes, i, end);
            i = end;
        } else if b == b'"' {
            let end = string_end(bytes, i);
            blank(&mut out, bytes, i, end);
            i = end;
        } else if !prev_is_ident(bytes, i) && raw_prefix(bytes, i).is_some() {
            let r = raw_prefix(bytes, i).unwrap_or(i);
            let end = raw_string_end(bytes, r);
            blank(&mut out, bytes, i, end);
            i = end;
        } else if (b == b'b' || b == b'c') && next == Some(b'"') && !prev_is_ident(bytes, i) {
            let end = string_end(bytes, i + 1);
            blank(&mut out, bytes, i, end);
            i = end;
        } else if b == b'\'' {
            match char_literal_end(bytes, i) {
                Some(end) => {
                    blank(&mut out, bytes, i, end);
                    i = end;
                }
                None => {
                    // A lifetime (`'a`), not a literal: copy through.
                    out.push(b);
                    i += 1;
                }
            }
        } else {
            out.push(b);
            i += 1;
        }
    }
    String::from_utf8(out).expect("blanking preserves UTF-8: multibyte chars only inside literals are replaced byte-for-byte with ASCII spaces")
}

fn line_end(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i] != b'\n' {
        i += 1;
    }
    i
}

/// Handles Rust's nested block comments.
fn block_comment_end(bytes: &[u8], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
            depth += 1;
            i += 2;
        } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
            depth -= 1;
            i += 2;
            if depth == 0 {
                return i;
            }
        } else {
            i += 1;
        }
    }
    bytes.len()
}

fn string_end(bytes: &[u8], start: usize) -> usize {
    // start points at the opening quote (or the `b` prefix's quote).
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// True when the byte before `i` can continue an identifier — in which
/// case an `r`/`b`/`c` at `i` is the tail of a longer name (`attr`,
/// `ptr`, ...), not a literal prefix.
fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && is_ident_byte(bytes[i - 1])
}

/// When `i` starts a raw-string literal — `r"`, `r#"` with any fence
/// depth, or the `br`/`cr` prefixed forms — the offset of the `r`
/// itself (where fence counting begins). `None` otherwise.
fn raw_prefix(bytes: &[u8], i: usize) -> Option<usize> {
    let r = match bytes.get(i) {
        Some(b'r') => i,
        Some(b'b') | Some(b'c') if bytes.get(i + 1) == Some(&b'r') => i + 1,
        _ => return None,
    };
    let mut j = r + 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    (bytes.get(j) == Some(&b'"')).then_some(r)
}

fn raw_string_end(bytes: &[u8], i: usize) -> usize {
    let mut hashes = 0usize;
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    while j < bytes.len() {
        if bytes[j] == b'"' {
            let mut k = 0;
            while k < hashes && bytes.get(j + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                return j + 1 + hashes;
            }
        }
        j += 1;
    }
    bytes.len()
}

/// `Some(end)` when `i` starts a char/byte-char literal, `None` for a
/// lifetime.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if bytes.get(j) == Some(&b'\\') {
        // Escape: skip the backslash and the escape head, then scan for
        // the closing quote (covers \x41 and \u{...}).
        j += 2;
        while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
            j += 1;
        }
        return (bytes.get(j) == Some(&b'\'')).then_some(j + 1);
    }
    // Unescaped: a literal is exactly one char then a quote. Anything
    // else (e.g. `'a` in `Foo<'a>` or `'static`) is a lifetime. Step
    // over one UTF-8 scalar.
    let width = match bytes.get(j) {
        None => return None,
        Some(b) if b & 0x80 == 0 => 1,
        Some(b) if b & 0xe0 == 0xc0 => 2,
        Some(b) if b & 0xf0 == 0xe0 => 3,
        _ => 4,
    };
    (bytes.get(j + width) == Some(&b'\'')).then_some(j + width + 1)
}

/// True when `text[pos]` begins the word `word` with identifier
/// boundaries on both sides.
pub fn is_word_at(text: &str, pos: usize, word: &str) -> bool {
    let bytes = text.as_bytes();
    if pos + word.len() > bytes.len() || &text[pos..pos + word.len()] != word {
        return false;
    }
    let before_ok = pos == 0 || !is_ident_byte(bytes[pos - 1]);
    let after_ok = pos + word.len() == bytes.len() || !is_ident_byte(bytes[pos + word.len()]);
    before_ok && after_ok
}

/// Byte classes that can continue a Rust identifier.
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// All start offsets where `word` occurs as a whole identifier in
/// `text` (which should already be comment/literal-stripped).
pub fn word_offsets(text: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = text[from..].find(word) {
        let pos = from + rel;
        if is_word_at(text, pos, word) {
            out.push(pos);
        }
        from = pos + word.len();
    }
    out
}

/// 1-based line number of byte offset `pos`.
pub fn line_of(text: &str, pos: usize) -> usize {
    text.as_bytes()[..pos]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let src = "let x = 1; // unsafe here\n/* unsafe\nblock */ let y = 2;";
        let stripped = strip_noncode(src);
        assert!(!stripped.contains("unsafe"));
        assert!(stripped.contains("let x = 1;"));
        assert!(stripped.contains("let y = 2;"));
        assert_eq!(src.lines().count(), stripped.lines().count());
    }

    #[test]
    fn strips_nested_block_comments() {
        let stripped = strip_noncode("/* a /* unsafe */ b */ code");
        assert!(!stripped.contains("unsafe"));
        assert!(stripped.contains("code"));
    }

    #[test]
    fn strips_strings_and_chars_keeps_lifetimes() {
        let src = r#"let s = "unsafe"; let c = '\''; fn f<'a>(x: &'a str) {} let q = 'u';"#;
        let stripped = strip_noncode(src);
        assert!(!stripped.contains("unsafe"));
        assert!(stripped.contains("fn f<'a>(x: &'a str)"));
    }

    #[test]
    fn strips_raw_strings() {
        let src = r###"let s = r#"unsafe " quote"# ; done"###;
        let stripped = strip_noncode(src);
        assert!(!stripped.contains("unsafe"));
        assert!(stripped.contains("done"));
    }

    #[test]
    fn strips_fenced_raw_strings_with_inner_quote_hash() {
        // The body contains `"#` — a fence shorter than the literal's,
        // which must not terminate it.
        let src = "let s = r##\"tail \"# unsafe\"##; done";
        let stripped = strip_noncode(src);
        assert!(!stripped.contains("unsafe"));
        assert!(stripped.contains("done"));
    }

    #[test]
    fn strips_prefixed_literals() {
        let src = "let a = br#\"unsafe\"#; let b = cr\"unsafe\"; let c = c\"unsafe\"; end";
        let stripped = strip_noncode(src);
        assert!(!stripped.contains("unsafe"));
        assert!(stripped.contains("end"));
    }

    #[test]
    fn identifier_tail_is_not_a_literal_prefix() {
        // `ptr` ends in `r`; the lexer must not count fences from inside
        // the identifier and swallow it.
        let stripped = strip_noncode("ptr\"x\" attr");
        assert!(stripped.starts_with("ptr"));
        assert!(stripped.ends_with("attr"));
    }

    #[test]
    fn unterminated_block_comment_blanks_to_eof() {
        let stripped = strip_noncode("code /* unsafe /* still unsafe ");
        assert!(stripped.starts_with("code"));
        assert!(!stripped.contains("unsafe"));
    }

    #[test]
    fn unterminated_string_blanks_to_eof() {
        let stripped = strip_noncode("let s = \"unsafe\npanic!");
        assert!(stripped.starts_with("let s = "));
        assert!(!stripped.contains("unsafe"));
        assert!(!stripped.contains("panic"));
        assert_eq!(stripped.lines().count(), 2, "newlines survive blanking");
    }

    #[test]
    fn char_literal_vs_lifetime_disambiguation() {
        let src = "fn f<'a>(x: &'a u8) { let c = 'a'; let e = '\\u{1F600}'; let b = b'u'; }";
        let stripped = strip_noncode(src);
        assert!(
            stripped.contains("fn f<'a>(x: &'a u8)"),
            "lifetimes survive"
        );
        assert!(!stripped.contains("= 'a'"), "char literal blanked");
        assert!(!stripped.contains("1F600"), "escaped char blanked");
        assert!(!stripped.contains("b'u'"), "byte-char blanked");
    }

    #[test]
    fn word_offsets_respect_boundaries() {
        let text = "unsafe fn not_unsafe() { unsafe_marker(); }";
        let hits = word_offsets(text, "unsafe");
        assert_eq!(hits, vec![0]);
    }

    #[test]
    fn line_numbers() {
        let text = "a\nb\nc";
        assert_eq!(line_of(text, 0), 1);
        assert_eq!(line_of(text, 2), 2);
        assert_eq!(line_of(text, 4), 3);
    }
}
