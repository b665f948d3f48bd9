//! The panic-construct allowlist and its hand-rolled parser.
//!
//! The TCB auditor flags every panic-capable construct in trust-path
//! code. Some are deliberate — a monitor call that has already validated
//! its arguments, an infallible conversion — and those are recorded in a
//! checked-in `allowlist.toml` with a per-file, per-construct budget and
//! a human reason. The auditor fails when code exceeds its budget *or*
//! when the allowlist over-approves (a stale entry no longer matched by
//! code), so the list cannot rot in either direction.
//!
//! The parser reads exactly the TOML subset the file uses (`[[allow]]`
//! tables with string and integer values, `#` comments) — hand-rolled
//! because the verifier must have zero dependencies outside std.

use std::path::Path;

/// One approved panic-construct budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Workspace-relative path the budget applies to.
    pub file: String,
    /// Construct name as reported by the auditor (e.g. `"expect("`).
    pub construct: String,
    /// Maximum occurrences allowed. Code above this count fails; an
    /// entry whose file has *fewer* occurrences is stale and also fails.
    pub count: usize,
    /// Why the occurrences are acceptable.
    pub reason: String,
}

/// Parses allowlist text. Errors carry a line number.
pub fn parse(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    // Fields of the entry currently being assembled.
    let mut current: Option<PartialEntry> = None;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(partial) = current.take() {
                entries.push(partial.finish(lineno)?);
            }
            current = Some(PartialEntry::new(lineno));
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {lineno}: unknown table {line:?}; only [[allow]] is supported"
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "line {lineno}: expected `key = value`, got {line:?}"
            ));
        };
        let Some(entry) = current.as_mut() else {
            return Err(format!(
                "line {lineno}: {key:?} outside any [[allow]] table"
            ));
        };
        entry.set(key.trim(), value.trim(), lineno)?;
    }
    if let Some(partial) = current.take() {
        let last = text.lines().count();
        entries.push(partial.finish(last)?);
    }
    Ok(entries)
}

/// Parses the allowlist file at `path`.
pub fn load(path: &Path) -> Result<Vec<AllowEntry>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("read allowlist {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Drops a `#` comment, respecting `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

#[derive(Default)]
struct PartialEntry {
    start_line: usize,
    file: Option<String>,
    construct: Option<String>,
    count: Option<usize>,
    reason: Option<String>,
}

impl PartialEntry {
    fn new(start_line: usize) -> Self {
        PartialEntry {
            start_line,
            ..Default::default()
        }
    }

    fn set(&mut self, key: &str, value: &str, lineno: usize) -> Result<(), String> {
        match key {
            "file" => self.file = Some(parse_string(value, lineno)?),
            "construct" => self.construct = Some(parse_string(value, lineno)?),
            "reason" => self.reason = Some(parse_string(value, lineno)?),
            "count" => {
                self.count = Some(value.parse().map_err(|_| {
                    format!("line {lineno}: count must be a non-negative integer, got {value:?}")
                })?)
            }
            other => return Err(format!("line {lineno}: unknown key {other:?}")),
        }
        Ok(())
    }

    fn finish(self, end_line: usize) -> Result<AllowEntry, String> {
        let at = format!(
            "[[allow]] table starting at line {} (ends by line {end_line})",
            self.start_line
        );
        Ok(AllowEntry {
            file: self.file.ok_or_else(|| format!("{at}: missing `file`"))?,
            construct: self
                .construct
                .ok_or_else(|| format!("{at}: missing `construct`"))?,
            count: self.count.ok_or_else(|| format!("{at}: missing `count`"))?,
            reason: self
                .reason
                .ok_or_else(|| format!("{at}: missing `reason`"))?,
        })
    }
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("line {lineno}: expected a double-quoted string, got {value:?}"))?;
    // Unescape the two escapes TOML basic strings need here.
    Ok(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# Approved panics in the trust path.
[[allow]]
file = "crates/core/src/engine.rs"
construct = "expect("   # trailing comment
count = 2
reason = "id allocation is infallible by construction"

[[allow]]
file = "crates/monitor/src/monitor.rs"
construct = "panic!"
count = 1
reason = "ABI contract violation is unrecoverable"
"#;

    #[test]
    fn parses_entries() {
        let entries = parse(SAMPLE).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].file, "crates/core/src/engine.rs");
        assert_eq!(entries[0].construct, "expect(");
        assert_eq!(entries[0].count, 2);
        assert_eq!(entries[1].construct, "panic!");
        assert!(entries[1].reason.contains("unrecoverable"));
    }

    #[test]
    fn rejects_missing_fields() {
        let err = parse("[[allow]]\nfile = \"x.rs\"\n").unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn rejects_unknown_keys_and_stray_values() {
        assert!(parse("[[allow]]\nfoo = \"bar\"\n")
            .unwrap_err()
            .contains("unknown key"));
        assert!(parse("file = \"x.rs\"\n")
            .unwrap_err()
            .contains("outside any"));
        assert!(parse("[badtable]\n").unwrap_err().contains("unknown table"));
        assert!(parse("[[allow]]\ncount = \"three\"\n")
            .unwrap_err()
            .contains("integer"));
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let entries = parse(
            "[[allow]]\nfile = \"a#b.rs\"\nconstruct = \"unwrap()\"\ncount = 1\nreason = \"r\"\n",
        )
        .unwrap();
        assert_eq!(entries[0].file, "a#b.rs");
    }
}
