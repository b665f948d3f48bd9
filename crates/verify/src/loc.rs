//! The single source of truth for the C1 claim's LOC count.
//!
//! The paper's Claim 1 is a TCB-size bound ("less than 10K lines of
//! Rust"). Everything that reports a TCB line count — `repro c1`,
//! `tcb-audit`, CI — must call [`count_file`]/[`count_crate`] so the
//! number cannot drift between tools.
//!
//! What counts as a line of trusted code:
//! - blank lines do not count;
//! - comment-only lines (line comments, doc comments, block comments)
//!   do not count;
//! - test code does not count: `#[cfg(test)]` items (modules or single
//!   functions) are excluded by tracking the brace extent of the item
//!   that follows the attribute, so a test module in the middle of a
//!   file does not hide the production code after it.

use crate::lex;
use std::path::{Path, PathBuf};

/// LOC breakdown for one source file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileLoc {
    /// Non-blank, non-comment, non-test lines: the number that counts
    /// against the TCB budget.
    pub code: usize,
    /// Lines excluded because they sit inside a `#[cfg(test)]` extent.
    pub test: usize,
    /// Blank or comment-only lines.
    pub blank_or_comment: usize,
}

impl FileLoc {
    fn add(&mut self, other: &FileLoc) {
        self.code += other.code;
        self.test += other.test;
        self.blank_or_comment += other.blank_or_comment;
    }
}

/// How one source line counts against the TCB budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineClass {
    /// Counts against the budget.
    Code,
    /// Inside a `#[cfg(test)]` extent; excluded.
    Test,
    /// Blank or comment-only; excluded.
    BlankOrComment,
}

/// Classifies every line of `src` (1-based line `n` is index `n - 1`).
/// Works on the comment/literal-stripped text so braces in strings do
/// not confuse the `#[cfg(test)]` extent tracking.
pub fn classify_lines(src: &str) -> Vec<LineClass> {
    let stripped = lex::strip_noncode(src);
    let mut classes = Vec::new();

    // A test extent begins at a `#[cfg(test)]` attribute and ends when
    // the brace depth of the item following it returns to its starting
    // value (or at `;` for braceless items like `#[cfg(test)] use x;`).
    let mut depth: i64 = 0;
    let mut test_until_depth: Vec<i64> = Vec::new();
    let mut pending_test_attr = false;

    for code_line in stripped.lines() {
        let in_test_before = !test_until_depth.is_empty() || pending_test_attr;
        let trimmed_code = code_line.trim();

        if trimmed_code.contains("#[cfg(test)]") {
            pending_test_attr = true;
        }

        for b in trimmed_code.bytes() {
            match b {
                b'{' => {
                    if pending_test_attr {
                        // The test item's body opens here; the extent
                        // lasts until depth drops back to this level.
                        test_until_depth.push(depth);
                        pending_test_attr = false;
                    }
                    depth += 1;
                }
                b'}' => {
                    depth -= 1;
                    if test_until_depth.last().is_some_and(|&d| depth <= d) {
                        test_until_depth.pop();
                    }
                }
                b';' if pending_test_attr => pending_test_attr = false,
                _ => {}
            }
        }

        let in_test_after = !test_until_depth.is_empty() || pending_test_attr;
        classes.push(if trimmed_code.is_empty() {
            LineClass::BlankOrComment
        } else if in_test_before || in_test_after {
            LineClass::Test
        } else {
            LineClass::Code
        });
    }
    classes
}

/// Counts one file's source text.
pub fn count_source(src: &str) -> FileLoc {
    let mut out = FileLoc::default();
    for class in classify_lines(src) {
        match class {
            LineClass::Code => out.code += 1,
            LineClass::Test => out.test += 1,
            LineClass::BlankOrComment => out.blank_or_comment += 1,
        }
    }
    out
}

/// Counts one file on disk.
pub fn count_file(path: &Path) -> Result<FileLoc, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(count_source(&src))
}

/// All `.rs` files under `dir`, recursively, sorted for determinism.
pub fn rust_sources(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries =
            std::fs::read_dir(&d).map_err(|e| format!("read_dir {}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", d.display()))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// LOC for a crate: every `.rs` under `<crate>/src` (integration tests
/// under `<crate>/tests` are by definition not TCB and are not walked).
pub fn count_crate(crate_root: &Path) -> Result<FileLoc, String> {
    let src_dir = crate_root.join("src");
    let mut total = FileLoc::default();
    for file in rust_sources(&src_dir)? {
        total.add(&count_file(&file)?);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_and_comment_lines_do_not_count() {
        let src = "\n// comment\n/// doc\nfn f() {}\n\n/* block\n   still block */\nlet x = 1;\n";
        let loc = count_source(src);
        assert_eq!(loc.code, 2, "fn f and let x");
        assert_eq!(loc.test, 0);
        assert_eq!(loc.blank_or_comment, 6);
    }

    #[test]
    fn test_module_in_middle_does_not_hide_later_code() {
        let src = "fn prod1() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { if true { } }\n\
                   }\n\
                   fn prod2() {}\n";
        let loc = count_source(src);
        assert_eq!(loc.code, 2, "prod1 and prod2");
        assert_eq!(loc.test, 4, "attribute + module body");
    }

    #[test]
    fn cfg_test_on_single_item_and_use() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn prod() {}\n#[cfg(test)]\nfn helper() {\n    body();\n}\nfn prod2() {}\n";
        let loc = count_source(src);
        assert_eq!(loc.code, 2, "prod and prod2");
        assert_eq!(loc.test, 6);
    }

    #[test]
    fn braces_in_strings_do_not_confuse_extent_tracking() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}}}}\";\n}\nfn prod() {}\n";
        let loc = count_source(src);
        assert_eq!(loc.code, 1);
        assert_eq!(loc.test, 4);
    }

    #[test]
    fn counts_this_crate_without_error() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let loc = count_crate(here).unwrap();
        assert!(loc.code > 100, "this crate is not empty: {loc:?}");
        assert!(loc.test > 50, "this crate has tests: {loc:?}");
    }
}
