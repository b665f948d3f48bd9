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
//! - code the default release build does not compile does not count:
//!   an item, block or statement under one of `EXCLUDED_CFGS` is
//!   excluded by tracking the brace extent (or the `;`) that follows the
//!   attribute, so a test module in the middle of a file does not hide
//!   the production code after it. The static call graph and the
//!   panic-site budgets read the same classes.

use crate::lex;
use std::path::{Path, PathBuf};

/// LOC breakdown for one source file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileLoc {
    /// Non-blank, non-comment lines the release build compiles: the
    /// number that counts against the TCB budget.
    pub code: usize,
    /// Lines excluded because they sit inside a test or debug-only
    /// extent.
    pub excluded: usize,
    /// Blank or comment-only lines.
    pub blank_or_comment: usize,
}

impl FileLoc {
    pub(crate) fn add(&mut self, other: &FileLoc) {
        self.code += other.code;
        self.excluded += other.excluded;
        self.blank_or_comment += other.blank_or_comment;
    }
}

/// How one source line counts against the TCB budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineClass {
    /// Counts against the budget.
    Code,
    /// Inside a test or debug-only extent; excluded.
    Excluded,
    /// Blank or comment-only; excluded.
    BlankOrComment,
}

/// The attributes whose extent the release build leaves out: test code
/// and the debug-only oracle (scan twins, differential asserts,
/// corruption hooks). The stripped text blanks the feature string, so
/// they are matched on the raw line, at an offset where the stripped
/// line still holds code (not a comment or literal).
const EXCLUDED_CFGS: &[&str] = &[
    "#[cfg(test)]",
    "#[cfg(debug_assertions)]",
    "#[cfg(any(debug_assertions, feature = \"paranoid-checks\"))]",
];

/// Classifies every line of `src` (1-based line `n` is index `n - 1`).
/// Works on the comment/literal-stripped text so braces in strings do
/// not confuse the extent tracking.
pub fn classify_lines(src: &str) -> Vec<LineClass> {
    let stripped = lex::strip_noncode(src);
    let mut classes = Vec::new();

    // An excluded extent begins at an excluded attribute and ends when
    // the brace depth of the item following it returns to its starting
    // value (or at `;` for braceless items like `#[cfg(test)] use x;`
    // and single statements).
    let mut depth: i64 = 0;
    let mut excluded_until_depth: Vec<i64> = Vec::new();
    let mut pending_attr = false;

    for (raw_line, code_line) in src.lines().zip(stripped.lines()) {
        let excluded_before = !excluded_until_depth.is_empty() || pending_attr;
        let trimmed_code = code_line.trim();

        let mut attrs = EXCLUDED_CFGS.iter().flat_map(|a| raw_line.match_indices(a));
        if attrs.any(|(at, _)| code_line.get(at..).is_some_and(|c| c.starts_with("#[cfg("))) {
            pending_attr = true;
        }

        for b in trimmed_code.bytes() {
            match b {
                b'{' => {
                    if pending_attr {
                        // The excluded item's body opens here; the extent
                        // lasts until depth drops back to this level.
                        excluded_until_depth.push(depth);
                        pending_attr = false;
                    }
                    depth += 1;
                }
                b'}' => {
                    depth -= 1;
                    if excluded_until_depth.last().is_some_and(|&d| depth <= d) {
                        excluded_until_depth.pop();
                    }
                }
                b';' if pending_attr => pending_attr = false,
                _ => {}
            }
        }

        let excluded_after = !excluded_until_depth.is_empty() || pending_attr;
        classes.push(if trimmed_code.is_empty() {
            LineClass::BlankOrComment
        } else if excluded_before || excluded_after {
            LineClass::Excluded
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
            LineClass::Excluded => out.excluded += 1,
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
        assert_eq!(loc.excluded, 0);
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
        assert_eq!(loc.excluded, 4, "attribute + module body");
    }

    #[test]
    fn cfg_test_on_single_item_and_use() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn prod() {}\n#[cfg(test)]\nfn helper() {\n    body();\n}\nfn prod2() {}\n";
        let loc = count_source(src);
        assert_eq!(loc.code, 2, "prod and prod2");
        assert_eq!(loc.excluded, 6);
    }

    #[test]
    fn braces_in_strings_do_not_confuse_extent_tracking() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}}}}\";\n}\nfn prod() {}\n";
        let loc = count_source(src);
        assert_eq!(loc.code, 1);
        assert_eq!(loc.excluded, 4);
    }

    #[test]
    fn debug_only_fn_block_and_statement_are_excluded() {
        let gate = "#[cfg(any(debug_assertions, feature = \"paranoid-checks\"))]";
        let src = format!(
            "#[cfg(debug_assertions)]\nfn oracle() {{\n    check();\n}}\nfn query() {{\n\
             {gate}\n{{\n    check();\n}}\n{gate}\nassert_eq!(\n    a,\n    b,\n);\nafter();\n}}\n"
        );
        let classes = classify_lines(&src);
        let code: Vec<usize> = (1..=classes.len())
            .filter(|&n| classes[n - 1] == LineClass::Code)
            .collect();
        // The first line after each excluded extent still counts.
        assert_eq!(code, [5, 15, 16], "fn query, after(), closing brace");
    }

    #[test]
    fn release_only_code_and_attribute_lookalikes_still_count() {
        let src = "#[cfg(not(debug_assertions))]\nfn fast() {\n    go();\n}\n\
                   // #[cfg(debug_assertions)]\nconst S: &str = \"#[cfg(debug_assertions)]\";\n";
        assert_eq!(count_source(src).code, 5, "everything but the comment");
    }

    #[test]
    fn counts_this_crate_without_error() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let loc = count_crate(here).unwrap();
        assert!(loc.code > 100, "this crate is not empty: {loc:?}");
        assert!(loc.excluded > 50, "this crate has tests: {loc:?}");
    }
}
