//! Item-level parsing on top of [`lex`]: the workspace model the deep
//! static lints share.
//!
//! This is deliberately not a Rust parser. It recognizes exactly the
//! shapes the lints need — `impl` blocks, `fn` items and their brace
//! extents, call tokens, the workspace's lock-helper calls, atomic
//! operations carrying an explicit `Ordering`, and panic-capable
//! constructs — on comment/literal-stripped text. Everything else is
//! skipped. The model is of the release build: what [`loc`] excludes
//! (test and debug-only code) makes no function, call, lock or atomic.
//!
//! The model over-approximates on purpose, and the call graph resolves
//! by the call's syntax, not by types: a method call `x.name(..)`
//! reaches every same-named function with a `self` receiver, a path
//! call `Type::name(..)` (or `Self::name(..)`) reaches that impl's
//! function when the model has one, a path call on a CamelCase
//! qualifier the model neither declares nor implements (`Vec::new(..)`,
//! `OnceLock::new(..)`) reaches nothing, and any other call reaches
//! every same-named function in the TCB. Extra edges are the conservative
//! direction for reachability lints (they can only add findings).
//! Guard lifetimes follow a lexical model — a let-bound guard is held
//! until its enclosing block closes or an explicit `drop(var)`, an
//! unbound guard (a temporary inside a larger expression) is released
//! at its own statement. Guards owned by `for` scrutinees are treated
//! as temporaries, an under-approximation that cannot invent a
//! violation.

use crate::lex;
use crate::loc::{self, LineClass};
use crate::static_audit;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The workspace's poison-recovering lock helpers. Every guard the TCB
/// takes goes through one of these, so the parser keys on the helper
/// name instead of chasing `Mutex`/`RwLock` types.
pub const LOCK_HELPERS: &[&str] = &["mutex_lock", "read_lock", "write_lock", "lock_mutex"];

/// Atomic methods whose argument list names an `Ordering`.
pub const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// The escape-hatch marker for deliberately-`Relaxed` atomics.
pub const RELAXED_OK_MARKER: &str = "verify: relaxed-ok";

/// Words that look like calls (`if (...)`) but are not.
const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "loop", "for", "return", "let", "in", "as", "move", "ref",
    "mut", "fn", "impl", "use", "where", "break", "continue", "struct", "enum", "const", "static",
    "type", "dyn", "pub", "mod", "trait", "await", "async", "yield",
];

/// How a call token names its callee, which bounds what it resolves
/// to (see [`WorkspaceModel::callees`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `name(..)`, or `Self::name(..)` outside an impl.
    Bare,
    /// `receiver.name(..)`: only functions taking `self` can be meant.
    Method,
    /// `Qualifier::name(..)`, with `Self` replaced by the enclosing
    /// impl's type.
    Path(String),
}

/// One `name(...)` (or turbofished) call token inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Simple callee name.
    pub name: String,
    /// How the callee was named.
    pub kind: CallKind,
    /// 1-based line.
    pub line: usize,
    /// Byte offset in the stripped file (orders events within a body).
    pub offset: usize,
}

/// One guard acquisition through a lock helper.
#[derive(Clone, Debug)]
pub struct LockSite {
    /// Which helper took the guard.
    pub helper: String,
    /// Argument text (empty for the bare `.map(mutex_lock)` form).
    pub arg: String,
    /// Statement text preceding the call — classification fallback when
    /// the argument alone is ambiguous (e.g. `&s.lock` inside a map over
    /// the shard vector).
    pub context: String,
    /// 1-based line.
    pub line: usize,
    /// Byte offset in the stripped file.
    pub offset: usize,
    /// Offset of the `}` closing the innermost enclosing block.
    pub scope_end: usize,
    /// True when the guard is let-bound (held to end of scope); false
    /// for temporaries released at their own statement.
    pub bound: bool,
    /// The let binding's name, when it is a plain identifier.
    pub binding: Option<String>,
}

/// One `x.store(v, Ordering::..)`-shaped atomic operation.
#[derive(Clone, Debug)]
pub struct AtomicSite {
    /// Field/variable the method was called on (best-effort: the
    /// identifier left of the dot).
    pub field: String,
    /// The atomic method (`load`, `store`, `fetch_add`, ...).
    pub method: String,
    /// Every `Ordering::X` named in the argument list, in order.
    pub orderings: Vec<String>,
    /// 1-based line.
    pub line: usize,
    /// `// verify: relaxed-ok <reason>` found on this or the preceding
    /// line, with the reason text.
    pub annotation: Option<String>,
}

/// One panic-capable construct (as classified by the flat auditor)
/// inside a function body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// Construct name (`"unwrap()"`, `"index["`, ...).
    pub construct: String,
    /// 1-based line.
    pub line: usize,
}

/// An explicit `drop(var)` releasing a guard early.
#[derive(Clone, Debug)]
pub struct ReleaseSite {
    /// The dropped variable.
    pub var: String,
    /// Byte offset in the stripped file.
    pub offset: usize,
}

/// One parsed production function.
#[derive(Clone, Debug)]
pub struct Function {
    /// Crate directory name (`"core"`, `"monitor"`, ...).
    pub krate: String,
    /// Workspace-relative file path with forward slashes.
    pub file: String,
    /// Simple name.
    pub name: String,
    /// `Type::name` when inside an `impl` block, else the simple name.
    pub qname: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Declared `pub` (including `pub(crate)` and friends).
    pub is_pub: bool,
    /// First parameter is `&mut self`.
    pub has_mut_self: bool,
    /// First parameter is a `self` receiver of any form.
    pub has_self: bool,
    /// Call tokens, in body order.
    pub calls: Vec<CallSite>,
    /// Guard acquisitions, in body order.
    pub locks: Vec<LockSite>,
    /// Explicit `drop(var)` releases.
    pub releases: Vec<ReleaseSite>,
    /// Atomic operations with an explicit `Ordering`.
    pub atomics: Vec<AtomicSite>,
    /// Panic-capable constructs inside the body.
    pub panics: Vec<PanicSite>,
}

/// A `// verify: relaxed-ok` marker found in a file.
#[derive(Clone, Debug)]
pub struct Annotation {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line the marker sits on.
    pub line: usize,
    /// Reason text after the marker.
    pub reason: String,
}

/// Parse result for one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Production functions, in file order.
    pub functions: Vec<Function>,
    /// All relaxed-ok markers in the file (production or not).
    pub annotations: Vec<Annotation>,
    /// Types and traits the file declares (`struct`, `enum`, `union`,
    /// `trait`) or names in an `impl` header.
    pub type_names: Vec<String>,
    /// `type Alias = path::Target<..>;` as `(Alias, Target)`, with an
    /// empty target for a tuple or array alias.
    pub aliases: Vec<(String, String)>,
}

/// The whole-workspace model.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceModel {
    /// Every production function in the scanned crates.
    pub functions: Vec<Function>,
    /// Every relaxed-ok annotation in the scanned crates.
    pub annotations: Vec<Annotation>,
    /// Files parsed.
    pub files: usize,
    /// Each parsed file with its C1 code lines ([`loc::count_source`]),
    /// in parse order.
    pub file_loc: Vec<(String, usize)>,
    type_names: BTreeSet<String>,
    aliases: BTreeMap<String, String>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_method: BTreeMap<String, Vec<usize>>,
    by_qname: BTreeMap<String, Vec<usize>>,
}

impl WorkspaceModel {
    /// Parses every `.rs` file under `crates/<name>/src` for each crate.
    pub fn build(workspace_root: &Path, crates: &[String]) -> Result<WorkspaceModel, String> {
        let mut sources = Vec::new();
        for krate in crates {
            let src_dir = workspace_root.join("crates").join(krate).join("src");
            for file in loc::rust_sources(&src_dir)? {
                let rel = file
                    .strip_prefix(workspace_root)
                    .unwrap_or(&file)
                    .to_string_lossy()
                    .replace('\\', "/");
                let text = std::fs::read_to_string(&file)
                    .map_err(|e| format!("read {}: {e}", file.display()))?;
                sources.push((krate.clone(), rel, text));
            }
        }
        let borrowed: Vec<(&str, &str, &str)> = sources
            .iter()
            .map(|(k, f, s)| (k.as_str(), f.as_str(), s.as_str()))
            .collect();
        Ok(Self::from_sources(&borrowed))
    }

    /// Builds a model from in-memory sources: `(crate, file, text)`.
    /// This is what the lint-oracle fixtures use.
    pub fn from_sources(sources: &[(&str, &str, &str)]) -> WorkspaceModel {
        let mut model = WorkspaceModel::default();
        for (krate, file, text) in sources {
            let parsed = parse_source(krate, file, text);
            model.files += 1;
            model
                .file_loc
                .push((file.to_string(), loc::count_source(text).code));
            model.annotations.extend(parsed.annotations);
            model.type_names.extend(parsed.type_names);
            model.aliases.extend(parsed.aliases);
            for f in parsed.functions {
                let idx = model.functions.len();
                model.by_name.entry(f.name.clone()).or_default().push(idx);
                if f.has_self {
                    model.by_method.entry(f.name.clone()).or_default().push(idx);
                }
                model.by_qname.entry(f.qname.clone()).or_default().push(idx);
                model.functions.push(f);
            }
        }
        model
    }

    /// Indices of every function with this simple name.
    pub fn functions_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Index of the (first) function with this qualified name.
    pub fn find_qname(&self, qname: &str) -> Option<usize> {
        self.by_qname.get(qname).and_then(|v| v.first()).copied()
    }

    /// The functions `call` may reach: for a method call, the same-named
    /// functions taking `self`; for a path call, that impl's functions
    /// when the model has any, and none when the qualifier is a type
    /// foreign to the model; otherwise every same-named function.
    pub fn callees(&self, call: &CallSite) -> &[usize] {
        let found = match &call.kind {
            CallKind::Method => self.by_method.get(&call.name),
            CallKind::Path(ty) => {
                let ty = self.aliases.get(ty).unwrap_or(ty);
                let own = self.by_qname.get(&format!("{ty}::{}", call.name));
                // A module path (`aead::tag`) may name any same-named
                // function; a type the model neither declares nor
                // implements (`Vec`, `OnceLock`, a tuple) names none.
                let foreign = !ty.starts_with(|c: char| c.is_ascii_lowercase())
                    && !self.type_names.contains(ty);
                own.or_else(|| (!foreign).then(|| self.by_name.get(&call.name)).flatten())
            }
            CallKind::Bare => self.by_name.get(&call.name),
        };
        found.map_or(&[], Vec::as_slice)
    }

    /// Total resolved call edges (call tokens that name at least one
    /// function in the model count once per target).
    pub fn call_edge_count(&self) -> usize {
        self.functions
            .iter()
            .flat_map(|f| &f.calls)
            .map(|c| self.callees(c).len())
            .sum()
    }

    /// Breadth-first reachability over call edges from `seeds`,
    /// returning `reached index -> parent index` (seeds map to
    /// themselves).
    pub fn reachable(&self, seeds: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &s in seeds {
            if parent.insert(s, s).is_none() {
                queue.push(s);
            }
        }
        while let Some(cur) = queue.pop() {
            for call in &self.functions[cur].calls {
                for &next in self.callees(call) {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(next) {
                        e.insert(cur);
                        queue.push(next);
                    }
                }
            }
        }
        parent
    }

    /// Reconstructs the qname chain seed → ... → `target` from a
    /// [`reachable`](Self::reachable) parent map.
    pub fn path_to(&self, parents: &BTreeMap<usize, usize>, target: usize) -> Vec<String> {
        let mut chain = vec![target];
        let mut cur = target;
        while let Some(&p) = parents.get(&cur) {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
            .into_iter()
            .map(|i| self.functions[i].qname.clone())
            .collect()
    }
}

/// Parses one file's text into production functions + annotations.
pub fn parse_source(krate: &str, file: &str, src: &str) -> ParsedFile {
    let stripped = lex::strip_noncode(src);
    let classes = loc::classify_lines(src);
    let file_panics = static_audit::panic_occurrences(&stripped, &classes);
    let annotations = scan_annotations(file, src);
    let bytes = stripped.as_bytes();

    let mut out = ParsedFile {
        annotations,
        ..ParsedFile::default()
    };
    let mut i = 0usize;
    let mut depth: i64 = 0;
    // (depth the block opened at, impl'd type name)
    let mut impls: Vec<(i64, String)> = Vec::new();
    let mut pending_impl: Option<String> = None;

    while i < bytes.len() {
        let b = bytes[i];
        if b == b'{' {
            if let Some(name) = pending_impl.take() {
                impls.push((depth, name));
            }
            depth += 1;
            i += 1;
        } else if b == b'}' {
            depth -= 1;
            if impls.last().is_some_and(|(d, _)| *d >= depth) {
                impls.pop();
            }
            i += 1;
        } else if b == b';' {
            pending_impl = None;
            i += 1;
        } else if b.is_ascii_alphabetic() || b == b'_' {
            let (word, j) = read_ident(&stripped, i);
            if word == "impl" {
                let (name, trait_name, stop) = impl_header(&stripped, j);
                out.type_names
                    .extend(name.iter().chain(&trait_name).cloned());
                pending_impl = name;
                i = stop;
            } else if matches!(word, "struct" | "enum" | "union" | "trait") {
                let (name, stop) = read_ident(&stripped, skip_ws(bytes, j));
                if name.starts_with(|c: char| c.is_ascii_uppercase()) {
                    out.type_names.push(name.to_string());
                }
                i = stop.max(j);
            } else if word == "type" {
                let (name, stop) = read_ident(&stripped, skip_ws(bytes, j));
                let decl = stripped[stop..].split(';').next().unwrap_or("");
                if let Some((_, target)) = decl.split_once('=') {
                    let target = simple_name(target).unwrap_or_default();
                    out.aliases.push((name.to_string(), target));
                }
                i = stop.max(j);
            } else if word == "fn" {
                let ctx = impls.last().map(|(_, n)| n.as_str());
                match parse_fn(
                    &stripped,
                    &classes,
                    i,
                    j,
                    ctx,
                    krate,
                    file,
                    &file_panics,
                    &out.annotations,
                ) {
                    FnOutcome::Item(func, resume) => {
                        out.functions.push(*func);
                        i = resume;
                    }
                    FnOutcome::Skip(resume) => i = resume.max(j),
                }
            } else {
                i = j;
            }
        } else {
            i += 1;
        }
    }
    out
}

fn scan_annotations(file: &str, src: &str) -> Vec<Annotation> {
    let mut out = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        if let Some(comment) = raw.split_once("//").map(|(_, c)| c) {
            if let Some(rest) = comment.split(RELAXED_OK_MARKER).nth(1) {
                out.push(Annotation {
                    file: file.to_string(),
                    line: idx + 1,
                    reason: rest.trim().to_string(),
                });
            }
        }
    }
    out
}

/// Extracts the simple names of the implemented type and, for a trait
/// impl, of the trait from an `impl` header, and returns the offset of
/// the body `{` (not consumed).
fn impl_header(stripped: &str, from: usize) -> (Option<String>, Option<String>, usize) {
    let bytes = stripped.as_bytes();
    let mut header = String::new();
    let mut i = from;
    let mut angle = 0i64;
    while i < bytes.len() {
        match bytes[i] {
            b'{' if angle == 0 => break,
            b';' if angle == 0 => return (None, None, i),
            b'<' => angle += 1,
            b'>' => angle = (angle - 1).max(0),
            b'-' if bytes.get(i + 1) == Some(&b'>') => {
                header.push_str("->");
                i += 2;
                continue;
            }
            _ => {}
        }
        header.push(bytes[i] as char);
        i += 1;
    }
    // `impl<...> Trait for Type<...>` takes the segment after `for`;
    // plain `impl Type` takes the whole header.
    let (trait_seg, target) = match header.rfind(" for ") {
        Some(pos) => (Some(&header[..pos]), &header[pos + 5..]),
        None => (None, header.as_str()),
    };
    let trait_name = trait_seg.map(skip_impl_generics).and_then(simple_name);
    (simple_name(target), trait_name, i)
}

/// The trait segment of an impl header after the impl's own generics
/// (`<T: Bound<U>> Trait` → ` Trait`).
fn skip_impl_generics(segment: &str) -> &str {
    let segment = segment.trim_start();
    if !segment.starts_with('<') {
        return segment;
    }
    let bytes = segment.as_bytes();
    let mut depth = 0usize;
    let mut k = 0;
    while k < bytes.len() {
        match bytes[k] {
            b'-' if bytes.get(k + 1) == Some(&b'>') => k += 1,
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return &segment[k + 1..];
                }
            }
            _ => {}
        }
        k += 1;
    }
    ""
}

/// `path::Name<Args>` → `Name`; `None` when no identifier leads.
fn simple_name(segment: &str) -> Option<String> {
    let segment = segment.trim();
    let segment = segment.split('<').next().unwrap_or(segment);
    let segment = segment.rsplit("::").next().unwrap_or(segment).trim();
    let name = segment
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>();
    (!name.is_empty()).then_some(name)
}

enum FnOutcome {
    Item(Box<Function>, usize),
    Skip(usize),
}

#[allow(clippy::too_many_arguments)]
fn parse_fn(
    stripped: &str,
    classes: &[LineClass],
    kw_pos: usize,
    after_kw: usize,
    impl_ctx: Option<&str>,
    krate: &str,
    file: &str,
    file_panics: &[(String, usize)],
    annotations: &[Annotation],
) -> FnOutcome {
    let bytes = stripped.as_bytes();
    let mut i = skip_ws(bytes, after_kw);
    let (name, after_name) = read_ident(stripped, i);
    if name.is_empty() {
        return FnOutcome::Skip(after_kw);
    }
    i = skip_ws(bytes, after_name);
    if bytes.get(i) == Some(&b'<') {
        i = skip_angles(bytes, i);
        i = skip_ws(bytes, i);
    }
    if bytes.get(i) != Some(&b'(') {
        return FnOutcome::Skip(i);
    }
    let Some(params_end) = match_delim(bytes, i, b'(', b')') else {
        return FnOutcome::Skip(bytes.len());
    };
    let params = stripped[i + 1..params_end].trim();

    // Body `{`, or `;` for a bodiless trait declaration.
    let mut j = params_end + 1;
    let body_open = loop {
        match bytes.get(j) {
            None => return FnOutcome::Skip(bytes.len()),
            Some(b'{') => break j,
            Some(b';') => return FnOutcome::Skip(j + 1),
            Some(b'(') | Some(b'[') => {
                // Tuple/array return types.
                let open = bytes[j];
                let close = if open == b'(' { b')' } else { b']' };
                match match_delim(bytes, j, open, close) {
                    Some(end) => j = end + 1,
                    None => return FnOutcome::Skip(bytes.len()),
                }
            }
            Some(_) => j += 1,
        }
    };
    let Some(body_close) = match_delim(bytes, body_open, b'{', b'}') else {
        return FnOutcome::Skip(bytes.len());
    };
    let resume = body_close + 1;

    let line = lex::line_of(stripped, kw_pos);
    if classes.get(line - 1) == Some(&LineClass::Excluded) {
        return FnOutcome::Skip(resume);
    }

    let qname = match impl_ctx {
        Some(ctx) => format!("{ctx}::{name}"),
        None => name.to_string(),
    };
    let mut func = Function {
        krate: krate.to_string(),
        file: file.to_string(),
        name: name.to_string(),
        qname,
        line,
        is_pub: is_pub_before(bytes, kw_pos),
        has_mut_self: params.starts_with("&mut self")
            || params
                .split(',')
                .next()
                .is_some_and(|p| p.trim() == "&mut self"),
        has_self: takes_self(params),
        calls: Vec::new(),
        locks: Vec::new(),
        releases: Vec::new(),
        atomics: Vec::new(),
        panics: Vec::new(),
    };
    scan_body(stripped, body_open, body_close, &mut func, annotations);
    // Debug-only statements inside a shipped function.
    let shipped = |line: usize| classes.get(line - 1) != Some(&LineClass::Excluded);
    func.calls.retain(|c| shipped(c.line));
    func.locks.retain(|l| shipped(l.line));
    func.atomics.retain(|a| shipped(a.line));

    let first = lex::line_of(stripped, body_open);
    let last = lex::line_of(stripped, body_close);
    func.panics = file_panics
        .iter()
        .filter(|(_, l)| *l >= first && *l <= last)
        .map(|(c, l)| PanicSite {
            construct: c.clone(),
            line: *l,
        })
        .collect();
    FnOutcome::Item(Box::new(func), resume)
}

/// True when the tokens before `fn` include a `pub` qualifier
/// (`pub`, `pub(crate)`, `pub(super)`, ...).
fn is_pub_before(bytes: &[u8], kw_pos: usize) -> bool {
    let mut i = kw_pos;
    // Walk back over qualifier words (`const`, `async`, `unsafe` never
    // appears in TCB code but costs nothing) until something that is
    // not a qualifier.
    for _ in 0..4 {
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i == 0 {
            return false;
        }
        if bytes[i - 1] == b')' {
            // `pub(crate)` etc: skip back to the matching `(`.
            let mut depth = 0usize;
            while i > 0 {
                i -= 1;
                match bytes[i] {
                    b')' => depth += 1,
                    b'(' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            continue;
        }
        if !lex::is_ident_byte(bytes[i - 1]) {
            return false;
        }
        let end = i;
        while i > 0 && lex::is_ident_byte(bytes[i - 1]) {
            i -= 1;
        }
        match &bytes[i..end] {
            b"pub" => return true,
            b"const" | b"async" | b"extern" => continue,
            _ => return false,
        }
    }
    false
}

fn scan_body(
    stripped: &str,
    open: usize,
    close: usize,
    func: &mut Function,
    annotations: &[Annotation],
) {
    let bytes = stripped.as_bytes();
    let mut i = open + 1;
    let mut brace_stack: Vec<usize> = vec![open];
    while i < close {
        let b = bytes[i];
        if b == b'{' {
            brace_stack.push(i);
            i += 1;
        } else if b == b'}' {
            let opened_at = brace_stack.pop().unwrap_or(open);
            for l in func.locks.iter_mut() {
                if l.scope_end == usize::MAX && l.offset > opened_at {
                    l.scope_end = i;
                }
            }
            i += 1;
        } else if b.is_ascii_alphabetic() || b == b'_' {
            let (word, j) = read_ident(stripped, i);
            let k = skip_ws(bytes, j);
            if bytes.get(k) == Some(&b'!') {
                // Macro invocation; panic macros are collected by the
                // shared construct scanner, other macros' arguments are
                // scanned as ordinary tokens.
                i = j;
                continue;
            }
            // Optional turbofish between name and argument list.
            let mut call_at = k;
            if stripped[call_at..].starts_with("::<") {
                call_at = skip_angles(bytes, call_at + 2);
                call_at = skip_ws(bytes, call_at);
            }
            if bytes.get(call_at) == Some(&b'(') && !KEYWORDS.contains(&word) {
                handle_call(stripped, func, word, i, call_at, annotations);
            } else if LOCK_HELPERS.contains(&word) {
                // Bare function reference: `.map(mutex_lock)`.
                record_lock(stripped, func, word, i, None);
            }
            i = j;
        } else {
            i += 1;
        }
    }
    for l in func.locks.iter_mut() {
        if l.scope_end == usize::MAX {
            l.scope_end = close;
        }
    }
}

fn handle_call(
    stripped: &str,
    func: &mut Function,
    word: &str,
    ident_pos: usize,
    paren_open: usize,
    annotations: &[Annotation],
) {
    let bytes = stripped.as_bytes();
    let paren_close = match_delim(bytes, paren_open, b'(', b')').unwrap_or(bytes.len() - 1);
    let args = stripped[paren_open + 1..paren_close].trim().to_string();
    let line = lex::line_of(stripped, ident_pos);

    func.calls.push(CallSite {
        name: word.to_string(),
        kind: call_kind(bytes, ident_pos, &func.qname),
        line,
        offset: ident_pos,
    });

    if word == "drop" && !args.is_empty() && args.bytes().all(lex::is_ident_byte) {
        func.releases.push(ReleaseSite {
            var: args.clone(),
            offset: ident_pos,
        });
    }

    if LOCK_HELPERS.contains(&word) {
        record_lock(
            stripped,
            func,
            word,
            ident_pos,
            Some((paren_close, args.clone())),
        );
    }

    if ATOMIC_METHODS.contains(&word) && args.contains("Ordering::") {
        if let Some(field) = receiver_before(bytes, ident_pos) {
            let orderings = extract_orderings(&args);
            if !orderings.is_empty() {
                let annotation = annotations
                    .iter()
                    .find(|a| a.file == func.file && (a.line == line || a.line + 1 == line))
                    .map(|a| a.reason.clone());
                func.atomics.push(AtomicSite {
                    field,
                    method: word.to_string(),
                    orderings,
                    line,
                    annotation,
                });
            }
        }
    }
}

/// True when a parameter list opens with a `self` receiver: `self`,
/// `mut self`, `&self`, `&'a mut self`, `self: Box<Self>`, ...
fn takes_self(params: &str) -> bool {
    let first = params.split(',').next().unwrap_or("").trim();
    let mut rest = first.strip_prefix('&').unwrap_or(first).trim_start();
    if rest.starts_with('\'') {
        rest = rest
            .split_once(char::is_whitespace)
            .map_or("", |(_, r)| r)
            .trim_start();
    }
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    rest == "self" || rest.starts_with("self:") || rest.starts_with("self ")
}

/// Classifies the call whose callee identifier starts at `ident_pos`
/// inside the function `caller_qname`: a `.` before it makes a method
/// call, a `Qualifier::` a path call (`Self` becomes the caller's impl
/// type).
fn call_kind(bytes: &[u8], ident_pos: usize, caller_qname: &str) -> CallKind {
    let mut i = ident_pos;
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i > 0 && bytes[i - 1] == b'.' {
        return CallKind::Method;
    }
    if i < 2 || &bytes[i - 2..i] != b"::" {
        return CallKind::Bare;
    }
    let end = i - 2;
    let mut start = end;
    while start > 0 && lex::is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    let qualifier = String::from_utf8_lossy(&bytes[start..end]).into_owned();
    if qualifier == "Self" {
        return match caller_qname.rsplit_once("::") {
            Some((ty, _)) => CallKind::Path(ty.to_string()),
            None => CallKind::Bare,
        };
    }
    if qualifier.is_empty() {
        CallKind::Bare
    } else {
        CallKind::Path(qualifier)
    }
}

/// Records one lock-helper use. `call` is `(close paren, args)` for the
/// call form, `None` for the bare fn-reference form.
fn record_lock(
    stripped: &str,
    func: &mut Function,
    helper: &str,
    ident_pos: usize,
    call: Option<(usize, String)>,
) {
    let bytes = stripped.as_bytes();
    let stmt_start = statement_start(bytes, ident_pos);
    let context = stripped[stmt_start..ident_pos].trim().to_string();
    let after_pos = match &call {
        Some((close, _)) => close + 1,
        None => ident_pos + helper.len(),
    };
    let mut stmt_end = after_pos;
    while stmt_end < bytes.len() && bytes[stmt_end] != b';' {
        stmt_end += 1;
    }
    let after = stripped[after_pos..stmt_end].trim();

    let is_let = context == "let" || context.starts_with("let ") || context.starts_with("let\n");
    let rest_after_eq = context
        .split_once('=')
        .map(|(_, r)| r.trim().to_string())
        .unwrap_or_default();
    // Guards collected through an iterator chain
    // (`.map(|s| mutex_lock(..)).collect()`) are held by the bound `Vec`.
    let collected = context.contains(".map(") || after.contains(".collect()");
    let bound = is_let && (collected || (rest_after_eq.is_empty() && after.is_empty()));
    let binding = if bound {
        let mut it = context.split_whitespace().skip(1); // past `let`
        let mut first = it.next().unwrap_or("");
        if first == "mut" {
            first = it.next().unwrap_or("");
        }
        let ident: String = first
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        (!ident.is_empty()).then_some(ident)
    } else {
        None
    };

    func.locks.push(LockSite {
        helper: helper.to_string(),
        arg: call.map(|(_, a)| a).unwrap_or_default(),
        context,
        line: lex::line_of(stripped, ident_pos),
        offset: ident_pos,
        scope_end: if bound { usize::MAX } else { ident_pos },
        bound,
        binding,
    });
}

/// The identifier left of the `.` before a method call, stepping over
/// an index expression (`self.slots[i].store` → `slots`).
fn receiver_before(bytes: &[u8], ident_pos: usize) -> Option<String> {
    let mut i = ident_pos;
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i == 0 || bytes[i - 1] != b'.' {
        return None;
    }
    i -= 1; // at the dot
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i > 0 && bytes[i - 1] == b']' {
        let mut depth = 0usize;
        while i > 0 {
            i -= 1;
            match bytes[i] {
                b']' => depth += 1,
                b'[' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let end = i;
    while i > 0 && lex::is_ident_byte(bytes[i - 1]) {
        i -= 1;
    }
    (i < end).then(|| String::from_utf8_lossy(&bytes[i..end]).into_owned())
}

fn extract_orderings(args: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = args;
    while let Some(pos) = rest.find("Ordering::") {
        let after = &rest[pos + "Ordering::".len()..];
        let name: String = after
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            out.push(name);
        }
        rest = after;
    }
    out
}

/// Scans back from `pos` to just after the previous `;`, `{`, `}`, or
/// `=>` — the start of the enclosing statement.
fn statement_start(bytes: &[u8], pos: usize) -> usize {
    let mut i = pos;
    while i > 0 {
        match bytes[i - 1] {
            b';' | b'{' | b'}' => return i,
            b'>' if i >= 2 && bytes[i - 2] == b'=' => return i,
            _ => i -= 1,
        }
    }
    0
}

fn read_ident(stripped: &str, i: usize) -> (&str, usize) {
    let bytes = stripped.as_bytes();
    let mut j = i;
    while j < bytes.len() && lex::is_ident_byte(bytes[j]) {
        j += 1;
    }
    (&stripped[i..j], j)
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Matches `open` at `at` to its closing `close`, returning the close
/// offset. `None` when unterminated.
fn match_delim(bytes: &[u8], at: usize, open: u8, close: u8) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = at;
    while i < bytes.len() {
        if bytes[i] == open {
            depth += 1;
        } else if bytes[i] == close {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Skips a `<...>` generic/turbofish group starting at `<`, tolerant of
/// `->` inside `Fn` bounds.
fn skip_angles(bytes: &[u8], at: usize) -> usize {
    let mut depth = 0i64;
    let mut i = at;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'-' if bytes.get(i + 1) == Some(&b'>') => {
                i += 2;
                continue;
            }
            b'>' => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> WorkspaceModel {
        WorkspaceModel::from_sources(&[("core", "crates/core/src/x.rs", src)])
    }

    #[test]
    fn parses_fns_with_impl_context_and_visibility() {
        let m = model(
            "impl Engine {\n\
                 pub fn go(&mut self, x: u8) -> u8 { helper(x) }\n\
                 fn helper(x: u8) -> u8 { x }\n\
             }\n\
             pub(crate) fn free() {}\n",
        );
        assert_eq!(m.functions.len(), 3);
        let go = &m.functions[m.find_qname("Engine::go").unwrap()];
        assert!(go.is_pub && go.has_mut_self);
        assert_eq!(go.calls.len(), 1);
        assert_eq!(go.calls[0].name, "helper");
        let free = &m.functions[m.find_qname("free").unwrap()];
        assert!(free.is_pub);
        assert!(!m.functions[m.find_qname("Engine::helper").unwrap()].is_pub);
    }

    #[test]
    fn impl_trait_for_type_attributes_to_the_type() {
        let m = model("impl fmt::Display for Finding {\n    fn fmt(&self) {}\n}\n");
        assert!(m.find_qname("Finding::fmt").is_some());
    }

    #[test]
    fn test_functions_are_excluded() {
        let m = model(
            "fn prod() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { prod(); }\n\
             }\n",
        );
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.functions[0].name, "prod");
    }

    #[test]
    fn let_bound_guard_scope_and_temporary() {
        let src = "fn f(&self) {\n\
                       {\n\
                           let cached = mutex_lock(&self.snap);\n\
                           use_it(&cached);\n\
                       }\n\
                       let g = read_lock(&self.engine);\n\
                       f(&mutex_lock(&self.other));\n\
                   }\n";
        let m = model(src);
        let f = &m.functions[0];
        assert_eq!(f.locks.len(), 3);
        let cached = &f.locks[0];
        assert!(cached.bound);
        assert_eq!(cached.binding.as_deref(), Some("cached"));
        // Scope ends at the inner block's close, before lock 2's offset.
        assert!(cached.scope_end < f.locks[1].offset);
        let g = &f.locks[1];
        assert!(g.bound && g.scope_end > f.locks[2].offset);
        let temp = &f.locks[2];
        assert!(!temp.bound);
    }

    #[test]
    fn take_through_guard_is_a_temporary() {
        let src = "fn f(&self) {\n\
                       let events = std::mem::take(&mut *lock_mutex(&self.shared.log));\n\
                       use_it(events);\n\
                   }\n";
        let m = model(src);
        assert!(
            !m.functions[0].locks[0].bound,
            "guard inside take() is a temporary"
        );
    }

    #[test]
    fn collected_map_guards_are_bound() {
        let src = "fn f(&self) {\n\
                       let mut idx: Vec<usize> = ds.iter().map(shard_of).collect();\n\
                       idx.sort_unstable();\n\
                       idx.dedup();\n\
                       let _guards: Vec<MutexGuard<()>> = idx.iter().map(|i| mutex_lock(&self.shards[*i])).collect();\n\
                       let mut eng = write_lock(&self.engine);\n\
                   }\n";
        let m = model(src);
        let f = &m.functions[0];
        let shard = f.locks.iter().find(|l| l.arg.contains("shards")).unwrap();
        assert!(shard.bound);
        assert_eq!(shard.binding.as_deref(), Some("_guards"));
    }

    #[test]
    fn bare_fn_reference_lock_is_recorded() {
        let src = "fn f(&self) {\n\
                       let _g: Vec<MutexGuard<()>> = idx.into_iter().filter_map(|i| self.shards.get(i)).map(mutex_lock).collect();\n\
                   }\n";
        let m = model(src);
        let f = &m.functions[0];
        assert_eq!(f.locks.len(), 1);
        assert!(f.locks[0].bound);
        assert!(f.locks[0].context.contains("shards"));
    }

    #[test]
    fn atomics_capture_field_ordering_and_annotation() {
        let src = "fn f(&self) {\n\
                       self.live_gen.store(g, Ordering::Release);\n\
                       // verify: relaxed-ok monotonic counter, no payload\n\
                       let s = self.seq.fetch_add(1, Ordering::Relaxed);\n\
                       self.slots[i].store(0, Ordering::Relaxed);\n\
                   }\n";
        let m = model(src);
        let f = &m.functions[0];
        assert_eq!(f.atomics.len(), 3);
        assert_eq!(f.atomics[0].field, "live_gen");
        assert_eq!(f.atomics[0].orderings, vec!["Release"]);
        assert!(f.atomics[0].annotation.is_none());
        assert_eq!(f.atomics[1].field, "seq");
        assert!(f.atomics[1]
            .annotation
            .as_deref()
            .unwrap()
            .contains("monotonic"));
        assert_eq!(f.atomics[2].field, "slots");
    }

    #[test]
    fn panic_sites_attributed_to_their_function() {
        let src = "fn a(x: Option<u8>) { x.unwrap(); }\nfn b(v: &[u8]) -> u8 { v[0] }\n";
        let m = model(src);
        let a = &m.functions[0];
        assert_eq!(a.panics.len(), 1);
        assert_eq!(a.panics[0].construct, "unwrap()");
        let b = &m.functions[1];
        assert_eq!(b.panics.len(), 1);
        assert_eq!(b.panics[0].construct, "index[");
    }

    #[test]
    fn drop_releases_are_recorded() {
        let src = "fn f(&self) {\n\
                       let g = write_lock(&self.inner);\n\
                       drop(g);\n\
                       let h = mutex_lock(&self.snap);\n\
                   }\n";
        let m = model(src);
        let f = &m.functions[0];
        assert_eq!(f.releases.len(), 1);
        assert_eq!(f.releases[0].var, "g");
        assert!(f.releases[0].offset > f.locks[0].offset);
        assert!(f.releases[0].offset < f.locks[1].offset);
    }

    #[test]
    fn impl_headers_and_declarations_name_model_types() {
        let parsed = parse_source(
            "core",
            "crates/core/src/x.rs",
            "impl<F: Fn() -> u8, T: Bound<U>> ops::Trait<T> for Foo<T> where T: Copy {}\n\
             impl Bar {}\n\
             pub struct Baz;\n\
             enum Qux { A }\n\
             pub type View = std::collections::BTreeMap<u64, u8>;\n\
             type Key = (u8, u64);\n",
        );
        assert_eq!(parsed.type_names, ["Foo", "Trait", "Bar", "Baz", "Qux"]);
        assert_eq!(
            parsed.aliases,
            [
                ("View".to_string(), "BTreeMap".to_string()),
                ("Key".to_string(), String::new())
            ]
        );
    }

    #[test]
    fn call_kinds_and_self_receivers() {
        let m = model(
            "impl T {\n\
                 fn a(&'a mut self) { self.b(); x.c(); Self::d(); aead::e(); f(); }\n\
                 fn d(n: u8) {}\n\
             }\n\
             fn g(self: Box<Self>) {}\n",
        );
        let a = &m.functions[m.find_qname("T::a").unwrap()];
        let kinds: Vec<(&str, CallKind)> = a
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.kind.clone()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("b", CallKind::Method),
                ("c", CallKind::Method),
                ("d", CallKind::Path("T".into())),
                ("e", CallKind::Path("aead".into())),
                ("f", CallKind::Bare),
            ]
        );
        assert!(a.has_self && m.functions[m.find_qname("g").unwrap()].has_self);
        assert!(!m.functions[m.find_qname("T::d").unwrap()].has_self);
    }

    #[test]
    fn reachability_and_paths() {
        let src = "fn entry() { mid(); }\nfn mid() { leaf(); }\nfn leaf(v: &[u8]) -> u8 { v[9] }\nfn lonely() {}\n";
        let m = model(src);
        let entry = m.find_qname("entry").unwrap();
        let parents = m.reachable(&[entry]);
        let leaf = m.find_qname("leaf").unwrap();
        assert!(parents.contains_key(&leaf));
        assert!(!parents.contains_key(&m.find_qname("lonely").unwrap()));
        assert_eq!(m.path_to(&parents, leaf), vec!["entry", "mid", "leaf"]);
    }
}
