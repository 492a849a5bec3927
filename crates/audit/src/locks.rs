//! The lock-discipline pass: checks every `Mutex`/`RwLock`/`Condvar`
//! acquisition site in the concurrency-bearing modules against the
//! declared lock hierarchy of DESIGN.md §15.
//!
//! Three rules (each with its own waiver key, enforced through the same
//! waiver machinery as the lexical rules in [`crate::rules`]):
//!
//! * **lock-order** (`lock-order-ok`) — a thread must acquire locks in
//!   strictly ascending rank order. Every acquisition site must name a
//!   lock declared in the hierarchy table; acquiring a lower- or
//!   equal-ranked lock while a higher one is held is a potential
//!   deadlock edge. The union of observed edges (waived or not) must be
//!   acyclic — a cycle is never waivable, since individually-reasonable
//!   waivers can compose into a deadlock.
//! * **lock-blocking** (`lock-blocking-ok`) — no blocking operation
//!   (TCP frame I/O, file I/O, channel recv, `JoinHandle::join`,
//!   `thread::sleep`, `Condvar::wait` on a foreign lock) while a lock
//!   is held, directly or via a call to a function that blocks.
//! * **lock-guard** (`lock-guard-ok`) — guard-lifetime hygiene: a guard
//!   bound with `let _ = …` drops immediately (the critical section is
//!   empty), and `.lock().unwrap()` treats a guard as a `Result`.
//!
//! The analysis is lexical but stateful: it tracks guard scopes from
//! binding to drop (brace depth, explicit `drop(g)`, temporaries to
//! statement end, scrutinee temporaries to the end of their block) and
//! is inter-procedural one workspace at a time — every function in the
//! scoped files gets a summary of the locks it may acquire and the
//! blocking operations it may perform, propagated to a fixpoint over
//! call sites whose callee name resolves unambiguously.

use crate::lexer::FileScan;
use crate::rules::statement_end;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One row of the DESIGN.md §15 hierarchy table.
#[derive(Debug, Clone)]
pub struct LockDef {
    /// Rank in the total acquisition order (strictly ascending).
    pub rank: u16,
    /// Hierarchy name, e.g. `dataset.inner`.
    pub name: String,
    /// Repo-relative path prefix of the file(s) whose sites this row
    /// covers.
    pub file_prefix: String,
    /// Field / binding names that identify the lock at its acquisition
    /// sites (`self.<field>.lock()`, `<binding>.lock()`).
    pub fields: Vec<String>,
    /// Lock names this lock may be acquired while holding (the
    /// "acquired while holding" column), checked for rank consistency.
    pub nests_inside: Vec<String>,
    /// 1-based line of the row in DESIGN.md (for error reports).
    pub row_line: usize,
}

/// One lock-discipline finding, before waiver resolution (which happens
/// in [`crate::rules::check_file`] so waiver hygiene stays unified).
#[derive(Debug, Clone)]
pub struct Finding {
    /// 1-based line of the finding.
    pub line: usize,
    /// Rule id (`lock-order`, `lock-blocking`, `lock-guard`).
    pub rule: &'static str,
    /// Waiver key that can suppress it.
    pub key: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// Files the lock pass scans (path prefixes, repo-relative).
pub const LOCK_SCOPES: &[&str] = &[
    "crates/mapreduce/src/service.rs",
    "crates/mapreduce/src/engine.rs",
    "crates/mapreduce/src/pool.rs",
    "crates/mapreduce/src/dataset.rs",
    "crates/mapreduce/src/dag.rs",
    "crates/mapreduce/src/kernel.rs",
    "crates/mapreduce/src/distrib/",
    "crates/cli/src/serve.rs",
];

/// Whether the lock pass scans this repo-relative path.
pub fn in_lock_scope(path: &str) -> bool {
    LOCK_SCOPES.iter().any(|s| path.starts_with(s))
}

// ------------------------------------------------------ hierarchy ---

/// Parses the `§15` hierarchy table out of DESIGN.md: rows of
/// `| <rank> | `name` | `file` | `field`[, `field`] | ... | <names> |`.
/// Returns the defs and any consistency problems with the table itself.
pub fn load_hierarchy(design: &Path) -> Result<(Vec<LockDef>, Vec<String>), String> {
    let text = std::fs::read_to_string(design)
        .map_err(|e| format!("cannot read {}: {e}", design.display()))?;
    let mut defs = Vec::new();
    let mut in_section = false;
    for (idx, line) in text.lines().enumerate() {
        if line.starts_with("## ") {
            in_section = line.contains("Lock hierarchy");
            continue;
        }
        if !in_section || !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
        if cells.len() < 5 {
            continue;
        }
        let Ok(rank) = cells[0].trim().parse::<u16>() else {
            continue; // header or separator row
        };
        let name = backticked(cells[1]).into_iter().next().unwrap_or_default();
        let file_prefix = backticked(cells[2]).into_iter().next().unwrap_or_default();
        let fields = backticked(cells[3]);
        let nests_inside = backticked(cells[cells.len() - 1]);
        if name.is_empty() || file_prefix.is_empty() || fields.is_empty() {
            return Err(format!(
                "DESIGN.md:{}: malformed hierarchy row (need backticked \
                 lock name, file, and at least one field)",
                idx + 1
            ));
        }
        defs.push(LockDef {
            rank,
            name,
            file_prefix,
            fields,
            nests_inside,
            row_line: idx + 1,
        });
    }
    if defs.is_empty() {
        return Err("DESIGN.md has no `Lock hierarchy` table (§15)".to_string());
    }
    let mut problems = Vec::new();
    let by_name: BTreeMap<&str, &LockDef> = defs.iter().map(|d| (d.name.as_str(), d)).collect();
    let mut ranks_seen: BTreeMap<u16, &str> = BTreeMap::new();
    for def in &defs {
        if let Some(other) = ranks_seen.insert(def.rank, &def.name) {
            problems.push(format!(
                "DESIGN.md:{}: rank {} assigned to both `{}` and `{}`",
                def.row_line, def.rank, other, def.name
            ));
        }
        for inside in &def.nests_inside {
            match by_name.get(inside.as_str()) {
                None => problems.push(format!(
                    "DESIGN.md:{}: `{}` claims to nest inside unknown lock `{}`",
                    def.row_line, def.name, inside
                )),
                Some(outer) if outer.rank >= def.rank => problems.push(format!(
                    "DESIGN.md:{}: `{}` (rank {}) claims to nest inside `{}` \
                     (rank {}) — declared nesting must be ascending",
                    def.row_line, def.name, def.rank, inside, outer.rank
                )),
                Some(_) => {}
            }
        }
    }
    Ok((defs, problems))
}

fn backticked(cell: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = cell;
    while let Some(start) = rest.find('`') {
        let Some(len) = rest[start + 1..].find('`') else {
            break;
        };
        out.push(rest[start + 1..start + 1 + len].to_string());
        rest = &rest[start + 1 + len + 1..];
    }
    out
}

// ------------------------------------------------------- analysis ---

/// A lock acquisition site found in one file.
#[derive(Debug, Clone)]
struct Site {
    line: usize,
    /// Index into the defs table, or None if undeclared.
    def: Option<usize>,
    /// Receiver's final identifier (for messages on undeclared locks).
    recv: String,
    /// Guard binding name, if bound with `let <name> = …`.
    binder: Option<String>,
    /// Last line (inclusive) the guard is provably held.
    end_line: usize,
}

/// Blocking tokens: operations that can park the thread indefinitely or
/// for I/O. Matched against the blanked code stream.
const BLOCKING: &[(&str, &str)] = &[
    ("read_frame(", "TCP frame read"),
    ("write_frame(", "TCP frame write"),
    (".read_exact(", "socket/file read"),
    (".write_all(", "socket/file write"),
    (".flush()", "stream flush"),
    (".recv()", "channel recv"),
    (".recv_timeout(", "channel recv"),
    (".join()", "JoinHandle::join"),
    ("thread::sleep(", "thread::sleep"),
    (".accept()", "TcpListener::accept"),
    ("TcpStream::connect", "TCP connect"),
    ("File::open(", "file open"),
    ("File::create(", "file create"),
    ("fs::read", "file read"),
    ("fs::write", "file write"),
];

/// Call-site names never used for summary propagation: too generic to
/// resolve to one function, or std methods that shadow workspace fns.
const CALL_STOPLIST: &[&str] = &[
    "new",
    "default",
    "drop",
    "clone",
    "len",
    "is_empty",
    "fmt",
    "read",
    "write",
    "lock",
    "wait",
    "join",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "take",
    "next",
    "send",
    "recv",
    "spawn",
    "flush",
    "accept",
    "connect",
    "iter",
    "map",
    "filter",
    "collect",
    "unwrap",
    "expect",
    "ok",
    "err",
    "into",
    "from",
    "as_ref",
    "as_mut",
    "to_string",
    "run",
    "main",
    "name",
    "extend",
    "contains",
    "sleep",
    "load",
    "store",
];

/// Per-function facts extracted in pass 1 and closed over calls in
/// pass 2.
#[derive(Debug, Clone, Default)]
struct FnSummary {
    /// Defs (by index) of locks the function may acquire.
    locks: BTreeSet<usize>,
    /// Blocking operations it may perform: description, with call-chain
    /// provenance for propagated entries.
    blocking: BTreeSet<String>,
    /// Callee names invoked from the body.
    calls: BTreeSet<String>,
}

struct FileFacts<'a> {
    path: String,
    scan: &'a FileScan,
    /// `fn` name per body line (1-based), for summary attribution.
    fn_of_line: Vec<Option<String>>,
    sites: Vec<Site>,
}

/// Runs the lock-discipline pass over all scoped files. Returns
/// per-file findings keyed by repo-relative path; global problems
/// (hierarchy table inconsistencies, acquisition-graph cycles) are
/// reported under the pseudo-file `DESIGN.md`.
pub fn analyze(
    defs: &[LockDef],
    table_problems: &[String],
    files: &[(String, &FileScan)],
) -> BTreeMap<String, Vec<Finding>> {
    let mut findings: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for p in table_problems {
        findings
            .entry("DESIGN.md".to_string())
            .or_default()
            .push(Finding {
                line: 1,
                rule: "lock-order",
                key: "lock-order-ok",
                message: p.clone(),
            });
    }

    let facts: Vec<FileFacts> = files
        .iter()
        .filter(|(path, _)| in_lock_scope(path))
        .map(|(path, scan)| extract_facts(defs, path, scan))
        .collect();

    // Pass 2: function summaries to fixpoint. Names must resolve to
    // exactly one function across the scoped files to propagate.
    let mut summaries: BTreeMap<String, FnSummary> = BTreeMap::new();
    let mut ambiguous: BTreeSet<String> = BTreeSet::new();
    for f in &facts {
        for name in f.fn_of_line.iter().flatten() {
            if !summaries.contains_key(name) && !ambiguous.is_empty() && ambiguous.contains(name) {
                continue;
            }
            summaries.entry(name.clone()).or_default();
        }
    }
    // Seed with direct facts.
    for f in &facts {
        collect_direct(f, &mut summaries, &mut ambiguous);
    }
    for name in &ambiguous {
        summaries.remove(name);
    }
    // Fixpoint closure over calls.
    loop {
        let mut changed = false;
        let names: Vec<String> = summaries.keys().cloned().collect();
        for name in &names {
            let calls: Vec<String> = summaries[name].calls.iter().cloned().collect();
            for callee in calls {
                if callee == *name {
                    continue; // trait-dispatch self-name (see extract)
                }
                let Some(cs) = summaries.get(&callee).cloned() else {
                    continue;
                };
                let s = summaries.get_mut(name).unwrap();
                for l in cs.locks {
                    changed |= s.locks.insert(l);
                }
                for b in cs.blocking {
                    let tagged = if b.contains(" via ") {
                        b
                    } else {
                        format!("{b} via `{callee}()`")
                    };
                    changed |= s.blocking.insert(tagged);
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 3: walk each file with the summaries, tracking held guards.
    let mut edges: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    for f in &facts {
        let file_findings = check_file_locks(defs, f, &summaries, &mut edges);
        if !file_findings.is_empty() {
            findings
                .entry(f.path.clone())
                .or_default()
                .extend(file_findings);
        }
    }

    // Acquisition-graph cycle check over every observed edge, waived or
    // not: a cycle is a deadlock recipe no local waiver can justify.
    if let Some(cycle) = find_cycle(defs.len(), &edges) {
        let names: Vec<&str> = cycle.iter().map(|&i| defs[i].name.as_str()).collect();
        findings
            .entry("DESIGN.md".to_string())
            .or_default()
            .push(Finding {
                line: 1,
                rule: "lock-order",
                key: "lock-order-ok",
                message: format!(
                    "acquisition graph contains a cycle: {} — a deadlock is \
                 schedulable; restructure, do not waive",
                    names.join(" -> ")
                ),
            });
    }

    findings
}

fn collect_direct(
    f: &FileFacts,
    summaries: &mut BTreeMap<String, FnSummary>,
    ambiguous: &mut BTreeSet<String>,
) {
    // A name defined in more than one place gets conservative treatment:
    // no propagation (union summaries proved too noisy in practice).
    let mut seen_here: BTreeSet<&String> = BTreeSet::new();
    for (idx, name) in f.fn_of_line.iter().enumerate() {
        let Some(name) = name else { continue };
        let line = idx + 1;
        if seen_here.insert(name) && f.fn_of_line.get(idx.wrapping_sub(1)).is_some() {
            // First body line of this fn in this file: if some other file
            // (or an earlier fn in this one) already claimed the name
            // with a *different* definition, mark ambiguous.
            let is_fn_start = idx == 0 || f.fn_of_line[idx - 1].as_ref() != Some(name);
            if is_fn_start {
                let s = summaries.entry(name.clone()).or_default();
                if s.calls.contains("\u{0}defined") {
                    ambiguous.insert(name.clone());
                } else {
                    s.calls.insert("\u{0}defined".to_string());
                }
            }
        }
        let code = &f.scan.code[idx];
        let summary = summaries.entry(name.clone()).or_default();
        for site in f.sites.iter().filter(|s| s.line == line) {
            if let Some(d) = site.def {
                summary.locks.insert(d);
            }
        }
        for (token, desc) in BLOCKING {
            if code.contains(token) {
                summary
                    .blocking
                    .insert(format!("{desc} (`{}`)", token.trim_end_matches('(')));
            }
        }
        for callee in call_sites(code) {
            summary.calls.insert(callee);
        }
    }
}

/// Extracts identifier call sites (`name(` / `.name(`) not on the
/// stoplist, lowercase-initial (types and variants are constructors),
/// and not macro invocations or `fn` definitions.
fn call_sites(code: &str) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && ((bytes[i] as char).is_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let ident = &code[start..i];
            let next = bytes.get(i).copied().map(|b| b as char);
            let prev_ident = code[..start].trim_end();
            let is_def = prev_ident.ends_with("fn");
            let is_macro = next == Some('!');
            if next == Some('(')
                && !is_def
                && !is_macro
                && ident.chars().next().is_some_and(|c| c.is_lowercase())
                && !CALL_STOPLIST.contains(&ident)
            {
                out.push(ident.to_string());
            }
        } else {
            i += 1;
        }
    }
    out
}

fn extract_facts<'a>(defs: &[LockDef], path: &str, scan: &'a FileScan) -> FileFacts<'a> {
    let n = scan.code.len();
    // Brace depth *after* each line, and the fn owning each line.
    let mut depth_after = vec![0i32; n];
    let mut fn_of_line: Vec<Option<String>> = vec![None; n];
    let mut depth = 0i32;
    // Stack of (fn name, depth at which its body closes).
    let mut fn_stack: Vec<(String, i32)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    for idx in 0..n {
        let line = idx + 1;
        if !scan.is_production(line) {
            depth_after[idx] = depth;
            continue;
        }
        let code = &scan.code[idx];
        if let Some(name) = fn_def_name(code) {
            pending_fn = Some(name);
        }
        let opens = code.matches('{').count() as i32;
        let closes = code.matches('}').count() as i32;
        if opens > 0 {
            if let Some(name) = pending_fn.take() {
                fn_stack.push((name, depth));
            }
        }
        depth += opens - closes;
        while let Some(&(_, d)) = fn_stack.last() {
            if depth <= d {
                fn_stack.pop();
            } else {
                break;
            }
        }
        fn_of_line[idx] = fn_stack.last().map(|(name, _)| name.clone());
        depth_after[idx] = depth;
    }

    let mut sites = Vec::new();
    for idx in 0..n {
        let line = idx + 1;
        if !scan.is_production(line) {
            continue;
        }
        let code = scan.code[idx].clone();
        for (pos, token) in acquisition_tokens(&code) {
            let recv = receiver(scan, idx, pos);
            let field = recv.rsplit('.').next().unwrap_or(&recv);
            let field = field.rsplit("::").next().unwrap_or(field);
            let field = field
                .trim_end_matches("()")
                .split('[')
                .next()
                .unwrap_or(field)
                .to_string();
            let def = resolve(defs, path, &field);
            let after = pos + token.len();
            let chained = next_nonspace(scan, idx, after) == Some('.');
            let trimmed = code.trim_start();
            let binder = if !chained && trimmed.starts_with("let ") {
                let rest = trimmed[4..].trim_start();
                let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                (!name.is_empty()).then_some(name)
            } else {
                None
            };
            let stmt_end = statement_end(scan, line);
            let end_line = if let Some(b) = &binder {
                if b == "_" {
                    stmt_end // `let _ =` drops at once; flagged below
                } else {
                    guard_scope_end(scan, &depth_after, idx, stmt_end, Some(b))
                }
            } else {
                // Temporary: to statement end — unless the statement
                // opens a block (if-let / while-let / for / match
                // scrutinee), where the temporary lives to block close.
                let opens_block =
                    (line..=stmt_end).any(|l| scan.code[l - 1].trim_end().ends_with('{'));
                if opens_block {
                    guard_scope_end(scan, &depth_after, stmt_end - 1, stmt_end, None)
                } else {
                    stmt_end
                }
            };
            sites.push(Site {
                line,
                def,
                recv: field,
                binder,
                end_line,
            });
        }
    }

    FileFacts {
        path: path.to_string(),
        scan,
        fn_of_line,
        sites,
    }
}

/// Positions of `.lock()` / bare `.read()` / `.write()` tokens.
fn acquisition_tokens(code: &str) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for token in [".lock()", ".read()", ".write()"] {
        let mut start = 0;
        while let Some(p) = code[start..].find(token) {
            out.push((start + p, token));
            start += p + token.len();
        }
    }
    out.sort();
    out
}

/// Reconstructs the receiver chain ending at `pos` (the `.` of the
/// acquisition token), walking back across continuation lines.
fn receiver(scan: &FileScan, idx: usize, pos: usize) -> String {
    let mut chain = String::new();
    let mut line = idx;
    let mut chars: Vec<char> = scan.code[line].chars().collect();
    let mut i = byte_to_char(&scan.code[line], pos);
    loop {
        while i > 0 {
            let c = chars[i - 1];
            if c.is_alphanumeric() || c == '_' || c == '.' || c == ':' {
                chain.insert(0, c);
                i -= 1;
            } else if c == ']' || c == ')' {
                // Skip a balanced index / call-argument group.
                let open = if c == ']' { '[' } else { '(' };
                let mut bal = 0i32;
                let mut j = i;
                while j > 0 {
                    let cc = chars[j - 1];
                    if cc == c {
                        bal += 1;
                    } else if cc == open {
                        bal -= 1;
                        if bal == 0 {
                            break;
                        }
                    }
                    j -= 1;
                }
                if j == 0 {
                    return chain; // unbalanced: give up with what we have
                }
                for k in (j - 1..i).rev() {
                    chain.insert(0, chars[k]);
                }
                i = j - 1;
            } else if c.is_whitespace() && chars[..i].iter().all(|c| c.is_whitespace()) {
                // Only indentation left on this line: continuation.
                break;
            } else {
                return chain;
            }
        }
        // Start of line (or its indentation) reached with the chain
        // still open (a rustfmt-wrapped chain like
        // `self.tenants\n    .lock()`): walk into the previous line if
        // the chain so far begins with `.` or is empty.
        if line == 0 || !(chain.is_empty() || chain.starts_with('.')) {
            return chain;
        }
        line -= 1;
        let prev = scan.code[line].trim_end();
        if prev.is_empty() {
            return chain;
        }
        chars = prev.chars().collect();
        i = chars.len();
    }
}

fn byte_to_char(s: &str, byte_pos: usize) -> usize {
    s[..byte_pos].chars().count()
}

/// First non-whitespace char at/after (`idx`, byte `from`), looking up
/// to 3 lines ahead (method chains re-wrapped by rustfmt).
fn next_nonspace(scan: &FileScan, idx: usize, from: usize) -> Option<char> {
    if let Some(c) = scan.code[idx][from..].chars().find(|c| !c.is_whitespace()) {
        return Some(c);
    }
    for l in idx + 1..(idx + 4).min(scan.code.len()) {
        if let Some(c) = scan.code[l].chars().find(|c| !c.is_whitespace()) {
            return Some(c);
        }
    }
    None
}

/// Last line the guard born on `idx` stays held: until brace depth
/// drops below the binding depth, or an explicit `drop(<binder>)`.
fn guard_scope_end(
    scan: &FileScan,
    depth_after: &[i32],
    idx: usize,
    stmt_end: usize,
    binder: Option<&str>,
) -> usize {
    let born_depth = depth_after[idx];
    let mut l = stmt_end + 1;
    while l <= scan.code.len() {
        if !scan.is_production(l) {
            return l - 1;
        }
        if let Some(b) = binder {
            let code = &scan.code[l - 1];
            for pat in [format!("drop({b})"), format!("drop({b});")] {
                if code.contains(pat.as_str()) {
                    return l;
                }
            }
        }
        if depth_after[l - 1] < born_depth {
            return l;
        }
        l += 1;
    }
    scan.code.len()
}

fn resolve(defs: &[LockDef], path: &str, field: &str) -> Option<usize> {
    defs.iter()
        .enumerate()
        .filter(|(_, d)| path.starts_with(&d.file_prefix) && d.fields.iter().any(|f| f == field))
        .max_by_key(|(_, d)| d.file_prefix.len())
        .map(|(i, _)| i)
}

fn fn_def_name(code: &str) -> Option<String> {
    let p = code.find("fn ")?;
    if p > 0 {
        let before = code[..p].chars().next_back();
        if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            return None;
        }
    }
    let rest = &code[p + 3..];
    let name: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Pass 3 for one file: walk lines with the active-guard set, emitting
/// rank-order, blocking-under-lock and guard-hygiene findings.
fn check_file_locks(
    defs: &[LockDef],
    f: &FileFacts,
    summaries: &BTreeMap<String, FnSummary>,
    edges: &mut BTreeSet<(usize, usize, String)>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let scan = f.scan;

    // Guard hygiene is per-site.
    for site in &f.sites {
        let code = &scan.code[site.line - 1];
        if site.binder.as_deref() == Some("_") {
            out.push(Finding {
                line: site.line,
                rule: "lock-guard",
                key: "lock-guard-ok",
                message: format!(
                    "guard of `{}` bound to `_` drops immediately — the \
                     critical section is empty; bind it to a named guard",
                    site_name(defs, site)
                ),
            });
        }
        for tok in [".lock().unwrap()", ".read().unwrap()", ".write().unwrap()"] {
            if code.contains(tok) {
                out.push(Finding {
                    line: site.line,
                    rule: "lock-guard",
                    key: "lock-guard-ok",
                    message: format!(
                        "`{tok}` — `mapreduce::sync` locks hand back a guard, not \
                         a Result; unwrapping a lock hides a poisoned-lock policy"
                    ),
                });
            }
        }
        if site.def.is_none() {
            out.push(Finding {
                line: site.line,
                rule: "lock-order",
                key: "lock-order-ok",
                message: format!(
                    "acquisition of undeclared lock `{}` — every lock must \
                     have a rank in the DESIGN.md §15 hierarchy table",
                    site.recv
                ),
            });
        }
    }

    // Active-guard walk.
    for idx in 0..scan.code.len() {
        let line = idx + 1;
        if !scan.is_production(line) {
            break;
        }
        let held: Vec<&Site> = f
            .sites
            .iter()
            .filter(|s| s.def.is_some() && s.line < line && line <= s.end_line)
            .collect();
        // New acquisitions on this line, checked against what is held.
        for site in f.sites.iter().filter(|s| s.line == line) {
            let Some(d) = site.def else { continue };
            for h in &held {
                let hd = h.def.unwrap();
                edges.insert((hd, d, format!("{}:{}", f.path, line)));
                if defs[hd].rank >= defs[d].rank && hd != d {
                    out.push(Finding {
                        line,
                        rule: "lock-order",
                        key: "lock-order-ok",
                        message: format!(
                            "acquiring `{}` (rank {}) while holding `{}` (rank {}) \
                             — acquisition order must be strictly ascending",
                            defs[d].name, defs[d].rank, defs[hd].name, defs[hd].rank
                        ),
                    });
                } else if hd == d {
                    out.push(Finding {
                        line,
                        rule: "lock-order",
                        key: "lock-order-ok",
                        message: format!(
                            "reacquiring `{}` while already holding it — \
                             self-deadlock on a non-reentrant lock",
                            defs[d].name
                        ),
                    });
                }
            }
        }
        if held.is_empty() {
            continue;
        }
        let code = &scan.code[idx];
        let held_names = || {
            held.iter()
                .map(|h| defs[h.def.unwrap()].name.as_str())
                .collect::<Vec<_>>()
                .join("`, `")
        };
        // Direct blocking tokens under a held lock.
        for (token, desc) in BLOCKING {
            if code.contains(token) {
                out.push(Finding {
                    line,
                    rule: "lock-blocking",
                    key: "lock-blocking-ok",
                    message: format!(
                        "{desc} (`{}`) while holding `{}`",
                        token.trim_end_matches('('),
                        held_names()
                    ),
                });
            }
        }
        // Condvar::wait with a guard argument: waiting is fine on the
        // lock being waited with, a deadlock with any *other* lock held.
        if let Some(p) = code.find(".wait(") {
            let arg: String = code[p + 6..]
                .trim_start_matches(['&', ' '])
                .trim_start_matches("mut ")
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let foreign: Vec<&&Site> = held
                .iter()
                .filter(|h| h.binder.as_deref() != Some(arg.as_str()))
                .collect();
            if !foreign.is_empty() {
                let names = foreign
                    .iter()
                    .map(|h| defs[h.def.unwrap()].name.as_str())
                    .collect::<Vec<_>>()
                    .join("`, `");
                out.push(Finding {
                    line,
                    rule: "lock-blocking",
                    key: "lock-blocking-ok",
                    message: format!(
                        "Condvar::wait while holding foreign lock `{names}` — \
                         the wait releases only its own mutex"
                    ),
                });
            }
        }
        // Calls whose summary acquires locks or blocks.
        let current_fn = f.fn_of_line[idx].as_deref();
        for callee in call_sites(code) {
            if Some(callee.as_str()) == current_fn {
                continue; // same-name dispatch is usually a trait impl
            }
            let Some(s) = summaries.get(&callee) else {
                continue;
            };
            for &d in &s.locks {
                for h in &held {
                    let hd = h.def.unwrap();
                    edges.insert((hd, d, format!("{}:{}", f.path, line)));
                    if defs[hd].rank >= defs[d].rank && hd != d {
                        out.push(Finding {
                            line,
                            rule: "lock-order",
                            key: "lock-order-ok",
                            message: format!(
                                "call to `{callee}()` may acquire `{}` (rank {}) \
                                 while holding `{}` (rank {})",
                                defs[d].name, defs[d].rank, defs[hd].name, defs[hd].rank
                            ),
                        });
                    } else if hd == d {
                        out.push(Finding {
                            line,
                            rule: "lock-order",
                            key: "lock-order-ok",
                            message: format!(
                                "call to `{callee}()` may reacquire `{}` already \
                                 held here — self-deadlock",
                                defs[d].name
                            ),
                        });
                    }
                }
            }
            for b in &s.blocking {
                out.push(Finding {
                    line,
                    rule: "lock-blocking",
                    key: "lock-blocking-ok",
                    message: format!("{b} via `{callee}()` while holding `{}`", held_names()),
                });
            }
        }
    }
    out.sort_by_key(|f| (f.line, f.message.clone()));
    out.dedup_by(|a, b| a.line == b.line && a.message == b.message);
    out
}

fn site_name(defs: &[LockDef], site: &Site) -> String {
    match site.def {
        Some(d) => defs[d].name.clone(),
        None => site.recv.clone(),
    }
}

/// DFS cycle search over the observed acquisition edges.
fn find_cycle(n: usize, edges: &BTreeSet<(usize, usize, String)>) -> Option<Vec<usize>> {
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for &(a, b, _) in edges {
        if a != b {
            adj[a].insert(b);
        }
    }
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    let mut stack = Vec::new();
    fn dfs(
        u: usize,
        adj: &[BTreeSet<usize>],
        color: &mut [u8],
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        color[u] = 1;
        stack.push(u);
        for &v in &adj[u] {
            if color[v] == 1 {
                let start = stack.iter().position(|&x| x == v).unwrap();
                let mut cycle = stack[start..].to_vec();
                cycle.push(v);
                return Some(cycle);
            }
            if color[v] == 0 {
                if let Some(c) = dfs(v, adj, color, stack) {
                    return Some(c);
                }
            }
        }
        stack.pop();
        color[u] = 2;
        None
    }
    (0..n).find_map(|u| {
        if color[u] == 0 {
            dfs(u, &adj, &mut color, &mut stack)
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn defs() -> Vec<LockDef> {
        let rows = [
            (10u16, "svc.a", "crates/mapreduce/src/", vec!["a"]),
            (20, "svc.b", "crates/mapreduce/src/", vec!["b"]),
            (30, "svc.c", "crates/mapreduce/src/", vec!["c"]),
        ];
        rows.iter()
            .map(|(rank, name, file, fields)| LockDef {
                rank: *rank,
                name: name.to_string(),
                file_prefix: file.to_string(),
                fields: fields.iter().map(|s| s.to_string()).collect(),
                nests_inside: vec![],
                row_line: 1,
            })
            .collect()
    }

    fn run(src: &str) -> Vec<Finding> {
        let s = scan(src);
        let files = vec![("crates/mapreduce/src/service.rs".to_string(), &s)];
        let map = analyze(&defs(), &[], &files);
        map.get("crates/mapreduce/src/service.rs")
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn ascending_nesting_is_clean() {
        let src = "\
fn ok(&self) {
    let ga = self.a.lock();
    let gb = self.b.lock();
    drop(gb);
    drop(ga);
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn descending_nesting_is_flagged() {
        let src = "\
fn bad(&self) {
    let gc = self.c.lock();
    let ga = self.a.lock();
}
";
        let v = run(src);
        assert!(
            v.iter().any(|f| f.rule == "lock-order" && f.line == 3),
            "{v:?}"
        );
    }

    #[test]
    fn temporary_guard_does_not_outlive_statement() {
        let src = "\
fn ok(&self) {
    self.c.lock().touch();
    let ga = self.a.lock();
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn explicit_drop_ends_the_guard() {
        let src = "\
fn ok(&self) {
    let gc = self.c.lock();
    drop(gc);
    let ga = self.a.lock();
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn blocking_under_lock_is_flagged() {
        let src = "\
fn bad(&self) {
    let ga = self.a.lock();
    stream.write_all(&buf);
}
";
        let v = run(src);
        assert!(v.iter().any(|f| f.rule == "lock-blocking"), "{v:?}");
    }

    #[test]
    fn blocking_via_call_summary_is_flagged() {
        let src = "\
fn helper(&self) {
    self.stream.write_all(&buf);
}
fn bad(&self) {
    let ga = self.a.lock();
    self.helper();
}
";
        let v = run(src);
        assert!(
            v.iter()
                .any(|f| f.rule == "lock-blocking" && f.message.contains("helper")),
            "{v:?}"
        );
    }

    #[test]
    fn rank_violation_via_call_summary_is_flagged() {
        let src = "\
fn takes_a(&self) {
    let ga = self.a.lock();
}
fn bad(&self) {
    let gc = self.c.lock();
    self.takes_a();
}
";
        let v = run(src);
        assert!(
            v.iter()
                .any(|f| f.rule == "lock-order" && f.message.contains("takes_a")),
            "{v:?}"
        );
    }

    #[test]
    fn underscore_binding_and_unwrap_are_guard_violations() {
        let src = "\
fn bad(&self) {
    let _ = self.a.lock();
    let g = self.b.lock().unwrap();
}
";
        let v = run(src);
        assert_eq!(
            v.iter().filter(|f| f.rule == "lock-guard").count(),
            2,
            "{v:?}"
        );
    }

    #[test]
    fn undeclared_lock_is_flagged() {
        let src = "\
fn bad(&self) {
    let g = self.mystery.lock();
}
";
        let v = run(src);
        assert!(
            v.iter().any(|f| f.message.contains("undeclared lock")),
            "{v:?}"
        );
    }

    #[test]
    fn condvar_wait_with_foreign_lock_is_flagged() {
        let src = "\
fn bad(&self) {
    let ga = self.a.lock();
    let mut gb = self.b.lock();
    self.cv.wait(&mut gb);
}
";
        let v = run(src);
        assert!(
            v.iter().any(|f| f.message.contains("foreign lock")),
            "{v:?}"
        );
        let own = "\
fn ok(&self) {
    let mut gb = self.b.lock();
    self.cv.wait(&mut gb);
}
";
        assert!(run(own).is_empty(), "{:?}", run(own));
    }

    #[test]
    fn waived_reverse_edges_forming_a_cycle_are_reported() {
        let src_ab = "\
fn fwd(&self) {
    let ga = self.a.lock();
    let gb = self.b.lock();
}
fn rev(&self) {
    let gb = self.b.lock();
    let ga = self.a.lock();
}
";
        let s = scan(src_ab);
        let files = vec![("crates/mapreduce/src/service.rs".to_string(), &s)];
        let map = analyze(&defs(), &[], &files);
        let global = map.get("DESIGN.md").cloned().unwrap_or_default();
        assert!(
            global.iter().any(|f| f.message.contains("cycle")),
            "{global:?}"
        );
    }

    #[test]
    fn continuation_line_receiver_is_resolved() {
        let src = "\
fn ok(&self) {
    let g = self
        .a
        .lock();
    let gb = self.b.lock();
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn table_parser_reads_rows_and_checks_consistency() {
        let dir = std::env::temp_dir().join("p3c-audit-locks-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("DESIGN.md");
        std::fs::write(
            &path,
            "\
## 15. Lock hierarchy

| Rank | Lock | File | Fields | Protects | Acquired while holding |
|-----:|------|------|--------|----------|------------------------|
| 10 | `svc.a` | `crates/x.rs` | `a` | stuff | — |
| 20 | `svc.b` | `crates/x.rs` | `b`, `b2` | stuff | `svc.a` |
| 20 | `svc.dup` | `crates/x.rs` | `d` | stuff | `svc.missing` |
",
        )
        .unwrap();
        let (defs, problems) = load_hierarchy(&path).unwrap();
        assert_eq!(defs.len(), 3);
        assert_eq!(defs[1].fields, vec!["b", "b2"]);
        assert_eq!(defs[1].nests_inside, vec!["svc.a"]);
        assert!(
            problems.iter().any(|p| p.contains("rank 20")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("svc.missing")),
            "{problems:?}"
        );
    }
}
