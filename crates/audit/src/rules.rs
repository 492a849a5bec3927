//! The invariant catalog: seven families of lexical rules over the
//! production regions of scoped source files (see DESIGN.md §10).
//!
//! Each rule names the waiver key that can suppress it. A waiver only
//! counts if it covers the flagged line, uses a known key, and carries
//! a non-empty reason; unknown keys, missing reasons, and waivers that
//! suppress nothing ("stale") are themselves violations, so the waiver
//! inventory can never rot silently.

use crate::lexer::FileScan;

/// Names every waiver key the auditor understands.
pub const KNOWN_KEYS: &[&str] = &[
    "unordered-ok",
    "panic-ok",
    "time-ok",
    "rng-ok",
    "relaxed-ok",
    "order-exact",
    "bytes-ok",
    "lock-order-ok",
    "lock-blocking-ok",
    "lock-guard-ok",
];

/// One audit finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier, e.g. `hash-iteration`.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

struct Rule {
    id: &'static str,
    waiver_key: &'static str,
    /// Path scopes: a file is in scope if its repo-relative path starts
    /// with any of these prefixes (exact file paths work too); a `*`
    /// stands for exactly one path component.
    scopes: &'static [&'static str],
    /// Paths excluded even when a scope matches.
    excludes: &'static [&'static str],
    /// Returns a message if the code line violates the rule.
    check: fn(&str) -> Option<String>,
}

/// Rule 1 — container iteration order. Hash containers iterate in a
/// randomized (or at best unspecified) order; any use on paths that
/// feed grouped, emitted, or persisted output risks run-to-run drift.
/// The deterministic substitute is `BTreeMap`/`BTreeSet`.
fn check_hash_container(code: &str) -> Option<String> {
    for token in ["HashMap", "HashSet"] {
        if has_token(code, token) {
            return Some(format!(
                "{token} on an order-sensitive path — use BTreeMap/BTreeSet \
                 or waive with `audit: unordered-ok`"
            ));
        }
    }
    None
}

/// Rule 2 — panic freedom. The engine, chain runner and dataset store
/// promise `MrError`/`DatasetError` propagation; a panic in a worker
/// thread poisons locks and loses counter deltas.
fn check_panic(code: &str) -> Option<String> {
    for token in [
        ".unwrap()",
        ".expect(",
        "panic!(",
        "unreachable!(",
        "todo!(",
        "unimplemented!(",
    ] {
        if code.contains(token) {
            let name = token.trim_start_matches('.').trim_end_matches('(');
            return Some(format!(
                "{name} in error-propagating code — route through the crate \
                 error type or waive with `audit: panic-ok`"
            ));
        }
    }
    None
}

/// Rule 3a — wall-clock reads. `Instant`/`SystemTime` in result-
/// affecting code makes output depend on scheduling and machine speed.
/// Metrics-only reads are waived with `time-ok`.
fn check_wall_clock(code: &str) -> Option<String> {
    for token in ["Instant::now", "SystemTime::now"] {
        if code.contains(token) {
            return Some(format!(
                "{token} in result-affecting code — timing may only feed \
                 metrics (waive with `audit: time-ok`)"
            ));
        }
    }
    None
}

/// Rule 3b — nondeterministic randomness. Entropy-seeded RNGs make runs
/// unreproducible; all randomness must flow from an explicit seed.
fn check_rng(code: &str) -> Option<String> {
    for token in ["thread_rng", "from_entropy", "rand::random"] {
        if code.contains(token) {
            return Some(format!(
                "{token}: entropy-seeded RNG — derive from an explicit seed \
                 or waive with `audit: rng-ok`"
            ));
        }
    }
    None
}

/// Rule 4 — atomic ordering discipline. `Relaxed` is fine for monotonic
/// metric counters but unsound for flags that publish data written by
/// another thread; each use must be waived with a reason saying which
/// it is.
fn check_relaxed(code: &str) -> Option<String> {
    code.contains("Ordering::Relaxed").then(|| {
        "Ordering::Relaxed — must not guard data visibility; if this is a \
         plain counter, waive with `audit: relaxed-ok`"
            .to_string()
    })
}

/// Rule 5 — float reduction order. Float addition is not associative;
/// `.sum()`/`.fold(..)` over values that originate from parallel
/// partitions must be marked order-exact (fixed iteration order, or an
/// order-insensitive op like min/max).
fn check_float_reduction(code: &str) -> Option<String> {
    let reduces = code.contains(".sum(") || code.contains(".sum::<") || code.contains(".fold(");
    (reduces && code.contains("f64")).then(|| {
        "f64 reduction — float addition is order-sensitive; fix the \
         iteration order and mark with `audit: order-exact`"
            .to_string()
    })
}

/// Rule 6 — one byte layer. What a byte on the wire or on disk *is* —
/// endianness, integer width, the checksums — is decided in
/// `p3c_dataset::bytes` alone; a hand-rolled conversion or a second
/// FNV-1a or `wordsum64` elsewhere is a format fork waiting to drift
/// (master and worker must hash a partition alike).
fn check_raw_bytes(code: &str) -> Option<String> {
    for token in ["to_le_bytes", "from_le_bytes"] {
        if has_token(code, token) {
            return Some(format!(
                "{token} outside the byte layer — use p3c_dataset::bytes \
                 (put_*/Reader) or waive with `audit: bytes-ok`"
            ));
        }
    }
    let digits = code.replace('_', "").to_ascii_lowercase();
    for (constant, what, instead) in [
        (
            "0xcbf29ce484222325",
            "FNV-1a offset basis",
            "{fnv1a64, Fnv1a}",
        ),
        ("0x27d4eb2f165667c5", "wordsum64 multiplier", "wordsum64"),
    ] {
        if digits.contains(constant) {
            return Some(format!(
                "{what} outside the byte layer — use \
                 p3c_dataset::bytes::{instead} or waive with `audit: bytes-ok`"
            ));
        }
    }
    None
}

/// Rule 7 — unsafe scope. The only `unsafe` in the program is the AVX2
/// tier of the block kernels (DESIGN.md §13): a `#[target_feature]`
/// twin declared `unsafe fn`, and its call in a dispatcher, under an
/// `isa::avx2()` guard, in an `unsafe { .. }` block preceded by a
/// `// SAFETY:` comment. Anything else with `unsafe` outside the loom
/// model checker and test files is a violation; the rule has no waiver.
fn check_unsafe_scope(path: &str, scan: &FileScan) -> Vec<Violation> {
    if path.starts_with("crates/loom/") || path.contains("/tests/") {
        return Vec::new();
    }
    let production = |idx: &usize| scan.is_production(idx + 1);
    let twins: Vec<&str> = (0..scan.code.len())
        .filter(production)
        .filter_map(|idx| unsafe_fn_name(&scan.code[idx]).filter(|_| has_target_feature(scan, idx)))
        .collect();
    let mut violations = Vec::new();
    for idx in (0..scan.code.len()).filter(production) {
        let code = &scan.code[idx];
        if !has_token(code, "unsafe") {
            continue;
        }
        let problem = if let Some(name) = unsafe_fn_name(code) {
            (!twins.contains(&name))
                .then(|| format!("`unsafe fn {name}` without a #[target_feature] attribute"))
        } else if let Some(body) = unsafe_block_body(scan, idx) {
            if !called_twin(body).is_some_and(|callee| twins.contains(&callee)) {
                Some("unsafe block that is not a call of this file's #[target_feature] twin".into())
            } else if !has_safety_comment(scan, idx) {
                Some("unsafe block without a `// SAFETY:` comment above it".into())
            } else if !under_isa_guard(scan, idx) {
                Some("unsafe block outside an `isa::avx2()` guard".into())
            } else {
                None
            }
        } else {
            Some("unsafe outside the kernels' AVX2 tier dispatch".into())
        };
        if let Some(problem) = problem {
            violations.push(Violation {
                file: path.to_string(),
                line: idx + 1,
                rule: "unsafe-scope",
                message: format!(
                    "{problem} — `unsafe` may only call a #[target_feature] kernel twin \
                     under an isa::avx2() guard (DESIGN.md §13)"
                ),
            });
        }
    }
    violations
}

/// The name declared by an `unsafe fn` on this code line.
fn unsafe_fn_name(code: &str) -> Option<&str> {
    let rest = &code[code.find("unsafe fn ")? + "unsafe fn ".len()..];
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Whether the attributes directly above line `idx` (0-based) enable a
/// target feature.
fn has_target_feature(scan: &FileScan, idx: usize) -> bool {
    scan.code[..idx]
        .iter()
        .rev()
        .map(|code| code.trim())
        .take_while(|code| code.is_empty() || code.starts_with("#["))
        .any(|code| code.contains("target_feature("))
}

/// The first code inside an `unsafe {` block opened on line `idx`: the
/// rest of the line, or the next line when rustfmt broke after the brace.
fn unsafe_block_body(scan: &FileScan, idx: usize) -> Option<&str> {
    let code = &scan.code[idx];
    let rest = code[code.find("unsafe")? + "unsafe".len()..].trim_start();
    let body = rest.strip_prefix('{')?.trim();
    match body {
        "" => scan.code.get(idx + 1).map(|next| next.trim()),
        body => Some(body),
    }
}

/// The function a block body starts by calling: `name(`, `self.name(`
/// or `Self::name(`.
fn called_twin(body: &str) -> Option<&str> {
    let body = body
        .strip_prefix("self.")
        .or_else(|| body.strip_prefix("Self::"))
        .unwrap_or(body);
    let (name, _) = body.split_once('(')?;
    name.chars()
        .all(|c| c.is_alphanumeric() || c == '_')
        .then_some(name)
}

/// Whether the comment-only lines directly above line `idx` hold a
/// `SAFETY:` justification.
fn has_safety_comment(scan: &FileScan, idx: usize) -> bool {
    (0..idx)
        .rev()
        .take_while(|&i| scan.code[i].trim().is_empty() && !scan.comments[i].trim().is_empty())
        .any(|i| scan.comments[i].contains("SAFETY:"))
}

/// Whether one of the three code lines above line `idx` tests
/// `isa::avx2()`.
fn under_isa_guard(scan: &FileScan, idx: usize) -> bool {
    scan.code[..idx]
        .iter()
        .rev()
        .filter(|code| !code.trim().is_empty())
        .take(3)
        .any(|code| code.contains("isa::avx2()"))
}

/// True if `token` occurs delimited by non-identifier characters (so
/// `HashMap` does not match `MyHashMapLike`).
fn has_token(code: &str, token: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = code[at + token.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + token.len();
    }
    false
}

const RULES: &[Rule] = &[
    Rule {
        id: "hash-iteration",
        waiver_key: "unordered-ok",
        scopes: &[
            "crates/core/src/mr/",
            "crates/core/src/incremental.rs",
            "crates/mapreduce/src/engine.rs",
            "crates/mapreduce/src/dag.rs",
            "crates/mapreduce/src/dataset.rs",
            "crates/mapreduce/src/service.rs",
            "crates/mapreduce/src/distrib/",
            "crates/cli/src/serve.rs",
        ],
        excludes: &[],
        check: check_hash_container,
    },
    Rule {
        id: "no-panic",
        waiver_key: "panic-ok",
        scopes: &[
            "crates/mapreduce/src/engine.rs",
            "crates/mapreduce/src/dag.rs",
            "crates/mapreduce/src/dataset.rs",
            "crates/mapreduce/src/service.rs",
            "crates/mapreduce/src/distrib/",
        ],
        excludes: &[],
        check: check_panic,
    },
    Rule {
        id: "wall-clock",
        waiver_key: "time-ok",
        scopes: &[
            "crates/core/src/",
            "crates/mapreduce/src/",
            "crates/cli/src/serve.rs",
        ],
        excludes: &["crates/mapreduce/src/metrics.rs"],
        check: check_wall_clock,
    },
    Rule {
        id: "nondeterministic-rng",
        waiver_key: "rng-ok",
        scopes: &[
            "crates/core/src/",
            "crates/mapreduce/src/",
            "crates/cli/src/serve.rs",
        ],
        excludes: &[],
        check: check_rng,
    },
    Rule {
        id: "relaxed-ordering",
        waiver_key: "relaxed-ok",
        scopes: &[
            "crates/core/src/",
            "crates/mapreduce/src/",
            "crates/cli/src/serve.rs",
        ],
        excludes: &[],
        check: check_relaxed,
    },
    Rule {
        id: "float-reduction",
        waiver_key: "order-exact",
        // cholesky.rs hosts the lane-batched density kernels whose
        // reductions back the bit-identity contract of DESIGN.md §13.
        scopes: &["crates/core/src/", "crates/linalg/src/cholesky.rs"],
        excludes: &[],
        check: check_float_reduction,
    },
    Rule {
        id: "raw-bytes",
        waiver_key: "bytes-ok",
        scopes: &["crates/*/src/", "src/"],
        excludes: &["crates/dataset/src/bytes.rs"],
        check: check_raw_bytes,
    },
];

fn scope_matches(scope: &str, path: &str) -> bool {
    match scope.split_once('*') {
        None => path.starts_with(scope),
        Some((head, tail)) => path
            .strip_prefix(head)
            .and_then(|rest| rest.find('/').map(|at| &rest[at..]))
            .is_some_and(|rest| rest.starts_with(tail)),
    }
}

fn in_scope(rule: &Rule, path: &str) -> bool {
    rule.scopes.iter().any(|s| scope_matches(s, path))
        && !rule.excludes.iter().any(|e| path.starts_with(e))
}

/// Last line (1-based, inclusive) of the statement starting on `start`:
/// rustfmt freely re-wraps statements, so a waiver must keep covering
/// its statement however many lines the formatter spreads it over. The
/// heuristic walks forward until a code line ends in `;`, `{`, `}`,
/// or `,`, bounded so a miss cannot blanket a whole file.
pub fn statement_end(scan: &FileScan, start: usize) -> usize {
    const MAX_SPAN: usize = 12;
    let mut line = start;
    while line <= scan.code.len() && line < start + MAX_SPAN {
        let code = scan.code[line - 1].trim_end();
        // `,` terminates too: a struct-literal field or match arm is its
        // own unit, and without it one waiver would blanket its siblings.
        if code.ends_with(';') || code.ends_with('{') || code.ends_with('}') || code.ends_with(',')
        {
            return line;
        }
        line += 1;
    }
    line.min(scan.code.len())
}

/// Runs every rule over one lexed file, plus any findings the global
/// lock-discipline pass attributed to it (those flow through the same
/// waiver machinery, so lock waivers get the identical hygiene checks).
/// `path` is repo-relative with forward slashes.
pub fn check_file(
    path: &str,
    scan: &FileScan,
    lock_findings: &[crate::locks::Finding],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Waiver bookkeeping: which waivers actually suppressed something.
    let mut used = vec![false; scan.waivers.len()];

    for finding in lock_findings {
        let waiver = scan.waivers.iter().position(|w| {
            w.key == finding.key
                && w.covers <= finding.line
                && finding.line <= statement_end(scan, w.covers)
        });
        match waiver {
            Some(w) if !scan.waivers[w].reason.is_empty() => used[w] = true,
            Some(w) => {
                used[w] = true;
                violations.push(Violation {
                    file: path.to_string(),
                    line: scan.waivers[w].line,
                    rule: finding.rule,
                    message: format!(
                        "waiver `{}` has no reason — every waiver must \
                         justify itself",
                        scan.waivers[w].key
                    ),
                });
            }
            None => violations.push(Violation {
                file: path.to_string(),
                line: finding.line,
                rule: finding.rule,
                message: finding.message.clone(),
            }),
        }
    }

    for rule in RULES {
        if !in_scope(rule, path) {
            continue;
        }
        for (idx, code) in scan.code.iter().enumerate() {
            let line = idx + 1;
            if !scan.is_production(line) {
                break;
            }
            let Some(message) = (rule.check)(code) else {
                continue;
            };
            let waiver = scan.waivers.iter().position(|w| {
                w.key == rule.waiver_key
                    && w.covers <= line
                    && line <= statement_end(scan, w.covers)
            });
            match waiver {
                Some(w) if !scan.waivers[w].reason.is_empty() => used[w] = true,
                Some(w) => {
                    used[w] = true;
                    violations.push(Violation {
                        file: path.to_string(),
                        line: scan.waivers[w].line,
                        rule: rule.id,
                        message: format!(
                            "waiver `{}` has no reason — every waiver must \
                             justify itself",
                            scan.waivers[w].key
                        ),
                    });
                }
                None => violations.push(Violation {
                    file: path.to_string(),
                    line,
                    rule: rule.id,
                    message,
                }),
            }
        }
    }

    // Waiver hygiene applies to every scanned file, in or out of rule
    // scope: unknown keys are typos, stale waivers are rot.
    for (w, waiver) in scan.waivers.iter().enumerate() {
        if !KNOWN_KEYS.contains(&waiver.key.as_str()) {
            violations.push(Violation {
                file: path.to_string(),
                line: waiver.line,
                rule: "waiver-hygiene",
                message: format!(
                    "unknown waiver key `{}` (known: {})",
                    waiver.key,
                    KNOWN_KEYS.join(", ")
                ),
            });
        } else if !used[w] {
            violations.push(Violation {
                file: path.to_string(),
                line: waiver.line,
                rule: "waiver-hygiene",
                message: format!(
                    "stale waiver `{}` — covers line {} but suppresses \
                     nothing; remove it",
                    waiver.key, waiver.covers
                ),
            });
        }
    }

    violations.extend(check_unsafe_scope(path, scan));
    violations.sort();
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        check_file(path, &scan(src), &[])
    }

    #[test]
    fn hash_map_flagged_in_scoped_path_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(check("crates/core/src/mr/pipeline.rs", src).len(), 1);
        assert_eq!(check("crates/eval/src/rnia.rs", src).len(), 0);
    }

    #[test]
    fn waiver_with_reason_suppresses() {
        let src = "\
// audit: unordered-ok — membership probes only; never iterated.
use std::collections::HashSet;
";
        assert!(check("crates/core/src/mr/coregen.rs", src).is_empty());
    }

    #[test]
    fn waiver_without_reason_is_a_violation() {
        let src = "use std::collections::HashSet; // audit: unordered-ok\n";
        let v = check("crates/core/src/mr/coregen.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("no reason"));
    }

    #[test]
    fn waiver_covers_a_statement_rewrapped_over_two_lines() {
        // rustfmt may split `counter.fetch_add(n, Ordering::Relaxed);`
        // across lines; the waiver must still cover the whole statement.
        let src = "\
// audit: relaxed-ok — monotonic counter, read after joins.
self.bytes_read
    .fetch_add(out.len() as u64, Ordering::Relaxed);
";
        assert!(check("crates/mapreduce/src/engine.rs", src).is_empty());
    }

    #[test]
    fn waiver_span_stops_at_a_struct_field_comma() {
        // A struct-literal field ends in `,`; the first waiver must not
        // blanket the next field, whose own waiver would then be stale.
        let src = "\
let m = Metrics {
    // audit: relaxed-ok — read after joins.
    total: shared.total.load(Ordering::Relaxed),
    // audit: relaxed-ok — as above.
    failed: shared.failed.load(Ordering::Relaxed),
};
";
        assert!(check("crates/mapreduce/src/dag.rs", src).is_empty());
    }

    #[test]
    fn stale_and_unknown_waivers_are_violations() {
        let src = "\
let x = 1; // audit: panic-ok — nothing here panics though
let y = 2; // audit: no-such-key — typo
";
        let v = check("crates/mapreduce/src/engine.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|v| v.message.contains("stale waiver")));
        assert!(v.iter().any(|v| v.message.contains("unknown waiver key")));
    }

    #[test]
    fn panic_tokens_flagged_and_unwrap_or_is_not() {
        let src = "\
let a = x.unwrap();
let b = x.unwrap_or(0);
let c = x.unwrap_or_else(Vec::new);
";
        let v = check("crates/mapreduce/src/dataset.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn test_module_is_not_scanned() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); panic!(); }
}
";
        assert!(check("crates/mapreduce/src/engine.rs", src).is_empty());
    }

    #[test]
    fn tokens_in_strings_and_comments_do_not_fire() {
        let src = "\
let m = \"HashMap here\"; // HashMap there
/* Instant::now() */
let s = r#\"panic!()\"#;
";
        assert!(check("crates/mapreduce/src/engine.rs", src).is_empty());
    }

    #[test]
    fn relaxed_needs_waiver_and_float_reduction_detected() {
        let relaxed = "c.fetch_add(1, Ordering::Relaxed);\n";
        assert_eq!(check("crates/mapreduce/src/dag.rs", relaxed).len(), 1);
        let float = "let s: f64 = xs.iter().sum();\n";
        assert_eq!(check("crates/core/src/em.rs", float).len(), 1);
        let int = "let s: u64 = xs.iter().sum();\n";
        assert!(check("crates/core/src/em.rs", int).is_empty());
        // The density-kernel host in p3c-linalg is in scope too.
        assert_eq!(check("crates/linalg/src/cholesky.rs", float).len(), 1);
        assert!(check("crates/linalg/src/matrix.rs", float).is_empty());
    }

    #[test]
    fn raw_bytes_flagged_outside_the_byte_layer_in_production_code_only() {
        let le = "buf.extend_from_slice(&v.to_le_bytes());\n";
        let fnv = "let mut h: u64 = 0xCBF2_9ce4_8422_2325;\n";
        let wordsum = "lane = (lane ^ w).wrapping_mul(0x27D4_eb2f_1656_67c5);\n";
        for src in [le, fnv, wordsum, "let v = u64::from_le_bytes(word);\n"] {
            for path in ["crates/mapreduce/src/distrib/wire.rs", "src/lib.rs"] {
                let v = check(path, src);
                assert_eq!(v.len(), 1, "{path}: {src}");
                assert_eq!(v[0].rule, "raw-bytes");
            }
            // The layer itself, integration tests and unit-test modules
            // are out of scope.
            assert!(check("crates/dataset/src/bytes.rs", src).is_empty());
            assert!(check("crates/mapreduce/tests/properties.rs", src).is_empty());
            let in_tests = format!("fn prod() {{}}\n#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(check("crates/core/src/em.rs", &in_tests).is_empty());
        }
        let waived = "\
// audit: bytes-ok — in-memory hash mixing, not a byte format.
self.add_word(u64::from_le_bytes(word));
";
        assert!(check("crates/mapreduce/src/engine.rs", waived).is_empty());
        assert!(check("crates/core/src/em.rs", "let my_to_le_bytes_like = 1;\n").is_empty());
    }

    #[test]
    fn lock_findings_flow_through_the_waiver_machinery() {
        use crate::locks::Finding;
        let finding = |line| Finding {
            line,
            rule: "lock-blocking",
            key: "lock-blocking-ok",
            message: "TCP frame write while holding `backend.state`".to_string(),
        };
        // Unwaived: surfaces as a violation at the finding's line.
        let bare = scan("self.call(&req);\n");
        let v = check_file(
            "crates/mapreduce/src/distrib/process.rs",
            &bare,
            &[finding(1)],
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "lock-blocking");
        // Waived with a reason: suppressed, and the waiver is not stale.
        let waived = scan(
            "// audit: lock-blocking-ok — control plane is serialized by design.\n\
             self.call(&req);\n",
        );
        let v = check_file(
            "crates/mapreduce/src/distrib/process.rs",
            &waived,
            &[finding(2)],
        );
        assert!(v.is_empty(), "{v:?}");
        // A lock waiver that suppresses nothing is stale.
        let v = check_file("crates/mapreduce/src/distrib/process.rs", &waived, &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("stale waiver"));
    }

    /// A dispatcher and its AVX2 twin, as the kernels write them.
    const TIER_DISPATCH: &str = "\
impl Kernel {
    pub fn run(&self, xs: &[f64]) -> f64 {
        if isa::avx2() {
            // SAFETY: the guard checked that this CPU has AVX2.
            unsafe { self.run_avx2(xs) }
        } else {
            self.run_impl(xs)
        }
    }

    /// `run` compiled for AVX2.
    #[cfg_attr(target_arch = \"x86_64\", target_feature(enable = \"avx2\"))]
    unsafe fn run_avx2(&self, xs: &[f64]) -> f64 {
        self.run_impl(xs)
    }
}
";

    fn unsafe_scope(path: &str, src: &str) -> Vec<Violation> {
        check(path, src)
            .into_iter()
            .filter(|v| v.rule == "unsafe-scope")
            .collect()
    }

    #[test]
    fn unsafe_scope_admits_the_guarded_twin_call() {
        assert!(unsafe_scope("crates/core/src/em.rs", TIER_DISPATCH).is_empty());
        // rustfmt may break a long call after the block's brace.
        let wrapped = TIER_DISPATCH.replace(
            "unsafe { self.run_avx2(xs) }",
            "unsafe {\n                self.run_avx2(xs)\n            }",
        );
        assert!(unsafe_scope("crates/linalg/src/cholesky.rs", &wrapped).is_empty());
    }

    #[test]
    fn unsafe_scope_rejects_everything_else() {
        let broken = [
            // No SAFETY comment.
            TIER_DISPATCH.replace("// SAFETY: the guard checked that this CPU has AVX2.", ""),
            // No isa::avx2() guard.
            TIER_DISPATCH.replace("if isa::avx2() {", "if true {"),
            // The block calls something that is not a target-feature twin.
            TIER_DISPATCH.replace(
                "unsafe { self.run_avx2(xs) }",
                "unsafe { self.run_impl(xs) }",
            ),
            // The twin lost its target_feature attribute.
            TIER_DISPATCH.replace(
                "    #[cfg_attr(target_arch = \"x86_64\", target_feature(enable = \"avx2\"))]\n",
                "",
            ),
            // Any other unsafe.
            format!("{TIER_DISPATCH}unsafe impl Send for Kernel {{}}\n"),
            format!("{TIER_DISPATCH}fn f(p: *const u8) -> u8 {{ unsafe {{ *p }} }}\n"),
        ];
        for src in &broken {
            let v = unsafe_scope("crates/core/src/support.rs", src);
            assert!(!v.is_empty(), "{src}");
            assert!(v.iter().all(|v| v.message.contains("DESIGN.md §13")));
        }
        // Twin-less blocks and unsafe fns are flagged on their own lines.
        assert_eq!(unsafe_scope("src/lib.rs", &broken[3]).len(), 2);
    }

    #[test]
    fn unsafe_scope_exempts_loom_and_test_code() {
        let raw = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert_eq!(unsafe_scope("crates/mapreduce/src/pool.rs", raw).len(), 1);
        assert!(unsafe_scope("crates/loom/src/sync.rs", raw).is_empty());
        assert!(unsafe_scope("crates/core/tests/support_counting.rs", raw).is_empty());
        let in_tests = format!("fn prod() {{}}\n#[cfg(test)]\nmod tests {{\n{raw}}}\n");
        assert!(unsafe_scope("crates/core/src/em.rs", &in_tests).is_empty());
    }

    #[test]
    fn identifier_boundaries_respected() {
        let src = "struct MyHashMapLike;\n";
        assert!(check("crates/core/src/mr/histogram.rs", src).is_empty());
    }
}
