//! A minimal Rust lexer: splits each source line into its *code* text
//! (string literals blanked, comments removed) and its *comment* text,
//! and parses `audit:` waivers out of the comments.
//!
//! This is deliberately not a full parser — the audit rules are token
//! rules, and all the lexer must guarantee is that tokens inside string
//! literals and comments never reach them, and that line numbers are
//! preserved exactly. Handled: line comments, nested block comments,
//! string literals with escapes, raw strings with any `#` arity
//! (including multi-line), byte strings, char literals vs. lifetimes.

/// One waiver comment: `// audit: <key> — <reason>`.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// 1-based line of the waiver comment itself.
    pub line: usize,
    /// 1-based first line of the code the waiver covers: its own line
    /// if that line has code, otherwise the next line with code
    /// (intervening comment-only and blank lines — waiver prose
    /// continuations — are skipped). Coverage extends to the end of
    /// the statement starting here (see `rules::statement_end`), so a
    /// waiver survives rustfmt re-wrapping the statement.
    pub covers: usize,
    /// The waiver key, e.g. `unordered-ok`.
    pub key: String,
    /// Justification text after the key. Empty reasons are violations.
    pub reason: String,
}

/// A lexed source file.
#[derive(Debug)]
pub struct FileScan {
    /// Per line (0-based index = line - 1): code with comments removed
    /// and string/char literal *contents* blanked.
    pub code: Vec<String>,
    /// Per line: the text of the line's comments, if any.
    pub comments: Vec<String>,
    /// All `audit:` waivers found in comments, in line order.
    pub waivers: Vec<Waiver>,
    /// 1-based line of the first `#[cfg(test)]`-style attribute, if
    /// any. Rules do not scan at or past this line: test modules sit at
    /// the bottom of every file in this workspace, and test code may
    /// panic and hash freely.
    pub test_start: Option<usize>,
}

impl FileScan {
    /// Whether 1-based `line` is part of the production (non-test)
    /// region of the file.
    pub fn is_production(&self, line: usize) -> bool {
        self.test_start.is_none_or(|t| line < t)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Lexes `source` into per-line code/comment streams and waivers.
pub fn scan(source: &str) -> FileScan {
    let mut code_lines: Vec<String> = Vec::new();
    let mut comment_lines: Vec<String> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Code;

    for raw_line in source.split('\n') {
        let chars: Vec<char> = raw_line.chars().collect();
        let mut i = 0;
        // A line comment never survives a newline.
        if state == State::LineComment {
            state = State::Code;
        }
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        i += 2;
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        i += 2;
                    }
                    '"' => {
                        // Literal delimiters stay in the code stream so
                        // rules could still see "a string starts here";
                        // only contents are blanked.
                        code.push('"');
                        state = State::Str;
                        i += 1;
                    }
                    'r' | 'b' if is_raw_string_start(&chars, i) => {
                        let (hashes, consumed) = raw_string_open(&chars, i);
                        code.push('"');
                        state = State::RawStr(hashes);
                        i += consumed;
                    }
                    '\'' => {
                        // Distinguish `'a'` / `'\n'` (char literal) from
                        // `'a` (lifetime): a char literal closes with a
                        // `'` shortly after; a lifetime never does.
                        if is_char_literal(&chars, i) {
                            code.push('\'');
                            state = State::Char;
                        } else {
                            code.push('\'');
                        }
                        i += 1;
                    }
                    _ => {
                        code.push(c);
                        i += 1;
                    }
                },
                State::LineComment => {
                    comment.push(c);
                    i += 1;
                }
                State::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
                State::Str => match c {
                    '\\' => i += 2,
                    '"' => {
                        code.push('"');
                        state = State::Code;
                        i += 1;
                    }
                    _ => i += 1,
                },
                State::RawStr(hashes) => {
                    if c == '"' && closes_raw(&chars, i, hashes) {
                        code.push('"');
                        state = State::Code;
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                }
                State::Char => match c {
                    '\\' => i += 2,
                    '\'' => {
                        code.push('\'');
                        state = State::Code;
                        i += 1;
                    }
                    _ => i += 1,
                },
            }
        }
        code_lines.push(std::mem::take(&mut code));
        comment_lines.push(std::mem::take(&mut comment));
    }

    let test_start = code_lines.iter().position(|l| {
        let t = l.trim();
        t.starts_with("#[cfg(test)]") || t.starts_with("#[cfg(all(test")
    });

    let waivers = collect_waivers(&code_lines, &comment_lines, test_start);
    FileScan {
        code: code_lines,
        comments: comment_lines,
        waivers,
        test_start: test_start.map(|i| i + 1),
    }
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // Only if `r`/`b` begins a token: previous char must not be
    // identifier-ish (else `attr` or `barb"..."` would confuse us).
    if i > 0 {
        let p = chars[i - 1];
        if p.is_alphanumeric() || p == '_' {
            return false;
        }
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) != Some(&'r') {
            // b"..." is an ordinary (escaped) byte string; the Str
            // state handles it once the `"` is reached.
            return chars.get(j) == Some(&'"');
        }
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Returns (number of `#`s, chars consumed through the opening quote).
fn raw_string_open(chars: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
    }
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    // chars[j] is the opening quote.
    (hashes, j + 1 - i)
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

fn is_char_literal(chars: &[char], i: usize) -> bool {
    // 'x' or '\x'-escape: a closing quote within a few chars. Lifetimes
    // ('a, 'static) have an identifier run with no closing quote.
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

fn collect_waivers(
    code_lines: &[String],
    comment_lines: &[String],
    test_start: Option<usize>,
) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for (idx, comment) in comment_lines.iter().enumerate() {
        if test_start.is_some_and(|t| idx >= t) {
            continue;
        }
        // A waiver must *start* the comment (after doc-comment sigils);
        // prose that merely mentions `audit:` is not a waiver.
        let lead = comment.trim_start_matches(['/', '!', '*', ' ', '\t']);
        if !lead.starts_with("audit:") {
            continue;
        }
        let rest = lead["audit:".len()..].trim_start();
        let key: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        let reason = rest[key.len()..]
            .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':')
            .trim()
            .to_string();
        let covers = if !code_lines[idx].trim().is_empty() {
            idx + 1
        } else {
            // Comment-only line: the waiver covers the next code line,
            // skipping blank lines and the waiver's own prose
            // continuation comments.
            let mut j = idx + 1;
            while j < code_lines.len() && code_lines[j].trim().is_empty() {
                j += 1;
            }
            j + 1
        };
        waivers.push(Waiver {
            line: idx + 1,
            covers,
            key,
            reason,
        });
    }
    waivers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_do_not_reach_code_stream() {
        let src = r##"let x = "panic!(inside string)"; // panic!(in comment)
let y = r#"Instant::now() in raw string"#;
/* HashMap in block
   comment */ let z = 1;
"##;
        let s = scan(src);
        assert!(!s.code[0].contains("panic!"));
        assert!(!s.code[1].contains("Instant"));
        assert!(!s.code[2].contains("HashMap"));
        assert!(s.code[3].contains("let z = 1;"));
    }

    #[test]
    fn line_numbers_are_preserved_across_multiline_literals() {
        let src = "let a = r#\"line one\nline two\nline three\"#;\nlet b = 2;\n";
        let s = scan(src);
        assert_eq!(s.code.len(), 5);
        assert!(s.code[3].contains("let b = 2;"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> char { '\\'' }\n";
        let s = scan(src);
        assert!(s.code[0].contains("fn f<'a>"));
        assert!(s.code[0].contains("-> char"));
    }

    #[test]
    fn waiver_on_same_line_covers_that_line() {
        let src = "foo(); // audit: panic-ok — startup only\n";
        let s = scan(src);
        assert_eq!(s.waivers.len(), 1);
        assert_eq!(s.waivers[0].key, "panic-ok");
        assert_eq!(s.waivers[0].covers, 1);
        assert_eq!(s.waivers[0].reason, "startup only");
    }

    #[test]
    fn waiver_comment_covers_next_code_line_skipping_prose() {
        let src = "\
// audit: relaxed-ok — monotonic counter; readers only ever
// observe totals after join.
x.fetch_add(1, Ordering::Relaxed);
";
        let s = scan(src);
        assert_eq!(s.waivers.len(), 1);
        assert_eq!(s.waivers[0].covers, 3);
        assert!(s.waivers[0].reason.starts_with("monotonic counter"));
    }

    #[test]
    fn stacked_waivers_cover_the_same_line() {
        let src = "\
// audit: time-ok — wall time only feeds metrics
// audit: relaxed-ok — counter
thing();
";
        let s = scan(src);
        assert_eq!(s.waivers.len(), 2);
        assert_eq!(s.waivers[0].covers, 3);
        assert_eq!(s.waivers[1].covers, 3);
    }

    #[test]
    fn test_module_boundary_is_detected() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {}\n";
        let s = scan(src);
        assert_eq!(s.test_start, Some(2));
        assert!(s.is_production(1));
        assert!(!s.is_production(2));
    }
}
