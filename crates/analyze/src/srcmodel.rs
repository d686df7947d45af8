//! A small in-repo Rust *token* scanner for source-conformance checking.
//!
//! `rbcheck` (DESIGN.md §13) needs to know, per source file, which
//! wire-message variants the code **constructs** (expression position —
//! the file sends them) and which it **dispatches on** (pattern position
//! inside `match` arms, `if let`, or `matches!` — the file handles them),
//! plus a handful of token-level facts the domain lints key off
//! (`HashMap`, `Instant::now`, `println!`, `Mutex`, ...).
//!
//! This is deliberately *not* a Rust parser. It is a lexer plus a brace/
//! match-context tracker: comments, strings, char literals, and lifetimes
//! are skipped exactly, and a small state machine classifies every token
//! as expression- or pattern-position. The classifier is a heuristic with
//! known blind spots (a struct literal chained off a match-arm expression,
//! e.g. `=> Msg::A { .. }.wrap(Msg::B)`, classifies `Msg::B` as pattern),
//! but those shapes do not occur for wire messages in this codebase, and
//! the conformance tests in `tests/srccheck.rs` pin the shapes that do.
//!
//! `#[cfg(test)]` items are skipped entirely: test modules may construct
//! arbitrary messages and use std collections without that constituting
//! protocol or hot-path drift.

use std::collections::BTreeMap;

/// The wire-message enums the scanner tracks, mapped to their catalog
/// protocol prefix (`BrokerMsg::AllocGrant` → `"Broker::AllocGrant"`).
const ENUM_PROTOCOLS: &[(&str, &str)] = &[
    ("BrokerMsg", "Broker"),
    ("ApplMsg", "Appl"),
    ("PvmMsg", "Pvm"),
    ("LamMsg", "Lam"),
    ("CalypsoMsg", "Calypso"),
    ("PlindaMsg", "Plinda"),
    ("CtlMsg", "Ctl"),
];

/// One token-level lint-relevant observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintHit {
    /// `HashMap` / `HashSet` by name (std hashing in a hot-path crate).
    StdHash,
    /// `Instant::now` or `SystemTime` (wall-clock in a simulation crate).
    WallClock,
    /// `thread::spawn` / `thread::scope` (real threads in a sim crate).
    ThreadSpawn,
    /// `println!` / `eprintln!` (stdout noise outside bin/tests/examples).
    Println,
    /// `Mutex`, `RwLock` or an `Atomic*` type (state shared across lanes).
    SharedState,
}

/// Everything the scanner extracts from one source file.
#[derive(Debug, Default)]
pub struct SourceFacts {
    /// Catalog variant name → lines where it is constructed (expression
    /// position): the file *sends* these.
    pub constructs: BTreeMap<String, Vec<u32>>,
    /// Catalog variant name → lines where it appears in pattern position:
    /// the file *handles* these.
    pub dispatches: BTreeMap<String, Vec<u32>>,
    /// Token-level lint hits with their lines.
    pub lint_hits: Vec<(LintHit, u32)>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    /// An identifier or keyword. Raw identifiers keep their `r#` prefix
    /// (`r#match` lexes as one `Ident("r#match")`) so keyword-driven
    /// state machines never mistake them for the keyword.
    Ident(String),
    /// `::`
    PathSep,
    /// `=>`
    FatArrow,
    /// Any other single punctuation character.
    Punct(char),
}

/// Lex `src` into tokens with line numbers, skipping whitespace, line and
/// (nested) block comments, string/char/byte literals, lifetimes, and
/// numeric literals. Numbers are dropped entirely — no lint keys off them.
fn lex(src: &str) -> Vec<(Tok, u32)> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    let n = b.len();

    let ident_start = |c: u8| c == b'_' || c.is_ascii_alphabetic();
    let ident_cont = |c: u8| c == b'_' || c.is_ascii_alphanumeric();

    while i < n {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
        } else if c.is_ascii_whitespace() {
            i += 1;
        } else if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            while i < n && b[i] != b'\n' {
                i += 1;
            }
        } else if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if c == b'"' {
            i += 1;
            while i < n {
                match b[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
        } else if (c == b'r' || c == b'b') && is_raw_or_byte_string(b, i) {
            i = skip_raw_or_byte_string(b, i, &mut line);
        } else if c == b'\'' {
            // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`, `'{'`).
            if i + 1 < n && b[i + 1] == b'\\' {
                i += 2;
                while i < n && b[i] != b'\'' {
                    i += 1;
                }
                i += 1;
            } else if i + 1 < n && ident_start(b[i + 1]) && (i + 2 >= n || b[i + 2] != b'\'') {
                // Lifetime: consume the identifier, no closing quote. The
                // `i + 2 >= n` arm keeps a lifetime at end-of-input (`&'a`)
                // from being misread as an unterminated char literal.
                i += 2;
                while i < n && ident_cont(b[i]) {
                    i += 1;
                }
            } else {
                // Char literal: `'x'` (x possibly punctuation).
                i += 2;
                while i < n && b[i] != b'\'' {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i += 1;
            }
        } else if c == b'r' && i + 2 < n && b[i + 1] == b'#' && ident_start(b[i + 2]) {
            // Raw identifier (`r#match`, `r#type`): one token, prefix kept,
            // so the keyword state machines below never see a spurious
            // `match`/`if` where the source only escaped an identifier.
            let start = i;
            i += 2;
            while i < n && ident_cont(b[i]) {
                i += 1;
            }
            toks.push((Tok::Ident(src[start..i].to_string()), line));
        } else if ident_start(c) {
            let start = i;
            while i < n && ident_cont(b[i]) {
                i += 1;
            }
            toks.push((Tok::Ident(src[start..i].to_string()), line));
        } else if c.is_ascii_digit() {
            // Numeric literal, loosely: digits, `_`, type suffixes, and a
            // fractional part — but never swallow the `..` of a range.
            i += 1;
            while i < n && (ident_cont(b[i]) || (b[i] == b'.' && i + 1 < n && b[i + 1] != b'.')) {
                i += 1;
            }
        } else if c == b':' && i + 1 < n && b[i + 1] == b':' {
            toks.push((Tok::PathSep, line));
            i += 2;
        } else if c == b'=' && i + 1 < n && b[i + 1] == b'>' {
            toks.push((Tok::FatArrow, line));
            i += 2;
        } else {
            toks.push((Tok::Punct(c as char), line));
            i += 1;
        }
    }
    toks
}

/// Is `b[i..]` the start of a raw string (`r"`, `r#"`), byte string
/// (`b"`), raw byte string (`br#"`), or byte char (`b'x'`)? A bare raw
/// identifier (`r#match`) is *not* — the caller lexes it as an ident.
fn is_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let n = b.len();
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if j < n && b[j] == b'\'' {
            return true; // byte char `b'x'`
        }
    }
    if j < n && b[j] == b'r' {
        j += 1;
        let mut k = j;
        while k < n && b[k] == b'#' {
            k += 1;
        }
        // `r#ident` has hashes but no quote: raw identifier, not a string.
        k < n && b[k] == b'"'
    } else {
        j > i && j < n && b[j] == b'"' // `b"..."`
    }
}

/// Skip a raw/byte string starting at `i`; returns the index past it.
fn skip_raw_or_byte_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let n = b.len();
    if b[i] == b'b' {
        i += 1;
        if i < n && b[i] == b'\'' {
            // Byte char `b'x'` / `b'\\''`.
            i += 1;
            if i < n && b[i] == b'\\' {
                i += 1;
            }
            i += 1;
            while i < n && b[i] != b'\'' {
                i += 1;
            }
            return i + 1;
        }
    }
    let raw = i < n && b[i] == b'r';
    if raw {
        i += 1;
    }
    let mut hashes = 0;
    while i < n && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    debug_assert!(i < n && b[i] == b'"');
    i += 1; // opening quote
    while i < n {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if !raw && b[i] == b'\\' {
            i += 2;
        } else if b[i] == b'"' {
            // For raw strings, require the matching run of `#`.
            let mut k = i + 1;
            let mut seen = 0;
            while k < n && seen < hashes && b[k] == b'#' {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Position classification for a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pos {
    Expr,
    Pattern,
}

#[derive(Debug)]
enum Frame {
    /// A `{}`/`()`/`[]` group. `pos` is the position its contents inherit;
    /// `resets_arm` marks a match-arm body block (`=> { ... }`) whose close
    /// returns the enclosing match body to pattern position.
    Block {
        close: char,
        pos: Pos,
        resets_arm: bool,
    },
    /// The body `{ ... }` of a `match`.
    MatchBody {
        in_pattern: bool,
        in_guard: bool,
        after_arrow: bool,
    },
    /// A `matches!( expr , pattern )` invocation.
    MatchesMacro { in_pattern: bool },
}

impl Frame {
    fn close(&self) -> char {
        match self {
            Frame::Block { close, .. } => *close,
            Frame::MatchBody { .. } => '}',
            Frame::MatchesMacro { .. } => ')',
        }
    }
}

/// Scan one file's source text into [`SourceFacts`].
pub fn scan_source(src: &str) -> SourceFacts {
    let toks = lex(src);
    let mut facts = SourceFacts::default();

    let mut stack: Vec<Frame> = Vec::new();
    // Depths (stack lengths) at which a `match` keyword is awaiting its
    // body brace.
    let mut pending_match: Vec<usize> = Vec::new();
    // `let` / `for` statement pattern state, per current nesting level:
    // (depth, active) — simple single-slot since statements don't nest
    // without an intervening group.
    let mut stmt_pattern_at: Option<usize> = None;
    // `impl Trait for Type { ... }` headers: the `for` there is not a
    // loop's pattern binder. Set on `impl`, cleared at its body brace.
    let mut impl_header_at: Option<usize> = None;
    // In-progress `Enum::Variant` path: (protocol, line) after `Enum ::`.
    let mut path: Option<(&'static str, u32, bool)> = None; // (proto, line, saw_sep)
                                                            // `matches` ident seen, awaiting `!` `(`.
    let mut matches_bang = 0u8; // 0 = no, 1 = saw `matches`, 2 = saw `matches !`
                                // `#[cfg(test)]` recognizer: progress through `# [ cfg ( test`.
    let mut cfg_test_progress = 0u8;
    let mut skip_cfg_test = false; // matched attribute; skip next braced item
    let mut skip_depth: Option<usize> = None; // inside a skipped item body

    let mut idx = 0;
    while idx < toks.len() {
        let (tok, line) = &toks[idx];
        let line = *line;

        // --- skipped `#[cfg(test)]` item bodies -------------------------
        if let Some(d) = skip_depth {
            match tok {
                Tok::Punct('{') => skip_depth = Some(d + 1),
                Tok::Punct('}') => {
                    if d == 1 {
                        skip_depth = None;
                    } else {
                        skip_depth = Some(d - 1);
                    }
                }
                _ => {}
            }
            idx += 1;
            continue;
        }
        if skip_cfg_test {
            // Consume tokens up to the item's opening brace (or a `;` for
            // brace-less items like `#[cfg(test)] use ...;`).
            match tok {
                Tok::Punct('{') => {
                    skip_cfg_test = false;
                    skip_depth = Some(1);
                }
                Tok::Punct(';') => skip_cfg_test = false,
                _ => {}
            }
            idx += 1;
            continue;
        }

        // --- `#[cfg(test)]` attribute recognizer ------------------------
        cfg_test_progress = match (cfg_test_progress, tok) {
            (0, Tok::Punct('#')) => 1,
            (1, Tok::Punct('[')) => 2,
            (2, Tok::Ident(s)) if s == "cfg" => 3,
            (3, Tok::Punct('(')) => 4,
            (4, Tok::Ident(s)) if s == "test" => 5,
            (5, Tok::Punct(')')) => 6,
            (6, Tok::Punct(']')) => {
                skip_cfg_test = true;
                0
            }
            (_, Tok::Punct('#')) => 1,
            _ => 0,
        };
        if skip_cfg_test {
            idx += 1;
            continue;
        }

        // --- current position -------------------------------------------
        let pos = {
            let base = match stack.last() {
                Some(Frame::MatchBody {
                    in_pattern,
                    in_guard,
                    ..
                }) => {
                    if *in_pattern && !*in_guard {
                        Pos::Pattern
                    } else {
                        Pos::Expr
                    }
                }
                Some(Frame::MatchesMacro { in_pattern }) => {
                    if *in_pattern {
                        Pos::Pattern
                    } else {
                        Pos::Expr
                    }
                }
                Some(Frame::Block { pos, .. }) => *pos,
                None => Pos::Expr,
            };
            if stmt_pattern_at == Some(stack.len()) {
                Pos::Pattern
            } else {
                base
            }
        };

        // --- wire-message path recognition ------------------------------
        match tok {
            Tok::Ident(name) => {
                if let Some((proto, pline, true)) = path.take() {
                    let key = format!("{proto}::{name}");
                    let map = match pos {
                        Pos::Expr => &mut facts.constructs,
                        Pos::Pattern => &mut facts.dispatches,
                    };
                    map.entry(key).or_default().push(pline);
                } else if let Some((_, proto)) = ENUM_PROTOCOLS.iter().find(|(e, _)| e == name) {
                    path = Some((proto, line, false));
                }
            }
            Tok::PathSep => {
                if let Some((proto, pline, false)) = path.take() {
                    path = Some((proto, pline, true));
                }
            }
            _ => {
                path = None;
            }
        }

        // --- lint hits ---------------------------------------------------
        if let Tok::Ident(name) = tok {
            let next = toks.get(idx + 1).map(|(t, _)| t);
            let next2 = toks.get(idx + 2).map(|(t, _)| t);
            match name.as_str() {
                "HashMap" | "HashSet" => facts.lint_hits.push((LintHit::StdHash, line)),
                "SystemTime" => facts.lint_hits.push((LintHit::WallClock, line)),
                "Instant"
                    if next == Some(&Tok::PathSep)
                        && matches!(next2, Some(Tok::Ident(m)) if m == "now") =>
                {
                    facts.lint_hits.push((LintHit::WallClock, line));
                }
                "thread"
                    if next == Some(&Tok::PathSep)
                        && matches!(next2, Some(Tok::Ident(m)) if m == "spawn" || m == "scope") =>
                {
                    facts.lint_hits.push((LintHit::ThreadSpawn, line));
                }
                "println" | "eprintln" if next == Some(&Tok::Punct('!')) => {
                    facts.lint_hits.push((LintHit::Println, line));
                }
                "Mutex" | "RwLock" => facts.lint_hits.push((LintHit::SharedState, line)),
                n if n.starts_with("Atomic") => {
                    facts.lint_hits.push((LintHit::SharedState, line));
                }
                _ => {}
            }
        }

        // --- context state machine --------------------------------------
        match tok {
            Tok::Ident(name) => {
                match name.as_str() {
                    "match" => pending_match.push(stack.len()),
                    "impl" => impl_header_at = Some(stack.len()),
                    "let" => stmt_pattern_at = Some(stack.len()),
                    "for" if impl_header_at != Some(stack.len()) => {
                        stmt_pattern_at = Some(stack.len());
                    }
                    // `in` ends a `for` pattern; harmless after `let`.
                    "in" if stmt_pattern_at == Some(stack.len()) => {
                        stmt_pattern_at = None;
                    }
                    "matches" => matches_bang = 1,
                    "if" => {
                        if let Some(Frame::MatchBody {
                            in_pattern: true,
                            in_guard,
                            ..
                        }) = stack.last_mut()
                        {
                            *in_guard = true;
                        }
                    }
                    _ => {}
                }
                if name != "matches" {
                    matches_bang = 0;
                }
            }
            Tok::Punct('!') if matches_bang == 1 => matches_bang = 2,
            Tok::Punct('(') if matches_bang == 2 => {
                matches_bang = 0;
                stack.push(Frame::MatchesMacro { in_pattern: false });
            }
            Tok::Punct(open @ ('(' | '[')) => {
                matches_bang = 0;
                let close = if *open == '(' { ')' } else { ']' };
                stack.push(Frame::Block {
                    close,
                    pos,
                    resets_arm: false,
                });
            }
            Tok::Punct('{') => {
                matches_bang = 0;
                // `let x = S { .. };` — a brace in stmt-pattern position
                // while still *left* of `=` cannot happen; a brace while
                // the flag is set means `let PAT = match ... {`-style
                // bodies already cleared it via `=`. Clear defensively.
                if stmt_pattern_at == Some(stack.len()) {
                    stmt_pattern_at = None;
                }
                if impl_header_at == Some(stack.len()) {
                    impl_header_at = None;
                }
                if pending_match.last() == Some(&stack.len()) {
                    pending_match.pop();
                    stack.push(Frame::MatchBody {
                        in_pattern: true,
                        in_guard: false,
                        after_arrow: false,
                    });
                } else {
                    let resets = matches!(
                        stack.last(),
                        Some(Frame::MatchBody {
                            after_arrow: true,
                            ..
                        })
                    );
                    stack.push(Frame::Block {
                        close: '}',
                        pos,
                        resets_arm: resets,
                    });
                }
            }
            Tok::Punct(close @ (')' | ']' | '}')) => {
                matches_bang = 0;
                let popped = if stack.last().map(|f| f.close() == *close).unwrap_or(false) {
                    stack.pop()
                } else {
                    None
                };
                pending_match.retain(|d| *d <= stack.len());
                if stmt_pattern_at.map(|d| d > stack.len()).unwrap_or(false) {
                    stmt_pattern_at = None;
                }
                if impl_header_at.map(|d| d > stack.len()).unwrap_or(false) {
                    impl_header_at = None;
                }
                if let Some(Frame::Block {
                    resets_arm: true, ..
                }) = popped
                {
                    if let Some(Frame::MatchBody { in_pattern, .. }) = stack.last_mut() {
                        *in_pattern = true;
                    }
                }
            }
            Tok::FatArrow => {
                matches_bang = 0;
                if let Some(Frame::MatchBody {
                    in_pattern,
                    in_guard,
                    after_arrow,
                }) = stack.last_mut()
                {
                    *in_pattern = false;
                    *in_guard = false;
                    *after_arrow = true;
                }
            }
            Tok::Punct(',') => {
                matches_bang = 0;
                match stack.last_mut() {
                    Some(Frame::MatchBody {
                        in_pattern,
                        after_arrow,
                        ..
                    }) => {
                        if !*in_pattern {
                            *in_pattern = true;
                        }
                        *after_arrow = false;
                    }
                    Some(Frame::MatchesMacro { in_pattern }) => *in_pattern = true,
                    _ => {}
                }
            }
            Tok::Punct('=') => {
                matches_bang = 0;
                if stmt_pattern_at == Some(stack.len()) {
                    stmt_pattern_at = None;
                }
            }
            Tok::Punct(';') => {
                matches_bang = 0;
                if stmt_pattern_at == Some(stack.len()) {
                    stmt_pattern_at = None;
                }
            }
            _ => {
                matches_bang = 0;
            }
        }

        // `after_arrow` is only meaningful for the *first* token after
        // `=>`; any non-`{` token consumes it.
        if !matches!(tok, Tok::FatArrow | Tok::Punct('{')) {
            if let Some(Frame::MatchBody { after_arrow, .. }) = stack.last_mut() {
                *after_arrow = false;
            }
        }

        idx += 1;
    }

    facts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constructs(src: &str) -> Vec<String> {
        scan_source(src).constructs.keys().cloned().collect()
    }
    fn dispatches(src: &str) -> Vec<String> {
        scan_source(src).dispatches.keys().cloned().collect()
    }

    #[test]
    fn construction_in_expression_position() {
        let src = r#"
            fn f(ctx: &mut Ctx) {
                ctx.send(to, Payload::Broker(BrokerMsg::AllocGrant {
                    grow, machine, hostname, span,
                }));
                let p = Payload::Ctl(CtlMsg::Stop);
            }
        "#;
        assert_eq!(constructs(src), vec!["Broker::AllocGrant", "Ctl::Stop"]);
        assert!(dispatches(src).is_empty());
    }

    #[test]
    fn match_arms_are_pattern_position() {
        let src = r#"
            fn f(m: BrokerMsg) {
                match m {
                    BrokerMsg::DaemonHello { machine } => hello(machine),
                    BrokerMsg::DaemonStatus(report) => {
                        status(report);
                    }
                    BrokerMsg::JobDone { job } if job.0 > 0 => done(job),
                    _ => {}
                }
            }
        "#;
        assert_eq!(
            dispatches(src),
            vec![
                "Broker::DaemonHello",
                "Broker::DaemonStatus",
                "Broker::JobDone"
            ]
        );
        assert!(constructs(src).is_empty());
    }

    #[test]
    fn construction_inside_arm_body_is_expression() {
        let src = r#"
            fn f(m: BrokerMsg, ctx: &mut Ctx) {
                match m {
                    BrokerMsg::RegisterJob { appl, .. } => {
                        ctx.send(appl, Payload::Broker(BrokerMsg::JobAccepted { job }));
                    }
                    BrokerMsg::QueryCluster { reply_to } =>
                        ctx.send(reply_to, Payload::Broker(BrokerMsg::ClusterStatus { lines })),
                    _ => {}
                }
            }
        "#;
        let f = scan_source(src);
        assert_eq!(
            f.dispatches.keys().collect::<Vec<_>>(),
            vec!["Broker::QueryCluster", "Broker::RegisterJob"]
        );
        assert_eq!(
            f.constructs.keys().collect::<Vec<_>>(),
            vec!["Broker::ClusterStatus", "Broker::JobAccepted"]
        );
    }

    #[test]
    fn if_let_and_matches_are_pattern_position() {
        let src = r#"
            fn f(msg: Payload) {
                if let Payload::Ctl(CtlMsg::Probe { reply_to, token }) = msg {
                    reply(reply_to, Payload::Ctl(CtlMsg::ProbeReply { token }));
                }
                while let Payload::Appl(ApplMsg::ReleaseChild) = next() {}
                let yes = matches!(peek(), Payload::Lam(LamMsg::Halt));
            }
        "#;
        let f = scan_source(src);
        assert_eq!(
            f.dispatches.keys().collect::<Vec<_>>(),
            vec!["Appl::ReleaseChild", "Ctl::Probe", "Lam::Halt"]
        );
        assert_eq!(f.constructs.keys().collect::<Vec<_>>(), ["Ctl::ProbeReply"]);
    }

    #[test]
    fn guard_expressions_are_expression_position() {
        let src = r#"
            fn f(m: PvmMsg) {
                match m {
                    PvmMsg::Halt if wants(PvmMsg::SlaveHalt) => stop(),
                    _ => {}
                }
            }
        "#;
        let f = scan_source(src);
        assert_eq!(f.dispatches.keys().collect::<Vec<_>>(), ["Pvm::Halt"]);
        assert_eq!(f.constructs.keys().collect::<Vec<_>>(), ["Pvm::SlaveHalt"]);
    }

    #[test]
    fn comments_strings_and_lifetimes_are_skipped() {
        let src = r##"
            // BrokerMsg::AllocGrant { .. } in a comment
            /* nested /* BrokerMsg::AllocDenied */ still comment */
            fn f<'a>(s: &'a str) {
                let s = "BrokerMsg::GrowOffer { machine, hostname }";
                let r = r#"CtlMsg::Stop"#;
                let c = '{';
                let b = b"ApplMsg::Shutdown";
            }
        "##;
        let f = scan_source(src);
        assert!(f.constructs.is_empty(), "got {:?}", f.constructs);
        assert!(f.dispatches.is_empty());
    }

    #[test]
    fn multi_hash_raw_strings_do_not_end_early() {
        // A `"#` inside an `r##"…"##` literal is content, not a
        // terminator; ending there would leak `BrokerMsg::AllocDenied`.
        let src = r###"
            fn f() {
                let s = r##"quote "# and BrokerMsg::AllocDenied stay inside"##;
                let p = Payload::Ctl(CtlMsg::Stop);
            }
        "###;
        let f = scan_source(src);
        assert_eq!(f.constructs.keys().collect::<Vec<_>>(), ["Ctl::Stop"]);
        assert!(f.dispatches.is_empty());
    }

    #[test]
    fn deeply_nested_block_comments_are_skipped() {
        let src = r#"
            /* one /* two /* three */ two */ BrokerMsg::GrowOffer */
            fn f() { let p = Payload::Ctl(CtlMsg::Stop); }
        "#;
        let f = scan_source(src);
        assert_eq!(f.constructs.keys().collect::<Vec<_>>(), ["Ctl::Stop"]);
    }

    #[test]
    fn raw_identifiers_lex_as_single_tokens() {
        // `r#match` must not leak a `match` keyword token: that would arm
        // the match-body state machine and flip the construct below into
        // pattern (dispatch) position.
        assert_eq!(
            lex("r#match"),
            vec![(Tok::Ident("r#match".into()), 1)],
            "raw identifier must be one token with its prefix kept"
        );
        let src = r#"
            fn f() {
                let r#match = { make(CtlMsg::Stop) };
            }
        "#;
        let f = scan_source(src);
        assert_eq!(f.constructs.keys().collect::<Vec<_>>(), ["Ctl::Stop"]);
        assert!(f.dispatches.is_empty(), "got {:?}", f.dispatches);
    }

    #[test]
    fn lifetime_tick_disambiguation_and_eof() {
        // A lifetime at end-of-input must not be misread as an
        // unterminated char literal.
        assert_eq!(lex("&'a"), vec![(Tok::Punct('&'), 1)]);
        // Char literal vs lifetime vs labeled loop, all in one source.
        let src = r#"
            fn f<'a>(s: &'a str) {
                let c = '{';
                'outer: loop { break 'outer; }
                let p = Payload::Ctl(CtlMsg::Stop);
            }
        "#;
        let f = scan_source(src);
        assert_eq!(f.constructs.keys().collect::<Vec<_>>(), ["Ctl::Stop"]);
        assert!(f.dispatches.is_empty());
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = r#"
            fn real() { send(Payload::Ctl(CtlMsg::Stop)); }
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                fn t() {
                    let m: HashMap<u32, u32> = HashMap::new();
                    send(Payload::Broker(BrokerMsg::DaemonPing { seq: 1 }));
                    println!("noise");
                }
            }
        "#;
        let f = scan_source(src);
        assert_eq!(f.constructs.keys().collect::<Vec<_>>(), ["Ctl::Stop"]);
        assert!(f.lint_hits.is_empty(), "got {:?}", f.lint_hits);
    }

    #[test]
    fn lint_hits_are_reported_with_lines() {
        let src = "use std::collections::HashMap;\n\
                   fn f() { let t = Instant::now(); }\n\
                   fn g() { std::thread::spawn(|| {}); }\n\
                   fn h() { println!(\"x\"); eprintln!(\"y\"); }\n\
                   fn k(s: SystemTime) {}\n";
        let hits = scan_source(src).lint_hits;
        assert!(hits.contains(&(LintHit::StdHash, 1)));
        assert!(hits.contains(&(LintHit::WallClock, 2)));
        assert!(hits.contains(&(LintHit::ThreadSpawn, 3)));
        assert!(hits.contains(&(LintHit::Println, 4)));
        assert!(hits.contains(&(LintHit::WallClock, 5)));
        // `Instant` without `::now` (e.g. a doc mention lexed as ident
        // elsewhere) is not a hit; only the call pattern is.
        assert_eq!(
            scan_source("fn f(i: Instant) {}").lint_hits,
            Vec::<(LintHit, u32)>::new()
        );
    }

    /// `impl Trait for Type` must not be read as a `for`-loop pattern —
    /// that poisoned whole impl bodies into pattern position once.
    #[test]
    fn impl_for_is_not_a_loop_pattern() {
        let src = r#"
            impl Behavior for EchoProg {
                fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Payload) {
                    if let Payload::Ctl(CtlMsg::Probe { reply_to, token }) = msg {
                        let _ = from;
                        ctx.send(reply_to, Payload::Ctl(CtlMsg::ProbeReply { token }));
                    }
                }
            }
            fn real_loop(hosts: Vec<String>) {
                for h in hosts {
                    send(Payload::Pvm(PvmMsg::AddHosts { hosts: vec![h] }));
                }
            }
        "#;
        let f = scan_source(src);
        assert_eq!(f.dispatches.keys().collect::<Vec<_>>(), ["Ctl::Probe"]);
        assert_eq!(
            f.constructs.keys().collect::<Vec<_>>(),
            vec!["Ctl::ProbeReply", "Pvm::AddHosts"]
        );
    }

    #[test]
    fn nested_match_in_arm_body() {
        let src = r#"
            fn f(m: Payload) {
                match m {
                    Payload::Lam(inner) => match inner {
                        LamMsg::GrowNode { host } => grow(host),
                        _ => {}
                    },
                    Payload::Calypso(CalypsoMsg::Idle) => {
                        send(Payload::Calypso(CalypsoMsg::WorkerLeaving { worker }));
                    }
                    _ => {}
                }
            }
        "#;
        let f = scan_source(src);
        assert_eq!(
            f.dispatches.keys().collect::<Vec<_>>(),
            vec!["Calypso::Idle", "Lam::GrowNode"]
        );
        assert_eq!(
            f.constructs.keys().collect::<Vec<_>>(),
            ["Calypso::WorkerLeaving"]
        );
    }

    #[test]
    fn unit_variant_construction_and_dispatch() {
        let src = r#"
            fn f(m: ApplMsg, ctx: &mut Ctx) {
                match m {
                    ApplMsg::Shutdown => ctx.exit(),
                    ApplMsg::ReleaseChild => {
                        ctx.send(parent, Payload::Appl(ApplMsg::Released { grow, machine }));
                    }
                    _ => {}
                }
                ctx.send(child, Payload::Appl(ApplMsg::Shutdown));
            }
        "#;
        let f = scan_source(src);
        assert_eq!(
            f.dispatches.keys().collect::<Vec<_>>(),
            vec!["Appl::ReleaseChild", "Appl::Shutdown"]
        );
        assert_eq!(
            f.constructs.keys().collect::<Vec<_>>(),
            vec!["Appl::Released", "Appl::Shutdown"]
        );
    }
}
