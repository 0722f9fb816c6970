//! The workspace source lint pass (engine v2).
//!
//! A real token-stream lexer — still no syn, no rustc — that tokenizes
//! each file (strings, chars, lifetimes, nested block comments and raw
//! strings handled correctly), tracks `#[cfg(test)]` module and hot-path
//! function extents by brace depth, and applies scoped rules chosen for
//! this codebase's failure modes:
//!
//! - **hash-iteration**: no `HashMap`/`HashSet` in any deterministic-replay
//!   path (everything except the dataset generators and the bench harness).
//!   Hash iteration order is randomized per process *and per container*,
//!   so any float accumulation over it silently destroys the determinism
//!   the virtual-time design guarantees.
//! - **unwrap**: no `.unwrap()` / `.expect(...)` in library code outside
//!   tests; panics must be documented contracts, marked with an allow.
//! - **float-eq**: no `==`/`!=` against float literals in kernel code;
//!   exact structural-zero skips must be marked deliberate.
//! - **crate-attrs**: every crate root carries `#![forbid(unsafe_code)]`
//!   and `#![deny(missing_docs)]`.
//! - **thread-spawn**: no direct `thread::spawn`/`thread::scope` outside
//!   the declared allowlist of worker-pool modules.
//! - **hot-alloc**: no heap allocation in the blocked-kernel files or the
//!   multifrontal task body — the steady-state refactorization loop is
//!   zero-alloc by design.
//! - **panic-path**: no `.unwrap()`/`.expect(`/`panic!`/`unreachable!`/
//!   slice indexing in the serving request handlers, the shared `wire`
//!   reader or the binary-format decode paths — a malformed frame from
//!   the network must surface as a protocol error, never as a process
//!   abort.
//! - **wall-clock**: no `Instant::now`/`SystemTime` outside the two
//!   modules that own time (the trace epoch clock and the plan executor's
//!   task-span stamping) — ambient wall-clock reads are determinism hazards
//!   everywhere else.
//! - **lock-order**: ranked mutexes (fleet router < serve dispatcher
//!   state < executor workspace pool) must be acquired in strictly
//!   increasing rank order, so cross-layer deadlocks are impossible by
//!   construction.
//!
//! Any finding can opt out with `// lint: allow(<rule>)` on the same line,
//! on the line directly above, or on either of those positions relative to
//! the *first line of the enclosing statement* — so an allow above a
//! multi-line statement suppresses the whole statement, continuation lines
//! included. Suppressed findings are not discarded: they are reported with
//! their allow-line provenance in [`Diagnostics::allowed`], and the JSON
//! report lists them so CI can audit every escape.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The lint rules, identified by the ids used in `lint: allow(...)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hash containers in order-sensitive paths.
    HashIteration,
    /// `.unwrap()` / `.expect(...)` in library code outside tests.
    Unwrap,
    /// Float `==` / `!=` comparisons in kernel code.
    FloatEq,
    /// Missing `#![forbid(unsafe_code)]` / `#![deny(missing_docs)]`.
    CrateAttrs,
    /// `thread::spawn` / `thread::scope` outside the allowlisted pools.
    ThreadSpawn,
    /// Heap allocation in the blocked-kernel hot path.
    HotAlloc,
    /// Panic-capable constructs in request handling / decode paths.
    PanicPath,
    /// Ambient wall-clock reads outside the clock-owning modules.
    WallClock,
    /// Ranked mutexes acquired out of order.
    LockOrder,
}

impl Rule {
    /// The id accepted by `// lint: allow(<id>)`.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::HashIteration => "hash-iteration",
            Rule::Unwrap => "unwrap",
            Rule::FloatEq => "float-eq",
            Rule::CrateAttrs => "crate-attrs",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::HotAlloc => "hot-alloc",
            Rule::PanicPath => "panic-path",
            Rule::WallClock => "wall-clock",
            Rule::LockOrder => "lock-order",
        }
    }

    /// Diagnostic severity for the JSON report. Every rule is enforced
    /// (CI fails on any non-allowed finding), so they are all errors.
    pub fn severity(&self) -> &'static str {
        "error"
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// 1-based column of the offending token (0 for whole-file findings).
    pub col: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable description with the offending snippet.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A finding that *would* have fired but was suppressed by a
/// `lint: allow(...)` escape — kept for provenance so the machine-readable
/// report can account for every escape hatch in the tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowedViolation {
    /// The suppressed finding.
    pub violation: Violation,
    /// 1-based line carrying the `lint: allow(...)` comment.
    pub allow_line: usize,
}

/// The full output of a lint pass: live findings plus suppressed ones.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Diagnostics {
    /// Findings not covered by any allow escape — these fail CI.
    pub violations: Vec<Violation>,
    /// Findings suppressed by a `lint: allow(...)` escape, with the line
    /// of the escape that covered each.
    pub allowed: Vec<AllowedViolation>,
}

impl Diagnostics {
    fn merge(&mut self, other: Diagnostics) {
        self.violations.extend(other.violations);
        self.allowed.extend(other.allowed);
    }
}

/// Paths (workspace-relative, `/`-separated prefixes) where hash-container
/// use is forbidden: everything the deterministic replay depends on — all
/// library code except the dataset generators (grid bucketing with sorted
/// drains) and the bench harness (reporting only).
const HASH_SCOPES: [&str; 13] = [
    "crates/analyze/src",
    "crates/core/src",
    "crates/factors/src",
    "crates/fleet/src",
    "crates/hw/src",
    "crates/linalg/src",
    "crates/metrics/src",
    "crates/runtime/src",
    "crates/serve/src",
    "crates/solvers/src",
    "crates/sparse/src",
    "crates/trace/src",
    "src/",
];

/// Paths where float equality comparisons are checked (the numeric
/// kernels).
const FLOAT_EQ_SCOPES: [&str; 2] = ["crates/linalg/src", "crates/sparse/src"];

/// The modules allowed to spawn OS threads, each a documented worker pool
/// whose determinism argument is checked elsewhere:
///
/// - the serving layer's session dispatcher (per-session exclusivity makes
///   results interleaving-independent; the `serve_smoke` gate);
/// - the fleet front door's per-connection handlers (every request
///   serializes through the single ranked `router` mutex, so connection
///   interleaving cannot reorder router state transitions).
///
/// Everywhere else, host parallelism must go through one of these.
const THREAD_SPAWN_ALLOWLIST: [&str; 2] = [
    "crates/serve/src/dispatch.rs",
    "crates/fleet/src/bin/fleet_router.rs",
];
// (The fleet shard harness's accept thread carries a per-site
// `lint: allow(thread-spawn)` instead of a scope entry: one thread, one
// documented site.)

/// Files whose *entire* non-test contents are hot-alloc scope: the blocked
/// dense kernels and the plan executor (every line of these is either on
/// the per-task hot path or a documented cold-path setup that carries an
/// allow).
const HOT_ALLOC_FILE_SCOPES: [&str; 4] = [
    "crates/linalg/src/kernels.rs",
    "crates/linalg/src/blas.rs",
    "crates/linalg/src/cholesky.rs",
    "crates/sparse/src/executor.rs",
];

/// `(file, fn name)` pairs whose function body (brace extent) is hot-alloc
/// scope: the multifrontal task body runs once per supernode per step, the
/// supernodal triangular solve visits every supernode twice per step, the
/// gradient rebuild visits every linearized factor once per step, the
/// SO(3)/SE(3) group operations and the probe residuals run dozens of times
/// per relinearized factor, the Hessian replacement twice per block pair
/// of every relinearized factor, and RA-ISAM2's selection walks the
/// root path of every candidate (a name covers every fn of that name in its
/// file, so `exp` scopes both `Rot3::exp` and `Se3::exp`, and `error_into`
/// every factor's impl; a bodyless trait declaration scopes nothing).
const HOT_ALLOC_FN_SCOPES: [(&str, &str); 22] = [
    ("crates/sparse/src/numeric.rs", "compute_task"),
    ("crates/sparse/src/numeric.rs", "solve_in_place"),
    ("crates/solvers/src/engine.rs", "gradient_into"),
    ("crates/factors/src/se3.rs", "exp"),
    ("crates/factors/src/se3.rs", "log"),
    ("crates/factors/src/se3.rs", "compose"),
    ("crates/factors/src/se3.rs", "inverse"),
    ("crates/factors/src/se3.rs", "rotate"),
    ("crates/factors/src/se3.rs", "normalized"),
    ("crates/factors/src/se3.rs", "retract"),
    ("crates/factors/src/se3.rs", "local"),
    ("crates/factors/src/se3.rs", "hat"),
    ("crates/factors/src/se3.rs", "mul3"),
    ("crates/factors/src/factor.rs", "linearize_into"),
    ("crates/factors/src/factor.rs", "error_at_probe"),
    ("crates/factors/src/factor.rs", "probe"),
    ("crates/factors/src/factor.rs", "error_into"),
    ("crates/solvers/src/engine.rs", "replace_contribution"),
    ("crates/solvers/src/engine.rs", "add_grams"),
    ("crates/solvers/src/engine.rs", "add_gram"),
    ("crates/solvers/src/ra_isam2.rs", "select"),
    ("crates/solvers/src/ra_isam2.rs", "affected_variables"),
];

/// Files where every panic-capable construct is a protocol bug: the wire
/// codec + request handlers of the serving layer (frames and the SNVC
/// checkpoint decoder), the shared `wire` reader every binary format
/// decodes through, and the SNVJ / SNVR decoders. Malformed input reaches
/// these from outside the process, so
/// `unwrap`/`expect`/`panic!`/`unreachable!`/slice indexing must not
/// appear — decode errors surface as `Result`s.
const PANIC_PATH_SCOPES: [&str; 7] = [
    "crates/serve/src/protocol.rs",
    "crates/serve/src/checkpoint.rs",
    "crates/serve/src/service.rs",
    "crates/serve/src/bin/serve_tcp.rs",
    "crates/trace/src/wire.rs",
    "crates/fleet/src/journal.rs",
    "crates/fleet/src/state.rs",
];

/// The only modules allowed to read the wall clock: the process-global
/// trace epoch and the executor's task-span stamping (whose wall fields
/// are documented as nondeterministic). Everywhere else in library code,
/// `Instant::now`/`SystemTime` is a determinism hazard.
const WALL_CLOCK_ALLOWLIST: [&str; 2] =
    ["crates/trace/src/clock.rs", "crates/sparse/src/executor.rs"];

/// Declared mutex ranks, `(file, binding name, rank)`. Ranked locks must
/// be acquired in strictly increasing rank order; acquiring a rank while
/// holding an equal or higher one is flagged. The declared order is the
/// call-graph order fleet front door → serve → executor: a connection
/// thread holds the fleet router mutex while the router dispatches into a
/// shard, whose dispatcher may hold its session state while dispatching
/// into the executor (whose one ranked lock is its workspace pool, taken
/// only to check an arena out before a plan runs and back in after) —
/// never any of the reverses.
const LOCK_RANKS: [(&str, &str, u32); 3] = [
    ("crates/fleet/src/bin/fleet_router.rs", "router", 0),
    ("crates/serve/src/dispatch.rs", "state", 1),
    ("crates/sparse/src/executor.rs", "pool", 2),
];

/// Allocation-shaped constructs the hot-alloc rule flags. Method-call
/// forms require a leading `.`/`::` token so `fn with_capacity(...)`
/// definitions don't fire.
const HOT_ALLOC_METHODS: [&str; 3] = ["to_vec", "with_capacity", "block"];

fn in_scope(rel: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| rel.starts_with(s))
}

/// Whether `rel` is a crate root (`src/lib.rs` of the root package or of a
/// workspace member).
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || (rel.starts_with("crates/")
            && rel.ends_with("/src/lib.rs")
            && rel.matches('/').count() == 3)
}

/// Whether the unwrap rule applies to `rel`: library sources only — not
/// binaries, not integration tests, not benches.
fn unwrap_scope(rel: &str) -> bool {
    let lib = rel.starts_with("crates/") && rel.contains("/src/") && !rel.contains("/src/bin/");
    lib || rel.starts_with("src/")
}

/// Whether the wall-clock rule applies: library sources outside the bench
/// harness (whose whole purpose is wall-clock measurement) and outside the
/// allowlisted clock-owning modules.
fn wall_clock_scope(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !rel.contains("/src/bin/")
        && !rel.starts_with("crates/bench/")
        && !WALL_CLOCK_ALLOWLIST.contains(&rel)
}

// ---------------------------------------------------------------------------
// Token-stream lexer
// ---------------------------------------------------------------------------

/// Token classes the rules discriminate on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (any base; suffix attached).
    Num,
    /// String / raw-string / byte-string literal.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Operator or delimiter, longest-match (`::`, `==`, `..=`, ...).
    Punct,
}

/// One lexed token with its source position.
#[derive(Clone, Debug)]
struct Tok {
    kind: TokKind,
    text: String,
    /// 1-based line of the token's first character.
    line: usize,
    /// 1-based column of the token's first character.
    col: usize,
}

/// A line comment, kept out of the token stream but recorded for
/// `lint: allow(...)` parsing.
#[derive(Clone, Debug)]
struct LineComment {
    line: usize,
    text: String,
    /// Whether the comment starts the line (nothing but whitespace before
    /// it) — only leading comments can vouch for the *next* line.
    leading: bool,
}

/// Multi-character operators, longest first (longest-match wins).
const PUNCT_TABLE: [&str; 24] = [
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

/// Tokenizes Rust source. Comments are dropped from the token stream
/// (line comments are returned separately for allow-escape parsing);
/// strings, raw strings, byte strings, char literals and lifetimes become
/// single tokens, so no rule can ever match inside literal text.
fn tokenize(source: &str) -> (Vec<Tok>, Vec<LineComment>) {
    let b: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut col = 1usize;
    let mut line_has_code = false;

    macro_rules! advance {
        ($n:expr) => {
            for _ in 0..$n {
                if i < b.len() {
                    if b[i] == '\n' {
                        line += 1;
                        col = 1;
                        line_has_code = false;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        };
    }

    while i < b.len() {
        let c = b[i];
        let c1 = b.get(i + 1).copied();

        // Whitespace.
        if c.is_whitespace() {
            advance!(1);
            continue;
        }

        // Line comment — recorded, not tokenized.
        if c == '/' && c1 == Some('/') {
            let start_line = line;
            let leading = !line_has_code;
            let mut text = String::new();
            while i < b.len() && b[i] != '\n' {
                text.push(b[i]);
                advance!(1);
            }
            comments.push(LineComment {
                line: start_line,
                text,
                leading,
            });
            continue;
        }

        // Block comment, nested.
        if c == '/' && c1 == Some('*') {
            let mut depth = 1usize;
            advance!(2);
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    advance!(2);
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    advance!(2);
                } else {
                    advance!(1);
                }
            }
            continue;
        }

        line_has_code = true;
        let (tline, tcol) = (line, col);

        // Raw strings / raw byte strings: r"", r#""#, br#""#.
        let raw_at = if c == 'r' && matches!(c1, Some('"') | Some('#')) {
            Some(1usize)
        } else if c == 'b' && c1 == Some('r') && matches!(b.get(i + 2), Some('"') | Some('#')) {
            Some(2usize)
        } else {
            None
        };
        if let Some(prefix) = raw_at {
            let mut j = i + prefix;
            let mut hashes = 0usize;
            while b.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&'"') {
                // Find the closing quote + `hashes` hashes.
                let mut k = j + 1;
                loop {
                    match b.get(k) {
                        None => break,
                        Some('"')
                            if b[k + 1..]
                                .iter()
                                .take(hashes)
                                .filter(|&&h| h == '#')
                                .count()
                                == hashes =>
                        {
                            k += 1 + hashes;
                            break;
                        }
                        Some(_) => k += 1,
                    }
                }
                let text: String = b[i..k.min(b.len())].iter().collect();
                let n = text.chars().count();
                toks.push(Tok {
                    kind: TokKind::Str,
                    text,
                    line: tline,
                    col: tcol,
                });
                advance!(n);
                continue;
            }
            // `r#ident` raw identifier falls through to the ident arm.
        }

        // Ordinary strings / byte strings.
        if c == '"' || (c == 'b' && c1 == Some('"')) {
            let mut k = i + if c == 'b' { 2 } else { 1 };
            while k < b.len() {
                match b[k] {
                    '\\' => k += 2,
                    '"' => {
                        k += 1;
                        break;
                    }
                    _ => k += 1,
                }
            }
            let text: String = b[i..k.min(b.len())].iter().collect();
            let n = text.chars().count();
            toks.push(Tok {
                kind: TokKind::Str,
                text,
                line: tline,
                col: tcol,
            });
            advance!(n);
            continue;
        }

        // Char literal vs lifetime. `b'x'` is a byte char.
        if c == '\'' || (c == 'b' && c1 == Some('\'')) {
            let q = if c == 'b' { i + 1 } else { i };
            // A char literal: 'x', '\n', '\u{...}'. A lifetime: 'ident not
            // followed by a closing quote.
            let is_char = match b.get(q + 1) {
                Some('\\') => true,
                Some(_) => b.get(q + 2) == Some(&'\''),
                None => false,
            };
            if is_char {
                let mut k = q + 1;
                if b.get(k) == Some(&'\\') {
                    k += 2;
                    // \u{...}
                    while k < b.len() && b[k] != '\'' {
                        k += 1;
                    }
                } else {
                    k += 1;
                }
                if b.get(k) == Some(&'\'') {
                    k += 1;
                }
                let text: String = b[i..k.min(b.len())].iter().collect();
                let n = text.chars().count();
                toks.push(Tok {
                    kind: TokKind::Char,
                    text,
                    line: tline,
                    col: tcol,
                });
                advance!(n);
                continue;
            }
            if c == '\'' {
                let mut k = i + 1;
                while k < b.len() && (b[k].is_alphanumeric() || b[k] == '_') {
                    k += 1;
                }
                let text: String = b[i..k].iter().collect();
                let n = text.chars().count();
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text,
                    line: tline,
                    col: tcol,
                });
                advance!(n);
                continue;
            }
        }

        // Identifier / keyword (incl. r#raw idents and the `b` that didn't
        // start a literal).
        if c.is_alphabetic() || c == '_' {
            let mut k = i;
            if c == 'r' && c1 == Some('#') {
                k += 2; // raw identifier prefix
            }
            while k < b.len() && (b[k].is_alphanumeric() || b[k] == '_') {
                k += 1;
            }
            let text: String = b[i..k].iter().collect();
            let n = text.chars().count();
            toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line: tline,
                col: tcol,
            });
            advance!(n);
            continue;
        }

        // Number: integer / float / hex / exponent, with suffix attached.
        // `1..4` lexes as Num(1) Punct(..) Num(4); `1.0e-9` is one token.
        if c.is_ascii_digit() {
            let mut k = i;
            let hex = c == '0' && matches!(c1, Some('x') | Some('X') | Some('b') | Some('o'));
            if hex {
                k += 2;
                while k < b.len() && (b[k].is_ascii_alphanumeric() || b[k] == '_') {
                    k += 1;
                }
            } else {
                while k < b.len() && (b[k].is_ascii_digit() || b[k] == '_') {
                    k += 1;
                }
                // Fraction: '.' followed by a digit (not `..`, not a method
                // call on the literal).
                if b.get(k) == Some(&'.') && b.get(k + 1).is_some_and(|d| d.is_ascii_digit()) {
                    k += 1;
                    while k < b.len() && (b[k].is_ascii_digit() || b[k] == '_') {
                        k += 1;
                    }
                } else if b.get(k) == Some(&'.')
                    && !matches!(b.get(k + 1), Some('.'))
                    && !b.get(k + 1).is_some_and(|d| d.is_alphabetic() || *d == '_')
                {
                    k += 1; // trailing `1.` float
                }
                // Exponent.
                if matches!(b.get(k), Some('e') | Some('E')) {
                    let sign = matches!(b.get(k + 1), Some('+') | Some('-'));
                    let digit_at = k + 1 + usize::from(sign);
                    if b.get(digit_at).is_some_and(|d| d.is_ascii_digit()) {
                        k = digit_at;
                        while k < b.len() && (b[k].is_ascii_digit() || b[k] == '_') {
                            k += 1;
                        }
                    }
                }
                // Type suffix (f64, u32, usize, ...).
                while k < b.len() && (b[k].is_ascii_alphanumeric() || b[k] == '_') {
                    k += 1;
                }
            }
            let text: String = b[i..k].iter().collect();
            let n = text.chars().count();
            toks.push(Tok {
                kind: TokKind::Num,
                text,
                line: tline,
                col: tcol,
            });
            advance!(n);
            continue;
        }

        // Punctuation: longest multi-char operator first.
        let mut matched = None;
        for op in PUNCT_TABLE {
            let len = op.len(); // ASCII only
            if i + len <= b.len() && b[i..i + len].iter().collect::<String>() == op {
                matched = Some(op.to_string());
                break;
            }
        }
        let text = matched.unwrap_or_else(|| c.to_string());
        let n = text.chars().count();
        toks.push(Tok {
            kind: TokKind::Punct,
            text,
            line: tline,
            col: tcol,
        });
        advance!(n);
    }

    (toks, comments)
}

/// Keywords that can precede `[` without it being an index expression.
const NON_INDEX_KEYWORDS: [&str; 10] = [
    "let", "mut", "in", "if", "else", "match", "return", "move", "ref", "as",
];

/// Per-token context computed in one sweep: brace depth, the first line of
/// the enclosing statement, and whether the token sits inside a
/// `#[cfg(test)]` mod or a hot-alloc-scoped fn body.
struct TokCtx {
    stmt_line: usize,
    in_test: bool,
    in_hot_fn: bool,
}

fn token_contexts(toks: &[Tok], hot_fns: &[&str]) -> Vec<TokCtx> {
    let mut out = Vec::with_capacity(toks.len());
    let mut depth: i64 = 0;
    let mut stmt_line = toks.first().map_or(1, |t| t.line);
    let mut new_stmt = false;
    let mut pending_cfg_test = false;
    let mut test_mod_pending = false;
    let mut test_mod_exit: Option<i64> = None;
    let mut hot_fn_pending = false;
    // `(` / `[` nesting inside a pending hot fn's signature: a `;` at zero
    // ends a bodyless declaration (a trait method), one inside is an array
    // type's length (`[f64; 3]`).
    let mut hot_sig_nesting: i64 = 0;
    let mut hot_fn_exit: Option<i64> = None;

    for (idx, t) in toks.iter().enumerate() {
        if new_stmt {
            stmt_line = t.line;
            new_stmt = false;
        }

        out.push(TokCtx {
            stmt_line,
            in_test: test_mod_exit.is_some(),
            in_hot_fn: hot_fn_exit.is_some(),
        });

        // `#[cfg(test)]` attribute → a following `mod` is test-only.
        if test_mod_exit.is_none()
            && t.kind == TokKind::Punct
            && t.text == "#"
            && matches(toks, idx + 1, &["[", "cfg", "(", "test", ")", "]"])
        {
            pending_cfg_test = true;
        } else if pending_cfg_test && t.kind == TokKind::Ident {
            if t.text == "mod" {
                test_mod_pending = true;
                pending_cfg_test = false;
            } else if !is_attr_interior(toks, idx) {
                // #[cfg(test)] on a fn/use/impl — only that item, which the
                // mod tracking doesn't model; clear (matches engine v1).
                pending_cfg_test = false;
            }
        }

        // Hot-fn signature: `fn <name>` for a declared (file, name) pair.
        if hot_fn_exit.is_none()
            && t.kind == TokKind::Ident
            && t.text == "fn"
            && toks
                .get(idx + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && hot_fns.contains(&n.text.as_str()))
        {
            hot_fn_pending = true;
            hot_sig_nesting = 0;
        }

        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(" | "[") if hot_fn_pending => hot_sig_nesting += 1,
            (TokKind::Punct, ")" | "]") if hot_fn_pending => hot_sig_nesting -= 1,
            (TokKind::Punct, "{") => {
                if test_mod_pending {
                    test_mod_exit = Some(depth);
                    test_mod_pending = false;
                }
                if hot_fn_pending {
                    hot_fn_exit = Some(depth);
                    hot_fn_pending = false;
                }
                depth += 1;
                new_stmt = true;
            }
            (TokKind::Punct, "}") => {
                depth -= 1;
                if test_mod_exit.is_some_and(|e| depth <= e) {
                    test_mod_exit = None;
                }
                if hot_fn_exit.is_some_and(|e| depth <= e) {
                    hot_fn_exit = None;
                }
                new_stmt = true;
            }
            (TokKind::Punct, ";") => {
                if hot_sig_nesting == 0 {
                    hot_fn_pending = false;
                }
                new_stmt = true;
            }
            _ => {}
        }
    }
    out
}

/// Whether token `idx` sits inside an attribute's brackets (scan back to
/// the statement-ish boundary for an unclosed `#[`). Cheap approximation:
/// look back a few tokens for `#` `[` without a closing `]` in between.
fn is_attr_interior(toks: &[Tok], idx: usize) -> bool {
    let lo = idx.saturating_sub(16);
    let mut open = false;
    for t in &toks[lo..idx] {
        if t.kind == TokKind::Punct && t.text == "#" {
            open = false;
        } else if t.kind == TokKind::Punct && t.text == "[" {
            // only counts if directly after '#", approximated by toggling
            open = true;
        } else if t.kind == TokKind::Punct && t.text == "]" {
            open = false;
        }
    }
    open
}

/// Whether `toks[at..]` matches the given punct/ident texts exactly.
fn matches(toks: &[Tok], at: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, want)| toks.get(at + k).is_some_and(|t| t.text == *want))
}

// ---------------------------------------------------------------------------
// Allow-escape resolution
// ---------------------------------------------------------------------------

/// Resolves `lint: allow(<rule>)` escapes against the recorded line
/// comments. An escape covers a finding if it sits:
///
/// - on the finding's own line (trailing comment), or
/// - on a leading comment line directly above the finding's line, or
/// - on the first line of the finding's enclosing statement, or
/// - on a leading comment line directly above that first line.
///
/// The last two make an allow above a *multi-line* statement suppress the
/// whole statement, continuation lines included.
struct Allows<'a> {
    comments: &'a [LineComment],
}

impl<'a> Allows<'a> {
    fn new(comments: &'a [LineComment]) -> Self {
        Allows { comments }
    }

    fn on_line(&self, line: usize, needle: &str, leading_only: bool) -> Option<usize> {
        self.comments
            .iter()
            .find(|c| c.line == line && (!leading_only || c.leading) && c.text.contains(needle))
            .map(|c| c.line)
    }

    /// The allow line covering a finding at (`line`, statement first line
    /// `stmt_line`) for `rule`, if any.
    fn covering(&self, line: usize, stmt_line: usize, rule: Rule) -> Option<usize> {
        let needle = format!("lint: allow({})", rule.id());
        self.on_line(line, &needle, false)
            .or_else(|| {
                line.checked_sub(1)
                    .and_then(|l| self.on_line(l, &needle, true))
            })
            .or_else(|| self.on_line(stmt_line, &needle, false))
            .or_else(|| {
                stmt_line
                    .checked_sub(1)
                    .and_then(|l| self.on_line(l, &needle, true))
            })
    }
}

// ---------------------------------------------------------------------------
// The lint pass
// ---------------------------------------------------------------------------

/// Lints one file's source text, returning live findings only (the
/// [`lint_file_diag`] variant also reports suppressed findings). `rel` is
/// the workspace-relative path with `/` separators; it selects which rules
/// apply.
pub fn lint_file(rel: &str, source: &str) -> Vec<Violation> {
    lint_file_diag(rel, source).violations
}

/// Lints one file's source text with full diagnostics (live findings plus
/// allow-suppressed ones with provenance).
pub fn lint_file_diag(rel: &str, source: &str) -> Diagnostics {
    let path = PathBuf::from(rel);
    let check_hash = in_scope(rel, &HASH_SCOPES);
    let check_float = in_scope(rel, &FLOAT_EQ_SCOPES);
    let check_panic = PANIC_PATH_SCOPES.contains(&rel);
    // Panic-path is the stricter superset: where it applies, it owns
    // unwrap/expect so a finding never fires under two ids at once.
    let check_unwrap = unwrap_scope(rel) && !check_panic;
    let check_thread_spawn = !THREAD_SPAWN_ALLOWLIST.contains(&rel);
    let check_wall_clock = wall_clock_scope(rel);
    let hot_alloc_file = in_scope(rel, &HOT_ALLOC_FILE_SCOPES);
    let hot_alloc_fns: Vec<&str> = HOT_ALLOC_FN_SCOPES
        .iter()
        .filter(|(f, _)| *f == rel)
        .map(|(_, name)| *name)
        .collect();
    let lock_ranks: Vec<(&str, u32)> = LOCK_RANKS
        .iter()
        .filter(|(f, _, _)| *f == rel)
        .map(|(_, name, rank)| (*name, *rank))
        .collect();
    let crate_root = is_crate_root(rel);

    let (toks, comments) = tokenize(source);
    let ctx = token_contexts(&toks, &hot_alloc_fns);
    let allows = Allows::new(&comments);
    let lines: Vec<&str> = source.lines().collect();
    let snippet =
        |line: usize| -> &str { lines.get(line.wrapping_sub(1)).map_or("", |l| l.trim()) };

    let mut diags = Diagnostics::default();
    let mut report = |tok: &Tok, stmt_line: usize, rule: Rule, message: String| {
        let v = Violation {
            file: path.clone(),
            line: tok.line,
            col: tok.col,
            rule,
            message,
        };
        match allows.covering(tok.line, stmt_line, rule) {
            Some(allow_line) => diags.allowed.push(AllowedViolation {
                violation: v,
                allow_line,
            }),
            None => diags.violations.push(v),
        }
    };

    let id = |i: usize, s: &str| -> bool {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    };
    let p = |i: usize, s: &str| -> bool {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    };
    let is_float = |t: &Tok| -> bool {
        t.kind == TokKind::Num
            && !t.text.starts_with("0x")
            && !t.text.starts_with("0b")
            && (t.text.contains('.')
                || ((t.text.contains('e') || t.text.contains('E')) && !t.text.ends_with("size")))
    };

    for (i, t) in toks.iter().enumerate() {
        let c = &ctx[i];
        if c.in_test {
            continue; // inside #[cfg(test)] mod: no rules apply
        }
        let stmt = c.stmt_line;

        // hash-iteration
        if check_hash && t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            report(
                t,
                stmt,
                Rule::HashIteration,
                format!(
                    "hash container in order-sensitive path (iteration order is \
                     nondeterministic; use BTreeMap/BTreeSet or a sorted drain): `{}`",
                    snippet(t.line)
                ),
            );
        }

        // unwrap / panic-path method calls: `.unwrap(` / `.expect(`
        if p(i, ".")
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Ident && (n.text == "unwrap" || n.text == "expect")
            })
            && p(i + 2, "(")
        {
            if check_unwrap {
                report(
                    t,
                    stmt,
                    Rule::Unwrap,
                    format!(
                        "unwrap/expect in library code (return an error or document the \
                         panic and allow it): `{}`",
                        snippet(t.line)
                    ),
                );
            } else if check_panic {
                report(
                    t,
                    stmt,
                    Rule::PanicPath,
                    format!(
                        "unwrap/expect on a request-handling/decode path (malformed input \
                         must surface as a protocol error, not a panic): `{}`",
                        snippet(t.line)
                    ),
                );
            }
        }

        // panic-path: panic! / unreachable! and slice indexing
        if check_panic {
            if t.kind == TokKind::Ident
                && (t.text == "panic" || t.text == "unreachable")
                && p(i + 1, "!")
            {
                report(
                    t,
                    stmt,
                    Rule::PanicPath,
                    format!(
                        "{}! on a request-handling/decode path (return a protocol error \
                         instead): `{}`",
                        t.text,
                        snippet(t.line)
                    ),
                );
            }
            if t.kind == TokKind::Punct && t.text == "[" && i > 0 {
                let prev = &toks[i - 1];
                let indexable = match prev.kind {
                    TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                    TokKind::Punct => prev.text == ")" || prev.text == "]",
                    _ => false,
                };
                if indexable {
                    report(
                        t,
                        stmt,
                        Rule::PanicPath,
                        format!(
                            "slice indexing on a request-handling/decode path (out-of-range \
                             input panics; use .get()/.first() and surface an error): `{}`",
                            snippet(t.line)
                        ),
                    );
                }
            }
        }

        // thread-spawn
        if check_thread_spawn
            && id(i, "thread")
            && p(i + 1, "::")
            && toks.get(i + 2).is_some_and(|n| {
                n.kind == TokKind::Ident && (n.text == "spawn" || n.text == "scope")
            })
        {
            report(
                t,
                stmt,
                Rule::ThreadSpawn,
                format!(
                    "direct thread spawn outside the allowlisted worker pools (route \
                     host parallelism through sparse::ParallelExecutor or the serve \
                     dispatcher so results stay bit-identical): `{}`",
                    snippet(t.line)
                ),
            );
        }

        // wall-clock
        if check_wall_clock {
            let instant_now = id(i, "Instant") && p(i + 1, "::") && id(i + 2, "now");
            let system_time = id(i, "SystemTime");
            if instant_now || system_time {
                report(
                    t,
                    stmt,
                    Rule::WallClock,
                    format!(
                        "ambient wall-clock read outside the clock-owning modules \
                         (route timing through supernova_trace::epoch_seconds or the \
                         executor's schedule stamps): `{}`",
                        snippet(t.line)
                    ),
                );
            }
        }

        // hot-alloc
        if hot_alloc_file || c.in_hot_fn {
            let vec_new = id(i, "Vec") && p(i + 1, "::") && id(i + 2, "new");
            let vec_macro = id(i, "vec") && p(i + 1, "!");
            let mat_zeros = id(i, "Mat") && p(i + 1, "::") && id(i + 2, "zeros") && p(i + 3, "(");
            let method = (p(i, ".") || p(i, "::"))
                && toks.get(i + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident && HOT_ALLOC_METHODS.contains(&n.text.as_str())
                })
                && p(i + 2, "(");
            if vec_new || vec_macro || mat_zeros || method {
                report(
                    t,
                    stmt,
                    Rule::HotAlloc,
                    format!(
                        "heap allocation in the blocked-kernel hot path (use the pooled \
                         KernelScratch / persistent workspace buffers, or document a \
                         cold-path allocation with an allow): `{}`",
                        snippet(t.line)
                    ),
                );
            }
        }

        // float-eq
        if check_float && t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=") {
            let prev_float = i > 0 && is_float(&toks[i - 1]);
            let next_float = toks.get(i + 1).is_some_and(is_float);
            let next_eps =
                (id(i + 1, "f64") || id(i + 1, "f32")) && p(i + 2, "::") && id(i + 3, "EPSILON");
            let prev_eps = i >= 3
                && id(i - 1, "EPSILON")
                && p(i - 2, "::")
                && (id(i - 3, "f64") || id(i - 3, "f32"));
            if prev_float || next_float || next_eps || prev_eps {
                report(
                    t,
                    stmt,
                    Rule::FloatEq,
                    format!(
                        "float equality comparison in kernel code (use a tolerance, or mark \
                         a structural-zero test deliberate): `{}`",
                        snippet(t.line)
                    ),
                );
            }
        }
    }

    // lock-order: ranked-lock acquisition tracking.
    if !lock_ranks.is_empty() {
        check_lock_order(&toks, &ctx, &lock_ranks, &allows, &path, &lines, &mut diags);
    }

    // crate-attrs: raw-line scan (inner attributes precede any tokens the
    // statement machinery cares about).
    if crate_root {
        let mut has_forbid_unsafe = false;
        let mut has_deny_docs = false;
        for raw in &lines {
            let trimmed = raw.trim_start();
            if trimmed.starts_with("#![forbid(unsafe_code)]") {
                has_forbid_unsafe = true;
            }
            if trimmed.starts_with("#![deny(missing_docs)]") {
                has_deny_docs = true;
            }
        }
        if !has_forbid_unsafe {
            diags.violations.push(Violation {
                file: path.clone(),
                line: 0,
                col: 0,
                rule: Rule::CrateAttrs,
                message: "crate root is missing #![forbid(unsafe_code)]".into(),
            });
        }
        if !has_deny_docs {
            diags.violations.push(Violation {
                file: path.clone(),
                line: 0,
                col: 0,
                rule: Rule::CrateAttrs,
                message: "crate root is missing #![deny(missing_docs)]".into(),
            });
        }
    }

    diags
}

/// A held ranked lock and when it releases.
enum HeldUntil {
    /// Guard bound by `let`: released when brace depth drops below the
    /// acquisition depth, or by an explicit `drop(<binding>)`.
    Scope { depth: i64, binding: Option<String> },
    /// Temporary guard (no binding): released at the end of the statement.
    Statement,
}

/// Tracks acquisitions of the file's ranked locks through the token stream
/// and flags any acquisition while an equal-or-higher rank is held.
#[allow(clippy::too_many_arguments)]
fn check_lock_order(
    toks: &[Tok],
    ctx: &[TokCtx],
    ranks: &[(&str, u32)],
    allows: &Allows<'_>,
    path: &Path,
    lines: &[&str],
    diags: &mut Diagnostics,
) {
    let snippet =
        |line: usize| -> &str { lines.get(line.wrapping_sub(1)).map_or("", |l| l.trim()) };
    let mut held: Vec<(u32, &str, HeldUntil)> = Vec::new();
    let mut depth: i64 = 0;
    for (i, t) in toks.iter().enumerate() {
        if ctx[i].in_test {
            continue;
        }
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => depth += 1,
            (TokKind::Punct, "}") => {
                depth -= 1;
                // A block end releases out-of-scope guards and also ends
                // the current statement (tail expressions have no `;`).
                held.retain(|(_, _, until)| match until {
                    HeldUntil::Scope { depth: d, .. } => depth >= *d,
                    HeldUntil::Statement => false,
                });
            }
            (TokKind::Punct, ";") => {
                held.retain(|(_, _, until)| !matches!(until, HeldUntil::Statement));
            }
            (TokKind::Ident, "drop") if matches(toks, i + 1, &["("]) => {
                if let Some(victim) = toks.get(i + 2).filter(|v| v.kind == TokKind::Ident) {
                    held.retain(|(_, _, until)| {
                        !matches!(until, HeldUntil::Scope { binding: Some(b), .. }
                            if *b == victim.text)
                    });
                }
            }
            _ => {}
        }
        // Acquisition: `<name> . lock (` for a ranked name.
        let Some(&(name, rank)) = ranks
            .iter()
            .find(|(n, _)| t.kind == TokKind::Ident && t.text == *n)
        else {
            continue;
        };
        if !(matches(toks, i + 1, &[".", "lock", "("])) {
            continue;
        }
        for &(held_rank, held_name, _) in &held {
            if held_rank >= rank {
                let v = Violation {
                    file: path.to_path_buf(),
                    line: t.line,
                    col: t.col,
                    rule: Rule::LockOrder,
                    message: format!(
                        "acquiring ranked lock `{name}` (rank {rank}) while holding \
                         `{held_name}` (rank {held_rank}); ranked locks must be taken in \
                         strictly increasing order: `{}`",
                        snippet(t.line)
                    ),
                };
                match allows.covering(t.line, ctx[i].stmt_line, Rule::LockOrder) {
                    Some(allow_line) => diags.allowed.push(AllowedViolation {
                        violation: v,
                        allow_line,
                    }),
                    None => diags.violations.push(v),
                }
            }
        }
        // Does the enclosing statement bind a guard? Scan back to the
        // statement head for `let [mut] <binding> =`.
        let mut j = i;
        let mut binding = None;
        while j > 0 {
            let prev = &toks[j - 1];
            if prev.kind == TokKind::Punct
                && (prev.text == ";" || prev.text == "{" || prev.text == "}")
            {
                break;
            }
            j -= 1;
        }
        if toks
            .get(j)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == "let")
        {
            let mut k = j + 1;
            if toks.get(k).is_some_and(|t| t.text == "mut") {
                k += 1;
            }
            if let Some(b) = toks.get(k).filter(|t| t.kind == TokKind::Ident) {
                binding = Some(b.text.clone());
            }
        }
        let until = if binding.is_some() {
            HeldUntil::Scope { depth, binding }
        } else {
            HeldUntil::Statement
        };
        held.push((rank, name, until));
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rs_files(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lints every crate's `src/` tree under the workspace `root` (members in
/// `crates/` plus the root package's `src/`) with full diagnostics.
///
/// # Errors
///
/// Returns an [`io::Error`] if the workspace layout cannot be read.
pub fn lint_workspace_diag(root: &Path) -> io::Result<Diagnostics> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                rs_files(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        rs_files(&root_src, &mut files)?;
    }

    let mut out = Diagnostics::default();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let source = fs::read_to_string(&file)?;
        out.merge(lint_file_diag(&rel, &source));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        tokenize(src).0.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn tokenizer_strips_comments_and_strings() {
        assert!(!texts("let x = 1; // HashMap here").contains(&"HashMap".to_string()));
        assert!(!texts("let s = \"HashMap\";").contains(&"HashMap".to_string()));
        assert!(
            !texts("/* HashMap /* nested */ still */ let d = 2;").contains(&"HashMap".to_string())
        );
        assert!(texts("/* x */ let d = 2;").contains(&"let".to_string()));
        assert!(!texts("let r = r#\"HashMap \" quote\"#;").contains(&"HashMap".to_string()));
        assert!(!texts("let b = b\"HashMap\";").contains(&"HashMap".to_string()));
    }

    #[test]
    fn tokenizer_handles_chars_lifetimes_and_numbers() {
        let t = texts("fn f<'a>(x: &'a [u8]) -> char { '\\n' }");
        assert!(t.contains(&"'a".to_string()));
        assert!(t.contains(&"'\\n'".to_string()));
        // `1.0e-9` is one float token; `1..4` is Num Punct Num.
        let nums = tokenize("let x = 1.0e-9; let r = 1..4;").0;
        assert!(nums.iter().any(|t| t.text == "1.0e-9"));
        assert!(nums.iter().any(|t| t.text == ".."));
        assert!(nums.iter().any(|t| t.text == "1" || t.text == "4"));
        // Multi-char operators lex as single puncts.
        let ops = texts("if a == b && c != d { x += 1; }");
        assert!(ops.contains(&"==".to_string()));
        assert!(ops.contains(&"&&".to_string()));
        assert!(ops.contains(&"!=".to_string()));
        assert!(ops.contains(&"+=".to_string()));
    }

    #[test]
    fn tokenizer_records_comment_positions() {
        let (_, comments) = tokenize("let x = 1; // trailing\n// leading\nlet y = 2;\n");
        assert_eq!(comments.len(), 2);
        assert_eq!(comments[0].line, 1);
        assert!(!comments[0].leading);
        assert_eq!(comments[1].line, 2);
        assert!(comments[1].leading);
    }

    #[test]
    fn hash_rule_fires_in_scope_only() {
        let bad = "use std::collections::HashMap;\n";
        assert_eq!(lint_file("crates/runtime/src/sched.rs", bad).len(), 1);
        assert!(lint_file("crates/datasets/src/manhattan.rs", bad).is_empty());
        // v2 widened the scope to the serving and trace layers.
        assert_eq!(lint_file("crates/serve/src/session.rs", bad).len(), 1);
        assert_eq!(lint_file("crates/trace/src/tracer.rs", bad).len(), 1);
    }

    #[test]
    fn allow_escape_hatch_works_same_line_and_above() {
        let same = "let m: HashMap<u32, u32> = HashMap::new(); // lint: allow(hash-iteration)\n";
        assert!(lint_file("crates/runtime/src/x.rs", same).is_empty());
        let above =
            "// lint: allow(hash-iteration) — display only\nlet m: HashMap<u32, u32> = x;\n";
        assert!(lint_file("crates/runtime/src/x.rs", above).is_empty());
    }

    #[test]
    fn allow_above_multi_line_statement_covers_continuation_lines() {
        // The violating token sits on a continuation line; the allow above
        // the statement's first line must still cover it (the engine-v1
        // off-by-one this fixes).
        let src = "// lint: allow(unwrap) — documented contract\n\
                   let v = options\n\
                   \u{20}   .iter()\n\
                   \u{20}   .next()\n\
                   \u{20}   .unwrap();\n";
        assert!(
            lint_file("crates/linalg/src/a.rs", src).is_empty(),
            "allow above a multi-line statement must cover the whole statement"
        );
        // Provenance is recorded for the suppressed finding.
        let d = lint_file_diag("crates/linalg/src/a.rs", src);
        assert_eq!(d.allowed.len(), 1);
        assert_eq!(d.allowed[0].allow_line, 1);
        assert_eq!(d.allowed[0].violation.line, 5);
        // Without the allow, the finding is live on the continuation line.
        let bare = "let v = options\n    .iter()\n    .next()\n    .unwrap();\n";
        let v = lint_file("crates/linalg/src/a.rs", bare);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn unwrap_rule_skips_test_modules() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let v = lint_file("crates/linalg/src/a.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn float_eq_detected_with_literals_only() {
        let v = lint_file("crates/linalg/src/k.rs", "if x == 0.0 { }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(lint_file("crates/linalg/src/k.rs", "if i == j { }\n").is_empty());
        assert!(lint_file("crates/linalg/src/k.rs", "if n == 0 { }\n").is_empty());
        // EPSILON comparisons fire on either side.
        let v = lint_file("crates/linalg/src/k.rs", "if x == f64::EPSILON { }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        let v = lint_file("crates/linalg/src/k.rs", "if f64::EPSILON != x { }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        // A float literal inside a string is not a comparison operand.
        assert!(lint_file("crates/linalg/src/k.rs", "if s == \"0.5\" { }\n").is_empty());
    }

    #[test]
    fn thread_spawn_flagged_outside_allowlist() {
        let spawn = "let h = std::thread::spawn(move || work());\n";
        let scope = "std::thread::scope(|s| { s.spawn(|| work()); });\n";
        for src in [spawn, scope] {
            for exempt in THREAD_SPAWN_ALLOWLIST {
                assert!(
                    lint_file(exempt, src)
                        .iter()
                        .all(|v| v.rule != Rule::ThreadSpawn),
                    "{exempt} should be exempt"
                );
            }
            for scoped in [
                "crates/runtime/src/sched.rs",
                "crates/serve/src/session.rs",
                "crates/serve/src/bin/serve_tcp.rs",
                "crates/sparse/src/executor.rs",
            ] {
                let v = lint_file(scoped, src);
                assert_eq!(
                    v.iter().filter(|v| v.rule == Rule::ThreadSpawn).count(),
                    1,
                    "{scoped}: {src}"
                );
            }
        }
        let allowed = "std::thread::spawn(f); // lint: allow(thread-spawn)\n";
        assert!(lint_file("crates/bench/src/suite.rs", allowed).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests {\n    fn g() { std::thread::spawn(f); }\n}\n";
        assert!(lint_file("crates/runtime/src/sched.rs", test_mod).is_empty());
    }

    #[test]
    fn hot_alloc_fires_in_kernel_files_only() {
        let src = "fn pack() { let v: Vec<f64> = Vec::new(); }\n";
        for hot in HOT_ALLOC_FILE_SCOPES {
            let v = lint_file(hot, src);
            assert_eq!(
                v.iter().filter(|v| v.rule == Rule::HotAlloc).count(),
                1,
                "{hot}"
            );
        }
        assert!(lint_file("crates/datasets/src/manhattan.rs", src).is_empty());
        assert!(lint_file("crates/linalg/src/matrix.rs", src).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests {\n    fn g() { let v = vec![0.0; 4]; }\n}\n";
        assert!(lint_file("crates/linalg/src/kernels.rs", test_mod).is_empty());
    }

    #[test]
    fn hot_alloc_tokens_each_fire_and_fn_defs_do_not() {
        for tok in [
            "let a = Vec::new();",
            "let b = vec![0.0; n];",
            "let c = s.to_vec();",
            "let d = Vec::with_capacity(n);",
            "let e = buf.with_capacity(n);",
            "let f = Mat::zeros(3, 3);",
            "let g = m.block(0, 0, 2, 2);",
        ] {
            let src = format!("fn f() {{ {tok} }}\n");
            let v = lint_file("crates/linalg/src/kernels.rs", &src);
            assert_eq!(
                v.iter().filter(|v| v.rule == Rule::HotAlloc).count(),
                1,
                "{tok}"
            );
        }
        let def = "pub fn with_capacity(elems: usize) -> Self { Self::grow(elems) }\n";
        assert!(lint_file("crates/linalg/src/kernels.rs", def).is_empty());
        let ok = "let v = Vec::with_capacity(n); // lint: allow(hot-alloc) — ctor\n";
        assert!(lint_file("crates/linalg/src/kernels.rs", ok).is_empty());
    }

    #[test]
    fn hot_alloc_fn_scope_covers_only_that_fn() {
        let (file, name) = HOT_ALLOC_FN_SCOPES[0];
        let src = format!(
            "fn cold() {{ let v = Vec::new(); }}\n\
             fn {name}(x: usize) -> usize {{\n    let v = vec![0.0; x];\n    x\n}}\n\
             fn also_cold() {{ let w = Mat::zeros(2, 2); }}\n"
        );
        let v = lint_file(file, &src);
        let hot: Vec<_> = v.iter().filter(|v| v.rule == Rule::HotAlloc).collect();
        assert_eq!(hot.len(), 1, "{v:?}");
        assert_eq!(hot[0].line, 3);
    }

    #[test]
    fn hot_alloc_fn_scope_skips_a_bodyless_declaration() {
        let (file, name) = HOT_ALLOC_FN_SCOPES[0];
        let src = format!(
            "trait T {{\n    fn {name}(&self, v: [f64; 3]);\n    fn cold(&self) {{ let v = Vec::new(); }}\n}}\n\
             fn {name}(v: [f64; 3]) {{\n    let w = vec![0.0; 3];\n}}\n"
        );
        let v = lint_file(file, &src);
        let hot: Vec<_> = v.iter().filter(|v| v.rule == Rule::HotAlloc).collect();
        assert_eq!(hot.len(), 1, "{v:?}");
        assert_eq!(hot[0].line, 6);
    }

    #[test]
    fn every_scoped_file_exists_and_every_scoped_fn_is_in_its_file() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = HOT_ALLOC_FILE_SCOPES
            .iter()
            .chain(&THREAD_SPAWN_ALLOWLIST)
            .chain(&PANIC_PATH_SCOPES)
            .chain(&WALL_CLOCK_ALLOWLIST)
            .copied()
            .chain(LOCK_RANKS.iter().map(|&(f, _, _)| f));
        for rel in files {
            assert!(root.join(rel).is_file(), "scoped file {rel} does not exist");
        }
        for (rel, name) in HOT_ALLOC_FN_SCOPES {
            let src = fs::read_to_string(root.join(rel)).expect("scoped file reads");
            let toks = tokenize(&src).0;
            assert!(
                toks.windows(2)
                    .any(|w| w[0].text == "fn" && w[1].text == name),
                "{rel} defines no fn {name}"
            );
        }
    }

    #[test]
    fn crate_attrs_required_on_roots() {
        let v = lint_file("crates/linalg/src/lib.rs", "pub mod x;\n");
        assert_eq!(v.iter().filter(|v| v.rule == Rule::CrateAttrs).count(), 2);
        let ok = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub mod x;\n";
        assert!(lint_file("crates/linalg/src/lib.rs", ok).is_empty());
        assert!(lint_file("crates/linalg/src/blas.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn panic_path_rules_fire_in_decode_scope() {
        let file = "crates/trace/src/wire.rs";
        // unwrap/expect report under panic-path (not unwrap) in scope.
        let v = lint_file(file, "fn f() { x.unwrap(); }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::PanicPath);
        // panic!/unreachable!.
        for bad in [
            "fn f() { panic!(\"no\"); }\n",
            "fn f() { unreachable!(); }\n",
        ] {
            let v = lint_file(file, bad);
            assert_eq!(v.iter().filter(|v| v.rule == Rule::PanicPath).count(), 1);
        }
        // Slice indexing: ident[..], call()[..], chained [..][..].
        for bad in [
            "fn f() { let x = buf[pos]; }\n",
            "fn f() { let x = make()[0]; }\n",
            "fn f() { let s = &self.buf[self.pos..end]; }\n",
        ] {
            let v = lint_file(file, bad);
            assert!(v.iter().any(|v| v.rule == Rule::PanicPath), "{bad}: {v:?}");
        }
        // Non-indexing brackets don't fire: types, attributes, array
        // literals, vec!, slice patterns.
        for ok in [
            "fn f(x: &[u8]) {}\n",
            "fn g<'a>(x: &'a [u8]) {}\n",
            "#[derive(Debug)]\nstruct S;\n",
            "fn h() { let a = [0u8; 4]; }\n",
            "fn i() { let v = vec![1, 2]; }\n",
        ] {
            let v = lint_file(file, ok);
            assert!(v.iter().all(|v| v.rule != Rule::PanicPath), "{ok}: {v:?}");
        }
        // Out of scope, indexing is fine and unwrap stays `unwrap`.
        let v = lint_file(
            "crates/linalg/src/a.rs",
            "fn f() { let x = buf[0].unwrap(); }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Unwrap);
    }

    #[test]
    fn wall_clock_flagged_outside_clock_modules() {
        let now = "fn f() { let t = Instant::now(); }\n";
        let sys = "use std::time::SystemTime;\n";
        for bad in [now, sys] {
            let v = lint_file("crates/runtime/src/sched.rs", bad);
            assert_eq!(
                v.iter().filter(|v| v.rule == Rule::WallClock).count(),
                1,
                "{bad}"
            );
        }
        // The clock-owning modules and the bench harness are exempt.
        for exempt in [
            "crates/trace/src/clock.rs",
            "crates/sparse/src/executor.rs",
            "crates/bench/src/suite.rs",
            "crates/fleet/src/bin/load_gen.rs",
        ] {
            let v = lint_file(exempt, now);
            assert!(
                v.iter().all(|v| v.rule != Rule::WallClock),
                "{exempt}: {v:?}"
            );
        }
        // `Instant` without `::now` (storage, arithmetic) is fine.
        assert!(lint_file(
            "crates/runtime/src/sched.rs",
            "fn f(t: Instant) -> Instant { t }\n"
        )
        .iter()
        .all(|v| v.rule != Rule::WallClock));
    }

    /// Live lock-order findings in `src` against a two-lock rank table.
    /// (No file declares two ranked locks any more, so the ordering cases
    /// run the rule on a table of their own.)
    fn lock_order_findings(src: &str) -> usize {
        let (toks, comments) = tokenize(src);
        let ctx = token_contexts(&toks, &[]);
        let allows = Allows::new(&comments);
        let lines: Vec<&str> = src.lines().collect();
        let mut d = Diagnostics::default();
        let ranks = [("ready", 0), ("pool", 1)];
        check_lock_order(
            &toks,
            &ctx,
            &ranks,
            &allows,
            Path::new("x.rs"),
            &lines,
            &mut d,
        );
        d.violations.len()
    }

    #[test]
    fn lock_order_violations_detected() {
        // Acquiring `ready` (rank 0) while holding `pool` (rank 1): wrong.
        let bad =
            "fn f() {\n    let g = pool.lock().unwrap();\n    let q = ready.lock().unwrap();\n}\n";
        assert_eq!(lock_order_findings(bad), 1);
        // The declared order (ready then pool) is fine.
        let ok =
            "fn f() {\n    let q = ready.lock().unwrap();\n    let g = pool.lock().unwrap();\n}\n";
        assert_eq!(lock_order_findings(ok), 0);
        // Dropping the guard releases the rank.
        let dropped = "fn f() {\n    let g = pool.lock().unwrap();\n    drop(g);\n    let q = ready.lock().unwrap();\n}\n";
        assert_eq!(lock_order_findings(dropped), 0);
        // Scope exit releases the guard.
        let scoped = "fn f() {\n    {\n        let g = pool.lock().unwrap();\n    }\n    let q = ready.lock().unwrap();\n}\n";
        assert_eq!(lock_order_findings(scoped), 0);
        // A transient (un-bound) lock releases at end of statement.
        let transient =
            "fn f() {\n    pool.lock().unwrap().push(x);\n    let q = ready.lock().unwrap();\n}\n";
        assert_eq!(lock_order_findings(transient), 0);
        // Unranked lock names are ignored.
        let unranked =
            "fn f() {\n    let e = errors.lock().unwrap();\n    let q = ready.lock().unwrap();\n}\n";
        assert_eq!(lock_order_findings(unranked), 0);
        // Re-acquiring the same rank (self-deadlock) is flagged — here
        // through the declared table, on the executor's workspace pool.
        let twice =
            "fn f() {\n    let a = pool.lock().unwrap();\n    let b = pool.lock().unwrap();\n}\n";
        let d = lint_file_diag("crates/sparse/src/executor.rs", twice);
        assert_eq!(
            d.violations
                .iter()
                .filter(|v| v.rule == Rule::LockOrder)
                .count(),
            1,
            "{d:?}"
        );
    }

    #[test]
    fn suppressed_findings_carry_provenance() {
        let src = "let m: HashMap<u32, u32> = x; // lint: allow(hash-iteration)\n";
        let d = lint_file_diag("crates/runtime/src/x.rs", src);
        assert!(d.violations.is_empty());
        assert_eq!(d.allowed.len(), 1);
        assert_eq!(d.allowed[0].allow_line, 1);
        assert_eq!(d.allowed[0].violation.rule, Rule::HashIteration);
        assert_eq!(d.allowed[0].violation.line, 1);
        assert!(d.allowed[0].violation.col > 0);
    }
}
