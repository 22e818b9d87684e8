//! Rule engine: parser-backed determinism/soundness checks.
//!
//! The D-series rules work on the token stream directly — the patterns
//! they police (unordered-collection iteration, banned wall-clock
//! calls, panicking combinators) are locally recognizable. The P/E/S
//! families lean on the structural layer in [`crate::parse`]: match
//! arms split into pattern vs. body, function extents for bound-check
//! coverage, fixed-size-array bindings, and explicit directive-stack
//! resolution. Everything stays dependency-free so the linter runs in
//! minimal build environments. The fixture suite in `tests/` pins the
//! recognized shapes; anything subtler can be silenced in-source with a
//! justified `// simlint::allow(D00x): <reason>` — which rule S002
//! reports as stale the moment it stops covering a finding.

use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::parse::{
    adjacent, code_lines, comment_lines, enclosing_fn, fixed_array_names, fn_extents, is_ident,
    is_num_lit, is_punct, match_expressions, matching, matching_angle, test_code_mask,
};
use crate::{FileCtx, Finding, RuleId, FAULT_ENUMS};
use std::collections::BTreeSet;

/// Methods whose call on a `HashMap`/`HashSet` observes iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Constructors that mark a binding as an unordered collection.
const CTORS: &[&str] = &["new", "with_capacity", "default", "from_iter", "from"];

/// Keywords that can directly precede `[` or an operand position
/// without making the previous token an expression operand.
const NON_OPERAND_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "else", "if", "while", "match", "for", "loop", "move",
    "break", "continue", "box", "do", "yield", "dyn", "impl", "where", "use", "as",
];

/// Methods that count as a bound check on the indexed base (P001).
const BOUND_METHODS: &[&str] = &["len", "get", "get_mut", "is_empty"];

/// Lints one source file. `ctx` decides which rules apply; findings are
/// returned with suppressions already resolved (`suppressed == true`
/// findings are informational).
pub fn lint_source(src: &str, ctx: &FileCtx) -> Vec<Finding> {
    let (toks, comments) = lex(src);
    let excluded = test_code_mask(&toks);

    let mut findings = Vec::new();
    if ctx.sim_critical || ctx.hot_path {
        let tracked = unordered_bindings(&toks, &excluded);
        check_d001_d004(&toks, &excluded, &tracked, &mut findings);
        // On the hot-path list a panic site is escalated to P003; the
        // shape detected is identical.
        let panic_rule = if ctx.hot_path {
            RuleId::P003
        } else {
            RuleId::D003
        };
        check_panics(&toks, &excluded, panic_rule, &mut findings);
        check_e001(&toks, &excluded, &mut findings);
    }
    if ctx.hot_path {
        check_p001(&toks, &excluded, &mut findings);
        check_p002(&toks, &excluded, &mut findings);
    }
    if ctx.d002_applies {
        check_d002(&toks, &excluded, &mut findings);
    }

    let mut suppressions = parse_suppressions(&comments, &mut findings);
    resolve_suppressions(
        &mut findings,
        &mut suppressions,
        &code_lines(&toks),
        &comment_lines(&comments),
    );
    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    findings.dedup_by_key(|f| (f.line, f.col, f.rule));
    findings
}

/// One parsed `// simlint::allow(...)` directive.
struct Suppression {
    rules: Vec<RuleId>,
    line: u32,
    col: u32,
    /// Set when the directive silenced at least one finding; a directive
    /// that stays unused is itself reported (S002).
    used: bool,
}

/// Collects names bound to `HashMap`/`HashSet` in non-test code: type
/// ascriptions (`name: HashMap<..>` in fields, lets, params) and
/// constructor bindings (`let name = HashMap::new()`).
fn unordered_bindings(toks: &[Tok], excluded: &[bool]) -> BTreeSet<String> {
    let mut tracked = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if excluded[i] || t.kind != TokKind::Ident {
            continue;
        }
        if t.text != "HashMap" && t.text != "HashSet" {
            continue;
        }
        // Walk back over a path prefix (`std::collections::`) and
        // reference sigils to find `name :` or `let name =`.
        let mut j = i;
        while j >= 3 && is_punct(toks, j - 1, ":") && is_punct(toks, j - 2, ":") {
            j -= 3; // `seg ::`
        }
        while j >= 1 && (is_punct(toks, j - 1, "&") || is_ident(toks, j - 1, "mut")) {
            j -= 1;
        }
        if j >= 2 && is_punct(toks, j - 1, ":") && toks[j - 2].kind == TokKind::Ident {
            tracked.insert(toks[j - 2].text.clone());
            continue;
        }
        // `let [mut] name = HashMap::ctor(..)`
        if j >= 2 && is_punct(toks, j - 1, "=") && toks[j - 2].kind == TokKind::Ident {
            let is_ctor = is_punct(toks, i + 1, ":")
                && is_punct(toks, i + 2, ":")
                && toks
                    .get(i + 3)
                    .is_some_and(|t| CTORS.contains(&t.text.as_str()));
            let turbofish_ctor = is_punct(toks, i + 1, ":")
                && is_punct(toks, i + 2, ":")
                && is_punct(toks, i + 3, "<");
            if is_ctor || turbofish_ctor {
                tracked.insert(toks[j - 2].text.clone());
            }
        }
    }
    tracked
}

/// D001 (+ D004 riding the same chains): iteration over unordered
/// collections, and floating-point accumulation over those iterators.
fn check_d001_d004(
    toks: &[Tok],
    excluded: &[bool],
    tracked: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if excluded[i] || t.kind != TokKind::Ident {
            continue;
        }
        let direct_type = t.text == "HashMap" || t.text == "HashSet";
        if !direct_type && !tracked.contains(&t.text) {
            continue;
        }
        // Don't re-flag the declaration site itself.
        if is_punct(toks, i + 1, ":") && !is_punct(toks, i + 2, ":") {
            continue;
        }
        scan_chain(toks, i, &t.text, findings);
        check_for_loop(toks, i, &t.text, findings);
    }
}

/// Walks a method chain rooted at token `i` and reports order-observing
/// iteration (D001) and float accumulation after it (D004).
fn scan_chain(toks: &[Tok], root: usize, name: &str, findings: &mut Vec<Finding>) {
    let mut j = root + 1;
    // Skip a path/ctor prefix: `HashMap::new()`, `name` alone, etc.
    let mut saw_iter = false;
    loop {
        if is_punct(toks, j, ":") && is_punct(toks, j + 1, ":") {
            // `::segment` or `::<T>` turbofish
            j += 2;
            if is_punct(toks, j, "<") {
                j = match matching_angle(toks, j) {
                    Some(e) => e + 1,
                    None => return,
                };
            } else {
                j += 1;
            }
            continue;
        }
        if is_punct(toks, j, "(") {
            j = match matching(toks, j, "(", ")") {
                Some(e) => e + 1,
                None => return,
            };
            continue;
        }
        if !is_punct(toks, j, ".") {
            return;
        }
        // `.method`
        let m = j + 1;
        let Some(mt) = toks.get(m) else { return };
        if mt.kind != TokKind::Ident {
            return;
        }
        let method = mt.text.as_str();
        let mut k = m + 1;
        let mut turbofish_f64 = false;
        if is_punct(toks, k, ":") && is_punct(toks, k + 1, ":") && is_punct(toks, k + 2, "<") {
            let end = match matching_angle(toks, k + 2) {
                Some(e) => e,
                None => return,
            };
            turbofish_f64 = toks[k + 2..end].iter().any(|t| t.text == "f64");
            k = end + 1;
        }
        let args_end = if is_punct(toks, k, "(") {
            match matching(toks, k, "(", ")") {
                Some(e) => e,
                None => return,
            }
        } else {
            // Field access, not a call: stop the chain.
            return;
        };

        if !saw_iter && ITER_METHODS.contains(&method) {
            saw_iter = true;
            findings.push(Finding::new(
                RuleId::D001,
                mt.line,
                mt.col,
                format!(
                    "iteration order of `{name}` (HashMap/HashSet) is unordered; \
                     use BTreeMap/BTreeSet or sort before iterating"
                ),
            ));
        } else if saw_iter {
            let float_fold = method == "fold"
                && toks[k..=args_end]
                    .iter()
                    .any(|t| t.kind == TokKind::Punct && t.text == "+");
            if (method == "sum" && turbofish_f64) || float_fold {
                findings.push(Finding::new(
                    RuleId::D004,
                    mt.line,
                    mt.col,
                    format!(
                        "floating-point accumulation over unordered iteration of `{name}`; \
                         rounding makes the result order-dependent"
                    ),
                ));
            }
        }
        j = args_end + 1;
    }
}

/// `for x in name` / `for x in &name` — implicit IntoIterator over an
/// unordered collection. Chained forms (`for x in name.keys()`) are
/// reported by `scan_chain` instead.
fn check_for_loop(toks: &[Tok], i: usize, name: &str, findings: &mut Vec<Finding>) {
    // The next token must end the iterated expression (loop body brace)
    // for this to be direct iteration of the collection itself.
    if !is_punct(toks, i + 1, "{") {
        return;
    }
    // Walk back over the receiver path (`&`, `*`, `mut`, idents, `.`,
    // `::`) to find the `in` keyword.
    let mut j = i;
    while j >= 1 {
        let prev = &toks[j - 1];
        let passes = (prev.kind == TokKind::Punct
            && (prev.text == "&" || prev.text == "." || prev.text == "*" || prev.text == ":"))
            || (prev.kind == TokKind::Ident && prev.text != "in");
        if passes {
            j -= 1;
        } else {
            break;
        }
    }
    if j >= 1 && is_ident(toks, j - 1, "in") {
        findings.push(Finding::new(
            RuleId::D001,
            toks[i].line,
            toks[i].col,
            format!(
                "iteration order of `{name}` (HashMap/HashSet) is unordered; \
                 use BTreeMap/BTreeSet or sort before iterating"
            ),
        ));
    }
}

/// D002: wall-clock and ambient-entropy APIs.
fn check_d002(toks: &[Tok], excluded: &[bool], findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if excluded[i] || t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime" => {
                let in_std_time_path = path_prefix(toks, i, "time");
                let in_use_std_time = in_use_of(toks, i, "time");
                let calls_now = is_punct(toks, i + 1, ":")
                    && is_punct(toks, i + 2, ":")
                    && is_ident(toks, i + 3, "now");
                if in_std_time_path || in_use_std_time || calls_now {
                    findings.push(Finding::new(
                        RuleId::D002,
                        t.line,
                        t.col,
                        format!(
                            "`std::time::{}` reads the wall clock; simulation time must come \
                             from the event loop (SimTime)",
                            t.text
                        ),
                    ));
                }
            }
            "thread_rng" => {
                findings.push(Finding::new(
                    RuleId::D002,
                    t.line,
                    t.col,
                    "`rand::thread_rng` draws OS entropy; all randomness must flow from a \
                     seeded DetRng"
                        .to_string(),
                ));
            }
            "random" if path_prefix(toks, i, "rand") => {
                findings.push(Finding::new(
                    RuleId::D002,
                    t.line,
                    t.col,
                    "`rand::random` draws OS entropy; all randomness must flow from a \
                     seeded DetRng"
                        .to_string(),
                ));
            }
            "var" | "var_os" if path_prefix(toks, i, "env") => {
                findings.push(Finding::new(
                    RuleId::D002,
                    t.line,
                    t.col,
                    "`std::env::var` makes behaviour depend on ambient environment state; \
                     seeds and configuration must be explicit parameters"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
}

/// Is token `i` immediately preceded by `<segment>::`? (`::` lexes as two
/// single-char puncts, so the segment ident sits at `i - 3`.)
fn path_prefix(toks: &[Tok], i: usize, segment: &str) -> bool {
    i >= 3
        && is_punct(toks, i - 1, ":")
        && is_punct(toks, i - 2, ":")
        && is_ident(toks, i - 3, segment)
}

/// Is token `i` inside a `use std::<module>::{...}` item naming `module`?
fn in_use_of(toks: &[Tok], i: usize, module: &str) -> bool {
    // Walk back to the start of the statement and check its head.
    let mut j = i;
    while j > 0 {
        let t = &toks[j - 1];
        if t.kind == TokKind::Punct && (t.text == ";" || t.text == "}" || t.text == "{") {
            // `{` may open a use-group: `use std::time::{..., Instant}`.
            if t.text == "{" && j >= 3 && is_punct(toks, j - 2, ":") && is_punct(toks, j - 3, ":") {
                j -= 1;
                continue;
            }
            break;
        }
        j -= 1;
    }
    let head = &toks[j..i];
    let mut saw_use = false;
    let mut saw_module = false;
    for t in head {
        if t.kind == TokKind::Ident {
            if t.text == "use" {
                saw_use = true;
            }
            if t.text == module {
                saw_module = true;
            }
        }
    }
    saw_use && saw_module
}

/// D003/P003: panicking combinators in non-test library code. The same
/// shape reports as P003 in hot-path modules, D003 elsewhere.
fn check_panics(toks: &[Tok], excluded: &[bool], rule: RuleId, findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if excluded[i] || t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect"
                if i >= 1 && is_punct(toks, i - 1, ".") && is_punct(toks, i + 1, "(") =>
            {
                findings.push(Finding::new(
                    rule,
                    t.line,
                    t.col,
                    format!(
                        "`.{}()` can panic in library code; surface the failure as \
                         Result/OpResult instead",
                        t.text
                    ),
                ));
            }
            "panic" if is_punct(toks, i + 1, "!") => {
                findings.push(Finding::new(
                    rule,
                    t.line,
                    t.col,
                    "`panic!` aborts the simulation; surface the failure as \
                     Result/OpResult instead"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
}

/// P001: postfix indexing `base[expr]` in a hot-path module with no
/// covering bound check in the enclosing function. Exempt: fixed-size
/// arrays (bounded by construction), lone integer-literal indices,
/// range slices `base[a..b]`, and slice types after a lifetime
/// (`&'a [u8]`). A bound check is any `base.len()` / `base.get(..)` /
/// `base.is_empty()` mention in the same function.
fn check_p001(toks: &[Tok], excluded: &[bool], findings: &mut Vec<Finding>) {
    let fixed = fixed_array_names(toks);
    let fns = fn_extents(toks);
    for i in 1..toks.len() {
        if excluded[i] || !is_punct(toks, i, "[") {
            continue;
        }
        let base = &toks[i - 1];
        if base.kind != TokKind::Ident || NON_OPERAND_KEYWORDS.contains(&base.text.as_str()) {
            continue;
        }
        if i >= 2 && is_punct(toks, i - 2, "'") {
            continue; // `&'a [u8]` — a lifetime before a slice type
        }
        let Some(close) = matching(toks, i, "[", "]") else {
            continue;
        };
        if close == i + 1 {
            continue; // `[]` — a type position, not an index
        }
        // Range slice: `..` anywhere inside the index group.
        let is_range = (i + 1..close.saturating_sub(1)).any(|k| {
            is_punct(toks, k, ".") && is_punct(toks, k + 1, ".") && adjacent(toks, k, k + 1)
        });
        if is_range {
            continue;
        }
        // Lone integer literal index: bounded by inspection.
        if close == i + 2 && is_num_lit(toks, i + 1) {
            continue;
        }
        if fixed.contains(&base.text) {
            continue;
        }
        let covered = enclosing_fn(&fns, i).is_some_and(|(fs, fe)| {
            (fs..=fe).any(|k| {
                is_ident(toks, k, &base.text)
                    && is_punct(toks, k + 1, ".")
                    && toks
                        .get(k + 2)
                        .is_some_and(|t| BOUND_METHODS.contains(&t.text.as_str()))
            })
        });
        if covered {
            continue;
        }
        findings.push(Finding::new(
            RuleId::P001,
            base.line,
            base.col,
            format!(
                "indexing `{}[..]` can panic on a hot path; bound it with \
                 `.len()`/`.get()` in this function or justify with an allow",
                base.text
            ),
        ));
    }
}

/// P002: unchecked `+`/`*`/`<<` (and `+=`/`*=`/`<<=`) between
/// non-literal integer operands in a hot-path module. An operand that
/// is a numeric literal makes the growth rate inspectable (`i + 1`,
/// `x << 2`, `n * 8`), so those are exempt; everything else must be
/// `wrapping_*`/`checked_*`/`saturating_*` or carry a justified allow.
fn check_p002(toks: &[Tok], excluded: &[bool], findings: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < toks.len() {
        if excluded[i] || toks[i].kind != TokKind::Punct {
            i += 1;
            continue;
        }
        match toks[i].text.as_str() {
            op @ ("+" | "*") => {
                // Compound assignment `+=` / `*=`.
                if is_punct(toks, i + 1, "=") && adjacent(toks, i, i + 1) {
                    if !is_num_lit(toks, i + 2) {
                        findings.push(p002_finding(&toks[i], &format!("{op}=")));
                    }
                    i += 2;
                    continue;
                }
                // Binary operator: previous token must be an operand.
                if i >= 1 && is_operand_end(&toks[i - 1]) {
                    let lit_neighbor = is_num_lit(toks, i - 1) || is_num_lit(toks, i + 1);
                    if !lit_neighbor {
                        findings.push(p002_finding(&toks[i], op));
                    }
                }
            }
            "<" if is_punct(toks, i + 1, "<") && adjacent(toks, i, i + 1) => {
                // `<<` or `<<=`; the shifted-out bits silently vanish
                // unless the amount is inspectable.
                let rhs = if is_punct(toks, i + 2, "=") && adjacent(toks, i + 1, i + 2) {
                    i + 3
                } else {
                    i + 2
                };
                let operand_before = i >= 1 && is_operand_end(&toks[i - 1]);
                if operand_before && !is_num_lit(toks, rhs) {
                    let op = if rhs == i + 3 { "<<=" } else { "<<" };
                    findings.push(p002_finding(&toks[i], op));
                }
                i = rhs;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
}

/// Can `t` end an expression operand (making a following `+`/`*`
/// binary rather than unary/deref)?
fn is_operand_end(t: &Tok) -> bool {
    match t.kind {
        TokKind::Ident => !NON_OPERAND_KEYWORDS.contains(&t.text.as_str()),
        TokKind::Lit => true,
        TokKind::Punct => t.text == ")" || t.text == "]",
    }
}

fn p002_finding(t: &Tok, op: &str) -> Finding {
    Finding::new(
        RuleId::P002,
        t.line,
        t.col,
        format!(
            "unchecked `{op}` on a hot path can overflow; make the policy \
             explicit with `wrapping_*`/`checked_*`/`saturating_*`"
        ),
    )
}

/// E001: a `match` whose arm *patterns* name one of the fault/liveness
/// enums must not carry a bare `_` wildcard arm — adding a fault
/// variant has to force every handler site to be revisited. Guarded
/// wildcards (`_ if cond`) and catch-all bindings are out of scope:
/// only the unconditional `_` arm swallows new variants silently.
fn check_e001(toks: &[Tok], excluded: &[bool], findings: &mut Vec<Finding>) {
    for mx in match_expressions(toks) {
        if excluded[mx.kw] {
            continue;
        }
        let fault_enum = mx.arms.iter().find_map(|arm| {
            (arm.pat.0..arm.pat.1).find_map(|k| {
                let t = &toks[k];
                if t.kind == TokKind::Ident
                    && FAULT_ENUMS.contains(&t.text.as_str())
                    && is_punct(toks, k + 1, ":")
                    && is_punct(toks, k + 2, ":")
                {
                    Some(t.text.clone())
                } else {
                    None
                }
            })
        });
        let Some(enum_name) = fault_enum else {
            continue;
        };
        for arm in &mx.arms {
            // `_` lexes as an identifier token.
            let pat = &toks[arm.pat.0..arm.pat.1];
            if pat.len() == 1 && pat[0].text == "_" {
                findings.push(Finding::new(
                    RuleId::E001,
                    pat[0].line,
                    pat[0].col,
                    format!(
                        "wildcard `_` arm in a match over fault enum `{enum_name}`; \
                         enumerate the variants so a new fault type cannot be \
                         silently swallowed"
                    ),
                ));
            }
        }
    }
}

/// Parses `// simlint::allow(D00x[, D00y]): reason` directives. A
/// directive with no reason (or an empty one) is itself a violation
/// (S001); one naming a rule that does not exist is S003 — every
/// exception must be justified and must name a real rule.
fn parse_suppressions(comments: &[Comment], findings: &mut Vec<Finding>) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        // Only a plain `//` comment whose first word is the directive
        // counts; doc comments (`///`, `//!`) merely *talk about* the
        // syntax and must not parse as directives.
        let Some(body) = c.text.strip_prefix("//") else {
            continue;
        };
        if body.starts_with('/') || body.starts_with('!') {
            continue;
        }
        let Some(after) = body.trim_start().strip_prefix("simlint::allow(") else {
            continue;
        };
        let Some(close) = after.find(')') else {
            findings.push(Finding::new(
                RuleId::S001,
                c.line,
                c.col,
                "malformed simlint::allow directive (missing `)`)".to_string(),
            ));
            continue;
        };
        let mut rules = Vec::new();
        let mut unknown = None;
        for part in after[..close].split(',') {
            match RuleId::parse(part.trim()) {
                Some(r) => rules.push(r),
                None => unknown = Some(part.trim().to_string()),
            }
        }
        if let Some(bad) = unknown {
            findings.push(Finding::new(
                RuleId::S003,
                c.line,
                c.col,
                format!("simlint::allow names a rule that does not exist: `{bad}`"),
            ));
            continue;
        }
        if rules.is_empty() {
            findings.push(Finding::new(
                RuleId::S001,
                c.line,
                c.col,
                "simlint::allow names no rule".to_string(),
            ));
            continue;
        }
        if rules.iter().any(RuleId::is_suppression_hygiene) {
            findings.push(Finding::new(
                RuleId::S001,
                c.line,
                c.col,
                "S-series rules police the suppression mechanism itself and \
                 cannot be allowed"
                    .to_string(),
            ));
            continue;
        }
        let rest = after[close + 1..].trim_start();
        let reason = rest.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            findings.push(Finding::new(
                RuleId::S001,
                c.line,
                c.col,
                "bare simlint::allow (no justification); write \
                 `// simlint::allow(D00x): <reason>`"
                    .to_string(),
            ));
            continue;
        }
        out.push(Suppression {
            rules,
            line: c.line,
            col: c.col,
            used: false,
        });
    }
    out
}

/// Lines a directive covers: its own line when code shares it (a
/// trailing directive binds tightly); otherwise the next code line
/// reachable through comment-only lines. Stacked directives are
/// comment-only lines themselves, so a whole stack resolves to the
/// statement below it — never to a sibling directive, which is the
/// distinction the old line-walk got wrong.
fn covered_lines(s: &Suppression, code: &BTreeSet<u32>, comments: &BTreeSet<u32>) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    if code.contains(&s.line) {
        out.insert(s.line);
        return out;
    }
    let mut l = s.line + 1;
    loop {
        if code.contains(&l) {
            out.insert(l);
            break;
        }
        if comments.contains(&l) {
            l += 1; // look through stacked directives / comment lines
            continue;
        }
        break; // blank line: the directive is detached
    }
    out
}

/// Marks findings covered by a justified directive as suppressed, then
/// reports every directive that silenced nothing as stale (S002).
/// S-series findings are never suppressed: hygiene problems must
/// surface even under a (mis-)matching allow.
fn resolve_suppressions(
    findings: &mut Vec<Finding>,
    suppressions: &mut [Suppression],
    code: &BTreeSet<u32>,
    comments: &BTreeSet<u32>,
) {
    for s in suppressions.iter_mut() {
        let lines = covered_lines(s, code, comments);
        for f in findings.iter_mut() {
            if f.rule.is_suppression_hygiene() {
                continue;
            }
            if s.rules.contains(&f.rule) && lines.contains(&f.line) {
                f.suppressed = true;
                s.used = true;
            }
        }
    }
    for s in suppressions.iter().filter(|s| !s.used) {
        let rules = s
            .rules
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        findings.push(Finding::new(
            RuleId::S002,
            s.line,
            s.col,
            format!(
                "stale simlint::allow({rules}): the covered lines produce no \
                 such finding; delete the directive"
            ),
        ));
    }
}
