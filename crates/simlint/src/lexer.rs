//! A small hand-rolled Rust lexer: enough token fidelity for simlint's
//! rules without a full parser (and without external dependencies).
//!
//! The lexer understands line/block comments (nested), string literals
//! (plain, raw, byte), char literals vs. lifetimes, and numeric literals
//! (including float/range disambiguation: `1.0` is one token, `0..n` is
//! digits followed by two `.` puncts). Comments are captured separately
//! because suppression directives live in them.

/// What a token is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// A single punctuation character.
    Punct,
    /// String/char/numeric literal (contents preserved for numbers only).
    Lit,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Identifier text, the punctuation character, the digits of a
    /// numeric literal, or `""` for string/char literals.
    pub text: String,
    /// Token class.
    pub kind: TokKind,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
}

/// A comment (line or block) with its 1-based position.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Full comment text including the `//` / `/*` marker.
    pub text: String,
    /// 1-based line of the comment start.
    pub line: u32,
    /// 1-based column of the comment start.
    pub col: u32,
}

struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            chars: src.chars().peekable(),
            line: 1,
            col: 1,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

/// Lexes `src` into tokens and comments.
pub fn lex(src: &str) -> (Vec<Tok>, Vec<Comment>) {
    let mut cur = Cursor::new(src);
    let mut toks = Vec::new();
    let mut comments = Vec::new();

    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        if c == '/' {
            if let Some(comment) = try_comment(&mut cur, line, col) {
                comments.push(comment);
                continue;
            }
            cur.bump();
            toks.push(punct('/', line, col));
            continue;
        }
        if c == '"' {
            consume_string(&mut cur);
            toks.push(lit(line, col));
            continue;
        }
        if c == '\'' {
            // Lifetimes lex as a Punct `'` plus an Ident, so rules can
            // tell `&'a [u8]` from an index expression.
            if consume_char_or_lifetime(&mut cur) {
                toks.push(lit(line, col));
            } else {
                toks.push(punct('\'', line, col));
            }
            continue;
        }
        if c == 'r' || c == 'b' {
            if let Some(tok) = try_raw_or_byte_string(&mut cur, line, col) {
                toks.push(tok);
                continue;
            }
        }
        if c.is_ascii_digit() {
            let text = consume_number(&mut cur);
            toks.push(Tok {
                text,
                kind: TokKind::Lit,
                line,
                col,
            });
            continue;
        }
        if c == '_' || c.is_alphanumeric() {
            let mut text = String::new();
            while let Some(c) = cur.peek() {
                if c == '_' || c.is_alphanumeric() {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
            toks.push(Tok {
                text,
                kind: TokKind::Ident,
                line,
                col,
            });
            continue;
        }
        cur.bump();
        toks.push(punct(c, line, col));
    }

    (toks, comments)
}

fn punct(c: char, line: u32, col: u32) -> Tok {
    Tok {
        text: c.to_string(),
        kind: TokKind::Punct,
        line,
        col,
    }
}

fn lit(line: u32, col: u32) -> Tok {
    Tok {
        text: String::new(),
        kind: TokKind::Lit,
        line,
        col,
    }
}

fn try_comment(cur: &mut Cursor, line: u32, col: u32) -> Option<Comment> {
    // Caller guarantees the current char is '/'.
    let mut probe = cur.chars.clone();
    probe.next();
    match probe.next() {
        Some('/') => {
            let mut text = String::new();
            while let Some(c) = cur.peek() {
                if c == '\n' {
                    break;
                }
                text.push(c);
                cur.bump();
            }
            Some(Comment { text, line, col })
        }
        Some('*') => {
            let mut text = String::new();
            let mut depth = 0u32;
            while let Some(c) = cur.peek() {
                if c == '/' {
                    let mut p = cur.chars.clone();
                    p.next();
                    if p.peek() == Some(&'*') {
                        depth += 1;
                        text.push('/');
                        text.push('*');
                        cur.bump();
                        cur.bump();
                        continue;
                    }
                } else if c == '*' {
                    let mut p = cur.chars.clone();
                    p.next();
                    if p.peek() == Some(&'/') {
                        depth -= 1;
                        text.push('*');
                        text.push('/');
                        cur.bump();
                        cur.bump();
                        if depth == 0 {
                            break;
                        }
                        continue;
                    }
                }
                text.push(c);
                cur.bump();
            }
            Some(Comment { text, line, col })
        }
        _ => None,
    }
}

fn consume_string(cur: &mut Cursor) {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Returns `true` when a char literal was consumed; `false` for a
/// lifetime (whose `'` and ident are emitted by the caller's main loop).
fn consume_char_or_lifetime(cur: &mut Cursor) -> bool {
    let mut probe = cur.chars.clone();
    probe.next(); // the quote
    let first = probe.next();
    let second = probe.next();
    let is_lifetime =
        matches!(first, Some(c) if c == '_' || c.is_alphabetic()) && second != Some('\'');
    if is_lifetime {
        cur.bump(); // consume only the quote; ident lexes normally
        return false;
    }
    cur.bump(); // quote
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '\'' => break,
            _ => {}
        }
    }
    true
}

fn try_raw_or_byte_string(cur: &mut Cursor, line: u32, col: u32) -> Option<Tok> {
    // Candidate prefixes: r" r#" b" br" br#" rb is not a thing.
    let mut probe = cur.chars.clone();
    let mut prefix_len = 0usize;
    let first = probe.next()?;
    prefix_len += 1;
    let mut raw = first == 'r';
    if first == 'b' {
        match probe.peek() {
            Some('r') => {
                probe.next();
                prefix_len += 1;
                raw = true;
            }
            Some('"') => {}
            _ => return None,
        }
    }
    let mut hashes = 0usize;
    if raw {
        while probe.peek() == Some(&'#') {
            probe.next();
            prefix_len += 1;
            hashes += 1;
        }
    }
    if probe.peek() != Some(&'"') {
        return None;
    }
    for _ in 0..prefix_len {
        cur.bump();
    }
    cur.bump(); // opening quote
    if !raw {
        // b"..." behaves like a normal string (escapes allowed).
        while let Some(c) = cur.bump() {
            match c {
                '\\' => {
                    cur.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        return Some(lit(line, col));
    }
    // Raw string: ends at `"` followed by `hashes` '#' chars.
    while let Some(c) = cur.bump() {
        if c == '"' {
            let mut p = cur.chars.clone();
            let mut matched = 0usize;
            while matched < hashes && p.next() == Some('#') {
                matched += 1;
            }
            if matched == hashes {
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
        }
    }
    Some(lit(line, col))
}

fn consume_number(cur: &mut Cursor) -> String {
    // Digits (any radix chars, underscores), then a fractional part only
    // when `.` is followed by a digit (so `0..n` stays two range dots),
    // then an optional exponent with sign, then an alphanumeric suffix.
    // The consumed text is preserved so rules can recognize literal
    // operands (e.g. P001/P002 literal exemptions).
    let mut text = String::new();
    text.extend(cur.bump());
    while let Some(c) = cur.peek() {
        if c.is_ascii_alphanumeric() || c == '_' {
            let at_exponent = c == 'e' || c == 'E';
            text.push(c);
            cur.bump();
            if at_exponent {
                if let Some(sign) = cur.peek() {
                    if sign == '+' || sign == '-' {
                        text.push(sign);
                        cur.bump();
                    }
                }
            }
        } else if c == '.' {
            let mut p = cur.chars.clone();
            p.next();
            if matches!(p.peek(), Some(d) if d.is_ascii_digit()) {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        } else {
            break;
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn skips_comments_and_strings() {
        let src = r#"
            // HashMap in a comment
            /* Instant in /* nested */ block */
            let x = "thread_rng inside a string";
            let y = 'a';
        "#;
        let names = idents(src);
        assert!(names.contains(&"let".to_string()));
        assert!(!names.contains(&"HashMap".to_string()));
        assert!(!names.contains(&"Instant".to_string()));
        assert!(!names.contains(&"thread_rng".to_string()));
    }

    #[test]
    fn captures_comment_positions() {
        let (_, comments) = lex("let a = 1; // simlint::allow(D001): reason\n");
        assert_eq!(comments.len(), 1);
        assert_eq!(comments[0].line, 1);
        assert!(comments[0].text.contains("simlint::allow"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let names = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(names.contains(&"str".to_string()));
        // A lifetime lexes as a `'` punct plus its ident.
        assert!(names.contains(&"a".to_string()));
        let (toks, _) = lex("&'a [u8]");
        assert!(toks[1].kind == TokKind::Punct && toks[1].text == "'");
        assert_eq!(toks[2].text, "a");
    }

    #[test]
    fn raw_strings_are_opaque() {
        let names = idents(r##"let s = r#"HashMap "quoted" inside"#; let t = s;"##);
        assert!(!names.contains(&"HashMap".to_string()));
        assert!(names.contains(&"t".to_string()));
    }

    #[test]
    fn range_dots_survive_after_numbers() {
        let (toks, _) = lex("for i in 0..n {}");
        let dots: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct && t.text == ".")
            .collect();
        assert_eq!(dots.len(), 2);
    }

    #[test]
    fn float_literals_keep_their_dot() {
        let (toks, _) = lex("let x = 1.5e-3 + 2.0;");
        let dots = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct && t.text == ".")
            .count();
        assert_eq!(dots, 0);
    }

    #[test]
    fn positions_are_one_based() {
        let (toks, _) = lex("a\n  b");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
