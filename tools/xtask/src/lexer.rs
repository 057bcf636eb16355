//! A minimal, trivia-preserving Rust lexer.
//!
//! The linter's rules operate on token streams instead of raw lines, so that
//! tokens inside string literals, character literals and (nested) block
//! comments can never reach a rule. The lexer is deliberately small and
//! hand-rolled — `xtask` stays dependency-free — but it handles the full
//! surface the workspace's sources use:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`, `/**`, `/*!`),
//! * string literals with escapes, byte strings, and raw (byte) strings with
//!   arbitrary `#` fences (`r#"…"#`, `br##"…"##`),
//! * character and byte-character literals vs. lifetimes (`'a'` vs `'a`),
//! * raw identifiers (`r#type`),
//! * numeric literals including type suffixes, `1.5`, and signed exponents
//!   (`1e-5`) — without swallowing range puncts (`0..4`),
//! * identifiers/keywords and single-character punctuation.
//!
//! Every token carries its byte span and the 1-based line of its first byte,
//! and **trivia (whitespace/comments) is kept as tokens**: concatenating the
//! spans of the token stream reconstructs the input byte-for-byte, which the
//! round-trip tests pin on the hardest real files in the tree.

/// Token classification. Punctuation is emitted one character at a time
/// (`::` is two `Punct(':')` tokens); multi-character operators are easy to
/// match as sequences and single characters keep the lexer honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Whitespace,
    LineComment,
    BlockComment,
    Ident,
    Lifetime,
    CharLit,
    StrLit,
    NumLit,
    Punct,
}

/// One token: classification plus byte span plus the 1-based source line the
/// token starts on.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    pub kind: TokKind,
    pub start: usize,
    pub end: usize,
    pub line: u32,
}

impl Token {
    /// The token's text within its source.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }

    /// Whitespace and comments: tokens the rules skip over.
    pub fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
        )
    }
}

/// Lexes `src` into a contiguous token stream (see module docs).
pub fn lex(src: &str) -> Vec<Token> {
    let mut lx = Lexer {
        src,
        pos: 0,
        line: 1,
    };
    let mut out = Vec::new();
    while lx.pos < src.len() {
        let start = lx.pos;
        let line = lx.line;
        let kind = lx.next_kind();
        debug_assert!(lx.pos > start, "lexer must always make progress");
        out.push(Token {
            kind,
            start,
            end: lx.pos,
            line,
        });
    }
    out
}

struct Lexer<'s> {
    src: &'s str,
    pos: usize,
    line: u32,
}

impl Lexer<'_> {
    fn rest(&self) -> &str {
        &self.src[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn peek_at(&self, n: usize) -> Option<char> {
        self.rest().chars().nth(n)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        if c == '\n' {
            self.line += 1;
        }
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat_while(&mut self, f: impl Fn(char) -> bool) {
        while self.peek().is_some_and(&f) {
            self.bump();
        }
    }

    fn next_kind(&mut self) -> TokKind {
        let c = self.peek().expect("next_kind called at end of input");
        if c.is_whitespace() {
            self.eat_while(char::is_whitespace);
            return TokKind::Whitespace;
        }
        if self.rest().starts_with("//") {
            self.eat_while(|c| c != '\n');
            return TokKind::LineComment;
        }
        if self.rest().starts_with("/*") {
            self.block_comment();
            return TokKind::BlockComment;
        }
        if c == 'r' || c == 'b' {
            if let Some(kind) = self.prefixed_literal() {
                return kind;
            }
        }
        if c == '"' {
            self.string_lit();
            return TokKind::StrLit;
        }
        if c == '\'' {
            return self.char_or_lifetime();
        }
        if c.is_ascii_digit() {
            self.number();
            return TokKind::NumLit;
        }
        if c == '_' || c.is_alphabetic() {
            self.eat_while(|c| c == '_' || c.is_alphanumeric());
            return TokKind::Ident;
        }
        self.bump();
        TokKind::Punct
    }

    /// Nested block comment; an unterminated comment runs to end of input.
    fn block_comment(&mut self) {
        self.bump();
        self.bump(); // the opening `/*`
        let mut depth = 1usize;
        while depth > 0 {
            if self.rest().starts_with("/*") {
                self.bump();
                self.bump();
                depth += 1;
            } else if self.rest().starts_with("*/") {
                self.bump();
                self.bump();
                depth -= 1;
            } else if self.bump().is_none() {
                return;
            }
        }
    }

    /// Literals introduced by `r` / `b` prefixes, and raw identifiers.
    /// Returns `None` when the `r`/`b` is just the start of a plain
    /// identifier.
    fn prefixed_literal(&mut self) -> Option<TokKind> {
        let rest = self.rest();
        if rest.starts_with("r\"") || rest.starts_with("r#\"") || rest.starts_with("r##") {
            self.bump(); // r
            self.raw_string();
            return Some(TokKind::StrLit);
        }
        if rest.starts_with("br\"") || rest.starts_with("br#") {
            self.bump(); // b
            self.bump(); // r
            self.raw_string();
            return Some(TokKind::StrLit);
        }
        if rest.starts_with("b\"") {
            self.bump(); // b
            self.string_lit();
            return Some(TokKind::StrLit);
        }
        if rest.starts_with("b'") {
            self.bump(); // b
            self.char_body();
            return Some(TokKind::CharLit);
        }
        // raw identifier `r#type`: lex as a single Ident token
        if let Some(after) = rest.strip_prefix("r#") {
            if after
                .chars()
                .next()
                .is_some_and(|c| c == '_' || c.is_alphabetic())
            {
                self.bump(); // r
                self.bump(); // #
                self.eat_while(|c| c == '_' || c.is_alphanumeric());
                return Some(TokKind::Ident);
            }
        }
        None
    }

    /// At the `#`s or `"` of a raw string (the `r`/`br` prefix is consumed).
    fn raw_string(&mut self) {
        let mut fence = 0usize;
        while self.peek() == Some('#') {
            self.bump();
            fence += 1;
        }
        if self.peek() != Some('"') {
            return; // not actually a raw string; tolerate
        }
        self.bump();
        loop {
            match self.bump() {
                None => return,
                Some('"') => {
                    if self
                        .rest()
                        .chars()
                        .take(fence)
                        .filter(|&c| c == '#')
                        .count()
                        == fence
                    {
                        for _ in 0..fence {
                            self.bump();
                        }
                        return;
                    }
                }
                Some(_) => {}
            }
        }
    }

    /// At the opening `"` of a (byte) string literal.
    fn string_lit(&mut self) {
        self.bump();
        loop {
            match self.bump() {
                None | Some('"') => return,
                Some('\\') => {
                    self.bump();
                }
                Some(_) => {}
            }
        }
    }

    /// At the opening `'`: a char literal (`'a'`, `'\n'`, `'\u{7f}'`) or a
    /// lifetime (`'a`, `'static`, `'_`).
    fn char_or_lifetime(&mut self) -> TokKind {
        let c1 = self.peek_at(1);
        if c1 == Some('\\') {
            self.char_body();
            return TokKind::CharLit;
        }
        // `'x'` is a char literal; `'x` (no closing quote right after one
        // char) is a lifetime
        if c1.is_some() && self.peek_at(2) == Some('\'') {
            self.bump();
            self.bump();
            self.bump();
            return TokKind::CharLit;
        }
        self.bump(); // '
        self.eat_while(|c| c == '_' || c.is_alphanumeric());
        TokKind::Lifetime
    }

    /// At the opening `'` of a char literal known to contain an escape (or
    /// called for byte chars): consumes through the closing `'`.
    fn char_body(&mut self) {
        self.bump(); // '
        loop {
            match self.bump() {
                None | Some('\'') => return,
                Some('\\') => {
                    self.bump();
                }
                Some(_) => {}
            }
        }
    }

    /// At an ASCII digit. Consumes suffixed integers (`8usize`, `0xff`),
    /// floats (`1.5`), and signed exponents (`1e-5`) — but not the `.` of a
    /// range or method call (`0..4`, `1.max(2)`).
    fn number(&mut self) {
        let alnum = |c: char| c.is_ascii_alphanumeric() || c == '_';
        self.eat_while(alnum);
        self.signed_exponent();
        if self.peek() == Some('.') && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            self.eat_while(alnum);
            self.signed_exponent();
        }
    }

    /// `1e-5` / `2.5E+3`: the sign splits the alphanumeric scan in two.
    fn signed_exponent(&mut self) {
        let prev = self.src[..self.pos].chars().next_back();
        if matches!(prev, Some('e') | Some('E'))
            && matches!(self.peek(), Some('+') | Some('-'))
            && self.peek_at(1).is_some_and(|c| c.is_ascii_digit())
        {
            self.bump();
            self.eat_while(|c| c.is_ascii_alphanumeric() || c == '_');
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests lex real files")]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn assert_round_trip(src: &str) {
        let toks = lex(src);
        let mut rebuilt = String::new();
        let mut expect_start = 0usize;
        for t in &toks {
            assert_eq!(t.start, expect_start, "tokens must be contiguous");
            expect_start = t.end;
            rebuilt.push_str(t.text(src));
        }
        assert_eq!(rebuilt, src, "lex → respan must reconstruct the source");
    }

    #[test]
    fn strings_and_comments_are_single_tokens() {
        let src = "let s = \"a // not a comment\"; /* b /* nested */ c */ x";
        let k = kinds(src);
        assert_eq!(k[3], (TokKind::StrLit, "\"a // not a comment\"".into()));
        assert_eq!(
            lex(src)
                .iter()
                .filter(|t| t.kind == TokKind::BlockComment)
                .count(),
            1,
            "nested block comment lexes as one token"
        );
        assert_round_trip(src);
    }

    #[test]
    fn raw_strings_with_fences() {
        for src in [
            "r\"plain\"",
            "r#\"with \" quote\"#",
            "r##\"fence \"# deep\"##",
            "br#\"bytes\"#",
            "b\"bytes\"",
        ] {
            let k = kinds(src);
            assert_eq!(k.len(), 1, "{src}");
            assert_eq!(k[0], (TokKind::StrLit, src.to_string()));
            assert_round_trip(src);
        }
    }

    #[test]
    fn chars_versus_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = 'x'; let n = '\\n'; let b = b'q'; c }";
        let k = kinds(src);
        assert!(k.contains(&(TokKind::Lifetime, "'a".into())));
        assert!(k.contains(&(TokKind::CharLit, "'x'".into())));
        assert!(k.contains(&(TokKind::CharLit, "'\\n'".into())));
        assert!(k.contains(&(TokKind::CharLit, "b'q'".into())));
        assert_round_trip(src);
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let src = "for i in 0..4 { let x = 1.5e-3; let y = 0xff_u32; let z = 7.max(i); }";
        let k = kinds(src);
        assert!(k.contains(&(TokKind::NumLit, "0".into())));
        assert!(k.contains(&(TokKind::NumLit, "4".into())));
        assert!(k.contains(&(TokKind::NumLit, "1.5e-3".into())));
        assert!(k.contains(&(TokKind::NumLit, "0xff_u32".into())));
        assert!(k.contains(&(TokKind::NumLit, "7".into())));
        assert_round_trip(src);
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let k = kinds("let r#type = 1;");
        assert_eq!(k[1], (TokKind::Ident, "r#type".into()));
    }

    #[test]
    fn doc_comments_and_attributes() {
        let src = "/// doc\n//! inner\n/** block doc */\n#[derive(Debug)]\nstruct S;";
        let toks = lex(src);
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokKind::LineComment)
                .count(),
            2
        );
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokKind::BlockComment)
                .count(),
            1
        );
        assert_round_trip(src);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"two\nline\"\n/* c\nc */ b";
        let toks = lex(src);
        let a = toks.iter().find(|t| t.text(src) == "a").expect("a");
        let b = toks.iter().find(|t| t.text(src) == "b").expect("b");
        let s = toks
            .iter()
            .find(|t| t.kind == TokKind::StrLit)
            .expect("str");
        assert_eq!(a.line, 1);
        assert_eq!(s.line, 2, "multi-line string starts on line 2");
        assert_eq!(b.line, 5, "newlines inside strings/comments are counted");
        assert_round_trip(src);
    }

    #[test]
    fn unterminated_constructs_still_terminate() {
        for src in ["/* never closed", "\"never closed", "r#\"never closed"] {
            assert_round_trip(src);
        }
    }

    /// The property-style round-trip the ISSUE pins: lexing the hardest real
    /// files in the tree and concatenating the token spans reproduces the
    /// files byte-for-byte.
    #[test]
    fn round_trip_on_the_hardest_real_files() {
        let root = crate::workspace_root();
        for rel in [
            "crates/sync/src/shim.rs",
            "crates/service/src/durability.rs",
            "crates/sync/src/model/sched.rs",
            "crates/engine/src/engine.rs",
            "tools/xtask/src/lexer.rs",
        ] {
            let path = root.join(rel);
            let src = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            assert_round_trip(&src);
        }
    }

    /// Golden tokenization: pin the exact significant-token prefix of the two
    /// named hard files, so a lexer regression shows up as a readable diff
    /// rather than a downstream rule misfire.
    #[test]
    fn golden_tokenization_of_shim_and_durability() {
        let root = crate::workspace_root();

        let shim = std::fs::read_to_string(root.join("crates/sync/src/shim.rs")).expect("shim.rs");
        let got: Vec<String> = lex(&shim)
            .iter()
            .filter(|t| !t.is_trivia())
            .take(12)
            .map(|t| format!("{:?}:{}", t.kind, t.text(&shim)))
            .collect();
        assert_eq!(
            got,
            vec![
                "Ident:use",
                "Ident:crate",
                "Punct::",
                "Punct::",
                "Ident:model",
                "Punct::",
                "Punct::",
                "Punct:{",
                "Ident:current",
                "Punct:,",
                "Ident:Scheduler",
                "Punct:}",
            ],
            "crates/sync/src/shim.rs no longer tokenizes as pinned"
        );

        let dur = std::fs::read_to_string(root.join("crates/service/src/durability.rs"))
            .expect("durability.rs");
        let toks = lex(&dur);
        // the file must contain no Lifetime/CharLit misreads of its many
        // `'static` bounds and string literals, and every doc line must be
        // trivia
        assert!(toks.iter().all(|t| t.kind != TokKind::CharLit));
        let first_sig = toks.iter().find(|t| !t.is_trivia()).expect("nonempty");
        assert_eq!(first_sig.text(&dur), "use");
        assert!(first_sig.line > 1, "durability.rs opens with doc comments");
    }
}
