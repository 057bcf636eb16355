//! A lexed source file: its token stream, the significant-token view the
//! rules match on, and the line where its test code starts.

use crate::lexer::{lex, TokKind, Token};

/// A lexed file plus its significant-token view.
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated (used for rule scoping).
    pub path: String,
    pub src: String,
    /// Raw source lines, for the line-oriented exception/justification
    /// comment grammar (comments are trivia in the token stream).
    pub lines: Vec<String>,
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-trivia tokens, in order.
    pub sig: Vec<usize>,
    /// Line of the first test module's `#[cfg(test)]` attribute, if any.
    /// Library-code rules stop there: in this workspace test modules are
    /// trailing, so the suffix region is exact, and a misplaced test module
    /// would re-expose library code to the stricter rules, never the reverse.
    pub test_from_line: Option<u32>,
}

impl FileCtx {
    pub fn new(path: &str, src: &str) -> FileCtx {
        let tokens = lex(src);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_trivia())
            .map(|(i, _)| i)
            .collect();
        let mut cx = FileCtx {
            path: path.to_string(),
            src: src.to_string(),
            lines: src.lines().map(str::to_string).collect(),
            tokens,
            sig,
            test_from_line: None,
        };
        cx.test_from_line = cx.first_cfg_test();
        cx
    }

    /// Text of significant token `si` (an index into `self.sig`).
    pub fn st(&self, si: usize) -> &str {
        self.tokens[self.sig[si]].text(&self.src)
    }

    pub fn skind(&self, si: usize) -> TokKind {
        self.tokens[self.sig[si]].kind
    }

    pub fn sline(&self, si: usize) -> u32 {
        self.tokens[self.sig[si]].line
    }

    pub fn sig_len(&self) -> usize {
        self.sig.len()
    }

    pub fn is_ident(&self, si: usize, text: &str) -> bool {
        si < self.sig.len() && self.skind(si) == TokKind::Ident && self.st(si) == text
    }

    pub fn is_punct(&self, si: usize, ch: char) -> bool {
        si < self.sig.len() && self.skind(si) == TokKind::Punct && self.st(si).starts_with(ch)
    }

    /// True when `line` (1-based) is in this file's test region.
    pub fn in_tests(&self, line: u32) -> bool {
        self.test_from_line.is_some_and(|t| line >= t)
    }

    /// Line of the first test module: a `mod` item, outside every fn body,
    /// carrying an outer attribute whose brackets hold `cfg(` and the word
    /// `test` (`#[cfg(test)]`, `#[cfg(all(test, feature = "model"))]`). A
    /// `#[cfg(test)]` helper fn or method above the module leaves the code
    /// after it in the library region.
    fn first_cfg_test(&self) -> Option<u32> {
        let mut si = 0;
        let mut test_attr = None;
        while si < self.sig_len() {
            if self.is_punct(si, '#') && self.is_punct(si + 1, '[') {
                let end = self.past_group(si + 1);
                let attr = si + 2..end;
                if attr
                    .clone()
                    .any(|a| self.is_ident(a, "cfg") && self.is_punct(a + 1, '('))
                    && attr.clone().any(|a| self.is_ident(a, "test"))
                {
                    test_attr = test_attr.or(Some(self.sline(si)));
                }
                si = end;
                continue;
            }
            if self.is_ident(si, "pub") {
                si += 1;
                if self.is_punct(si, '(') {
                    si = self.past_group(si);
                }
                continue;
            }
            if self.is_ident(si, "mod") && test_attr.is_some() {
                return test_attr;
            }
            test_attr = None;
            if self.is_ident(si, "fn")
                && si + 1 < self.sig_len()
                && self.skind(si + 1) == TokKind::Ident
            {
                // skip the signature's groups, then the body or the `;`
                si += 1;
                while si < self.sig_len() && !self.is_punct(si, '{') && !self.is_punct(si, ';') {
                    si = if self.is_punct(si, '(') || self.is_punct(si, '[') {
                        self.past_group(si)
                    } else {
                        si + 1
                    };
                }
                si = if self.is_punct(si, '{') {
                    self.past_group(si)
                } else {
                    si + 1
                };
                continue;
            }
            si += 1;
        }
        None
    }

    /// Significant index just past the group that opens at `open`: the
    /// bracket that brings the nesting of `()`, `[]` and `{}` back to zero.
    fn past_group(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for si in open..self.sig_len() {
            if self.is_punct(si, '(') || self.is_punct(si, '[') || self.is_punct(si, '{') {
                depth += 1;
            } else if self.is_punct(si, ')') || self.is_punct(si, ']') || self.is_punct(si, '}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return si + 1;
                }
            }
        }
        self.sig_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new("crates/x/src/m.rs", src)
    }

    #[test]
    fn cfg_test_marks_the_suffix_region() {
        let cx = ctx("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n");
        assert_eq!(cx.test_from_line, Some(2));
        assert!(!cx.in_tests(1));
        assert!(cx.in_tests(2));
        assert!(cx.in_tests(4));
    }

    #[test]
    fn cfg_test_in_strings_or_comments_is_invisible() {
        let cx =
            ctx("// #[cfg(test)] in a comment\nconst S: &str = \"#[cfg(test)]\";\nfn lib() {}\n");
        assert_eq!(cx.test_from_line, None);
        assert!(!cx.in_tests(3));
    }

    #[test]
    fn only_a_test_module_starts_the_test_region() {
        // a test-only helper, a statement inside a body and an inner
        // attribute leave the library code after them in scope
        let cx = ctx(
            "#![cfg_attr(test, allow(dead_code))]\n\
             fn lib(v: [u8; 2]) -> usize {\n    #[cfg(test)]\n    let _ = v;\n    0\n}\n\
             #[cfg(test)]\npub(crate) fn helper() {}\n\
             fn more() {}\n\
             #[cfg(all(test, feature = \"model\"))]\n#[allow(clippy::unwrap_used)]\nmod model_tests;\n",
        );
        assert_eq!(cx.test_from_line, Some(10));
    }
}
