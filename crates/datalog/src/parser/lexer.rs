//! Hand-written pull lexer for the surface language.
//!
//! Tokens: lowercase identifiers (predicate names / symbolic constants),
//! capitalized or `_`-prefixed identifiers (variables), single-quoted
//! symbols, integers, and punctuation. `%` starts a line comment.
//!
//! A [`Lexer`] scans the source's bytes and hands out one token per
//! call, so the parser holds one token of lookahead and never a token
//! vector. An identifier, a variable or a quoted symbol is a slice of
//! the source (`&'a str`): lexing allocates nothing. Positions are
//! 1-based lines and columns, and a column counts characters, so a UTF-8
//! continuation byte does not advance it. [`lex`] collects every token of
//! a source at once, for tests and tools.

use crate::error::{ParseError, Span};

/// A lexical token, borrowing its text from the source.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tok<'a> {
    /// Lowercase identifier: predicate name or symbolic constant.
    Ident(&'a str),
    /// Capitalized or underscore-prefixed identifier: variable.
    Var(&'a str),
    /// Single-quoted symbolic constant (quotes stripped).
    Quoted(&'a str),
    /// Unsigned integer literal (sign handled by the parser).
    Int(i64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:-`
    Implies,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `#`
    Hash,
    /// `/`
    Slash,
}

impl std::fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Var(s) => write!(f, "variable `{s}`"),
            Tok::Quoted(s) => write!(f, "'{s}'"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Implies => write!(f, "`:-`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Hash => write!(f, "`#`"),
            Tok::Slash => write!(f, "`/`"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Spanned<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// Where it starts.
    pub span: Span,
}

/// The characters in `bytes`: every byte but a UTF-8 continuation byte.
fn chars(bytes: &[u8]) -> u32 {
    bytes.iter().filter(|&&b| b & 0xC0 != 0x80).count() as u32
}

/// Tokenizes a source one token at a time. As an iterator it yields each
/// token, or the first lexical error and then nothing.
#[derive(Clone, Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Takes the next `n` bytes, counting the lines and characters they
    /// pass.
    fn take(&mut self, n: usize) -> &'a str {
        let s = &self.src[self.pos..self.pos + n];
        self.pos += n;
        match s.rfind('\n') {
            None => self.col += chars(s.as_bytes()),
            Some(last) => {
                self.line += s.bytes().filter(|&b| b == b'\n').count() as u32;
                self.col = 1 + chars(&s.as_bytes()[last + 1..]);
            }
        }
        s
    }

    /// Takes the next `n` bytes, all ASCII and none a newline.
    fn take_ascii(&mut self, n: usize) -> &'a str {
        let s = &self.src[self.pos..self.pos + n];
        self.pos += n;
        self.col += n as u32;
        s
    }

    /// The next token, `Ok(None)` at the end of the input.
    // Inlined into the parser's lookahead: a call per token cost about a
    // third of the lexing on a snapshot.
    #[inline(always)]
    pub fn next_token(&mut self) -> Result<Option<Spanned<'a>>, ParseError> {
        let bytes = self.src.as_bytes();
        // Blanks and comments.
        let b = loop {
            match bytes.get(self.pos) {
                None => return Ok(None),
                Some(b' ' | b'\t' | b'\r') => {
                    self.pos += 1;
                    self.col += 1;
                }
                Some(b'\n') => {
                    self.pos += 1;
                    self.line += 1;
                    self.col = 1;
                }
                Some(b'%') => {
                    self.take(run(&bytes[self.pos..], |c| c != b'\n'));
                }
                Some(&b) => break b,
            }
        };
        let span = Span {
            line: self.line,
            col: self.col,
        };
        let rest = &bytes[self.pos..];
        let err = |message: String| Err(ParseError { span, message });
        let tok = match b {
            b':' => {
                if rest.get(1) != Some(&b'-') {
                    return err("expected `:-`".into());
                }
                self.take_ascii(2);
                Tok::Implies
            }
            b'\'' => {
                let len = run(&rest[1..], |c| c != b'\'');
                if 1 + len == rest.len() {
                    return err("unterminated quoted symbol".into());
                }
                // The symbol may span lines.
                let quoted = self.take(len + 2);
                Tok::Quoted(&quoted[1..=len])
            }
            b'0'..=b'9' => {
                let digits = self.take_ascii(run(rest, |c| c.is_ascii_digit()));
                match digits.parse() {
                    Ok(val) => Tok::Int(val),
                    Err(_) => return err(format!("integer literal `{digits}` out of range")),
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let s = self.take_ascii(run(rest, |c| IDENT[c as usize]));
                if b.is_ascii_uppercase() || b == b'_' {
                    Tok::Var(s)
                } else {
                    Tok::Ident(s)
                }
            }
            _ => match punct(b) {
                Some(tok) => {
                    self.take_ascii(1);
                    tok
                }
                None => {
                    let other = self.src[self.pos..].chars().next().expect("not at the end");
                    return err(format!("unexpected character `{other}`"));
                }
            },
        };
        Ok(Some(Spanned { tok, span }))
    }
}

/// The bytes that continue an identifier: ASCII letters, digits and `_`.
static IDENT: [bool; 256] = {
    let mut table = [false; 256];
    let mut c = 0;
    while c < 256 {
        table[c] = (c as u8).is_ascii_alphanumeric() || c == b'_' as usize;
        c += 1;
    }
    table
};

/// The length of the longest prefix of `bytes` whose bytes all pass
/// `keep`.
fn run(bytes: &[u8], keep: impl Fn(u8) -> bool) -> usize {
    bytes.iter().position(|&c| !keep(c)).unwrap_or(bytes.len())
}

/// The one-byte punctuation token `b` stands for.
fn punct(b: u8) -> Option<Tok<'static>> {
    Some(match b {
        b'(' => Tok::LParen,
        b')' => Tok::RParen,
        b'{' => Tok::LBrace,
        b'}' => Tok::RBrace,
        b',' => Tok::Comma,
        b'.' => Tok::Dot,
        b'+' => Tok::Plus,
        b'-' => Tok::Minus,
        b'#' => Tok::Hash,
        b'/' => Tok::Slash,
        _ => return None,
    })
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Spanned<'a>, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        let next = self.next_token().transpose();
        if matches!(next, Some(Err(_))) {
            // Fused after an error: nothing past it is read.
            self.pos = self.src.len();
        }
        next
    }
}

/// Tokenizes all of `src` at once (the parser pulls from a [`Lexer`]
/// instead).
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, ParseError> {
    Lexer::new(src).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lexes_rule() {
        assert_eq!(
            toks("unemp(X) :- la(X), not works(X)."),
            vec![
                Tok::Ident("unemp"),
                Tok::LParen,
                Tok::Var("X"),
                Tok::RParen,
                Tok::Implies,
                Tok::Ident("la"),
                Tok::LParen,
                Tok::Var("X"),
                Tok::RParen,
                Tok::Comma,
                Tok::Ident("not"),
                Tok::Ident("works"),
                Tok::LParen,
                Tok::Var("X"),
                Tok::RParen,
                Tok::Dot,
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("% hello\np. % trailing\n"),
            vec![Tok::Ident("p"), Tok::Dot]
        );
    }

    #[test]
    fn quoted_symbols_and_ints() {
        assert_eq!(
            toks("p('New York', 42)."),
            vec![
                Tok::Ident("p"),
                Tok::LParen,
                Tok::Quoted("New York"),
                Tok::Comma,
                Tok::Int(42),
                Tok::RParen,
                Tok::Dot,
            ]
        );
    }

    #[test]
    fn events_and_directives() {
        assert_eq!(
            toks("+p(a). -q(b). #view v/1."),
            vec![
                Tok::Plus,
                Tok::Ident("p"),
                Tok::LParen,
                Tok::Ident("a"),
                Tok::RParen,
                Tok::Dot,
                Tok::Minus,
                Tok::Ident("q"),
                Tok::LParen,
                Tok::Ident("b"),
                Tok::RParen,
                Tok::Dot,
                Tok::Hash,
                Tok::Ident("view"),
                Tok::Ident("v"),
                Tok::Slash,
                Tok::Int(1),
                Tok::Dot,
            ]
        );
    }

    #[test]
    fn underscore_is_variable() {
        assert_eq!(toks("_x"), vec![Tok::Var("_x")]);
        assert_eq!(toks("X1"), vec![Tok::Var("X1")]);
    }

    #[test]
    fn error_position_reported() {
        let err = lex("p.\n  ?").unwrap_err();
        assert_eq!(err.span, Span { line: 2, col: 3 });
    }

    #[test]
    fn unterminated_quote_errors() {
        assert!(lex("'abc").is_err());
    }

    #[test]
    fn lone_colon_errors() {
        assert!(lex("p :").is_err());
    }

    /// A column counts characters, not bytes, and a quoted symbol may
    /// span lines.
    #[test]
    fn columns_count_characters() {
        let spans: Vec<(Tok<'_>, Span)> = lex("p('ñ', b).\n'x\ny' z")
            .unwrap()
            .into_iter()
            .map(|s| (s.tok, s.span))
            .collect();
        assert_eq!(spans[4], (Tok::Ident("b"), Span { line: 1, col: 8 }));
        assert_eq!(spans[7], (Tok::Quoted("x\ny"), Span { line: 2, col: 1 }));
        assert_eq!(spans[8], (Tok::Ident("z"), Span { line: 3, col: 4 }));
    }
}
