//! Recursive-descent parser: token stream → [`Request`].

use crate::ast::{Clause, Request, Value};
use crate::lexer::{lex, LexError, Token};
use std::fmt;

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    Lex(LexError),
    /// Unexpected token (or end of input) with a description.
    Unexpected {
        at: usize,
        expected: String,
    },
    /// Empty request.
    Empty,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => e.fmt(f),
            ParseError::Unexpected { at, expected } => {
                write!(f, "parse error at token {at}: expected {expected}")
            }
            ParseError::Empty => f.write_str("empty RSL request"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_clause(&mut self) -> Result<Clause, ParseError> {
        match self.bump() {
            Some(Token::LParen) => {}
            _ => {
                return Err(ParseError::Unexpected {
                    at: self.pos.saturating_sub(1),
                    expected: "'('".into(),
                })
            }
        }
        let attr = match self.bump() {
            Some(Token::Ident(s)) => s,
            _ => {
                return Err(ParseError::Unexpected {
                    at: self.pos.saturating_sub(1),
                    expected: "attribute name".into(),
                })
            }
        };
        let op = match self.bump() {
            Some(Token::Op(o)) => o,
            _ => {
                return Err(ParseError::Unexpected {
                    at: self.pos.saturating_sub(1),
                    expected: "relational operator".into(),
                })
            }
        };
        let value = match self.bump() {
            Some(Token::Str(s)) => Value::Str(s),
            Some(Token::Int(i)) => Value::Int(i),
            // Bare words are accepted as string values (Globus allows
            // unquoted literals): `(module=pvm)`.
            Some(Token::Ident(s)) => Value::Str(s),
            _ => {
                return Err(ParseError::Unexpected {
                    at: self.pos.saturating_sub(1),
                    expected: "value".into(),
                })
            }
        };
        match self.bump() {
            Some(Token::RParen) => {}
            _ => {
                return Err(ParseError::Unexpected {
                    at: self.pos.saturating_sub(1),
                    expected: "')'".into(),
                })
            }
        }
        Ok(Clause { attr, op, value })
    }
}

/// Parse an RSL request string such as
/// `+(count>=4)(arch="i686")(module="pvm")`.
///
/// The leading `+` (multi-request marker) and `&` (conjunction marker) are
/// both accepted and equivalent here: the prototype treats every request as
/// a single conjunction.
pub fn parse(input: &str) -> Result<Request, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser { toks, pos: 0 };
    // Optional leading + / &.
    while matches!(p.peek(), Some(Token::Plus) | Some(Token::Amp)) {
        p.bump();
    }
    let mut clauses = Vec::new();
    while p.peek().is_some() {
        clauses.push(p.expect_clause()?);
    }
    if clauses.is_empty() {
        return Err(ParseError::Empty);
    }
    Ok(Request { clauses })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::RelOp;

    #[test]
    fn parses_the_paper_example() {
        let r = parse(r#"+(count>=4)(arch="i686")(module="pvm")"#).unwrap();
        assert_eq!(r.clauses.len(), 3);
        assert_eq!(r.clauses[0], Clause::new("count", RelOp::Ge, Value::Int(4)));
        assert_eq!(r.str_eq("arch"), Some("i686"));
        assert_eq!(r.str_eq("module"), Some("pvm"));
    }

    #[test]
    fn plus_and_amp_prefixes_are_optional() {
        let a = parse(r#"+(x=1)"#).unwrap();
        let b = parse(r#"&(x=1)"#).unwrap();
        let c = parse(r#"(x=1)"#).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn bare_word_values() {
        let r = parse("(module=pvm)").unwrap();
        assert_eq!(r.str_eq("module"), Some("pvm"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(parse(""), Err(ParseError::Empty)));
        assert!(matches!(parse("+"), Err(ParseError::Empty)));
        assert!(parse("(x=1").is_err());
        assert!(parse("(=1)").is_err());
        assert!(parse("(x 1)").is_err());
        assert!(parse("x=1").is_err());
    }

    #[test]
    fn roundtrip_display_parse() {
        let src = r#"+(count>=4)(arch="i686")(adaptive=1)(module="pvm")(start_script="run.sh")"#;
        let r = parse(src).unwrap();
        let shown = r.to_string();
        let r2 = parse(&shown).unwrap();
        assert_eq!(r, r2);
    }
}

#[cfg(test)]
mod randomized {
    //! Seeded randomized roundtrip testing (the offline stand-in for the
    //! earlier proptest suite): any structurally valid request survives a
    //! display→parse roundtrip.

    use super::*;
    use crate::lexer::RelOp;
    use rb_simcore::SimRng;

    const OPS: [RelOp; 6] = [
        RelOp::Eq,
        RelOp::Ne,
        RelOp::Ge,
        RelOp::Le,
        RelOp::Gt,
        RelOp::Lt,
    ];

    fn rand_ident(rng: &mut SimRng, tail_max: usize) -> String {
        let head = b"abcdefghijklmnopqrstuvwxyz";
        let tail = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        let mut s = String::new();
        s.push(head[rng.index(head.len())] as char);
        for _ in 0..rng.index(tail_max + 1) {
            s.push(tail[rng.index(tail.len())] as char);
        }
        s
    }

    fn rand_value(rng: &mut SimRng) -> Value {
        if rng.chance(0.5) {
            Value::Int(rng.uniform_u64(0, 2_000) as i64 - 1_000)
        } else {
            // Quotes, backslashes and multi-byte chars must survive the
            // printer's escaping and the lexer's decoding.
            let chars: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789_.- \"\\é€😀"
                .chars()
                .collect();
            let mut s = String::new();
            s.push(b"abcdefghijklmnopqrstuvwxyz"[rng.index(26)] as char);
            for _ in 0..rng.index(13) {
                s.push(chars[rng.index(chars.len())]);
            }
            Value::Str(s)
        }
    }

    #[test]
    fn display_parse_roundtrip() {
        let mut rng = SimRng::seeded(0x5151);
        for _ in 0..256 {
            let clauses = (0..rng.uniform_u64(1, 8))
                .map(|_| {
                    Clause::new(
                        rand_ident(&mut rng, 10),
                        OPS[rng.index(OPS.len())],
                        rand_value(&mut rng),
                    )
                })
                .collect();
            let r = Request { clauses };
            let shown = r.to_string();
            let parsed = parse(&shown).expect("roundtrip parse");
            assert_eq!(parsed, r, "roundtrip of {shown}");
        }
    }
}
