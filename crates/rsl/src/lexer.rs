//! Tokenizer for the Resource Specification Language.
//!
//! The surface syntax is the Globus RSL conjunction form the paper adopts:
//! `+(count>=4)(arch="i686")(module="pvm")`.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    Plus,
    Amp,
    LParen,
    RParen,
    /// `=`, `!=`, `>=`, `<=`, `>`, `<`
    Op(RelOp),
    /// A bare identifier or word value.
    Ident(String),
    /// A double-quoted string (quotes stripped, `\"` and `\\` unescaped;
    /// any other backslash is kept as written).
    Str(String),
    /// An integer literal.
    Int(i64),
}

/// Relational operators of RSL clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelOp {
    Eq,
    Ne,
    Ge,
    Le,
    Gt,
    Lt,
}

impl RelOp {
    pub fn as_str(self) -> &'static str {
        match self {
            RelOp::Eq => "=",
            RelOp::Ne => "!=",
            RelOp::Ge => ">=",
            RelOp::Le => "<=",
            RelOp::Gt => ">",
            RelOp::Lt => "<",
        }
    }
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Lexing errors with byte positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub pos: usize,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize an RSL string.
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '&' => {
                out.push(Token::Amp);
                i += 1;
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            '=' => {
                out.push(Token::Op(RelOp::Eq));
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Op(RelOp::Ne));
                    i += 2;
                } else {
                    return Err(LexError {
                        pos: i,
                        message: "expected '=' after '!'".into(),
                    });
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Op(RelOp::Ge));
                    i += 2;
                } else {
                    out.push(Token::Op(RelOp::Gt));
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Op(RelOp::Le));
                    i += 2;
                } else {
                    out.push(Token::Op(RelOp::Lt));
                    i += 1;
                }
            }
            '"' => {
                let mut s = String::new();
                let mut chars = input[i + 1..].char_indices().peekable();
                loop {
                    match chars.next() {
                        None => {
                            return Err(LexError {
                                pos: i,
                                message: "unterminated string".into(),
                            })
                        }
                        Some((j, '"')) => {
                            i += j + 2;
                            break;
                        }
                        Some((_, '\\')) => match chars.next_if(|&(_, c)| c == '"' || c == '\\') {
                            Some((_, c)) => s.push(c),
                            None => s.push('\\'),
                        },
                        Some((_, c)) => s.push(c),
                    }
                }
                out.push(Token::Str(s));
            }
            c if c.is_ascii_digit() || c == '-' => {
                let start = i;
                i += 1;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let text = &input[start..i];
                let v: i64 = text.parse().map_err(|_| LexError {
                    pos: start,
                    message: format!("bad integer '{text}'"),
                })?;
                out.push(Token::Int(v));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(input[start..i].to_string()));
            }
            _ => {
                let other = input[i..]
                    .chars()
                    .next()
                    .expect("i is a char boundary below len");
                return Err(LexError {
                    pos: i,
                    message: format!("unexpected character '{other}'"),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_the_paper_example() {
        let toks = lex(r#"+(count>=4)(arch="i686")(module="pvm")"#).unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Plus,
                Token::LParen,
                Token::Ident("count".into()),
                Token::Op(RelOp::Ge),
                Token::Int(4),
                Token::RParen,
                Token::LParen,
                Token::Ident("arch".into()),
                Token::Op(RelOp::Eq),
                Token::Str("i686".into()),
                Token::RParen,
                Token::LParen,
                Token::Ident("module".into()),
                Token::Op(RelOp::Eq),
                Token::Str("pvm".into()),
                Token::RParen,
            ]
        );
    }

    #[test]
    fn lexes_all_operators() {
        let toks = lex("(a=1)(b!=2)(c>=3)(d<=4)(e>5)(f<6)").unwrap();
        let ops: Vec<RelOp> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Op(o) => Some(*o),
                _ => None,
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                RelOp::Eq,
                RelOp::Ne,
                RelOp::Ge,
                RelOp::Le,
                RelOp::Gt,
                RelOp::Lt
            ]
        );
    }

    #[test]
    fn string_escapes() {
        let toks = lex(r#"(x="a\"b")"#).unwrap();
        assert!(toks.contains(&Token::Str("a\"b".into())));
        let toks = lex(r#"(x="a\\" y="c\d")"#).unwrap();
        assert!(toks.contains(&Token::Str("a\\".into())));
        assert!(toks.contains(&Token::Str("c\\d".into())));
    }

    #[test]
    fn multibyte_chars_are_decoded_whole() {
        let toks = lex("(user=\"José\")").unwrap();
        assert!(toks.contains(&Token::Str("José".into())));
        let err = lex("(x=é)").unwrap_err();
        assert_eq!(err.pos, 3);
        assert_eq!(err.message, "unexpected character 'é'");
    }

    #[test]
    fn negative_integers() {
        let toks = lex("(x=-12)").unwrap();
        assert!(toks.contains(&Token::Int(-12)));
    }

    #[test]
    fn errors_are_positioned() {
        let err = lex("(x=@)").unwrap_err();
        assert_eq!(err.pos, 3);
        let err = lex("(x!y)").unwrap_err();
        assert!(err.message.contains("after '!'"));
        let err = lex(r#"(x="oops)"#).unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn whitespace_is_insignificant() {
        assert_eq!(lex("( a = 1 )").unwrap(), lex("(a=1)").unwrap());
    }
}
