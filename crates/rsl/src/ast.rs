//! Abstract syntax of RSL requests.

use crate::lexer::RelOp;
use std::fmt;

/// A clause value: string or integer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    Str(String),
    Int(i64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            Value::Int(i) => write!(f, "{i}"),
        }
    }
}

/// One `(attribute op value)` clause.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Clause {
    pub attr: String,
    pub op: RelOp,
    pub value: Value,
}

impl Clause {
    pub fn new(attr: impl Into<String>, op: RelOp, value: Value) -> Self {
        Clause {
            attr: attr.into(),
            op,
            value,
        }
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}{}{})", self.attr, self.op, self.value)
    }
}

/// A parsed request: a conjunction of clauses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Request {
    pub clauses: Vec<Clause>,
}

impl Request {
    /// All clauses naming `attr`.
    pub fn clauses_for<'a>(&'a self, attr: &'a str) -> impl Iterator<Item = &'a Clause> {
        self.clauses.iter().filter(move |c| c.attr == attr)
    }

    /// The value of the first `attr = value` clause, if any.
    pub fn first_eq(&self, attr: &str) -> Option<&Value> {
        self.clauses
            .iter()
            .find(|c| c.attr == attr && c.op == RelOp::Eq)
            .map(|c| &c.value)
    }

    /// First `attr = "string"` clause value.
    pub fn str_eq(&self, attr: &str) -> Option<&str> {
        match self.first_eq(attr) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "+")?;
        for c in &self.clauses {
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let c = Clause::new("arch", RelOp::Eq, Value::Str("i686".into()));
        assert_eq!(c.to_string(), r#"(arch="i686")"#);
        let c2 = Clause::new("count", RelOp::Ge, Value::Int(4));
        assert_eq!(c2.to_string(), "(count>=4)");
        let r = Request {
            clauses: vec![c, c2],
        };
        assert_eq!(r.to_string(), r#"+(arch="i686")(count>=4)"#);
    }

    #[test]
    fn accessors() {
        let r = Request {
            clauses: vec![
                Clause::new("module", RelOp::Eq, Value::Str("pvm".into())),
                Clause::new("count", RelOp::Ge, Value::Int(2)),
            ],
        };
        assert_eq!(r.str_eq("module"), Some("pvm"));
        assert_eq!(r.str_eq("count"), None);
        assert_eq!(r.clauses_for("count").count(), 1);
        assert!(r.first_eq("missing").is_none());
    }
}
