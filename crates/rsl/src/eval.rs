//! Evaluation of RSL requests: extracting job-level requirements (the
//! paper's `adaptive`, `module`, `start_script` extensions plus `count`)
//! and matching machine-level constraints against machine attributes.

use crate::ast::{Clause, Request, Value};
use crate::lexer::RelOp;
use rb_proto::{MachineAttrs, Ownership};
use std::fmt;

// Job-level attributes (`count`, `adaptive`, `module`, `start_script`,
// `executable`) are matched by name in `job_spec` below; everything else
// is a per-machine constraint.

/// A job's requirements extracted from its RSL request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Minimum machines the job wants (`count>=k`, `count=k`; default 1).
    pub min_count: u32,
    /// Maximum machines (`count<=k`, `count=k`), if bounded.
    pub max_count: Option<u32>,
    /// `(adaptive=1)` — the job can grow/shrink at runtime.
    pub adaptive: bool,
    /// `(module="pvm")` — external-module triple to use for grow/shrink/halt.
    pub module: Option<String>,
    /// `(start_script="...")` — script run to launch the job.
    pub start_script: Option<String>,
    /// Remaining clauses, interpreted as per-machine constraints.
    pub constraints: Vec<Clause>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            min_count: 1,
            max_count: None,
            adaptive: false,
            module: None,
            start_script: None,
            constraints: Vec::new(),
        }
    }
}

/// Errors in job-level attribute usage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// e.g. `(count>="four")`.
    TypeMismatch { attr: String },
    /// e.g. `(count<0)`, a count beyond `u32`, or contradictory bounds.
    BadCount { detail: String },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::TypeMismatch { attr } => write!(f, "attribute '{attr}' has wrong type"),
            SpecError::BadCount { detail } => write!(f, "bad count constraint: {detail}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Extract the job-level spec from a parsed request.
pub fn job_spec(req: &Request) -> Result<JobSpec, SpecError> {
    let mut spec = JobSpec::default();
    let mut explicit_min = false;
    for c in &req.clauses {
        match c.attr.as_str() {
            "count" => {
                let Value::Int(v) = c.value else {
                    return Err(SpecError::TypeMismatch {
                        attr: "count".into(),
                    });
                };
                let Ok(v) = u32::try_from(v) else {
                    return Err(SpecError::BadCount {
                        detail: format!("count {v} outside 0..={}", u32::MAX),
                    });
                };
                match c.op {
                    RelOp::Eq => {
                        spec.min_count = v;
                        spec.max_count = Some(v);
                        explicit_min = true;
                    }
                    RelOp::Ge => {
                        spec.min_count = spec.min_count.max(v);
                        explicit_min = true;
                    }
                    RelOp::Gt => {
                        let Some(min) = v.checked_add(1) else {
                            return Err(SpecError::BadCount {
                                detail: format!("count>{v} impossible"),
                            });
                        };
                        spec.min_count = spec.min_count.max(min);
                        explicit_min = true;
                    }
                    RelOp::Le => {
                        spec.max_count = Some(spec.max_count.map_or(v, |m| m.min(v)));
                    }
                    RelOp::Lt => {
                        if v == 0 {
                            return Err(SpecError::BadCount {
                                detail: "count<0 impossible".into(),
                            });
                        }
                        spec.max_count = Some(spec.max_count.map_or(v - 1, |m| m.min(v - 1)));
                    }
                    RelOp::Ne => {
                        return Err(SpecError::BadCount {
                            detail: "count!= not supported".into(),
                        });
                    }
                }
            }
            "adaptive" => match &c.value {
                Value::Int(v) => spec.adaptive = *v != 0,
                Value::Str(s) => spec.adaptive = s == "1" || s == "true" || s == "yes",
            },
            "module" => match &c.value {
                Value::Str(s) => spec.module = Some(s.clone()),
                Value::Int(_) => {
                    return Err(SpecError::TypeMismatch {
                        attr: "module".into(),
                    })
                }
            },
            "start_script" => match &c.value {
                Value::Str(s) => spec.start_script = Some(s.clone()),
                Value::Int(_) => {
                    return Err(SpecError::TypeMismatch {
                        attr: "start_script".into(),
                    })
                }
            },
            "executable" => { /* recorded but uninterpreted by the prototype */ }
            _ => spec.constraints.push(c.clone()),
        }
    }
    if let Some(max) = spec.max_count {
        if explicit_min && max < spec.min_count {
            return Err(SpecError::BadCount {
                detail: format!("max {max} < min {}", spec.min_count),
            });
        }
    }
    Ok(spec)
}

fn cmp_i64(lhs: i64, op: RelOp, rhs: i64) -> bool {
    match op {
        RelOp::Eq => lhs == rhs,
        RelOp::Ne => lhs != rhs,
        RelOp::Ge => lhs >= rhs,
        RelOp::Le => lhs <= rhs,
        RelOp::Gt => lhs > rhs,
        RelOp::Lt => lhs < rhs,
    }
}

fn cmp_str(lhs: &str, op: RelOp, rhs: &str) -> bool {
    match op {
        RelOp::Eq => lhs == rhs,
        RelOp::Ne => lhs != rhs,
        RelOp::Ge => lhs >= rhs,
        RelOp::Le => lhs <= rhs,
        RelOp::Gt => lhs > rhs,
        RelOp::Lt => lhs < rhs,
    }
}

/// Does one clause hold for a machine? Unknown attributes never match
/// (conservative: a constraint the broker cannot check is not satisfied).
pub fn clause_matches(clause: &Clause, attrs: &MachineAttrs) -> bool {
    match clause.attr.as_str() {
        "arch" => match &clause.value {
            Value::Str(s) => cmp_str(attrs.arch.as_str(), clause.op, s),
            Value::Int(_) => false,
        },
        "os" => match &clause.value {
            Value::Str(s) => cmp_str(attrs.os.as_str(), clause.op, s),
            Value::Int(_) => false,
        },
        "hostname" => match &clause.value {
            Value::Str(s) => cmp_str(&attrs.hostname, clause.op, s),
            Value::Int(_) => false,
        },
        // Speed is compared in integer percent of the baseline machine.
        "speed" => match &clause.value {
            Value::Int(v) => cmp_i64((attrs.speed * 100.0).round() as i64, clause.op, *v),
            Value::Str(_) => false,
        },
        "owner" => match (&clause.value, &attrs.ownership) {
            (Value::Str(s), Ownership::Private { owner }) => cmp_str(owner, clause.op, s),
            (Value::Str(s), Ownership::Public) => cmp_str("public", clause.op, s),
            _ => false,
        },
        "private" => match &clause.value {
            Value::Int(v) => cmp_i64(attrs.ownership.is_private() as i64, clause.op, *v),
            Value::Str(_) => false,
        },
        _ => false,
    }
}

/// Does a machine satisfy *all* constraints?
pub fn machine_matches(constraints: &[Clause], attrs: &MachineAttrs) -> bool {
    constraints.iter().all(|c| clause_matches(c, attrs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use rb_proto::{Arch, Os};

    fn spec_of(src: &str) -> JobSpec {
        job_spec(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn paper_example_spec() {
        let s = spec_of(r#"+(count>=4)(arch="i686")(module="pvm")"#);
        assert_eq!(s.min_count, 4);
        assert_eq!(s.max_count, None);
        assert_eq!(s.module.as_deref(), Some("pvm"));
        assert!(!s.adaptive);
        assert_eq!(s.constraints.len(), 1);
        assert_eq!(s.constraints[0].attr, "arch");
    }

    #[test]
    fn adaptive_and_start_script_extensions() {
        let s = spec_of(r#"+(adaptive=1)(start_script="run.sh")(count>=2)"#);
        assert!(s.adaptive);
        assert_eq!(s.start_script.as_deref(), Some("run.sh"));
        assert_eq!(s.min_count, 2);
    }

    #[test]
    fn count_forms() {
        assert_eq!(spec_of("(count=3)").min_count, 3);
        assert_eq!(spec_of("(count=3)").max_count, Some(3));
        assert_eq!(spec_of("(count>2)").min_count, 3);
        assert_eq!(spec_of("(count<=5)").max_count, Some(5));
        assert_eq!(spec_of("(count<5)").max_count, Some(4));
        // Default when unspecified.
        assert_eq!(spec_of(r#"(arch="i686")"#).min_count, 1);
    }

    #[test]
    fn count_errors() {
        let bad = job_spec(&parse(r#"(count="four")"#).unwrap());
        assert!(matches!(bad, Err(SpecError::TypeMismatch { .. })));
        let bad = job_spec(&parse("(count>=5)(count<=2)").unwrap());
        assert!(matches!(bad, Err(SpecError::BadCount { .. })));
        let bad = job_spec(&parse("(count=-1)").unwrap());
        assert!(matches!(bad, Err(SpecError::BadCount { .. })));
    }

    /// Counts above `u32::MAX` are bad counts under every operator rather
    /// than wrapping (or, for `>`, overflowing) into a different bound.
    #[test]
    fn counts_beyond_u32_are_bad_counts() {
        let bad = |src: &str| {
            let got = job_spec(&parse(src).unwrap());
            assert!(
                matches!(got, Err(SpecError::BadCount { .. })),
                "{src}: {got:?}"
            );
        };
        bad("(count=4294967296)");
        bad("(count>=4294967296)");
        bad("(count>4294967295)");
        bad("(count<=4294967297)");
        bad("(count<4294967296)");
        // The largest representable bounds still work.
        assert_eq!(spec_of("(count>4294967294)").min_count, u32::MAX);
        assert_eq!(spec_of("(count<=4294967295)").max_count, Some(u32::MAX));
    }

    fn linux() -> MachineAttrs {
        MachineAttrs::public_linux("n01")
    }

    fn sparc() -> MachineAttrs {
        let mut m = MachineAttrs::public_linux("s01");
        m.arch = Arch::Sparc;
        m.os = Os::Solaris;
        m
    }

    #[test]
    fn machine_matching() {
        let s = spec_of(r#"(arch="i686")(os="linux")"#);
        assert!(machine_matches(&s.constraints, &linux()));
        assert!(!machine_matches(&s.constraints, &sparc()));
    }

    #[test]
    fn hostname_and_negation() {
        let s = spec_of(r#"(hostname!="n01")"#);
        assert!(!machine_matches(&s.constraints, &linux()));
        assert!(machine_matches(&s.constraints, &sparc()));
    }

    #[test]
    fn speed_constraint_in_percent() {
        let mut fast = linux();
        fast.speed = 2.0;
        let s = spec_of("(speed>=150)");
        assert!(machine_matches(&s.constraints, &fast));
        assert!(!machine_matches(&s.constraints, &linux()));
    }

    #[test]
    fn ownership_constraints() {
        let private = MachineAttrs::private_linux("p01", "alice");
        let s = spec_of("(private=0)");
        assert!(machine_matches(&s.constraints, &linux()));
        assert!(!machine_matches(&s.constraints, &private));
        let s = spec_of(r#"(owner="alice")"#);
        assert!(machine_matches(&s.constraints, &private));
        assert!(!machine_matches(&s.constraints, &linux()));
    }

    #[test]
    fn unknown_attributes_never_match() {
        let s = spec_of("(flux_capacity>=88)");
        assert!(!machine_matches(&s.constraints, &linux()));
    }

    #[test]
    fn empty_constraints_match_everything() {
        assert!(machine_matches(&[], &linux()));
        assert!(machine_matches(&[], &sparc()));
    }
}
