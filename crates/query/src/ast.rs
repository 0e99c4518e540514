//! Abstract syntax for BQL expressions.

use std::fmt;
use std::sync::Arc;

/// A literal constant in a predicate.
#[derive(Clone, Debug, PartialEq)]
pub enum Literal {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal, shared with every value it evaluates to.
    Str(Arc<str>),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Null => write!(f, "null"),
            Literal::Bool(b) => write!(f, "{b}"),
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Literal::Str(s) => {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        '\t' => write!(f, "\\t")?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
        }
    }
}

/// Binary operators, in increasing precedence groups: `or`, `and`,
/// comparisons, additive, multiplicative.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Logical disjunction.
    Or,
    /// Logical conjunction.
    And,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// Parser precedence; higher binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div => 5,
        }
    }

    /// The surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "or",
            BinOp::And => "and",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical negation (`not e`).
    Not,
    /// Arithmetic negation (`-e`).
    Neg,
}

/// A BQL expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A constant.
    Literal(Literal),
    /// A dotted field path rooted at the channel's record variable, e.g.
    /// `r.location.lat` is `Field(["location", "lat"])`.
    Field(Vec<String>),
    /// A `$name` parameter reference.
    Param(String),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// A builtin function call such as `within(r.location, $area)`.
    Call {
        /// Function name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for a binary node.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Convenience constructor for a field path from segments.
    pub fn field<I, S>(segments: I) -> Expr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Expr::Field(segments.into_iter().map(Into::into).collect())
    }

    /// Collects the names of all `$params` referenced by the expression.
    pub fn referenced_params(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Param(name) = e {
                if !out.contains(&name.as_str()) {
                    out.push(name.as_str());
                }
            }
        });
        out
    }

    /// Walks the expression tree depth-first, calling `f` on every node.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Unary { expr, .. } => expr.visit(f),
            Expr::Call { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Literal(_) | Expr::Field(_) | Expr::Param(_) => {}
        }
    }

    /// Extracts `field == $param` equality constraints from the top-level
    /// conjunction of this predicate.
    ///
    /// The BAD cluster's matcher uses these to partition subscriptions by
    /// the bound parameter value, so a publication only needs to be checked
    /// against subscriptions whose equality key matches.
    pub fn equality_param_fields(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        self.collect_equalities(&mut out);
        out
    }

    fn collect_equalities(&self, out: &mut Vec<(String, String)>) {
        match self {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                lhs.collect_equalities(out);
                rhs.collect_equalities(out);
            }
            Expr::Binary {
                op: BinOp::Eq,
                lhs,
                rhs,
            } => match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Field(path), Expr::Param(p)) | (Expr::Param(p), Expr::Field(path)) => {
                    out.push((path.join("."), p.clone()));
                }
                _ => {}
            },
            _ => {}
        }
    }

    /// The `(field path, parameter)` of a `within(r.<field>, $<param>)`
    /// conjunct of this predicate's top-level conjunction, when every
    /// conjunct evaluated before it is an `==` or `!=` between fields,
    /// parameters and literals.
    ///
    /// Those comparisons cannot fail once every parameter is bound, so a
    /// record whose point parses and lies outside the bound region makes
    /// the whole predicate `false`, never an error: the matcher may skip
    /// that subscription for that record without evaluating it.
    pub fn region_param_field(&self) -> Option<(&[String], &str)> {
        let mut conjuncts = Vec::new();
        self.collect_conjuncts(&mut conjuncts);
        let infallible = |e: &Expr| matches!(e, Expr::Literal(_) | Expr::Field(_) | Expr::Param(_));
        for conjunct in conjuncts {
            match conjunct {
                Expr::Call { name, args } if name == "within" => {
                    return match args.as_slice() {
                        [Expr::Field(path), Expr::Param(param)] => Some((path, param)),
                        _ => None,
                    };
                }
                Expr::Binary {
                    op: BinOp::Eq | BinOp::Ne,
                    lhs,
                    rhs,
                } if infallible(lhs) && infallible(rhs) => {}
                _ => return None,
            }
        }
        None
    }

    /// The operands of the top-level conjunction, in evaluation order.
    fn collect_conjuncts<'a>(&'a self, out: &mut Vec<&'a Expr>) {
        match self {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                lhs.collect_conjuncts(out);
                rhs.collect_conjuncts(out);
            }
            other => out.push(other),
        }
    }

    fn fmt_with_parens(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        match self {
            Expr::Literal(lit) => write!(f, "{lit}"),
            Expr::Field(path) => write!(f, "r.{}", path.join(".")),
            Expr::Param(name) => write!(f, "${name}"),
            Expr::Binary { op, lhs, rhs } => {
                let prec = op.precedence();
                let needs = prec < parent_prec;
                if needs {
                    write!(f, "(")?;
                }
                lhs.fmt_with_parens(f, prec)?;
                write!(f, " {} ", op.symbol())?;
                // Right operand needs parens at equal precedence to keep
                // left associativity through a print/parse round trip.
                rhs.fmt_with_parens(f, prec + 1)?;
                if needs {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Expr::Unary { op, expr } => {
                match op {
                    UnOp::Not => write!(f, "not ")?,
                    UnOp::Neg => write!(f, "-")?,
                }
                expr.fmt_with_parens(f, 6)
            }
            Expr::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    a.fmt_with_parens(f, 0)?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with_parens(f, 0)
    }
}

/// The declared type of a channel parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParamType {
    /// UTF-8 string.
    String,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Boolean.
    Bool,
    /// A `{lat, lon}` point record.
    Point,
    /// A `{min, max}` bounding-box record.
    Region,
}

impl ParamType {
    /// The BQL keyword for this type.
    pub fn keyword(self) -> &'static str {
        match self {
            ParamType::String => "string",
            ParamType::Int => "int",
            ParamType::Float => "float",
            ParamType::Bool => "bool",
            ParamType::Point => "point",
            ParamType::Region => "region",
        }
    }

    /// Parses a BQL type keyword.
    pub fn from_keyword(kw: &str) -> Option<ParamType> {
        Some(match kw {
            "string" => ParamType::String,
            "int" => ParamType::Int,
            "float" => ParamType::Float,
            "bool" => ParamType::Bool,
            "point" => ParamType::Point,
            "region" => ParamType::Region,
            _ => return None,
        })
    }
}

impl fmt::Display for ParamType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(path: &[&str]) -> Expr {
        Expr::field(path.iter().copied())
    }

    #[test]
    fn display_respects_precedence() {
        // (a or b) and c needs parens around the `or`.
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Or, field(&["a"]), field(&["b"])),
            field(&["c"]),
        );
        assert_eq!(e.to_string(), "(r.a or r.b) and r.c");
        // a or (b and c) needs none.
        let e2 = Expr::binary(
            BinOp::Or,
            field(&["a"]),
            Expr::binary(BinOp::And, field(&["b"]), field(&["c"])),
        );
        assert_eq!(e2.to_string(), "r.a or r.b and r.c");
    }

    #[test]
    fn display_left_associative_subtraction() {
        // (a - b) - c prints without parens; a - (b - c) keeps them.
        let left = Expr::binary(
            BinOp::Sub,
            Expr::binary(BinOp::Sub, field(&["a"]), field(&["b"])),
            field(&["c"]),
        );
        assert_eq!(left.to_string(), "r.a - r.b - r.c");
        let right = Expr::binary(
            BinOp::Sub,
            field(&["a"]),
            Expr::binary(BinOp::Sub, field(&["b"]), field(&["c"])),
        );
        assert_eq!(right.to_string(), "r.a - (r.b - r.c)");
    }

    #[test]
    fn referenced_params_deduplicates() {
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Eq, field(&["k"]), Expr::Param("p".into())),
            Expr::binary(BinOp::Ne, field(&["x"]), Expr::Param("p".into())),
        );
        assert_eq!(e.referenced_params(), vec!["p"]);
    }

    #[test]
    fn equality_extraction_finds_conjuncts() {
        // r.kind == $k and (r.sev >= $s and r.city == $c) and r.x < 3
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(
                BinOp::And,
                Expr::binary(BinOp::Eq, field(&["kind"]), Expr::Param("k".into())),
                Expr::binary(
                    BinOp::And,
                    Expr::binary(BinOp::Ge, field(&["sev"]), Expr::Param("s".into())),
                    Expr::binary(BinOp::Eq, Expr::Param("c".into()), field(&["city"])),
                ),
            ),
            Expr::binary(BinOp::Lt, field(&["x"]), Expr::Literal(Literal::Int(3))),
        );
        assert_eq!(
            e.equality_param_fields(),
            vec![
                ("kind".to_string(), "k".to_string()),
                ("city".to_string(), "c".to_string())
            ]
        );
    }

    #[test]
    fn equality_extraction_ignores_disjunctions() {
        let e = Expr::binary(
            BinOp::Or,
            Expr::binary(BinOp::Eq, field(&["kind"]), Expr::Param("k".into())),
            Expr::binary(BinOp::Eq, field(&["city"]), Expr::Param("c".into())),
        );
        assert!(e.equality_param_fields().is_empty());
    }

    #[test]
    fn region_conjunct_needs_infallible_predecessors() {
        let region = |src: &str| {
            let e = crate::parse_expr(src).unwrap();
            e.region_param_field()
                .map(|(path, param)| (path.join("."), param.to_owned()))
        };
        let found = Some(("loc.p".to_owned(), "area".to_owned()));
        assert_eq!(region("within(r.loc.p, $area)"), found);
        assert_eq!(
            region("r.kind == $k and r.x != 3 and within(r.loc.p, $area) and r.sev > 1"),
            found
        );
        // A predecessor that can fail, a disjunction, or another shape
        // of `within` disables the prefilter.
        for src in [
            "r.sev >= $min and within(r.loc.p, $area)",
            "r.a + 1 == 2 and within(r.loc.p, $area)",
            "within(r.loc.p, $area) or r.kind == $k",
            "within($area, r.loc.p)",
            "within(r.loc.p, r.area)",
            "r.kind == $k",
        ] {
            assert_eq!(region(src), None, "{src}");
        }
    }

    #[test]
    fn param_type_keywords_roundtrip() {
        for ty in [
            ParamType::String,
            ParamType::Int,
            ParamType::Float,
            ParamType::Bool,
            ParamType::Point,
            ParamType::Region,
        ] {
            assert_eq!(ParamType::from_keyword(ty.keyword()), Some(ty));
        }
        assert_eq!(ParamType::from_keyword("blob"), None);
    }
}
