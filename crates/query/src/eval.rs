//! Evaluation of BQL expressions against a record and parameter bindings.

use std::borrow::Cow;

use bad_types::eq::values_equal;
use bad_types::{BadError, BoundingBox, DataValue, GeoPoint, Result};

use crate::ast::{BinOp, Expr, Literal, UnOp};
use crate::channel::ParamBindings;

/// Evaluation context: one record plus the subscription's parameter
/// bindings.
///
/// # Examples
///
/// ```
/// use bad_query::{parse_expr, EvalContext, ParamBindings};
/// use bad_types::DataValue;
///
/// let record = DataValue::parse_json(r#"{"sev": 4}"#)?;
/// let params = ParamBindings::from_pairs([("min", DataValue::from(3i64))]);
/// let ctx = EvalContext::new(&record, &params);
/// let value = ctx.eval(&parse_expr("r.sev >= $min")?)?;
/// assert_eq!(value.as_bool(), Some(true));
/// # Ok::<(), bad_types::BadError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct EvalContext<'a> {
    record: &'a DataValue,
    params: &'a ParamBindings,
}

impl<'a> EvalContext<'a> {
    /// Creates a context over one record and one binding set.
    pub fn new(record: &'a DataValue, params: &'a ParamBindings) -> Self {
        Self { record, params }
    }

    /// Evaluates an expression to a value.
    ///
    /// Missing record fields evaluate to [`DataValue::Null`] (open
    /// schema); comparisons involving `null` are `false` except `==`/`!=`,
    /// which test null-ness.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::Type`] for operations on incompatible types
    /// (e.g. `"a" < 3`, `not 5`), unknown functions or wrong arities, and
    /// [`BadError::InvalidArgument`] for unbound parameters.
    pub fn eval(&self, expr: &Expr) -> Result<DataValue> {
        self.eval_ref(expr).map(Cow::into_owned)
    }

    /// Evaluates an expression like [`EvalContext::eval`], borrowing
    /// record fields and parameter values instead of cloning them: only
    /// computed results (booleans, arithmetic, literals) are built.
    ///
    /// # Errors
    ///
    /// As [`EvalContext::eval`].
    pub fn eval_ref(&self, expr: &Expr) -> Result<Cow<'a, DataValue>> {
        match expr {
            Expr::Literal(lit) => Ok(Cow::Owned(match lit {
                Literal::Null => DataValue::Null,
                Literal::Bool(b) => DataValue::Bool(*b),
                Literal::Int(i) => DataValue::Int(*i),
                Literal::Float(x) => DataValue::Float(*x),
                Literal::Str(s) => DataValue::Str(s.clone()),
            })),
            Expr::Field(path) => {
                let mut cur = self.record;
                for seg in path {
                    match cur.get(seg) {
                        Some(v) => cur = v,
                        None => return Ok(Cow::Owned(DataValue::Null)),
                    }
                }
                Ok(Cow::Borrowed(cur))
            }
            Expr::Param(name) => {
                self.params.get(name).map(Cow::Borrowed).ok_or_else(|| {
                    BadError::InvalidArgument(format!("unbound parameter `${name}`"))
                })
            }
            Expr::Unary { op, expr } => {
                let v = self.eval_ref(expr)?;
                match op {
                    UnOp::Not => v
                        .as_bool()
                        .map(|b| Cow::Owned(DataValue::Bool(!b)))
                        .ok_or_else(|| BadError::Type(format!("`not` applied to {v}"))),
                    UnOp::Neg => match &*v {
                        DataValue::Int(i) => Ok(Cow::Owned(DataValue::Int(-i))),
                        DataValue::Float(f) => Ok(Cow::Owned(DataValue::Float(-f))),
                        other => Err(BadError::Type(format!("`-` applied to {other}"))),
                    },
                }
            }
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs).map(Cow::Owned),
            Expr::Call { name, args } => self.eval_call(name, args).map(Cow::Owned),
        }
    }

    fn eval_binary(&self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<DataValue> {
        // Short-circuit logic first.
        match op {
            BinOp::And => {
                let l = self.eval_bool(lhs, "and")?;
                if !l {
                    return Ok(DataValue::Bool(false));
                }
                return Ok(DataValue::Bool(self.eval_bool(rhs, "and")?));
            }
            BinOp::Or => {
                let l = self.eval_bool(lhs, "or")?;
                if l {
                    return Ok(DataValue::Bool(true));
                }
                return Ok(DataValue::Bool(self.eval_bool(rhs, "or")?));
            }
            _ => {}
        }
        let l = self.eval_ref(lhs)?;
        let r = self.eval_ref(rhs)?;
        match op {
            BinOp::Eq => Ok(DataValue::Bool(values_equal(&l, &r))),
            BinOp::Ne => Ok(DataValue::Bool(!values_equal(&l, &r))),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                // Null never satisfies an ordering comparison.
                if l.is_null() || r.is_null() {
                    return Ok(DataValue::Bool(false));
                }
                let ord = compare_values(&l, &r)?;
                let res = match op {
                    BinOp::Lt => ord.is_lt(),
                    BinOp::Le => ord.is_le(),
                    BinOp::Gt => ord.is_gt(),
                    BinOp::Ge => ord.is_ge(),
                    _ => unreachable!(),
                };
                Ok(DataValue::Bool(res))
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arithmetic(op, &l, &r),
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }

    fn eval_bool(&self, expr: &Expr, op: &str) -> Result<bool> {
        let v = self.eval_ref(expr)?;
        v.as_bool()
            .ok_or_else(|| BadError::Type(format!("`{op}` operand is {v}, not boolean")))
    }

    fn eval_call(&self, name: &str, args: &[Expr]) -> Result<DataValue> {
        // Every builtin takes one or two arguments, so those are kept on
        // the stack; every argument is still evaluated first, so an
        // argument's error wins over an arity error.
        let mut values: [Option<Cow<'a, DataValue>>; 2] = [None, None];
        for (i, arg) in args.iter().enumerate() {
            let v = self.eval_ref(arg)?;
            if let Some(slot) = values.get_mut(i) {
                *slot = Some(v);
            }
        }
        let arity = |n: usize| -> Result<()> {
            if args.len() == n {
                Ok(())
            } else {
                Err(BadError::Type(format!(
                    "function `{name}` expects {n} argument(s), got {}",
                    args.len()
                )))
            }
        };
        let arg = |i: usize| values[i].as_deref().expect("arity checked");
        match name {
            "within" => {
                arity(2)?;
                let point = GeoPoint::from_value(arg(0));
                let region = BoundingBox::from_value(arg(1));
                match (point, region) {
                    (Some(p), Some(r)) => Ok(DataValue::Bool(r.contains(p))),
                    // A malformed/missing point simply does not match.
                    (None, Some(_)) if arg(0).is_null() => Ok(DataValue::Bool(false)),
                    _ => Err(BadError::Type(format!(
                        "within() needs a point and a region, got {} and {}",
                        arg(0),
                        arg(1)
                    ))),
                }
            }
            "distance" => {
                arity(2)?;
                let a = GeoPoint::from_value(arg(0));
                let b = GeoPoint::from_value(arg(1));
                match (a, b) {
                    (Some(a), Some(b)) => Ok(DataValue::Float(a.distance_km(b))),
                    _ => Err(BadError::Type(format!(
                        "distance() needs two points, got {} and {}",
                        arg(0),
                        arg(1)
                    ))),
                }
            }
            "contains" => {
                arity(2)?;
                match (arg(0).as_str(), arg(1).as_str()) {
                    (Some(hay), Some(needle)) => Ok(DataValue::Bool(hay.contains(needle))),
                    _ => Err(BadError::Type("contains() needs two strings".into())),
                }
            }
            "startswith" => {
                arity(2)?;
                match (arg(0).as_str(), arg(1).as_str()) {
                    (Some(hay), Some(prefix)) => Ok(DataValue::Bool(hay.starts_with(prefix))),
                    _ => Err(BadError::Type("startswith() needs two strings".into())),
                }
            }
            "lower" => {
                arity(1)?;
                arg(0)
                    .as_str()
                    .map(|s| DataValue::Str(s.to_lowercase()))
                    .ok_or_else(|| BadError::Type("lower() needs a string".into()))
            }
            "abs" => {
                arity(1)?;
                match arg(0) {
                    DataValue::Int(i) => Ok(DataValue::Int(i.abs())),
                    DataValue::Float(f) => Ok(DataValue::Float(f.abs())),
                    other => Err(BadError::Type(format!("abs() applied to {other}"))),
                }
            }
            "len" => {
                arity(1)?;
                match arg(0) {
                    DataValue::Str(s) => Ok(DataValue::Int(s.chars().count() as i64)),
                    DataValue::Array(a) => Ok(DataValue::Int(a.len() as i64)),
                    other => Err(BadError::Type(format!("len() applied to {other}"))),
                }
            }
            "exists" => {
                arity(1)?;
                Ok(DataValue::Bool(!arg(0).is_null()))
            }
            _ => Err(BadError::Type(format!("unknown function `{name}`"))),
        }
    }
}

/// Total order over comparable pairs (numbers with numbers, strings with
/// strings, bools with bools).
fn compare_values(l: &DataValue, r: &DataValue) -> Result<std::cmp::Ordering> {
    match (l, r) {
        (DataValue::Int(a), DataValue::Int(b)) => Ok(a.cmp(b)),
        (DataValue::Int(_) | DataValue::Float(_), DataValue::Int(_) | DataValue::Float(_)) => {
            let a = l.as_f64().expect("numeric");
            let b = r.as_f64().expect("numeric");
            a.partial_cmp(&b)
                .ok_or_else(|| BadError::Type("comparison with NaN is undefined".into()))
        }
        (DataValue::Str(a), DataValue::Str(b)) => Ok(a.cmp(b)),
        (DataValue::Bool(a), DataValue::Bool(b)) => Ok(a.cmp(b)),
        _ => Err(BadError::Type(format!("cannot order {l} against {r}"))),
    }
}

fn arithmetic(op: BinOp, l: &DataValue, r: &DataValue) -> Result<DataValue> {
    // Integer arithmetic stays integral except for division.
    if let (DataValue::Int(a), DataValue::Int(b)) = (l, r) {
        return Ok(match op {
            BinOp::Add => DataValue::Int(a.wrapping_add(*b)),
            BinOp::Sub => DataValue::Int(a.wrapping_sub(*b)),
            BinOp::Mul => DataValue::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    return Err(BadError::Type("division by zero".into()));
                }
                DataValue::Int(a / b)
            }
            _ => unreachable!(),
        });
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(BadError::Type(format!(
                "arithmetic `{}` applied to {l} and {r}",
                op.symbol()
            )))
        }
    };
    Ok(DataValue::Float(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Err(BadError::Type("division by zero".into()));
            }
            a / b
        }
        _ => unreachable!(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn eval_with(src: &str, record: &str, params: ParamBindings) -> Result<DataValue> {
        let expr = parse_expr(src).unwrap();
        let record = DataValue::parse_json(record).unwrap();
        EvalContext::new(&record, &params).eval(&expr)
    }

    fn eval(src: &str, record: &str) -> Result<DataValue> {
        eval_with(src, record, ParamBindings::new())
    }

    #[test]
    fn comparisons_and_coercion() {
        assert_eq!(
            eval("r.a == 2", r#"{"a":2}"#).unwrap(),
            DataValue::Bool(true)
        );
        assert_eq!(
            eval("r.a == 2.0", r#"{"a":2}"#).unwrap(),
            DataValue::Bool(true)
        );
        assert_eq!(
            eval("r.a < 2.5", r#"{"a":2}"#).unwrap(),
            DataValue::Bool(true)
        );
        assert_eq!(
            eval("r.a >= 3", r#"{"a":2}"#).unwrap(),
            DataValue::Bool(false)
        );
        assert_eq!(
            eval("r.s == \"x\"", r#"{"s":"x"}"#).unwrap(),
            DataValue::Bool(true)
        );
        assert_eq!(
            eval("r.s < \"b\"", r#"{"s":"a"}"#).unwrap(),
            DataValue::Bool(true)
        );
    }

    #[test]
    fn missing_fields_are_null() {
        assert_eq!(
            eval("r.ghost == null", "{}").unwrap(),
            DataValue::Bool(true)
        );
        assert_eq!(
            eval("r.ghost != null", "{}").unwrap(),
            DataValue::Bool(false)
        );
        // Ordering against null is false, not an error.
        assert_eq!(eval("r.ghost < 3", "{}").unwrap(), DataValue::Bool(false));
        assert_eq!(
            eval("exists(r.ghost)", "{}").unwrap(),
            DataValue::Bool(false)
        );
        assert_eq!(
            eval("exists(r.a)", r#"{"a":1}"#).unwrap(),
            DataValue::Bool(true)
        );
    }

    #[test]
    fn logic_short_circuits() {
        // rhs would be a type error if evaluated.
        assert_eq!(
            eval("r.a == 1 or not r.a", r#"{"a":1}"#).unwrap(),
            DataValue::Bool(true)
        );
        assert_eq!(
            eval("r.a == 2 and not r.a", r#"{"a":1}"#).unwrap(),
            DataValue::Bool(false)
        );
        // But a non-boolean operand that is evaluated is an error.
        assert!(eval("r.a and true", r#"{"a":1}"#).is_err());
    }

    #[test]
    fn arithmetic_semantics() {
        assert_eq!(eval("2 + 3 * 4", "{}").unwrap(), DataValue::Int(14));
        assert_eq!(eval("7 / 2", "{}").unwrap(), DataValue::Int(3));
        assert_eq!(eval("7.0 / 2", "{}").unwrap(), DataValue::Float(3.5));
        assert_eq!(eval("-r.a + 1", r#"{"a":5}"#).unwrap(), DataValue::Int(-4));
        assert!(eval("1 / 0", "{}").is_err());
        assert!(eval("1.0 / 0.0", "{}").is_err());
        assert!(eval("\"a\" + 1", "{}").is_err());
    }

    #[test]
    fn params_resolve() {
        let p = ParamBindings::from_pairs([("min", DataValue::from(3i64))]);
        assert_eq!(
            eval_with("r.a >= $min", r#"{"a":4}"#, p).unwrap(),
            DataValue::Bool(true)
        );
        assert!(matches!(
            eval("r.a >= $missing", r#"{"a":4}"#),
            Err(BadError::InvalidArgument(_))
        ));
    }

    #[test]
    fn geo_builtins() {
        let area = bad_types::BoundingBox::new(
            bad_types::GeoPoint::new(0.0, 0.0),
            bad_types::GeoPoint::new(1.0, 1.0),
        );
        let p = ParamBindings::from_pairs([("area", area.to_value())]);
        let inside = r#"{"location":{"lat":0.5,"lon":0.5}}"#;
        let outside = r#"{"location":{"lat":5.0,"lon":0.5}}"#;
        assert_eq!(
            eval_with("within(r.location, $area)", inside, p.clone()).unwrap(),
            DataValue::Bool(true)
        );
        assert_eq!(
            eval_with("within(r.location, $area)", outside, p.clone()).unwrap(),
            DataValue::Bool(false)
        );
        // Record without a location does not match (no error).
        assert_eq!(
            eval_with("within(r.location, $area)", "{}", p).unwrap(),
            DataValue::Bool(false)
        );
    }

    #[test]
    fn distance_builtin() {
        let origin = bad_types::GeoPoint::new(0.0, 0.0);
        let p = ParamBindings::from_pairs([("o", origin.to_value())]);
        let v = eval_with(
            "distance(r.location, $o) < 200.0",
            r#"{"location":{"lat":1.0,"lon":0.0}}"#,
            p,
        )
        .unwrap();
        assert_eq!(v, DataValue::Bool(true)); // ~111 km
    }

    #[test]
    fn string_builtins() {
        assert_eq!(
            eval("contains(r.t, \"orna\")", r#"{"t":"tornado"}"#).unwrap(),
            DataValue::Bool(true)
        );
        assert_eq!(
            eval("startswith(r.t, \"tor\")", r#"{"t":"tornado"}"#).unwrap(),
            DataValue::Bool(true)
        );
        assert_eq!(
            eval("lower(r.t) == \"abc\"", r#"{"t":"AbC"}"#).unwrap(),
            DataValue::Bool(true)
        );
        assert_eq!(
            eval("len(r.t)", r#"{"t":"abcd"}"#).unwrap(),
            DataValue::Int(4)
        );
    }

    #[test]
    fn unknown_function_and_arity_errors() {
        assert!(eval("mystery(r.a)", r#"{"a":1}"#).is_err());
        assert!(eval("abs(1, 2)", "{}").is_err());
        assert!(eval("within(r.a)", r#"{"a":1}"#).is_err());
    }

    #[test]
    fn nested_paths() {
        assert_eq!(
            eval("r.a.b.c == 5", r#"{"a":{"b":{"c":5}}}"#).unwrap(),
            DataValue::Bool(true)
        );
        assert_eq!(
            eval("r.a.b.c == 5", r#"{"a":{"b":1}}"#).unwrap(),
            DataValue::Bool(false)
        );
    }
}
