//! Recursive-descent parser for BQL expressions and channel declarations.

use bad_types::{BadError, Result, SimDuration};

use crate::ast::{BinOp, Expr, Literal, ParamType, UnOp};
use crate::channel::{ChannelMode, ChannelSpec, ParamDef, SelectClause};
use crate::lexer::{tokenize, DurationUnit, Token, TokenKind};

/// Parses a standalone BQL expression (a channel predicate body).
///
/// The record variable is implicit: field paths must be written against
/// the variable named `r` (e.g. `r.kind == $k`); the enclosing channel
/// declaration may rename it.
///
/// # Errors
///
/// Returns [`BadError::Parse`] on any syntax error.
///
/// # Examples
///
/// ```
/// use bad_query::parse_expr;
///
/// let e = parse_expr("r.severity >= 3 and contains(r.title, \"flood\")")?;
/// assert_eq!(e.to_string(), "r.severity >= 3 and contains(r.title, \"flood\")");
/// # Ok::<(), bad_types::BadError>(())
/// ```
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = tokenize(src)?;
    let mut p = Parser::new(tokens, "r".to_owned());
    let expr = p.parse_expr_bp(0)?;
    p.expect_eof()?;
    Ok(expr)
}

/// Parses a full `channel ... from ... where ... select ... [every ...]`
/// declaration.
///
/// # Errors
///
/// Returns [`BadError::Parse`] on syntax errors, duplicate parameter
/// names, or references to undeclared parameters.
pub fn parse_channel(src: &str) -> Result<ChannelSpec> {
    let tokens = tokenize(src)?;
    let mut p = Parser::new(tokens, "r".to_owned());

    p.expect_keyword("channel")?;
    let name = p.expect_ident("channel name")?;

    // Parameter list.
    p.expect(&TokenKind::LParen)?;
    let mut params: Vec<ParamDef> = Vec::new();
    if !p.eat(&TokenKind::RParen) {
        loop {
            let pname = p.expect_ident("parameter name")?;
            p.expect(&TokenKind::Colon)?;
            let tyname = p.expect_ident("parameter type")?;
            let ty = ParamType::from_keyword(&tyname)
                .ok_or_else(|| p.error(format!("unknown parameter type `{tyname}`")))?;
            if params.iter().any(|d| d.name == pname) {
                return Err(p.error(format!("duplicate parameter `{pname}`")));
            }
            params.push(ParamDef { name: pname, ty });
            if p.eat(&TokenKind::Comma) {
                continue;
            }
            p.expect(&TokenKind::RParen)?;
            break;
        }
    }

    p.expect_keyword("from")?;
    let dataset = p.expect_ident("dataset name")?;
    let var = p.expect_ident("record variable")?;
    p.var = var.clone();

    p.expect_keyword("where")?;
    let predicate = p.parse_expr_bp(0)?;

    p.expect_keyword("select")?;
    let select = p.parse_select()?;

    let mode = if p.eat_keyword("every") {
        let period = p.expect_duration()?;
        ChannelMode::Repetitive { period }
    } else {
        ChannelMode::Continuous
    };
    p.expect_eof()?;

    let spec = ChannelSpec::new(name, params, dataset, var, predicate, select, mode)?;
    Ok(spec)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Name of the record variable field paths must start with.
    var: String,
}

impl Parser {
    fn new(tokens: Vec<Token>, var: String) -> Self {
        Self {
            tokens,
            pos: 0,
            var,
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn bump(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn error(&self, msg: String) -> BadError {
        BadError::Parse(format!(
            "bql: {msg} at byte {}",
            self.tokens[self.pos.min(self.tokens.len() - 1)].offset
        ))
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.peek() {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected {what}, found {other}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.peek() {
            TokenKind::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected `{kw}`, found {other}"))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == kw) && {
            self.bump();
            true
        }
    }

    fn expect_duration(&mut self) -> Result<SimDuration> {
        match self.peek().clone() {
            TokenKind::Duration(n, unit) => {
                self.bump();
                Ok(match unit {
                    DurationUnit::Millis => SimDuration::from_millis(n),
                    DurationUnit::Secs => SimDuration::from_secs(n),
                    DurationUnit::Mins => SimDuration::from_mins(n),
                    DurationUnit::Hours => SimDuration::from_hours(n),
                })
            }
            other => Err(self.error(format!("expected duration literal, found {other}"))),
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error(format!("unexpected {}", self.peek())))
        }
    }

    fn parse_select(&mut self) -> Result<SelectClause> {
        // Either the record variable itself (`select r`) or a field list
        // (`select r.a, r.b.c`).
        let first = self.expect_ident("record variable in select")?;
        if first != self.var {
            return Err(self.error(format!(
                "select must reference record variable `{}`",
                self.var
            )));
        }
        if self.peek() != &TokenKind::Dot {
            return Ok(SelectClause::All);
        }
        let mut fields = Vec::new();
        fields.push(self.parse_path_after_var()?);
        while self.eat(&TokenKind::Comma) {
            let var = self.expect_ident("record variable in select")?;
            if var != self.var {
                return Err(self.error(format!(
                    "select must reference record variable `{}`",
                    self.var
                )));
            }
            fields.push(self.parse_path_after_var()?);
        }
        Ok(SelectClause::Fields(fields))
    }

    fn parse_path_after_var(&mut self) -> Result<Vec<String>> {
        let mut path = Vec::new();
        while self.eat(&TokenKind::Dot) {
            path.push(self.expect_ident("field name")?);
        }
        if path.is_empty() {
            return Err(self.error("expected `.field` after record variable".into()));
        }
        Ok(path)
    }

    /// Pratt parser over binary-operator binding power.
    fn parse_expr_bp(&mut self, min_bp: u8) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Ident(s) if s == "or" => BinOp::Or,
                TokenKind::Ident(s) if s == "and" => BinOp::And,
                TokenKind::EqEq => BinOp::Eq,
                TokenKind::NotEq => BinOp::Ne,
                TokenKind::Lt => BinOp::Lt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Ge => BinOp::Ge,
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            let bp = op.precedence();
            if bp < min_bp {
                break;
            }
            self.bump();
            // Left associative: the right side must bind strictly tighter.
            let rhs = self.parse_expr_bp(bp + 1)?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_keyword("not") {
            let expr = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(expr),
            });
        }
        if self.eat(&TokenKind::Minus) {
            let expr = self.parse_unary()?;
            // Fold negated numeric literals so `-1` round-trips as a literal.
            return Ok(match expr {
                Expr::Literal(Literal::Int(i)) => Expr::Literal(Literal::Int(-i)),
                Expr::Literal(Literal::Float(x)) => Expr::Literal(Literal::Float(-x)),
                expr => Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(expr),
                },
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.bump() {
            TokenKind::Int(i) => Ok(Expr::Literal(Literal::Int(i))),
            TokenKind::Float(x) => Ok(Expr::Literal(Literal::Float(x))),
            TokenKind::Str(s) => Ok(Expr::Literal(Literal::Str(s.into()))),
            TokenKind::Param(name) => Ok(Expr::Param(name)),
            TokenKind::LParen => {
                let e = self.parse_expr_bp(0)?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(s) if s == "true" => Ok(Expr::Literal(Literal::Bool(true))),
            TokenKind::Ident(s) if s == "false" => Ok(Expr::Literal(Literal::Bool(false))),
            TokenKind::Ident(s) if s == "null" => Ok(Expr::Literal(Literal::Null)),
            TokenKind::Ident(s) if s == self.var => {
                // Field path `var.a.b`.
                let path = self.parse_path_after_var()?;
                Ok(Expr::Field(path))
            }
            TokenKind::Ident(name) => {
                // Function call.
                if self.peek() == &TokenKind::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.parse_expr_bp(0)?);
                            if self.eat(&TokenKind::Comma) {
                                continue;
                            }
                            self.expect(&TokenKind::RParen)?;
                            break;
                        }
                    }
                    Ok(Expr::Call { name, args })
                } else {
                    Err(self.error(format!(
                        "unexpected identifier `{name}` (record variable is `{}`)",
                        self.var
                    )))
                }
            }
            other => Err(self.error(format!("unexpected {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr, Literal};

    #[test]
    fn parses_precedence() {
        let e = parse_expr("r.a == 1 or r.b == 2 and r.c == 3").unwrap();
        // `and` binds tighter than `or`.
        match e {
            Expr::Binary {
                op: BinOp::Or, rhs, ..
            } => match *rhs {
                Expr::Binary { op: BinOp::And, .. } => {}
                other => panic!("expected and on rhs, got {other:?}"),
            },
            other => panic!("expected or at top, got {other:?}"),
        }
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let e = parse_expr("r.a + 2 * 3 < 10").unwrap();
        assert_eq!(e.to_string(), "r.a + 2 * 3 < 10");
        let e2 = parse_expr("(r.a + 2) * 3 < 10").unwrap();
        assert_eq!(e2.to_string(), "(r.a + 2) * 3 < 10");
    }

    #[test]
    fn parses_unary() {
        let e = parse_expr("not r.active and -r.x < 5").unwrap();
        assert_eq!(e.to_string(), "not r.active and -r.x < 5");
    }

    #[test]
    fn parses_calls_and_paths() {
        let e = parse_expr("within(r.location, $area) and r.meta.depth > 2").unwrap();
        assert_eq!(
            e.to_string(),
            "within(r.location, $area) and r.meta.depth > 2"
        );
    }

    #[test]
    fn parses_literals() {
        let e = parse_expr("r.a == null or r.b == true or r.c == 2.5").unwrap();
        assert_eq!(e.to_string(), "r.a == null or r.b == true or r.c == 2.5");
        assert_eq!(
            parse_expr("\"x\"").unwrap(),
            Expr::Literal(Literal::Str("x".into()))
        );
    }

    #[test]
    fn rejects_syntax_errors() {
        for bad in [
            "r.",
            "r.a ==",
            "(r.a",
            "r.a == 1 extra",
            "unknownvar.a == 1",
            "and r.a",
            "f(",
        ] {
            assert!(parse_expr(bad).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn parses_minimal_channel() {
        let spec = parse_channel("channel C() from DS r where r.x > 0 select r").unwrap();
        assert_eq!(spec.name(), "C");
        assert_eq!(spec.dataset(), "DS");
        assert!(spec.params().is_empty());
        assert_eq!(spec.mode(), ChannelMode::Continuous);
        assert_eq!(spec.select(), &SelectClause::All);
    }

    #[test]
    fn parses_full_channel() {
        let spec = parse_channel(
            "channel Near(etype: string, area: region) \
             from Reports rec \
             where rec.kind == $etype and within(rec.location, $area) \
             select rec.kind, rec.location \
             every 10s",
        )
        .unwrap();
        assert_eq!(spec.params().len(), 2);
        assert_eq!(spec.params()[1].ty, ParamType::Region);
        assert_eq!(
            spec.mode(),
            ChannelMode::Repetitive {
                period: SimDuration::from_secs(10)
            }
        );
        match spec.select() {
            SelectClause::Fields(fields) => {
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0], vec!["kind".to_string()]);
            }
            other => panic!("expected field list, got {other:?}"),
        }
    }

    #[test]
    fn channel_variable_renaming_applies_to_predicate() {
        let spec = parse_channel("channel C() from DS item where item.x > 0 select item").unwrap();
        assert_eq!(spec.predicate().to_string(), "r.x > 0");
        // The default variable `r` is not in scope once renamed.
        assert!(parse_channel("channel C() from DS item where r.x > 0 select item").is_err());
    }

    #[test]
    fn channel_rejects_semantic_errors() {
        // Duplicate parameter.
        assert!(
            parse_channel("channel C(a: int, a: int) from DS r where r.x == $a select r").is_err()
        );
        // Unknown type.
        assert!(parse_channel("channel C(a: blob) from DS r where r.x == $a select r").is_err());
        // Undeclared parameter reference (validated in ChannelSpec::new).
        assert!(parse_channel("channel C() from DS r where r.x == $ghost select r").is_err());
        // Select of foreign variable.
        assert!(parse_channel("channel C() from DS r where r.x > 0 select q").is_err());
    }

    #[test]
    fn channel_duration_units() {
        for (src, expected) in [
            ("500ms", SimDuration::from_millis(500)),
            ("10s", SimDuration::from_secs(10)),
            ("5m", SimDuration::from_mins(5)),
            ("1h", SimDuration::from_hours(1)),
        ] {
            let spec = parse_channel(&format!(
                "channel C() from DS r where r.x > 0 select r every {src}"
            ))
            .unwrap();
            assert_eq!(spec.mode(), ChannelMode::Repetitive { period: expected });
        }
    }
}
