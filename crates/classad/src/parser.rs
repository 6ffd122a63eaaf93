//! Recursive-descent parser producing the expression AST.
//!
//! Grammar (usual precedence, loosest first):
//!
//! ```text
//! or     := and ( '||' and )*
//! and    := cmp ( '&&' cmp )*
//! cmp    := sum ( ('<'|'<='|'>'|'>='|'=='|'!=') sum )?
//! sum    := term ( ('+'|'-') term )*
//! term   := unary ( ('*'|'/') unary )*
//! unary  := ('!'|'-') unary | atom
//! atom   := literal | ref | '(' or ')'
//! ref    := [ ('my'|'other') '.' ] ident
//! ```
//!
//! Nesting is capped at 128 levels — both the parser's own recursion
//! (parentheses, unary operators) and the height of the tree it builds,
//! which every later pass walks recursively — so hostile input is a
//! [`ParseError`], never a stack overflow.

use std::fmt;

use crate::lexer::{lex, LexError, Token};

/// Attribute reference scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Unqualified: resolve in `my`, then `other` (ClassAd convention).
    Either,
    /// `my.attr`.
    My,
    /// `other.attr`.
    Other,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Expression AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// The `undefined` literal.
    Undefined,
    /// The `error` literal.
    Error,
    /// Attribute reference (names are case-insensitive, stored lowered).
    Attr {
        /// Resolution scope.
        scope: Scope,
        /// Lower-cased attribute name.
        name: String,
    },
    /// Unary negation / logical not.
    Unary {
        /// True for `!`, false for `-`.
        logical: bool,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

/// Deepest nesting `parse` accepts: of parentheses and unary operators,
/// and of the expression tree. Expressions reach the parser from the
/// command line (`--constrain`, `--rank`), so recursion over them must be
/// bounded by the parser rather than by the thread's stack.
const MAX_DEPTH: usize = 128;

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.to_string(),
        }
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses and unary operators entered so far.
    depth: usize,
    /// Height of the expression the last rule returned.
    height: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Token) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Run `rule` one recursion level deeper, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        rule: fn(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(too_deep());
        }
        self.depth += 1;
        let expr = rule(self);
        self.depth -= 1;
        expr
    }

    /// Record that the expression being built is `height` tall, refusing
    /// past [`MAX_DEPTH`].
    fn grow(&mut self, height: usize) -> Result<(), ParseError> {
        self.height = height;
        if height > MAX_DEPTH {
            return Err(too_deep());
        }
        Ok(())
    }

    /// `lhs op rhs`, where `lhs_height` is the left operand's height and
    /// the right operand was the last expression parsed.
    fn binary(
        &mut self,
        op: BinOp,
        lhs: Expr,
        lhs_height: usize,
        rhs: Expr,
    ) -> Result<Expr, ParseError> {
        self.grow(lhs_height.max(self.height) + 1)?;
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and()?;
        while self.eat(&Token::OrOr) {
            let lhs_height = self.height;
            let rhs = self.and()?;
            lhs = self.binary(BinOp::Or, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp()?;
        while self.eat(&Token::AndAnd) {
            let lhs_height = self.height;
            let rhs = self.cmp()?;
            lhs = self.binary(BinOp::And, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.sum()?;
        let op = match self.peek() {
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            Some(Token::EqEq) => BinOp::Eq,
            Some(Token::Ne) => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let lhs_height = self.height;
        let rhs = self.sum()?;
        self.binary(op, lhs, lhs_height, rhs)
    }

    fn sum(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let lhs_height = self.height;
            let rhs = self.term()?;
            lhs = self.binary(op, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let lhs_height = self.height;
            let rhs = self.unary()?;
            lhs = self.binary(op, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let logical = if self.eat(&Token::Bang) {
            true
        } else if self.eat(&Token::Minus) {
            false
        } else {
            return self.atom();
        };
        let expr = Box::new(self.nested(Self::unary)?);
        self.grow(self.height + 1)?;
        Ok(Expr::Unary { logical, expr })
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        // A leaf; a parenthesized expression overwrites this with its own.
        self.height = 1;
        match self.next() {
            Some(Token::Int(i)) => Ok(Expr::Int(i)),
            Some(Token::Float(x)) => Ok(Expr::Float(x)),
            Some(Token::Str(s)) => Ok(Expr::Str(s)),
            Some(Token::LParen) => {
                let e = self.nested(Self::or)?;
                if !self.eat(&Token::RParen) {
                    return Err(ParseError {
                        message: "expected ')'".into(),
                    });
                }
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                let lower = name.to_ascii_lowercase();
                match lower.as_str() {
                    "true" => return Ok(Expr::Bool(true)),
                    "false" => return Ok(Expr::Bool(false)),
                    "undefined" => return Ok(Expr::Undefined),
                    "error" => return Ok(Expr::Error),
                    _ => {}
                }
                if (lower == "my" || lower == "other") && self.eat(&Token::Dot) {
                    let attr = match self.next() {
                        Some(Token::Ident(a)) => a.to_ascii_lowercase(),
                        other => {
                            return Err(ParseError {
                                message: format!("expected attribute after '.', got {other:?}"),
                            })
                        }
                    };
                    let scope = if lower == "my" {
                        Scope::My
                    } else {
                        Scope::Other
                    };
                    return Ok(Expr::Attr { scope, name: attr });
                }
                Ok(Expr::Attr {
                    scope: Scope::Either,
                    name: lower,
                })
            }
            other => Err(ParseError {
                message: format!("unexpected token {other:?}"),
            }),
        }
    }
}

fn too_deep() -> ParseError {
    ParseError {
        message: format!("expression nests deeper than {MAX_DEPTH} levels"),
    }
}

/// Parse an expression string.
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let tokens = lex(input)?;
    if tokens.is_empty() {
        return Err(ParseError {
            message: "empty expression".into(),
        });
    }
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        height: 0,
    };
    let expr = p.or()?;
    if p.pos != p.tokens.len() {
        return Err(ParseError {
            message: format!("trailing tokens starting at {:?}", p.tokens[p.pos]),
        });
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(scope: Scope, name: &str) -> Expr {
        Expr::Attr {
            scope,
            name: name.into(),
        }
    }

    #[test]
    fn precedence_mul_over_add_over_cmp_over_and_over_or() {
        // a || b && c < 1 + 2 * 3  parses as  a || (b && (c < (1 + (2*3))))
        let e = parse("a || b && c < 1 + 2 * 3").unwrap();
        let Expr::Binary {
            op: BinOp::Or, rhs, ..
        } = e
        else {
            panic!("top must be ||");
        };
        let Expr::Binary {
            op: BinOp::And,
            rhs,
            ..
        } = *rhs
        else {
            panic!("next must be &&");
        };
        let Expr::Binary {
            op: BinOp::Lt, rhs, ..
        } = *rhs
        else {
            panic!("next must be <");
        };
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = *rhs
        else {
            panic!("next must be +");
        };
        assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn scoped_and_unscoped_attrs() {
        assert_eq!(parse("Memory").unwrap(), attr(Scope::Either, "memory"));
        assert_eq!(parse("my.Memory").unwrap(), attr(Scope::My, "memory"));
        assert_eq!(
            parse("OTHER.RequestedMemory").unwrap(),
            attr(Scope::Other, "requestedmemory")
        );
    }

    #[test]
    fn keywords_are_literals() {
        assert_eq!(parse("TRUE").unwrap(), Expr::Bool(true));
        assert_eq!(parse("false").unwrap(), Expr::Bool(false));
        assert_eq!(parse("undefined").unwrap(), Expr::Undefined);
        assert_eq!(parse("error").unwrap(), Expr::Error);
    }

    #[test]
    fn unary_chains() {
        let e = parse("!!a").unwrap();
        assert!(matches!(e, Expr::Unary { logical: true, .. }));
        let e = parse("--3").unwrap();
        assert!(matches!(e, Expr::Unary { logical: false, .. }));
    }

    #[test]
    fn parens_override() {
        let e = parse("(1 + 2) * 3").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("1 +").is_err());
        assert!(parse("(1").is_err());
        assert!(parse("1 2").unwrap_err().message.contains("trailing"));
        assert!(parse("my.").is_err());
    }

    fn parens(depth: usize) -> String {
        format!("{}1{}", "(".repeat(depth), ")".repeat(depth))
    }

    /// `1 + 1 + ...` with `terms` operands: a left-deep tree `terms` tall
    /// (the leaf counts as one level).
    fn chain(terms: usize) -> String {
        vec!["1"; terms].join(" + ")
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // 5,000 parentheses: a 10 KB string that used to abort the process.
        let err = parse(&parens(5_000)).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");
        assert!(parse(&"!".repeat(5_000)).is_err());
        assert!(parse(&format!("{}1", "-".repeat(5_000))).is_err());
        // A flat chain parses iteratively but builds a 5,000-deep tree,
        // which compilation and evaluation would recurse through.
        assert!(parse(&chain(5_000)).is_err());
        assert!(parse(&parens(MAX_DEPTH + 1)).is_err());
        assert!(parse(&chain(MAX_DEPTH + 1)).is_err());
        assert!(parse(&format!("!{}", parens(MAX_DEPTH))).is_err());
    }

    #[test]
    fn nesting_at_the_limit_still_parses() {
        assert_eq!(parse(&parens(MAX_DEPTH)), Ok(Expr::Int(1)));
        assert!(parse(&format!("{}x", "!".repeat(MAX_DEPTH - 1))).is_ok());
        assert!(parse(&chain(MAX_DEPTH)).is_ok());
        assert!(parse(&format!("({}) && x", chain(MAX_DEPTH - 1))).is_ok());
    }

    #[test]
    fn comparison_is_non_associative() {
        // a < b < c is a parse-then-trailing error in this grammar.
        assert!(parse("a < b < c").is_err());
    }
}
