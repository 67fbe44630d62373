//! Recursive-descent parser for the DP-SQL subset.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! statement  := SELECT agg ("," agg)* FROM ident
//!               [WHERE or_expr] [GROUP BY column ("," column)*]
//!               [WITH EPSILON number] EOF
//! agg        := COUNT "(" ("*" | column) ")"
//!             | (SUM | AVG | MEDIAN | VARIANCE) "(" column ")"
//! or_expr    := and_expr (OR and_expr)*
//! and_expr   := not_expr (AND not_expr)*
//! not_expr   := NOT not_expr | primary
//! primary    := "(" or_expr ")" | column cmp number
//! column     := ident matching "c" digits  (zero-based index)
//! cmp        := "=" | "!=" | "<>" | "<" | "<=" | ">" | ">="
//! ```
//!
//! Columns are positional (`c0`, `c1`, …) because GUPT datasets are
//! unnamed row vectors. `OR` binds loosest, then `AND`, then `NOT` —
//! standard SQL precedence.

use crate::ast::{AggFunc, Aggregate, CmpOp, Predicate, Statement};
use crate::error::SqlError;
use crate::lexer::{lex, Keyword, Token, TokenKind};

/// Parses one DP-SQL statement.
pub fn parse(input: &str) -> Result<Statement, SqlError> {
    let tokens = lex(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let stmt = parser.statement()?;
    parser.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        // The lexer guarantees a trailing Eof token, so `pos` is always
        // in bounds while parsing.
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
    }

    fn error_at(&self, message: impl Into<String>) -> SqlError {
        let tok = self.peek();
        SqlError::parse(message, tok.line, tok.column)
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek().kind == TokenKind::Keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), SqlError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error_at(format!("expected {}", kw.as_str())))
        }
    }

    fn expect_kind(&mut self, kind: TokenKind, what: &str) -> Result<(), SqlError> {
        if self.peek().kind == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.error_at(format!("expected {what}")))
        }
    }

    fn expect_eof(&mut self) -> Result<(), SqlError> {
        if self.peek().kind == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.error_at("expected end of statement"))
        }
    }

    fn statement(&mut self) -> Result<Statement, SqlError> {
        self.expect_keyword(Keyword::Select)?;
        let mut aggregates = vec![self.aggregate()?];
        while self.peek().kind == TokenKind::Comma {
            self.advance();
            aggregates.push(self.aggregate()?);
        }
        self.expect_keyword(Keyword::From)?;
        let dataset = match &self.peek().kind {
            TokenKind::Ident(name) => {
                let name = name.clone();
                self.advance();
                name
            }
            _ => return Err(self.error_at("expected a dataset name after FROM")),
        };
        let predicate = if self.eat_keyword(Keyword::Where) {
            Some(self.or_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            group_by.push(self.column()?);
            while self.peek().kind == TokenKind::Comma {
                self.advance();
                group_by.push(self.column()?);
            }
        }
        let epsilon = if self.eat_keyword(Keyword::With) {
            self.expect_keyword(Keyword::Epsilon)?;
            Some(self.number()?)
        } else {
            None
        };
        Ok(Statement {
            aggregates,
            dataset,
            predicate,
            group_by,
            epsilon,
        })
    }

    fn aggregate(&mut self) -> Result<Aggregate, SqlError> {
        let func = match self.peek().kind {
            TokenKind::Keyword(Keyword::Count) => AggFunc::Count,
            TokenKind::Keyword(Keyword::Sum) => AggFunc::Sum,
            TokenKind::Keyword(Keyword::Avg) => AggFunc::Avg,
            TokenKind::Keyword(Keyword::Median) => AggFunc::Median,
            TokenKind::Keyword(Keyword::Variance) => AggFunc::Variance,
            _ => {
                return Err(
                    self.error_at("expected an aggregate (COUNT, SUM, AVG, MEDIAN, VARIANCE)")
                )
            }
        };
        self.advance();
        self.expect_kind(TokenKind::LParen, "( after the aggregate name")?;
        let column = if func == AggFunc::Count && self.peek().kind == TokenKind::Star {
            self.advance();
            None
        } else {
            Some(self.column()?)
        };
        self.expect_kind(TokenKind::RParen, ") to close the aggregate")?;
        Ok(Aggregate { func, column })
    }

    /// Parses a positional column reference `cN` into its index.
    fn column(&mut self) -> Result<usize, SqlError> {
        let index = match &self.peek().kind {
            TokenKind::Ident(name) => name
                .strip_prefix(['c', 'C'])
                .filter(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
                // Reject absurd indices before usize::from_str can wrap
                // the error into something unhelpful.
                .and_then(|digits| digits.parse::<usize>().ok()),
            _ => None,
        };
        match index {
            Some(index) => {
                self.advance();
                Ok(index)
            }
            None => Err(self.error_at("expected a column reference like c0")),
        }
    }

    fn number(&mut self) -> Result<f64, SqlError> {
        match self.peek().kind {
            TokenKind::Number(value) => {
                self.advance();
                Ok(value)
            }
            _ => Err(self.error_at("expected a number")),
        }
    }

    fn or_expr(&mut self) -> Result<Predicate, SqlError> {
        let mut left = self.and_expr()?;
        while self.eat_keyword(Keyword::Or) {
            let right = self.and_expr()?;
            left = Predicate::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Predicate, SqlError> {
        let mut left = self.not_expr()?;
        while self.eat_keyword(Keyword::And) {
            let right = self.not_expr()?;
            left = Predicate::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Predicate, SqlError> {
        if self.eat_keyword(Keyword::Not) {
            let inner = self.not_expr()?;
            Ok(Predicate::Not(Box::new(inner)))
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Predicate, SqlError> {
        if self.peek().kind == TokenKind::LParen {
            self.advance();
            let inner = self.or_expr()?;
            self.expect_kind(TokenKind::RParen, ") to close the group")?;
            return Ok(inner);
        }
        let column = self.column()?;
        let op = match self.peek().kind {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::NotEq => CmpOp::NotEq,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::LtEq => CmpOp::LtEq,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::GtEq => CmpOp::GtEq,
            _ => return Err(self.error_at("expected a comparison operator")),
        };
        self.advance();
        let value = self.number()?;
        Ok(Predicate::Compare { column, op, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_statement() {
        let stmt = parse("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(stmt.aggregates.len(), 1);
        assert_eq!(stmt.aggregates[0].func, AggFunc::Count);
        assert_eq!(stmt.aggregates[0].column, None);
        assert_eq!(stmt.dataset, "t");
        assert!(stmt.predicate.is_none());
        assert!(stmt.group_by.is_empty());
        assert!(stmt.epsilon.is_none());
    }

    #[test]
    fn parses_every_clause() {
        let stmt = parse(
            "select sum(c1), avg(c0) from sales where c0 >= 2 and not c1 = 3 \
             group by c2, c3 with epsilon 0.25",
        )
        .unwrap();
        assert_eq!(stmt.aggregates.len(), 2);
        assert_eq!(stmt.aggregates[0].func, AggFunc::Sum);
        assert_eq!(stmt.aggregates[0].column, Some(1));
        assert_eq!(stmt.group_by, vec![2, 3]);
        assert_eq!(stmt.epsilon, Some(0.25));
        let pred = stmt.predicate.unwrap();
        assert!(matches!(pred, Predicate::And(_, _)));
    }

    #[test]
    fn or_binds_loosest() {
        let stmt = parse("SELECT COUNT(*) FROM t WHERE c0 = 1 OR c1 = 2 AND c2 = 3").unwrap();
        match stmt.predicate.unwrap() {
            Predicate::Or(left, right) => {
                assert!(matches!(*left, Predicate::Compare { .. }));
                assert!(matches!(*right, Predicate::And(_, _)));
            }
            other => panic!("expected OR at the root, got {other:?}"),
        }
    }

    #[test]
    fn parens_override_precedence() {
        let stmt = parse("SELECT COUNT(*) FROM t WHERE (c0 = 1 OR c1 = 2) AND c2 = 3").unwrap();
        assert!(matches!(stmt.predicate.unwrap(), Predicate::And(_, _)));
    }

    #[test]
    fn count_star_and_count_column_both_parse() {
        assert_eq!(
            parse("SELECT COUNT(*) FROM t").unwrap().aggregates[0].column,
            None
        );
        assert_eq!(
            parse("SELECT COUNT(c4) FROM t").unwrap().aggregates[0].column,
            Some(4)
        );
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse("SELECT COUNT(*)\nFRM t").unwrap_err();
        match err {
            SqlError::Parse { line, column, .. } => {
                assert_eq!(line, 2);
                assert_eq!(column, 1);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("SELECT COUNT(*) FROM t extra").is_err());
    }

    #[test]
    fn rejects_sum_star() {
        assert!(parse("SELECT SUM(*) FROM t").is_err());
    }

    #[test]
    fn rejects_non_column_identifiers_in_predicates() {
        assert!(parse("SELECT COUNT(*) FROM t WHERE price > 5").is_err());
        assert!(parse("SELECT COUNT(*) FROM t WHERE c > 5").is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        let cases = [
            "SELECT COUNT(*) FROM t",
            "SELECT AVG(c0), SUM(c1) FROM t WHERE (c0 >= 2.5 AND NOT c1 = 3) GROUP BY c2",
            "SELECT MEDIAN(c0) FROM t WHERE (c0 < 1 OR c1 > 2) WITH EPSILON 0.5",
            "SELECT VARIANCE(c2) FROM data WHERE c0 != -3.5",
        ];
        for sql in cases {
            let stmt = parse(sql).unwrap();
            let rendered = stmt.to_string();
            let reparsed = parse(&rendered).unwrap();
            assert_eq!(stmt, reparsed, "round-trip failed for {sql}");
            // Canonical form is a fixed point.
            assert_eq!(rendered, reparsed.to_string());
        }
    }
}
