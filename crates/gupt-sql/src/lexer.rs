//! Hand-rolled lexer for the DP-SQL subset.
//!
//! Produces a flat token stream with 1-based line/column positions so
//! parse errors can point at the offending character. Keywords are
//! case-insensitive; identifiers preserve their original spelling but
//! compare case-insensitively against keywords only.

use crate::error::SqlError;

/// A lexical token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column of the token's first character.
    pub column: usize,
}

/// Token kinds of the DP-SQL grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Case-insensitive keyword, stored uppercased (`SELECT`, `FROM`, …).
    Keyword(Keyword),
    /// Identifier (dataset or column name), original spelling.
    Ident(String),
    /// Numeric literal (integer or float, optional exponent).
    Number(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `!=` or `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// End of input (always the final token).
    Eof,
}

/// Reserved words of the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    /// `SELECT`
    Select,
    /// `FROM`
    From,
    /// `WHERE`
    Where,
    /// `GROUP`
    Group,
    /// `BY`
    By,
    /// `WITH`
    With,
    /// `EPSILON`
    Epsilon,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `NOT`
    Not,
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MEDIAN`
    Median,
    /// `VARIANCE`
    Variance,
}

impl Keyword {
    fn from_word(word: &str) -> Option<Keyword> {
        // VARIANCE is the longest keyword, so a longer word is an
        // identifier; shorter ones are uppercased on the stack.
        let mut buf = [0u8; 8];
        let upper = buf.get_mut(..word.len())?;
        upper.copy_from_slice(word.as_bytes());
        upper.make_ascii_uppercase();
        Some(match &*upper {
            b"SELECT" => Keyword::Select,
            b"FROM" => Keyword::From,
            b"WHERE" => Keyword::Where,
            b"GROUP" => Keyword::Group,
            b"BY" => Keyword::By,
            b"WITH" => Keyword::With,
            b"EPSILON" => Keyword::Epsilon,
            b"AND" => Keyword::And,
            b"OR" => Keyword::Or,
            b"NOT" => Keyword::Not,
            b"COUNT" => Keyword::Count,
            b"SUM" => Keyword::Sum,
            b"AVG" => Keyword::Avg,
            b"MEDIAN" => Keyword::Median,
            b"VARIANCE" => Keyword::Variance,
            _ => return None,
        })
    }

    /// Canonical uppercase spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Keyword::Select => "SELECT",
            Keyword::From => "FROM",
            Keyword::Where => "WHERE",
            Keyword::Group => "GROUP",
            Keyword::By => "BY",
            Keyword::With => "WITH",
            Keyword::Epsilon => "EPSILON",
            Keyword::And => "AND",
            Keyword::Or => "OR",
            Keyword::Not => "NOT",
            Keyword::Count => "COUNT",
            Keyword::Sum => "SUM",
            Keyword::Avg => "AVG",
            Keyword::Median => "MEDIAN",
            Keyword::Variance => "VARIANCE",
        }
    }
}

/// Tokenises `input`, returning the token stream terminated by
/// [`TokenKind::Eof`], or a [`SqlError::Parse`] pointing at the first
/// unrecognised character.
pub fn lex(input: &str) -> Result<Vec<Token>, SqlError> {
    let mut tokens = Vec::new();
    // Every token of the grammar is ASCII and the first other character
    // is an error, so a byte offset into a line is also its column.
    let bytes = input.as_bytes();
    let mut i = 0;
    let mut line = 1usize;
    let mut column = 1usize;

    macro_rules! push {
        ($kind:expr, $len:expr) => {{
            tokens.push(Token {
                kind: $kind,
                line,
                column,
            });
            i += $len;
            column += $len;
        }};
    }

    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                i += 1;
                line += 1;
                column = 1;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                column += 1;
            }
            b'(' => push!(TokenKind::LParen, 1),
            b')' => push!(TokenKind::RParen, 1),
            b',' => push!(TokenKind::Comma, 1),
            b'*' => push!(TokenKind::Star, 1),
            b'=' => push!(TokenKind::Eq, 1),
            b'!' if bytes.get(i + 1) == Some(&b'=') => push!(TokenKind::NotEq, 2),
            b'<' if bytes.get(i + 1) == Some(&b'>') => push!(TokenKind::NotEq, 2),
            b'<' if bytes.get(i + 1) == Some(&b'=') => push!(TokenKind::LtEq, 2),
            b'<' => push!(TokenKind::Lt, 1),
            b'>' if bytes.get(i + 1) == Some(&b'=') => push!(TokenKind::GtEq, 2),
            b'>' => push!(TokenKind::Gt, 1),
            b'-' | b'.' | b'0'..=b'9' => {
                let (value, len) = lex_number(input, i, line, column)?;
                push!(TokenKind::Number(value), len);
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let len = bytes[i..]
                    .iter()
                    .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                    .unwrap_or(bytes.len() - i);
                let word = &input[i..i + len];
                match Keyword::from_word(word) {
                    Some(kw) => push!(TokenKind::Keyword(kw), len),
                    None => push!(TokenKind::Ident(word.to_string()), len),
                }
            }
            _ => {
                let other = input[i..].chars().next().expect("i is on a char boundary");
                return Err(SqlError::parse(
                    format!("unexpected character {other:?}"),
                    line,
                    column,
                ));
            }
        }
    }

    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
        column,
    });
    Ok(tokens)
}

/// Lexes a number starting at byte `start` of `input`. Accepts an
/// optional leading `-`, digits, an optional fraction and an optional
/// `e`/`E` exponent with optional sign. Rejects a bare `-` or `.`.
fn lex_number(
    input: &str,
    start: usize,
    line: usize,
    column: usize,
) -> Result<(f64, usize), SqlError> {
    let bytes = input.as_bytes();
    let digits_after = |from: usize| {
        from + bytes[from..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count()
    };
    let mut end = start;
    if bytes.get(end) == Some(&b'-') {
        end += 1;
    }
    let digits_begin = end;
    end = digits_after(end);
    if bytes.get(end) == Some(&b'.') {
        end = digits_after(end + 1);
    }
    if end == digits_begin || (end == digits_begin + 1 && bytes[digits_begin] == b'.') {
        return Err(SqlError::parse("expected a numeric literal", line, column));
    }
    if matches!(bytes.get(end), Some(b'e') | Some(b'E')) {
        let mut exp_digits = end + 1;
        if matches!(bytes.get(exp_digits), Some(b'+') | Some(b'-')) {
            exp_digits += 1;
        }
        let exp_end = digits_after(exp_digits);
        // `1e` followed by a non-digit is not an exponent — only commit
        // to the exponent form when at least one digit follows.
        if exp_end > exp_digits {
            end = exp_end;
        }
    }
    let text = &input[start..end];
    let value: f64 = text
        .parse()
        .map_err(|_| SqlError::parse(format!("invalid numeric literal {text:?}"), line, column))?;
    if !value.is_finite() {
        return Err(SqlError::parse(
            format!("numeric literal {text:?} is not finite"),
            line,
            column,
        ));
    }
    Ok((value, end - start))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        lex(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_full_statement() {
        let toks = kinds("SELECT AVG(c0) FROM t WHERE c1 >= 2.5 GROUP BY c2 WITH EPSILON 0.5");
        assert_eq!(toks[0], TokenKind::Keyword(Keyword::Select));
        assert_eq!(toks[1], TokenKind::Keyword(Keyword::Avg));
        assert_eq!(toks[2], TokenKind::LParen);
        assert_eq!(toks[3], TokenKind::Ident("c0".into()));
        assert!(toks.contains(&TokenKind::GtEq));
        assert!(toks.contains(&TokenKind::Number(2.5)));
        assert!(toks.contains(&TokenKind::Keyword(Keyword::Epsilon)));
        assert_eq!(*toks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(kinds("select")[0], TokenKind::Keyword(Keyword::Select));
        assert_eq!(kinds("SeLeCt")[0], TokenKind::Keyword(Keyword::Select));
    }

    #[test]
    fn numbers_cover_negatives_and_exponents() {
        assert_eq!(kinds("-3.5")[0], TokenKind::Number(-3.5));
        assert_eq!(kinds("1e3")[0], TokenKind::Number(1000.0));
        assert_eq!(kinds("2.5E-2")[0], TokenKind::Number(0.025));
        assert_eq!(kinds(".5")[0], TokenKind::Number(0.5));
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("SELECT\n  COUNT(*)").unwrap();
        let count = toks
            .iter()
            .find(|t| t.kind == TokenKind::Keyword(Keyword::Count))
            .unwrap();
        assert_eq!((count.line, count.column), (2, 3));
    }

    #[test]
    fn bad_characters_are_rejected_with_position() {
        let err = lex("SELECT $").unwrap_err();
        match err {
            SqlError::Parse { line, column, .. } => assert_eq!((line, column), (1, 8)),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn non_ascii_characters_are_rejected_at_their_column() {
        match lex("SELECT\n  AVG(c0) é").unwrap_err() {
            SqlError::Parse {
                message,
                line,
                column,
            } => {
                assert_eq!((line, column), (2, 11));
                assert_eq!(message, "unexpected character 'é'");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn bare_minus_is_rejected() {
        assert!(lex("c0 < -").is_err());
        assert!(lex("-").is_err());
        assert!(lex(".").is_err());
    }

    #[test]
    fn not_equals_has_two_spellings() {
        assert_eq!(kinds("!=")[0], TokenKind::NotEq);
        assert_eq!(kinds("<>")[0], TokenKind::NotEq);
    }
}
