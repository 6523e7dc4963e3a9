//! A small textual language for protocol descriptions.
//!
//! The `stsyn` command-line tool (in the `stsyn-core` crate) consumes this
//! format, so the synthesizer can be driven without writing Rust. Example —
//! the paper's running token-ring protocol:
//!
//! ```text
//! protocol TokenRing {
//!   var x0 : 0..2;  var x1 : 0..2;  var x2 : 0..2;  var x3 : 0..2;
//!
//!   process P0 reads x3, x0 writes x0 {
//!     A0: when x0 == x3 then x0 := (x3 + 1) % 3;
//!   }
//!   process P1 reads x0, x1 writes x1 {
//!     A1: when (x1 + 1) % 3 == x0 then x1 := x0;
//!   }
//!   // ... P2, P3 alike ...
//!
//!   invariant (x0 == x1 && x1 == x2 && x2 == x3)
//!          || ((x1 + 1) % 3 == x0 && x1 == x2 && x2 == x3);
//! }
//! ```
//!
//! Domains are `0..hi` ranges or named-value enumerations
//! (`var m0 : { left, right, self };`); named values are global integer
//! constants usable in expressions. Operator precedence, loosest first:
//! `<=>`, `=>`, `||`, `&&`, comparisons, `+ -`, `* %`, unary `! -`.

use crate::action::Action;
use crate::expr::{BinOp, Expr, UnOp};
use crate::protocol::Protocol;
use crate::topology::{ProcIdx, ProcessDecl, VarDecl, VarIdx};
use std::collections::HashMap;
use std::fmt;

/// A parsed protocol file: the protocol plus its legitimate-state
/// predicate.
#[derive(Debug, Clone)]
pub struct ParsedProtocol {
    /// Protocol name from the header.
    pub name: String,
    /// The validated protocol.
    pub protocol: Protocol,
    /// The `invariant` expression (the predicate `I` of Problem III.1).
    pub invariant: Expr,
}

/// Parse or validation failure, with a line number when syntactic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token (0 when post-parse validation).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    // punctuation / operators
    LBrace,
    RBrace,
    LParen,
    RParen,
    Colon,
    Semi,
    Comma,
    DotDot,
    Assign, // :=
    Plus,
    Minus,
    Star,
    Percent,
    EqEq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Implies, // =>
    Iff,     // <=>
    Bang,
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src: src.as_bytes(), pos: 0, line: 1 }
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError { line: self.line, message: msg.into() }
    }

    /// The source text from `start` up to the current position.
    fn text(&self, start: usize) -> &'a str {
        std::str::from_utf8(&self.src[start..self.pos]).expect("tokens end on ASCII bytes")
    }

    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.src.len() {
                let c = self.src[self.pos];
                if c == b'\n' {
                    self.line += 1;
                    self.pos += 1;
                } else if c.is_ascii_whitespace() {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            // line comments
            if self.pos + 1 < self.src.len()
                && self.src[self.pos] == b'/'
                && self.src[self.pos + 1] == b'/'
            {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn next(&mut self) -> Result<(Tok<'a>, u32), ParseError> {
        self.skip_ws();
        let line = self.line;
        if self.pos >= self.src.len() {
            return Ok((Tok::Eof, line));
        }
        let c = self.src[self.pos];
        let two = |l: &Lexer<'a>| {
            if l.pos + 1 < l.src.len() {
                Some(l.src[l.pos + 1])
            } else {
                None
            }
        };
        let tok = match c {
            b'{' => {
                self.pos += 1;
                Tok::LBrace
            }
            b'}' => {
                self.pos += 1;
                Tok::RBrace
            }
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b';' => {
                self.pos += 1;
                Tok::Semi
            }
            b',' => {
                self.pos += 1;
                Tok::Comma
            }
            b'+' => {
                self.pos += 1;
                Tok::Plus
            }
            b'-' => {
                self.pos += 1;
                Tok::Minus
            }
            b'*' => {
                self.pos += 1;
                Tok::Star
            }
            b'%' => {
                self.pos += 1;
                Tok::Percent
            }
            b'!' => {
                if two(self) == Some(b'=') {
                    self.pos += 2;
                    Tok::Ne
                } else {
                    self.pos += 1;
                    Tok::Bang
                }
            }
            b':' => {
                if two(self) == Some(b'=') {
                    self.pos += 2;
                    Tok::Assign
                } else {
                    self.pos += 1;
                    Tok::Colon
                }
            }
            b'.' => {
                if two(self) == Some(b'.') {
                    self.pos += 2;
                    Tok::DotDot
                } else {
                    return Err(self.error("unexpected `.`"));
                }
            }
            b'=' => match two(self) {
                Some(b'=') => {
                    self.pos += 2;
                    Tok::EqEq
                }
                Some(b'>') => {
                    self.pos += 2;
                    Tok::Implies
                }
                _ => return Err(self.error("unexpected `=` (use `==`, `:=`, or `=>`)")),
            },
            b'<' => match two(self) {
                Some(b'=') => {
                    if self.pos + 2 < self.src.len() && self.src[self.pos + 2] == b'>' {
                        self.pos += 3;
                        Tok::Iff
                    } else {
                        self.pos += 2;
                        Tok::Le
                    }
                }
                _ => {
                    self.pos += 1;
                    Tok::Lt
                }
            },
            b'>' => {
                if two(self) == Some(b'=') {
                    self.pos += 2;
                    Tok::Ge
                } else {
                    self.pos += 1;
                    Tok::Gt
                }
            }
            b'&' => {
                if two(self) == Some(b'&') {
                    self.pos += 2;
                    Tok::AndAnd
                } else {
                    return Err(self.error("unexpected `&` (use `&&`)"));
                }
            }
            b'|' => {
                if two(self) == Some(b'|') {
                    self.pos += 2;
                    Tok::OrOr
                } else {
                    return Err(self.error("unexpected `|` (use `||`)"));
                }
            }
            b'0'..=b'9' => {
                let start = self.pos;
                while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                Tok::Int(self.text(start).parse().map_err(|_| self.error("integer overflow"))?)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self.pos < self.src.len()
                    && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                Tok::Ident(self.text(start))
            }
            other => return Err(self.error(format!("unexpected character `{}`", other as char))),
        };
        Ok((tok, line))
    }
}

struct Parser<'a> {
    toks: Vec<(Tok<'a>, u32)>,
    pos: usize,
    vars: Vec<VarDecl>,
    var_names: HashMap<&'a str, VarIdx>,
    value_consts: HashMap<&'a str, i64>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Tok<'a> {
        self.toks[self.pos].0
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].1
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError { line: self.line(), message: msg.into() }
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.toks[self.pos].0;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Tok<'a>, what: &str) -> Result<(), ParseError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError {
                line: self.toks[self.pos.saturating_sub(1)].1,
                message: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let line = self.line();
        match self.bump() {
            Tok::Ident(s) if s == kw => Ok(()),
            other => Err(ParseError { line, message: format!("expected `{kw}`, found {other:?}") }),
        }
    }

    fn lookup_var(&self, name: &str) -> Option<VarIdx> {
        self.var_names.get(name).copied()
    }

    // ---- expressions (precedence climbing) ----

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_iff()
    }

    fn parse_iff(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_implies()?;
        while self.peek() == Tok::Iff {
            self.bump();
            let rhs = self.parse_implies()?;
            lhs = Expr::Bin(BinOp::Iff, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_implies(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_or()?;
        if self.peek() == Tok::Implies {
            self.bump();
            // right-associative
            let rhs = self.parse_implies()?;
            Ok(Expr::Bin(BinOp::Implies, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.peek() == Tok::OrOr {
            self.bump();
            let rhs = self.parse_and()?;
            lhs = Expr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_cmp()?;
        while self.peek() == Tok::AndAnd {
            self.bump();
            let rhs = self.parse_cmp()?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Tok::EqEq => Some(BinOp::Eq),
            Tok::Ne => Some(BinOp::Ne),
            Tok::Lt => Some(BinOp::Lt),
            Tok::Le => Some(BinOp::Le),
            Tok::Gt => Some(BinOp::Gt),
            Tok::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_add()?;
            Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_add(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_mul()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Bang => {
                self.bump();
                Ok(Expr::Un(UnOp::Not, Box::new(self.parse_unary()?)))
            }
            Tok::Minus => {
                self.bump();
                Ok(Expr::Un(UnOp::Neg, Box::new(self.parse_unary()?)))
            }
            _ => self.parse_atom(),
        }
    }

    fn parse_atom(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        match self.bump() {
            Tok::Int(i) => Ok(Expr::Int(i)),
            Tok::LParen => {
                let e = self.parse_expr()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::Ident(name) => match name {
                "true" => Ok(Expr::Bool(true)),
                "false" => Ok(Expr::Bool(false)),
                _ => {
                    if let Some(v) = self.lookup_var(name) {
                        Ok(Expr::Var(v))
                    } else if let Some(&c) = self.value_consts.get(name) {
                        Ok(Expr::Int(c))
                    } else {
                        Err(ParseError { line, message: format!("unknown identifier `{name}`") })
                    }
                }
            },
            other => {
                Err(ParseError { line, message: format!("expected expression, found {other:?}") })
            }
        }
    }

    fn parse_var_list(&mut self) -> Result<Vec<VarIdx>, ParseError> {
        let mut out = Vec::new();
        loop {
            let line = self.line();
            let name = self.expect_ident("variable name")?;
            let v = self.lookup_var(name).ok_or_else(|| ParseError {
                line,
                message: format!("unknown variable `{name}`"),
            })?;
            out.push(v);
            if self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        Ok(out)
    }
}

/// Parse a protocol description arriving as an untrusted payload (e.g. a
/// `stsyn-serve` job submission): the byte size is bounded *before*
/// tokenization, so an oversized submission is rejected in O(1) instead of
/// being lexed. Everything else is [`parse`].
pub fn parse_bounded(src: &str, max_bytes: usize) -> Result<ParsedProtocol, ParseError> {
    if src.len() > max_bytes {
        return Err(ParseError {
            line: 0,
            message: format!(
                "protocol source is {} bytes, exceeding the {max_bytes}-byte payload limit",
                src.len()
            ),
        });
    }
    parse(src)
}

/// Parse a protocol description; see the module docs for the grammar.
pub fn parse(src: &str) -> Result<ParsedProtocol, ParseError> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        let (t, line) = lexer.next()?;
        let eof = t == Tok::Eof;
        toks.push((t, line));
        if eof {
            break;
        }
    }
    let mut p = Parser {
        toks,
        pos: 0,
        vars: Vec::new(),
        var_names: HashMap::new(),
        value_consts: HashMap::new(),
    };

    p.expect_keyword("protocol")?;
    let name = p.expect_ident("protocol name")?;
    p.expect(Tok::LBrace, "`{`")?;

    let mut processes: Vec<ProcessDecl> = Vec::new();
    let mut actions: Vec<Action> = Vec::new();
    let mut invariant: Option<Expr> = None;

    loop {
        match p.peek() {
            Tok::RBrace => {
                p.bump();
                break;
            }
            Tok::Ident("var") => {
                p.bump();
                let line = p.line();
                let vname = p.expect_ident("variable name")?;
                if p.var_names.contains_key(vname) {
                    return Err(ParseError {
                        line,
                        message: format!("variable `{vname}` declared twice"),
                    });
                }
                p.expect(Tok::Colon, "`:`")?;
                let decl = match p.peek() {
                    Tok::Int(lo) => {
                        p.bump();
                        if lo != 0 {
                            return Err(ParseError {
                                line,
                                message: "domains must start at 0 (`0..hi`)".into(),
                            });
                        }
                        p.expect(Tok::DotDot, "`..`")?;
                        let hi = match p.bump() {
                            Tok::Int(h) => h,
                            other => {
                                return Err(ParseError {
                                    line,
                                    message: format!("expected domain bound, found {other:?}"),
                                })
                            }
                        };
                        if hi < 0 || hi > u32::MAX as i64 - 1 {
                            return Err(ParseError { line, message: "bad domain bound".into() });
                        }
                        VarDecl::new(vname, hi as u32 + 1)
                    }
                    Tok::LBrace => {
                        p.bump();
                        let mut names = Vec::new();
                        loop {
                            let nline = p.line();
                            let n = p.expect_ident("value name")?;
                            let val = names.len() as i64;
                            match p.value_consts.get(n) {
                                Some(&existing) if existing != val => {
                                    return Err(ParseError {
                                        line: nline,
                                        message: format!(
                                            "value name `{n}` already bound to {existing}"
                                        ),
                                    })
                                }
                                _ => {
                                    p.value_consts.insert(n, val);
                                }
                            }
                            names.push(n);
                            if p.peek() == Tok::Comma {
                                p.bump();
                            } else {
                                break;
                            }
                        }
                        p.expect(Tok::RBrace, "`}`")?;
                        VarDecl::with_names(vname, &names)
                    }
                    other => {
                        return Err(ParseError {
                            line,
                            message: format!("expected domain, found {other:?}"),
                        })
                    }
                };
                p.expect(Tok::Semi, "`;`")?;
                p.var_names.insert(vname, VarIdx(p.vars.len()));
                p.vars.push(decl);
            }
            Tok::Ident("process") => {
                p.bump();
                let pname = p.expect_ident("process name")?;
                p.expect_keyword("reads")?;
                let reads = p.parse_var_list()?;
                p.expect_keyword("writes")?;
                let writes = p.parse_var_list()?;
                let line = p.line();
                let decl = ProcessDecl::new(pname, reads, writes)
                    .map_err(|e| ParseError { line, message: e.to_string() })?;
                let proc_idx = ProcIdx(processes.len());
                processes.push(decl);
                p.expect(Tok::LBrace, "`{`")?;
                while p.peek() != Tok::RBrace {
                    // optional `Label:` prefix — an identifier followed by `:`
                    let mut label: Option<String> = None;
                    if let Tok::Ident(id) = p.peek() {
                        if id != "when" && p.toks.get(p.pos + 1).map(|t| t.0) == Some(Tok::Colon) {
                            p.bump();
                            p.bump();
                            label = Some(id.to_string());
                        }
                    }
                    p.expect_keyword("when")?;
                    let guard = p.parse_expr()?;
                    p.expect_keyword("then")?;
                    let mut assigns = Vec::new();
                    loop {
                        let aline = p.line();
                        let tname = p.expect_ident("assignment target")?;
                        let target = p.lookup_var(tname).ok_or_else(|| ParseError {
                            line: aline,
                            message: format!("unknown variable `{tname}`"),
                        })?;
                        p.expect(Tok::Assign, "`:=`")?;
                        let rhs = p.parse_expr()?;
                        assigns.push((target, rhs));
                        if p.peek() == Tok::Comma {
                            p.bump();
                        } else {
                            break;
                        }
                    }
                    p.expect(Tok::Semi, "`;`")?;
                    actions.push(Action { process: proc_idx, guard, assigns, label });
                }
                p.expect(Tok::RBrace, "`}`")?;
            }
            Tok::Ident("invariant") => {
                p.bump();
                let e = p.parse_expr()?;
                p.expect(Tok::Semi, "`;`")?;
                if invariant.is_some() {
                    return Err(p.error("duplicate `invariant`"));
                }
                invariant = Some(e);
            }
            other => {
                return Err(p.error(format!(
                    "expected `var`, `process`, `invariant` or `}}`, found {other:?}"
                )))
            }
        }
    }

    let invariant = invariant
        .ok_or_else(|| ParseError { line: 0, message: "missing `invariant` declaration".into() })?;
    match invariant.typecheck() {
        Ok(crate::expr::Ty::Bool) => {}
        _ => {
            return Err(ParseError { line: 0, message: "invariant must be boolean".into() });
        }
    }
    invariant
        .validate_moduli()
        .map_err(|e| ParseError { line: 0, message: format!("invariant: {e}") })?;
    let protocol = Protocol::new(p.vars, processes, actions)
        .map_err(|e| ParseError { line: 0, message: e.to_string() })?;
    Ok(ParsedProtocol { name: name.to_string(), protocol, invariant })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOKEN_RING: &str = r#"
        // The paper's running example (4 processes, |D| = 3).
        protocol TokenRing {
          var x0 : 0..2;  var x1 : 0..2;  var x2 : 0..2;  var x3 : 0..2;

          process P0 reads x3, x0 writes x0 {
            A0: when x0 == x3 then x0 := (x3 + 1) % 3;
          }
          process P1 reads x0, x1 writes x1 {
            when (x1 + 1) % 3 == x0 then x1 := x0;
          }
          process P2 reads x1, x2 writes x2 {
            when (x2 + 1) % 3 == x1 then x2 := x1;
          }
          process P3 reads x2, x3 writes x3 {
            when (x3 + 1) % 3 == x2 then x3 := x2;
          }

          invariant (x0 == x1 && x1 == x2 && x2 == x3)
                 || ((x1 + 1) % 3 == x0 && x1 == x2 && x2 == x3)
                 || (x0 == x1 && (x2 + 1) % 3 == x1 && x2 == x3)
                 || (x0 == x1 && x1 == x2 && (x3 + 1) % 3 == x2);
        }
    "#;

    #[test]
    fn parses_token_ring() {
        let parsed = parse(TOKEN_RING).unwrap();
        assert_eq!(parsed.name, "TokenRing");
        assert_eq!(parsed.protocol.num_processes(), 4);
        assert_eq!(parsed.protocol.actions().len(), 4);
        assert_eq!(parsed.protocol.actions()[0].label.as_deref(), Some("A0"));
        assert_eq!(parsed.protocol.space().size(), 81);
        // The invariant holds at ⟨1,0,0,0⟩ (P1 has the token).
        assert!(parsed.invariant.holds(&vec![1, 0, 0, 0]));
        assert!(!parsed.invariant.holds(&vec![0, 0, 1, 2]));
    }

    #[test]
    fn parses_named_values() {
        let src = r#"
            protocol MiniMatch {
              var m0 : { left, right, self };
              var m1 : { left, right, self };
              process P0 reads m0, m1 writes m0 {
                when m0 == self && m1 == left then m0 := right;
              }
              invariant m0 == right => m1 == left;
            }
        "#;
        let parsed = parse(src).unwrap();
        assert_eq!(parsed.protocol.vars()[0].domain, 3);
        assert_eq!(parsed.protocol.vars()[0].value_name(2), "self");
        // m0 == self(2), m1 == left(0) enables the action.
        let succs = parsed.protocol.successors(&vec![2, 0]);
        assert_eq!(succs, vec![vec![1, 0]]);
    }

    #[test]
    fn empty_process_bodies_and_no_actions() {
        let src = r#"
            protocol Empty {
              var c0 : 0..2;  var c1 : 0..2;
              process P0 reads c0, c1 writes c0 { }
              process P1 reads c0, c1 writes c1 { }
              invariant c0 != c1;
            }
        "#;
        let parsed = parse(src).unwrap();
        assert!(parsed.protocol.actions().is_empty());
        assert_eq!(parsed.protocol.num_processes(), 2);
    }

    #[test]
    fn precedence_matches_expectation() {
        let src = r#"
            protocol P {
              var a : 0..3; var b : 0..3;
              process P0 reads a, b writes a { }
              invariant a + 1 % 2 == b || a == b && a < 2;
            }
        "#;
        let parsed = parse(src).unwrap();
        // a + (1 % 2) == b  || ((a == b) && (a < 2))
        assert!(parsed.invariant.holds(&vec![1, 2])); // 1+1==2
        assert!(parsed.invariant.holds(&vec![0, 0])); // a==b && a<2
        assert!(!parsed.invariant.holds(&vec![3, 3])); // a==b but a≥2; 3+1≠3
    }

    #[test]
    fn error_unknown_variable() {
        let src = "protocol P { var a : 0..1; process Q reads a, zz writes a { } invariant true; }";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("zz"));
    }

    #[test]
    fn error_missing_invariant() {
        let src = "protocol P { var a : 0..1; process Q reads a writes a { } }";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("invariant"));
    }

    #[test]
    fn error_w_not_subset_r() {
        let src =
            "protocol P { var a : 0..1; var b : 0..1; process Q reads a writes b { } invariant true; }";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("w ⊆ r"));
    }

    #[test]
    fn error_duplicate_variable() {
        let src = "protocol P { var a : 0..1; var a : 0..2; process Q reads a writes a { } invariant true; }";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("declared twice"));
    }

    #[test]
    fn error_nonzero_domain_start() {
        let src = "protocol P { var a : 1..3; process Q reads a writes a { } invariant true; }";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("start at 0"));
    }

    #[test]
    fn error_reports_line_numbers() {
        let src = "protocol P {\n  var a : 0..1;\n  var b @ 0..1;\n}";
        let err = parse(src).unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn implies_is_right_associative() {
        let src = r#"
            protocol P {
              var a : 0..1;
              process P0 reads a writes a { }
              invariant a == 1 => a == 0 => a == 1;
            }
        "#;
        // a==1 => (a==0 => a==1): at a=1: true => (false => ...) = true.
        let parsed = parse(src).unwrap();
        assert!(parsed.invariant.holds(&vec![1]));
        assert!(parsed.invariant.holds(&vec![0]));
    }

    #[test]
    fn comments_are_skipped() {
        let src = "// header\nprotocol P { // inline\n var a : 0..1; process Q reads a writes a { } invariant true; }";
        assert!(parse(src).is_ok());
    }
}
