//! Recursive-descent parser for Mini-C/C++.
//!
//! The parser resolves type syntax straight to [`effective_types::Type`]
//! values and keeps a table of record tags so that, as in C++, a defined
//! record can be named without the `struct`/`class`/`union` keyword.

use std::collections::HashMap;

use effective_types::Type;

use crate::ast::*;
use crate::error::{CompileError, ErrorKind};
use crate::lexer::lex;
use crate::token::{Keyword, Loc, Punct, Token, TokenKind};

/// Parse a full translation unit from source text.
pub fn parse(source: &str) -> Result<Unit, CompileError> {
    let tokens = lex(source)?;
    Parser::new(tokens).parse_unit()
}

/// The deepest nesting the parser accepts, counted in nested statements
/// plus nested sub-expressions (each parenthesis, unary operator, call
/// argument, index, assignment right-hand side and `?:` else-branch is
/// one level).  Deeper input is a parse error instead of a stack overflow
/// in the recursive-descent parser or in lowering: at this depth a debug
/// build still compiles on a 2 MiB thread stack, where a parenthesis level
/// costs about 16 KiB.  The bundled workload and example sources nest at
/// most 7 levels.
pub const MAX_NESTING_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Known record tags → the keyword they were introduced with.
    record_tags: HashMap<String, RecordKeyword>,
    /// Current nesting level (see [`MAX_NESTING_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            record_tags: HashMap::new(),
            depth: 0,
        }
    }

    /// Run `parse` one nesting level deeper, failing with a parse error
    /// that names the limit once [`MAX_NESTING_DEPTH`] is reached.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(self.error(format!(
                "nesting exceeds the maximum depth of {MAX_NESTING_DEPTH}"
            )));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    // ---------------------------------------------------------------
    // Token helpers
    // ---------------------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let idx = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn loc(&self) -> Loc {
        self.tokens[self.pos].loc
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(ErrorKind::Parse, msg, self.loc())
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if *self.peek() == TokenKind::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), CompileError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{p:?}`, found {}", self.peek())))
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if *self.peek() == TokenKind::Keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, CompileError> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    // ---------------------------------------------------------------
    // Types
    // ---------------------------------------------------------------

    /// Does the current token begin a type?
    fn starts_type(&self) -> bool {
        match self.peek() {
            TokenKind::Keyword(k) => matches!(
                k,
                Keyword::Void
                    | Keyword::Bool
                    | Keyword::Char
                    | Keyword::Short
                    | Keyword::Int
                    | Keyword::Long
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Const
                    | Keyword::Struct
                    | Keyword::Class
                    | Keyword::Union
                    | Keyword::Enum
            ),
            TokenKind::Ident(name) => self.record_tags.contains_key(name),
            _ => false,
        }
    }

    /// Parse a type: base type followed by any number of `*`s.
    /// Array declarators are handled by the callers that need them.
    fn parse_type(&mut self) -> Result<Type, CompileError> {
        let mut ty = self.parse_base_type()?;
        while self.eat_punct(Punct::Star) {
            ty = Type::ptr(ty);
            // `const` after `*` is accepted and ignored (qualifier-free
            // dynamic types).
            self.eat_keyword(Keyword::Const);
        }
        // C++ references are treated as pointers (§6 "Limitations").
        if self.eat_punct(Punct::Amp) {
            ty = Type::ptr(ty);
        }
        Ok(ty)
    }

    fn parse_base_type(&mut self) -> Result<Type, CompileError> {
        self.eat_keyword(Keyword::Const);
        self.eat_keyword(Keyword::Static);
        // `unsigned`/`signed` prefixes: the sign does not affect layout, so
        // they simply qualify the following integer keyword (or mean `int`).
        let mut saw_sign = false;
        while matches!(
            self.peek(),
            TokenKind::Keyword(Keyword::Unsigned) | TokenKind::Keyword(Keyword::Signed)
        ) {
            self.bump();
            saw_sign = true;
        }
        let ty = match self.peek().clone() {
            TokenKind::Keyword(Keyword::Void) => {
                self.bump();
                Type::void()
            }
            TokenKind::Keyword(Keyword::Bool) => {
                self.bump();
                Type::bool_()
            }
            TokenKind::Keyword(Keyword::Char) => {
                self.bump();
                Type::char_()
            }
            TokenKind::Keyword(Keyword::Short) => {
                self.bump();
                self.eat_keyword(Keyword::Int);
                Type::short()
            }
            TokenKind::Keyword(Keyword::Int) => {
                self.bump();
                Type::int()
            }
            TokenKind::Keyword(Keyword::Long) => {
                self.bump();
                if self.eat_keyword(Keyword::Long) {
                    self.eat_keyword(Keyword::Int);
                    Type::long_long()
                } else if self.eat_keyword(Keyword::Double) {
                    Type::long_double()
                } else {
                    self.eat_keyword(Keyword::Int);
                    Type::long()
                }
            }
            TokenKind::Keyword(Keyword::Float) => {
                self.bump();
                Type::float()
            }
            TokenKind::Keyword(Keyword::Double) => {
                self.bump();
                Type::double()
            }
            TokenKind::Keyword(Keyword::Struct) => {
                self.bump();
                let name = self.expect_ident()?;
                self.record_tags
                    .entry(name.clone())
                    .or_insert(RecordKeyword::Struct);
                Type::struct_(name)
            }
            TokenKind::Keyword(Keyword::Class) => {
                self.bump();
                let name = self.expect_ident()?;
                self.record_tags
                    .entry(name.clone())
                    .or_insert(RecordKeyword::Class);
                Type::class(name)
            }
            TokenKind::Keyword(Keyword::Union) => {
                self.bump();
                let name = self.expect_ident()?;
                self.record_tags
                    .entry(name.clone())
                    .or_insert(RecordKeyword::Union);
                Type::union_(name)
            }
            TokenKind::Keyword(Keyword::Enum) => {
                self.bump();
                let name = self.expect_ident()?;
                Type::enum_(name)
            }
            TokenKind::Ident(name) if self.record_tags.contains_key(&name) => {
                self.bump();
                match self.record_tags[&name] {
                    RecordKeyword::Struct => Type::struct_(name),
                    RecordKeyword::Class => Type::class(name),
                    RecordKeyword::Union => Type::union_(name),
                }
            }
            _ if saw_sign => Type::int(),
            other => return Err(self.error(format!("expected a type, found {other}"))),
        };
        self.eat_keyword(Keyword::Const);
        Ok(ty)
    }

    /// Parse trailing array declarators `[N]`, `[N][M]`, or `[]` (flexible
    /// array member), wrapping `ty` from the outside in.
    fn parse_array_suffix(&mut self, ty: Type) -> Result<Type, CompileError> {
        let mut dims = Vec::new();
        let mut fam = false;
        while self.eat_punct(Punct::LBracket) {
            if self.eat_punct(Punct::RBracket) {
                fam = true;
                break;
            }
            let n = match self.bump() {
                TokenKind::Int(v) if v >= 0 => v as u64,
                other => return Err(self.error(format!("expected array length, found {other}"))),
            };
            self.expect_punct(Punct::RBracket)?;
            dims.push(n);
        }
        let mut result = ty;
        for &n in dims.iter().rev() {
            result = Type::array(result, n);
        }
        if fam {
            result = Type::incomplete_array(result);
        }
        Ok(result)
    }

    // ---------------------------------------------------------------
    // Top level
    // ---------------------------------------------------------------

    fn parse_unit(mut self) -> Result<Unit, CompileError> {
        let mut unit = Unit::default();
        while *self.peek() != TokenKind::Eof {
            match self.peek() {
                TokenKind::Keyword(Keyword::Struct)
                | TokenKind::Keyword(Keyword::Class)
                | TokenKind::Keyword(Keyword::Union)
                    if self.is_record_definition() =>
                {
                    unit.records.push(self.parse_record()?);
                }
                _ => self.parse_global_or_function(&mut unit)?,
            }
        }
        Ok(unit)
    }

    /// Distinguish `struct S { ... };` / `struct S;` (definitions) from
    /// `struct S x;` / `struct S *f() {...}` (uses in declarations).
    fn is_record_definition(&self) -> bool {
        matches!(self.peek_at(1), TokenKind::Ident(_))
            && matches!(
                self.peek_at(2),
                TokenKind::Punct(Punct::LBrace)
                    | TokenKind::Punct(Punct::Colon)
                    | TokenKind::Punct(Punct::Semi)
            )
    }

    fn parse_record(&mut self) -> Result<RecordDecl, CompileError> {
        let loc = self.loc();
        let keyword = match self.bump() {
            TokenKind::Keyword(Keyword::Struct) => RecordKeyword::Struct,
            TokenKind::Keyword(Keyword::Class) => RecordKeyword::Class,
            TokenKind::Keyword(Keyword::Union) => RecordKeyword::Union,
            other => return Err(self.error(format!("expected record keyword, found {other}"))),
        };
        let name = self.expect_ident()?;
        self.record_tags.insert(name.clone(), keyword);

        // Forward declaration.
        if self.eat_punct(Punct::Semi) {
            return Ok(RecordDecl {
                keyword,
                name,
                bases: Vec::new(),
                fields: Vec::new(),
                has_virtual: false,
                loc,
            });
        }

        // Base classes: `: public Base1, public Base2`.
        let mut bases = Vec::new();
        if self.eat_punct(Punct::Colon) {
            loop {
                self.eat_keyword(Keyword::Public);
                self.eat_keyword(Keyword::Virtual);
                bases.push(self.expect_ident()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }

        self.expect_punct(Punct::LBrace)?;
        let mut fields = Vec::new();
        let mut has_virtual = false;
        while !self.eat_punct(Punct::RBrace) {
            if *self.peek() == TokenKind::Keyword(Keyword::Public) {
                // `public:` access specifier — skip.
                self.bump();
                self.expect_punct(Punct::Colon)?;
                continue;
            }
            if *self.peek() == TokenKind::Keyword(Keyword::Virtual) {
                // A virtual method declaration: mark the class polymorphic
                // and skip to the `;`.
                has_virtual = true;
                while *self.peek() != TokenKind::Punct(Punct::Semi)
                    && *self.peek() != TokenKind::Eof
                {
                    self.bump();
                }
                self.expect_punct(Punct::Semi)?;
                continue;
            }
            let floc = self.loc();
            let base = self.parse_type()?;
            let fname = self.expect_ident()?;
            let ty = self.parse_array_suffix(base.clone())?;
            fields.push(FieldDecl {
                name: fname,
                ty,
                loc: floc,
            });
            // Additional declarators: `int a, b;`
            while self.eat_punct(Punct::Comma) {
                let floc = self.loc();
                let mut ty = base.clone();
                while self.eat_punct(Punct::Star) {
                    ty = Type::ptr(ty);
                }
                let fname = self.expect_ident()?;
                let ty = self.parse_array_suffix(ty)?;
                fields.push(FieldDecl {
                    name: fname,
                    ty,
                    loc: floc,
                });
            }
            self.expect_punct(Punct::Semi)?;
        }
        self.expect_punct(Punct::Semi)?;
        Ok(RecordDecl {
            keyword,
            name,
            bases,
            fields,
            has_virtual,
            loc,
        })
    }

    fn parse_global_or_function(&mut self, unit: &mut Unit) -> Result<(), CompileError> {
        let loc = self.loc();
        let base = self.parse_type()?;
        let name = self.expect_ident()?;
        if *self.peek() == TokenKind::Punct(Punct::LParen) {
            // Function definition.
            self.bump();
            let mut params = Vec::new();
            if !self.eat_punct(Punct::RParen) {
                loop {
                    let ploc = self.loc();
                    if *self.peek() == TokenKind::Keyword(Keyword::Void)
                        && *self.peek_at(1) == TokenKind::Punct(Punct::RParen)
                    {
                        self.bump();
                        break;
                    }
                    let pty = self.parse_type()?;
                    let pname = self.expect_ident()?;
                    let pty = self.parse_array_suffix(pty)?;
                    // Array parameters decay to pointers.
                    let pty = match pty {
                        Type::Array(..) | Type::IncompleteArray(_) => pty.decay(),
                        other => other,
                    };
                    params.push(ParamDecl {
                        name: pname,
                        ty: pty,
                        loc: ploc,
                    });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                // The loop above leaves the closing paren unconsumed unless
                // it hit the `(void)` case.
                self.eat_punct(Punct::RParen);
            }
            if self.eat_punct(Punct::Semi) {
                // Function prototype: record nothing (bodies are required
                // for called functions; prototypes are tolerated).
                return Ok(());
            }
            self.expect_punct(Punct::LBrace)?;
            let body = self.parse_block_body()?;
            unit.functions.push(FunctionDecl {
                name,
                ret: base,
                params,
                body,
                loc,
            });
        } else {
            // Global variable(s).
            let ty = self.parse_array_suffix(base.clone())?;
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.parse_expr()?)
            } else {
                None
            };
            unit.globals.push(GlobalDecl {
                name,
                ty,
                init,
                loc,
            });
            while self.eat_punct(Punct::Comma) {
                let loc = self.loc();
                let mut ty = base.clone();
                while self.eat_punct(Punct::Star) {
                    ty = Type::ptr(ty);
                }
                let name = self.expect_ident()?;
                let ty = self.parse_array_suffix(ty)?;
                let init = if self.eat_punct(Punct::Assign) {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                unit.globals.push(GlobalDecl {
                    name,
                    ty,
                    init,
                    loc,
                });
            }
            self.expect_punct(Punct::Semi)?;
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Statements
    // ---------------------------------------------------------------

    fn parse_block_body(&mut self) -> Result<Vec<Stmt>, CompileError> {
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if *self.peek() == TokenKind::Eof {
                return Err(self.error("unexpected end of input inside a block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, CompileError> {
        self.nested(Self::parse_stmt_inner)
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt, CompileError> {
        let loc = self.loc();
        match self.peek().clone() {
            TokenKind::Punct(Punct::LBrace) => {
                self.bump();
                Ok(Stmt::Block(self.parse_block_body()?))
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let then_body = self.parse_stmt_as_block()?;
                let else_body = if self.eat_keyword(Keyword::Else) {
                    self.parse_stmt_as_block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    loc,
                })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.parse_stmt_as_block()?;
                Ok(Stmt::While { cond, body, loc })
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.bump();
                let body = self.parse_stmt_as_block()?;
                if !self.eat_keyword(Keyword::While) {
                    return Err(self.error("expected `while` after `do` body"));
                }
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::DoWhile { body, cond, loc })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let init = if self.eat_punct(Punct::Semi) {
                    None
                } else {
                    Some(Box::new(self.parse_simple_decl_or_expr_stmt()?))
                };
                let cond = if *self.peek() == TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                let step = if *self.peek() == TokenKind::Punct(Punct::RParen) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::RParen)?;
                let body = self.parse_stmt_as_block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    loc,
                })
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.eat_punct(Punct::Semi) {
                    None
                } else {
                    let e = self.parse_expr()?;
                    self.expect_punct(Punct::Semi)?;
                    Some(e)
                };
                Ok(Stmt::Return(value, loc))
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Break(loc))
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Continue(loc))
            }
            TokenKind::Keyword(Keyword::Delete) => {
                let e = self.parse_expr()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Expr(e))
            }
            _ if self.starts_decl() => {
                let stmt = self.parse_simple_decl_or_expr_stmt()?;
                Ok(stmt)
            }
            _ => {
                let e = self.parse_expr()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn parse_stmt_as_block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        if self.eat_punct(Punct::LBrace) {
            self.parse_block_body()
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    /// Does the current position start a local declaration (rather than an
    /// expression)?  True when a type starts here and the token after the
    /// declarator head is an identifier.
    fn starts_decl(&self) -> bool {
        if !self.starts_type() {
            return false;
        }
        // Distinguish `S * p;` (decl) from `s * p` (multiplication): the
        // type table disambiguates because only known record tags and type
        // keywords count as type starts.
        true
    }

    /// Parse `T name = init;` or an expression statement (used by `for`
    /// init clauses and plain statements).
    fn parse_simple_decl_or_expr_stmt(&mut self) -> Result<Stmt, CompileError> {
        let loc = self.loc();
        if self.starts_decl() {
            let base = self.parse_type()?;
            let name = self.expect_ident()?;
            let ty = self.parse_array_suffix(base.clone())?;
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.parse_expr()?)
            } else {
                None
            };
            if self.eat_punct(Punct::Comma) {
                // Multiple declarators become a block of declarations.
                let mut stmts = vec![Stmt::Decl {
                    name,
                    ty,
                    init,
                    loc,
                }];
                loop {
                    let loc = self.loc();
                    let mut ty = base.clone();
                    while self.eat_punct(Punct::Star) {
                        ty = Type::ptr(ty);
                    }
                    let name = self.expect_ident()?;
                    let ty = self.parse_array_suffix(ty)?;
                    let init = if self.eat_punct(Punct::Assign) {
                        Some(self.parse_expr()?)
                    } else {
                        None
                    };
                    stmts.push(Stmt::Decl {
                        name,
                        ty,
                        init,
                        loc,
                    });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
                return Ok(Stmt::Block(stmts));
            }
            self.expect_punct(Punct::Semi)?;
            Ok(Stmt::Decl {
                name,
                ty,
                init,
                loc,
            })
        } else {
            let e = self.parse_expr()?;
            self.expect_punct(Punct::Semi)?;
            Ok(Stmt::Expr(e))
        }
    }

    // ---------------------------------------------------------------
    // Expressions (precedence climbing)
    // ---------------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, CompileError> {
        self.parse_assignment()
    }

    fn parse_assignment(&mut self) -> Result<Expr, CompileError> {
        let lhs = self.parse_conditional()?;
        let loc = self.loc();
        match self.peek() {
            TokenKind::Punct(Punct::Assign) => {
                self.bump();
                let rhs = self.nested(Self::parse_assignment)?;
                Ok(Expr::Assign {
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    loc,
                })
            }
            TokenKind::Punct(Punct::PlusAssign)
            | TokenKind::Punct(Punct::MinusAssign)
            | TokenKind::Punct(Punct::StarAssign)
            | TokenKind::Punct(Punct::SlashAssign) => {
                let op = match self.bump() {
                    TokenKind::Punct(Punct::PlusAssign) => BinOp::Add,
                    TokenKind::Punct(Punct::MinusAssign) => BinOp::Sub,
                    TokenKind::Punct(Punct::StarAssign) => BinOp::Mul,
                    _ => BinOp::Div,
                };
                let rhs = self.nested(Self::parse_assignment)?;
                Ok(Expr::Assign {
                    lhs: Box::new(lhs.clone()),
                    rhs: Box::new(Expr::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                        loc,
                    }),
                    loc,
                })
            }
            _ => Ok(lhs),
        }
    }

    fn parse_conditional(&mut self) -> Result<Expr, CompileError> {
        let cond = self.parse_binary(0)?;
        if self.eat_punct(Punct::Question) {
            let loc = cond.loc();
            let then_expr = self.parse_expr()?;
            self.expect_punct(Punct::Colon)?;
            let else_expr = self.nested(Self::parse_conditional)?;
            Ok(Expr::Conditional {
                cond: Box::new(cond),
                then_expr: Box::new(then_expr),
                else_expr: Box::new(else_expr),
                loc,
            })
        } else {
            Ok(cond)
        }
    }

    fn binop_for(p: Punct) -> Option<(BinOp, u8)> {
        use BinOp::*;
        Some(match p {
            Punct::OrOr => (LogicalOr, 1),
            Punct::AndAnd => (LogicalAnd, 2),
            Punct::Pipe => (BitOr, 3),
            Punct::Caret => (BitXor, 4),
            Punct::Amp => (BitAnd, 5),
            Punct::Eq => (Eq, 6),
            Punct::Ne => (Ne, 6),
            Punct::Lt => (Lt, 7),
            Punct::Le => (Le, 7),
            Punct::Gt => (Gt, 7),
            Punct::Ge => (Ge, 7),
            Punct::Shl => (Shl, 8),
            Punct::Shr => (Shr, 8),
            Punct::Plus => (Add, 9),
            Punct::Minus => (Sub, 9),
            Punct::Star => (Mul, 10),
            Punct::Slash => (Div, 10),
            Punct::Percent => (Rem, 10),
            _ => return None,
        })
    }

    /// The binary operator at the cursor, if it binds at least as tightly
    /// as `min_prec`.
    fn peek_binop(&self, min_prec: u8) -> Option<(BinOp, u8)> {
        match self.peek() {
            TokenKind::Punct(p) => Self::binop_for(*p).filter(|&(_, prec)| prec >= min_prec),
            _ => None,
        }
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = self.peek_binop(min_prec) {
            let loc = self.loc();
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                loc,
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, CompileError> {
        self.nested(Self::parse_unary_inner)
    }

    fn parse_unary_inner(&mut self) -> Result<Expr, CompileError> {
        let loc = self.loc();
        match self.peek().clone() {
            TokenKind::Punct(Punct::Minus) => {
                self.bump();
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    operand: Box::new(self.parse_unary()?),
                    loc,
                })
            }
            TokenKind::Punct(Punct::Bang) => {
                self.bump();
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    operand: Box::new(self.parse_unary()?),
                    loc,
                })
            }
            TokenKind::Punct(Punct::Tilde) => {
                self.bump();
                Ok(Expr::Unary {
                    op: UnOp::BitNot,
                    operand: Box::new(self.parse_unary()?),
                    loc,
                })
            }
            TokenKind::Punct(Punct::Star) => {
                self.bump();
                Ok(Expr::Deref(Box::new(self.parse_unary()?), loc))
            }
            TokenKind::Punct(Punct::Amp) => {
                self.bump();
                Ok(Expr::AddrOf(Box::new(self.parse_unary()?), loc))
            }
            TokenKind::Punct(Punct::PlusPlus) | TokenKind::Punct(Punct::MinusMinus) => {
                // Pre-increment/decrement: ++x  ==>  x = x + 1
                let op = if self.bump() == TokenKind::Punct(Punct::PlusPlus) {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                let target = self.parse_unary()?;
                Ok(Expr::Assign {
                    lhs: Box::new(target.clone()),
                    rhs: Box::new(Expr::Binary {
                        op,
                        lhs: Box::new(target),
                        rhs: Box::new(Expr::IntLit(1, loc)),
                        loc,
                    }),
                    loc,
                })
            }
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let ty = self.parse_type()?;
                let ty = self.parse_array_suffix(ty)?;
                self.expect_punct(Punct::RParen)?;
                Ok(Expr::SizeOf(ty, loc))
            }
            TokenKind::Keyword(Keyword::New) => {
                self.bump();
                let ty = self.parse_type()?;
                let count = if self.eat_punct(Punct::LBracket) {
                    let c = self.parse_expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    Some(Box::new(c))
                } else {
                    // `new T()` — empty constructor call.
                    if self.eat_punct(Punct::LParen) {
                        self.expect_punct(Punct::RParen)?;
                    }
                    None
                };
                Ok(Expr::New { ty, count, loc })
            }
            TokenKind::Keyword(Keyword::Delete) => {
                self.bump();
                // `delete[] p` — the `[]` is irrelevant to typing.
                if self.eat_punct(Punct::LBracket) {
                    self.expect_punct(Punct::RBracket)?;
                }
                let e = self.parse_unary()?;
                Ok(Expr::Delete {
                    expr: Box::new(e),
                    loc,
                })
            }
            TokenKind::Punct(Punct::LParen) if self.starts_type_after_lparen() => {
                // A C-style cast.
                self.bump();
                let ty = self.parse_type()?;
                self.expect_punct(Punct::RParen)?;
                let operand = self.parse_unary()?;
                Ok(Expr::Cast {
                    ty,
                    style: CastStyle::CStyle,
                    expr: Box::new(operand),
                    loc,
                })
            }
            _ => self.parse_postfix(),
        }
    }

    fn starts_type_after_lparen(&self) -> bool {
        match self.peek_at(1) {
            TokenKind::Keyword(k) => matches!(
                k,
                Keyword::Void
                    | Keyword::Bool
                    | Keyword::Char
                    | Keyword::Short
                    | Keyword::Int
                    | Keyword::Long
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Struct
                    | Keyword::Class
                    | Keyword::Union
                    | Keyword::Const
            ),
            TokenKind::Ident(name) => {
                // `(S *)x` or `(S)x` — only when S names a record type AND
                // the token after is `*` or `)` (otherwise it's a
                // parenthesised expression).
                self.record_tags.contains_key(name)
                    && matches!(
                        self.peek_at(2),
                        TokenKind::Punct(Punct::Star) | TokenKind::Punct(Punct::RParen)
                    )
            }
            _ => false,
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, CompileError> {
        let mut expr = self.parse_primary()?;
        loop {
            let loc = self.loc();
            match self.peek().clone() {
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let index = self.parse_expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    expr = Expr::Index {
                        base: Box::new(expr),
                        index: Box::new(index),
                        loc,
                    };
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.bump();
                    let field = self.expect_ident()?;
                    expr = Expr::Member {
                        base: Box::new(expr),
                        field,
                        arrow: false,
                        loc,
                    };
                }
                TokenKind::Punct(Punct::Arrow) => {
                    self.bump();
                    let field = self.expect_ident()?;
                    expr = Expr::Member {
                        base: Box::new(expr),
                        field,
                        arrow: true,
                        loc,
                    };
                }
                TokenKind::Punct(Punct::PlusPlus) | TokenKind::Punct(Punct::MinusMinus) => {
                    // Post-increment used as a statement: desugared to the
                    // same assignment as the pre-form (the value difference
                    // does not matter for the workloads, which use it in
                    // statement position).
                    let op = if self.bump() == TokenKind::Punct(Punct::PlusPlus) {
                        BinOp::Add
                    } else {
                        BinOp::Sub
                    };
                    expr = Expr::Assign {
                        lhs: Box::new(expr.clone()),
                        rhs: Box::new(Expr::Binary {
                            op,
                            lhs: Box::new(expr),
                            rhs: Box::new(Expr::IntLit(1, loc)),
                            loc,
                        }),
                        loc,
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn parse_primary(&mut self) -> Result<Expr, CompileError> {
        let loc = self.loc();
        match self.bump() {
            TokenKind::Int(v) => Ok(Expr::IntLit(v, loc)),
            TokenKind::Float(v) => Ok(Expr::FloatLit(v, loc)),
            TokenKind::Char(v) => Ok(Expr::IntLit(v, loc)),
            TokenKind::Str(s) => Ok(Expr::StrLit(s, loc)),
            TokenKind::Keyword(Keyword::True) => Ok(Expr::IntLit(1, loc)),
            TokenKind::Keyword(Keyword::False) => Ok(Expr::IntLit(0, loc)),
            TokenKind::Keyword(Keyword::Null) => Ok(Expr::Null(loc)),
            TokenKind::Punct(Punct::LParen) => {
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                // C++ named casts: static_cast<T>(e) etc.
                if let Some(style) = match name.as_str() {
                    "static_cast" => Some(CastStyle::Static),
                    "reinterpret_cast" => Some(CastStyle::Reinterpret),
                    "dynamic_cast" => Some(CastStyle::Dynamic),
                    "const_cast" => Some(CastStyle::Static),
                    _ => None,
                } {
                    self.expect_punct(Punct::Lt)?;
                    let ty = self.parse_type()?;
                    self.expect_punct(Punct::Gt)?;
                    self.expect_punct(Punct::LParen)?;
                    let e = self.parse_expr()?;
                    self.expect_punct(Punct::RParen)?;
                    return Ok(Expr::Cast {
                        ty,
                        style,
                        expr: Box::new(e),
                        loc,
                    });
                }
                if *self.peek() == TokenKind::Punct(Punct::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                        self.expect_punct(Punct::RParen)?;
                    }
                    Ok(Expr::Call {
                        callee: name,
                        args,
                        loc,
                    })
                } else {
                    Ok(Expr::Var(name, loc))
                }
            }
            other => Err(CompileError::new(
                ErrorKind::Parse,
                format!("unexpected token {other} in expression"),
                loc,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_struct_definition() {
        let unit = parse(
            "struct S { int a[3]; char *s; };
             struct T { float f; struct S t; };",
        )
        .unwrap();
        assert_eq!(unit.records.len(), 2);
        assert_eq!(unit.records[0].name, "S");
        assert_eq!(unit.records[0].fields[0].ty, Type::array(Type::int(), 3));
        assert_eq!(unit.records[0].fields[1].ty, Type::char_ptr());
        assert_eq!(unit.records[1].fields[1].ty, Type::struct_("S"));
    }

    #[test]
    fn parse_class_with_inheritance_and_virtual() {
        let unit = parse(
            "class Grammar { virtual int kind(); int g; };
             class SchemaGrammar : public Grammar { int extra; };",
        )
        .unwrap();
        assert!(unit.records[0].has_virtual);
        assert_eq!(unit.records[1].bases, vec!["Grammar".to_string()]);
        assert_eq!(unit.records[1].keyword, RecordKeyword::Class);
    }

    #[test]
    fn parse_union_and_fam() {
        let unit = parse(
            "union U { float a[10]; float b[20]; };
             struct Packet { int len; char data[]; };",
        )
        .unwrap();
        assert_eq!(unit.records[0].keyword, RecordKeyword::Union);
        assert_eq!(
            unit.records[1].fields[1].ty,
            Type::incomplete_array(Type::char_())
        );
    }

    #[test]
    fn parse_globals_and_functions() {
        let unit = parse(
            "struct S { int x; };
             S pool[8];
             int counter = 0;
             int sum(int *a, int len) {
                 int s = 0;
                 for (int i = 0; i < len; i++) { s += a[i]; }
                 return s;
             }",
        )
        .unwrap();
        assert_eq!(unit.globals.len(), 2);
        assert_eq!(unit.globals[0].ty, Type::array(Type::struct_("S"), 8));
        assert_eq!(unit.functions.len(), 1);
        let f = &unit.functions[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].ty, Type::ptr(Type::int()));
        assert_eq!(f.ret, Type::int());
    }

    #[test]
    fn parse_linked_list_walk() {
        // The paper's Figure 4 `length` function.
        let unit = parse(
            "struct node { int value; struct node *next; };
             int length(struct node *xs) {
                 int len = 0;
                 while (xs != NULL) {
                     len++;
                     xs = xs->next;
                 }
                 return len;
             }",
        )
        .unwrap();
        assert_eq!(unit.functions[0].name, "length");
    }

    #[test]
    fn parse_casts() {
        let unit = parse(
            "struct S { int x; };
             struct T { int y; };
             void f() {
                 void *p = malloc(sizeof(struct S));
                 struct S *s = (struct S *)p;
                 struct T *t = (T *)p;
                 T *u = static_cast<T *>(p);
                 T *v = reinterpret_cast<T *>(s);
             }",
        )
        .unwrap();
        let body = &unit.functions[0].body;
        assert_eq!(body.len(), 5);
        // The bare-identifier cast `(T *)p` parses as a cast, not a
        // multiplication, because `T` is a known record tag.
        match &body[2] {
            Stmt::Decl {
                init: Some(Expr::Cast { ty, style, .. }),
                ..
            } => {
                assert_eq!(*ty, Type::ptr(Type::struct_("T")));
                assert_eq!(*style, CastStyle::CStyle);
            }
            other => panic!("expected cast initialiser, got {other:?}"),
        }
        match &body[3] {
            Stmt::Decl {
                init: Some(Expr::Cast { style, .. }),
                ..
            } => {
                assert_eq!(*style, CastStyle::Static);
            }
            other => panic!("expected static_cast, got {other:?}"),
        }
    }

    #[test]
    fn parse_new_delete() {
        let unit = parse(
            "class T { int x; };
             void f() {
                 T *q = new T;
                 T *s = new T[100];
                 delete q;
                 delete[] s;
             }",
        )
        .unwrap();
        let body = &unit.functions[0].body;
        assert!(matches!(
            body[0],
            Stmt::Decl {
                init: Some(Expr::New { count: None, .. }),
                ..
            }
        ));
        assert!(matches!(
            body[1],
            Stmt::Decl {
                init: Some(Expr::New { count: Some(_), .. }),
                ..
            }
        ));
    }

    #[test]
    fn parse_operator_precedence() {
        let unit = parse("int f(int a, int b) { return a + b * 2 < 10 && b != 0; }").unwrap();
        match &unit.functions[0].body[0] {
            Stmt::Return(Some(Expr::Binary { op, .. }), _) => {
                assert_eq!(*op, BinOp::LogicalAnd);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_compound_assignment_and_increment() {
        let unit = parse("void f() { int i = 0; i += 2; i++; ++i; i--; }").unwrap();
        assert_eq!(unit.functions[0].body.len(), 5);
    }

    #[test]
    fn parse_member_chains() {
        let unit = parse(
            "struct S { int a[3]; };
             struct T { struct S s; struct T *next; };
             int f(struct T *t) { return t->next->s.a[2]; }",
        )
        .unwrap();
        assert_eq!(unit.functions.len(), 1);
    }

    #[test]
    fn parse_conditional_expression() {
        let unit = parse("int f(int a) { return a > 0 ? a : -a; }").unwrap();
        assert!(matches!(
            unit.functions[0].body[0],
            Stmt::Return(Some(Expr::Conditional { .. }), _)
        ));
    }

    #[test]
    fn parse_errors_are_reported_with_location() {
        let err = parse("int f( { }").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Parse);
        assert!(err.loc.line >= 1);
        assert!(parse("struct S { int x }").is_err()); // missing `;`
        assert!(parse("int f() { return }").is_err());
    }

    #[test]
    fn sizeof_of_types() {
        let unit = parse(
            "struct S { int x; };
             long f() { return sizeof(struct S) + sizeof(int) + sizeof(char *); }",
        )
        .unwrap();
        assert_eq!(unit.functions.len(), 1);
    }
}
