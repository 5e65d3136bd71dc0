//! Recursive-descent parser for Mini-C/C++.
//!
//! The parser resolves type syntax straight to [`effective_types::Type`]
//! values and keeps a table of record tags so that, as in C++, a defined
//! record can be named without the `struct`/`class`/`union` keyword.
//!
//! A declaration is a base type followed by declarators, each with its
//! own `*`s, name, array suffix and optional initialiser; record fields,
//! globals, locals, `for` init clauses and parameters all go through the
//! one declarator routine.  A local declaration adds one `Stmt::Decl` per
//! declarator to the enclosing block.  `=`, `op=` and `++`/`--` build one
//! [`Expr::Assign`] node that holds its target once, never a copy of it.

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

    /// Parse a type name (as in casts, `sizeof` and `new`): a base type
    /// followed by any number of `*`s.
    fn parse_type(&mut self) -> Result<Type, CompileError> {
        let base = self.parse_base_type()?;
        Ok(self.parse_pointers(base))
    }

    /// Wrap `ty` in one pointer per `*`.  `const` after a `*` is accepted
    /// and ignored (qualifier-free dynamic types), and a trailing `&` is a
    /// C++ reference, treated as a pointer (§6 "Limitations").
    fn parse_pointers(&mut self, mut ty: Type) -> Type {
        while self.eat_punct(Punct::Star) {
            ty = Type::ptr(ty);
            self.eat_keyword(Keyword::Const);
        }
        if self.eat_punct(Punct::Amp) {
            ty = Type::ptr(ty);
        }
        ty
    }

    /// Parse one declarator applied to `base`: its own `*`s, the name and
    /// any array suffix.  In `T *a, b;` only `a` is a pointer.
    fn parse_declarator(&mut self, base: &Type) -> Result<(String, Type), CompileError> {
        let ty = self.parse_pointers(base.clone());
        let name = self.expect_ident()?;
        let ty = self.parse_array_suffix(ty)?;
        Ok((name, ty))
    }

    /// Parse the declarators that follow `base` in a declaration, each
    /// with an optional `= init`, through the closing `;`.
    fn parse_declarators(&mut self, base: &Type) -> Result<Vec<VarDecl>, CompileError> {
        let mut decls = Vec::new();
        loop {
            let loc = self.loc();
            let (name, ty) = self.parse_declarator(base)?;
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.parse_expr()?)
            } else {
                None
            };
            decls.push(VarDecl {
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
        Ok(decls)
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
            let base = self.parse_base_type()?;
            for d in self.parse_declarators(&base)? {
                if d.init.is_some() {
                    return Err(CompileError::new(
                        ErrorKind::Parse,
                        format!("field `{}` has an initialiser", d.name),
                        d.loc,
                    ));
                }
                fields.push(FieldDecl {
                    name: d.name,
                    ty: d.ty,
                    loc: d.loc,
                });
            }
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
        let base = self.parse_base_type()?;
        // A first declarator followed by `(` names a function; otherwise
        // the declarators are re-read as global variables.
        let start = self.pos;
        let (name, ret) = self.parse_declarator(&base)?;
        if !self.eat_punct(Punct::LParen) {
            self.pos = start;
            unit.globals.extend(self.parse_declarators(&base)?);
            return Ok(());
        }
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
                let pbase = self.parse_base_type()?;
                let (pname, pty) = self.parse_declarator(&pbase)?;
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
            ret,
            params,
            body,
            loc,
        });
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
            self.parse_stmt(&mut stmts)?;
        }
        Ok(stmts)
    }

    /// Parse one statement onto the end of `out`.  A declaration adds one
    /// [`Stmt::Decl`] per declarator to the enclosing block, so its names
    /// are visible to the statements that follow.
    fn parse_stmt(&mut self, out: &mut Vec<Stmt>) -> Result<(), CompileError> {
        self.nested(|p| p.parse_stmt_inner(out))
    }

    fn parse_stmt_inner(&mut self, out: &mut Vec<Stmt>) -> Result<(), CompileError> {
        let loc = self.loc();
        let stmt = match self.peek().clone() {
            TokenKind::Punct(Punct::LBrace) => {
                self.bump();
                Stmt::Block(self.parse_block_body()?)
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
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    loc,
                }
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.parse_stmt_as_block()?;
                Stmt::While { cond, body, loc }
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
                Stmt::DoWhile { body, cond, loc }
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let mut init = Vec::new();
                if !self.eat_punct(Punct::Semi) {
                    self.parse_simple_stmt(&mut init)?;
                }
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
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    loc,
                }
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
                Stmt::Return(value, loc)
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Stmt::Break(loc)
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Stmt::Continue(loc)
            }
            _ => return self.parse_simple_stmt(out),
        };
        out.push(stmt);
        Ok(())
    }

    fn parse_stmt_as_block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        if self.eat_punct(Punct::LBrace) {
            self.parse_block_body()
        } else {
            let mut stmts = Vec::new();
            self.parse_stmt(&mut stmts)?;
            Ok(stmts)
        }
    }

    /// Parse a declaration or an expression statement, through its `;`,
    /// onto the end of `out` (statements and `for` init clauses).  Only
    /// type keywords and known record tags start a declaration, so
    /// `S * p;` declares a pointer while `s * p;` multiplies.
    fn parse_simple_stmt(&mut self, out: &mut Vec<Stmt>) -> Result<(), CompileError> {
        if self.starts_type() {
            let base = self.parse_base_type()?;
            out.extend(self.parse_declarators(&base)?.into_iter().map(Stmt::Decl));
        } else {
            let e = self.parse_expr()?;
            self.expect_punct(Punct::Semi)?;
            out.push(Stmt::Expr(e));
        }
        Ok(())
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
        let op = match self.peek() {
            TokenKind::Punct(Punct::Assign) => None,
            TokenKind::Punct(Punct::PlusAssign) => Some(BinOp::Add),
            TokenKind::Punct(Punct::MinusAssign) => Some(BinOp::Sub),
            TokenKind::Punct(Punct::StarAssign) => Some(BinOp::Mul),
            TokenKind::Punct(Punct::SlashAssign) => Some(BinOp::Div),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.nested(Self::parse_assignment)?;
        Ok(Expr::Assign {
            lhs: Box::new(lhs),
            op,
            rhs: Box::new(rhs),
            postfix: false,
            loc,
        })
    }

    /// `++target` / `--target` (or the postfix forms): `target ±= 1`.
    fn increment(target: Expr, token: TokenKind, postfix: bool, loc: Loc) -> Expr {
        let op = if token == TokenKind::Punct(Punct::PlusPlus) {
            BinOp::Add
        } else {
            BinOp::Sub
        };
        Expr::Assign {
            lhs: Box::new(target),
            op: Some(op),
            rhs: Box::new(Expr::IntLit(1, loc)),
            postfix,
            loc,
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
                let token = self.bump();
                let target = self.parse_unary()?;
                Ok(Self::increment(target, token, false, loc))
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
                    let token = self.bump();
                    expr = Self::increment(expr, token, true, loc);
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
            Stmt::Decl(VarDecl {
                init: Some(Expr::Cast { ty, style, .. }),
                ..
            }) => {
                assert_eq!(*ty, Type::ptr(Type::struct_("T")));
                assert_eq!(*style, CastStyle::CStyle);
            }
            other => panic!("expected cast initialiser, got {other:?}"),
        }
        match &body[3] {
            Stmt::Decl(VarDecl {
                init: Some(Expr::Cast { style, .. }),
                ..
            }) => {
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
            Stmt::Decl(VarDecl {
                init: Some(Expr::New { count: None, .. }),
                ..
            })
        ));
        assert!(matches!(
            body[1],
            Stmt::Decl(VarDecl {
                init: Some(Expr::New { count: Some(_), .. }),
                ..
            })
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
    fn every_declarator_takes_its_own_stars_and_suffix() {
        let unit = parse(
            "struct S { int *a, b; char *d[2], **e; };
             int g = 1, *gp, arr[3];
             int f(int *x, int y[4]) {
                 int *p, q = 2;
                 for (int i = 0, *j; i < 1; i++) { }
                 return q;
             }",
        )
        .unwrap();
        let fields: Vec<_> = unit.records[0].fields.iter().map(|f| &f.ty).collect();
        let int_ptr = Type::ptr(Type::int());
        assert_eq!(
            fields,
            [
                &int_ptr,
                &Type::int(),
                &Type::array(Type::char_ptr(), 2),
                &Type::ptr(Type::char_ptr()),
            ]
        );
        let globals: Vec<_> = unit.globals.iter().map(|g| (&g.name[..], &g.ty)).collect();
        assert_eq!(
            globals,
            [
                ("g", &Type::int()),
                ("gp", &int_ptr),
                ("arr", &Type::array(Type::int(), 3)),
            ]
        );
        assert!(unit.globals[0].init.is_some() && unit.globals[1].init.is_none());
        let f = &unit.functions[0];
        assert_eq!(f.params[0].ty, int_ptr);
        assert_eq!(f.params[1].ty, int_ptr);
        // Both local declarators land in the function body itself, and
        // the `for` init keeps its two declarations.
        let decl_ty = |s: &Stmt| match s {
            Stmt::Decl(d) => d.ty.clone(),
            other => panic!("expected a declaration, got {other:?}"),
        };
        assert_eq!(f.body.len(), 4);
        assert_eq!(decl_ty(&f.body[0]), int_ptr);
        assert_eq!(decl_ty(&f.body[1]), Type::int());
        match &f.body[2] {
            Stmt::For { init, .. } => {
                assert_eq!(
                    init.iter().map(decl_ty).collect::<Vec<_>>(),
                    [Type::int(), int_ptr]
                );
            }
            other => panic!("expected a for loop, got {other:?}"),
        }
    }

    #[test]
    fn field_initialisers_are_rejected() {
        assert!(parse("struct S { int a = 1; };").is_err());
    }

    #[test]
    fn assignment_forms_share_one_node() {
        let unit = parse("void f(int *a, int i) { a[i] = 1; a[i] += 2; i++; --a[i]; }").unwrap();
        let forms: Vec<_> = unit.functions[0]
            .body
            .iter()
            .map(|s| match s {
                Stmt::Expr(Expr::Assign {
                    lhs, op, postfix, ..
                }) => (matches!(**lhs, Expr::Index { .. }), *op, *postfix),
                other => panic!("expected an assignment, got {other:?}"),
            })
            .collect();
        assert_eq!(
            forms,
            [
                (true, None, false),
                (true, Some(BinOp::Add), false),
                (false, Some(BinOp::Add), true),
                (true, Some(BinOp::Sub), false),
            ]
        );
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
