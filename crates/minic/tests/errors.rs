//! Error-path tests for the minic frontend: malformed input must surface
//! as `minic::error::CompileError` diagnostics with the right stage and a
//! usable location — never as a panic.

use minic::{compile, ErrorKind};

/// Compile and expect a diagnostic, returning it for further assertions.
fn expect_error(src: &str) -> minic::CompileError {
    match compile(src) {
        Ok(_) => panic!("source should not compile:\n{src}"),
        Err(e) => e,
    }
}

#[test]
fn malformed_struct_decls_are_parse_errors() {
    for src in [
        // Missing closing brace.
        "struct S { int a;",
        // Missing field name.
        "struct S { int; };",
        // Missing semicolon after the body.
        "struct S { int a; } int main() { return 0; }",
        // Garbage where a field type should be.
        "struct S { 42 a; };",
        // Nested brace soup.
        "struct S { struct { int; };",
    ] {
        let err = expect_error(src);
        assert_eq!(
            err.kind,
            ErrorKind::Parse,
            "wrong stage for:\n{src}\n→ {err}"
        );
        assert!(err.loc.line >= 1, "missing location for:\n{src}");
    }
}

#[test]
fn unterminated_literals_are_lex_errors() {
    for src in [
        "char *s = \"unterminated;",
        "int c = 'x;",
        "int c = ';",
        "char *s = \"bad escape \\",
        "/* comment that never ends",
    ] {
        let err = expect_error(src);
        assert_eq!(err.kind, ErrorKind::Lex, "wrong stage for:\n{src}\n→ {err}");
    }
}

#[test]
fn bad_casts_are_diagnosed_not_panicked() {
    // Casting to a pointer to an undefined struct is fine in C (incomplete
    // type) — but *using* it must be a compile-time diagnostic.
    let err = expect_error(
        "int main() {
             struct nope *p = (struct nope *)malloc(8);
             p->field = 1;
             return 0;
         }",
    );
    assert!(
        err.kind == ErrorKind::Sema || err.kind == ErrorKind::Lower,
        "expected a semantic diagnostic, got {err}"
    );

    // A cast *to* a record type by value is a constraint violation.
    let err = expect_error(
        "struct S { int a; };
         int main() { int x = 1; struct S s = (struct S)x; return 0; }",
    );
    assert_eq!(
        err.kind,
        ErrorKind::Sema,
        "cast-to-record should be sema: {err}"
    );

    // In this dialect a record rvalue decays to its address (like arrays),
    // so casting it onward is well-formed; it must still compile cleanly
    // rather than panic.
    assert!(compile(
        "struct S { int a; };
         int main() { struct S s; int *p = (int *)s; return 0; }",
    )
    .is_ok());

    // Cast with a missing operand.
    let err = expect_error("int main() { int x = (int); return 0; }");
    assert_eq!(err.kind, ErrorKind::Parse);
}

#[test]
fn diagnostics_render_with_stage_and_location() {
    let err = expect_error("struct S { int a;");
    let rendered = err.to_string();
    assert!(
        rendered.contains("parse error"),
        "rendered diagnostic should name the stage: {rendered}"
    );
    assert!(
        rendered.contains(&format!("{}:{}", err.loc.line, err.loc.col)),
        "rendered diagnostic should include the location: {rendered}"
    );
}

#[test]
fn errors_never_escape_as_panics_on_fuzzy_inputs() {
    // A grab-bag of hostile inputs; every one must return Ok or Err,
    // never panic.
    for src in [
        "",
        ";",
        "}{",
        "int",
        "int main(",
        "int main() { return",
        "int main() { (((((((((( }",
        "struct struct struct",
        "int a = 0x; ",
        "int main() { int x = 1 +; }",
        "\u{0}\u{1}\u{2}",
        "int main() { char *p = \"\\q\"; }",
        "struct S { struct S s; };",
    ] {
        let _ = compile(src);
    }
}

/// Run `f` on a thread with a 2 MiB stack — the size of a default Rust
/// test or spawned thread — so a recursion that only fits the larger
/// main-thread stack fails here.
fn on_small_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(scope, f)
            .expect("spawn small-stack thread")
            .join()
            .expect("compile overflowed or panicked on a 2 MiB stack")
    })
}

/// `int main() { return <n × "(">1<n × ")">; }`.
fn nested_parens(n: usize) -> String {
    format!(
        "int main() {{ return {}1{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    )
}

/// `int main() { <n × "{"> <n × "}"> return 0; }`.
fn nested_blocks(n: usize) -> String {
    format!(
        "int main() {{ {}{} return 0; }}",
        "{".repeat(n),
        "}".repeat(n)
    )
}

/// `int main() { int x = 1; return <n × "~ ">x; }` — unlike parentheses,
/// every level is an AST node that lowering recurses through.
fn nested_unary(n: usize) -> String {
    format!("int main() {{ int x = 1; return {}x; }}", "~ ".repeat(n))
}

fn assert_depth_error(src: &str) {
    let err = expect_error(src);
    assert_eq!(err.kind, ErrorKind::Parse, "{err}");
    assert!(
        err.message
            .contains(&minic::parser::MAX_NESTING_DEPTH.to_string()),
        "the error should name the depth limit: {err}"
    );
}

#[test]
fn pathological_nesting_is_a_parse_error_not_a_stack_overflow() {
    on_small_stack(|| {
        assert_depth_error(&nested_parens(5_000));
        assert_depth_error(&nested_blocks(100_000));
    });
}

#[test]
fn the_deepest_accepted_nesting_parses_and_lowers_on_a_small_stack() {
    let limit = minic::parser::MAX_NESTING_DEPTH;
    for nest in [nested_parens, nested_blocks, nested_unary] {
        on_small_stack(|| {
            let deepest = (0..=limit)
                .rev()
                .find(|&n| compile(&nest(n)).is_ok())
                .expect("shallow nesting compiles");
            // The enclosing function body and `return` cost a level or
            // two; the limit is otherwise the nesting the source shows.
            assert!(
                deepest + 3 >= limit,
                "only {deepest} of {limit} levels accepted"
            );
            assert_depth_error(&nest(deepest + 1));
        });
    }
}
