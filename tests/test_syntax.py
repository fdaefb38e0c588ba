import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probrange.cfg import Edge, build_cfg
from probrange.engine import build_equations, solve
from probrange.hardware import HardwareSpec
from probrange.syntax import (_LEVELS, ARITH_TOKENS, CMP_TOKENS, OPERATORS,
                              Assign, BinOp, Block, Cmp, Const, If, LexError,
                              ParseError, Program, Token, Var, While,
                              parse_program, tokenize, walk_exprs)

from helpers import (CORPUS, corpus_source, expr_vars, nested_program,
                     reference_is_arith, reference_is_condition,
                     reference_tokenize, to_source)


def test_tokenize_longest_match():
    kinds = [t.text for t in tokenize("x <=. 1 <. ==. !=. !.")[:-1]]
    assert kinds == ["x", "<=.", "1", "<.", "==.", "!=.", "!."]


def test_tokenize_tracks_lines_and_columns():
    tokens = tokenize("x =. 1;\ny =. 2;")
    y = next(t for t in tokens if t.text == "y")
    assert y.line == 2 and y.col == 1


def test_tokenize_comments():
    tokens = tokenize("x =. 1; // x =. 2;\ny =. 3;")
    assert "2" not in [t.text for t in tokens]


def test_lex_error_on_unknown_character():
    with pytest.raises(LexError):
        tokenize("x =. $;")


@pytest.mark.parametrize("ch", ["\u00b2", "\u0663", "\u00e9"],
                         ids=["superscript-two", "arabic-indic-three", "e-acute"])
def test_lex_error_on_non_ascii_digit_or_letter(ch):
    # literals and identifiers are ASCII: `²` is not the digit 2, nor `٣` 3
    with pytest.raises(LexError, match=f"^line 1, col 6: unexpected character '{ch}'$"):
        tokenize(f"x =. {ch};")


def test_lex_error_on_undotted_operator():
    with pytest.raises(LexError):
        parse_program("x = 3;")


def test_lex_error_on_literal_beyond_64_bits():
    with pytest.raises(LexError):
        tokenize(f"x =. {2**63};")
    tokenize(f"x =. {2**63 - 1};")  # still lexable


# text drawn from operators and their pieces, digits, letters, keywords,
# every kind of whitespace, `//`, characters outside ASCII and literals on
# both sides of 2**63 - 1
FRAGMENTS = (*OPERATORS, *"(){};,-+=!<>&|/*%.", "//", *"0123456789", "x",
             "_y1", "while", "if", "else", "int", "void", " ", " ", "\t",
             "\r", "\f", "\v", "\n", "\n", "\x1c", "\u00a0", "\u2028",
             "\u00b2", "\u00e9", "\u0663", "$", str(2**63 - 1), str(2**63),
             "9" * 25, "0" * 20 + "7")


def _lexed(lex, source: str):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(source)]
    except LexError as exc:
        return f"LexError: {exc}"


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
def test_tokenize_matches_the_character_loop(source):
    assert _lexed(tokenize, source) == _lexed(reference_tokenize, source)


def test_tokenize_matches_the_character_loop_on_the_corpus():
    for path in sorted(CORPUS.glob("*.up")):
        source = path.read_text()
        assert tokenize(source) == reference_tokenize(source), path.name


def test_token_equals_only_tokens():
    token = Token("num", "1", 2, 5)
    assert token == Token("num", "1", 2, 5)
    assert hash(token) == hash(Token("num", "1", 2, 5))
    assert token != ("num", "1", 2, 5) and ("num", "1", 2, 5) != token
    assert (token.kind, token.text, token.line, token.col) == ("num", "1", 2, 5)


def test_parse_simple_assignment():
    prog = parse_program("x =. 0;")
    assert prog.body.stmts == (Assign("x", Const(0)),)
    assert prog.name is None and prog.params == ()


def test_parse_fig1_shape():
    prog = parse_program(corpus_source("fig1.up"))
    assign, loop = prog.body.stmts
    assert assign == Assign("x", Const(0))
    assert isinstance(loop, While)
    assert loop.cond == Cmp("lt", Var("x"), Const(10))
    assert loop.body.stmts == (Assign("x", BinOp("add", Var("x"), Const(3))),)


def test_parse_function_header():
    prog = parse_program(corpus_source("collatz.up"))
    assert prog.name == "collatz_conjecture"
    assert prog.params == ("x",)
    loop = prog.body.stmts[1]
    branch = loop.body.stmts[0]
    assert isinstance(branch, If) and branch.orelse is not None
    assert branch.cond == Cmp("eq", BinOp("mod", Var("x"), Const(2)), Const(0))


def test_parse_multiple_params():
    prog = parse_program("void f(int a, int b, int c) { a =. b +. c; }")
    assert prog.params == ("a", "b", "c")


def test_duplicate_parameter_rejected():
    with pytest.raises(ParseError):
        parse_program("void f(int a, int a) { a =. 0; }")


def test_precedence_mul_over_add():
    prog = parse_program("x =. 1 +. 2 *. 3;")
    rhs = prog.body.stmts[0].value
    assert rhs == BinOp("add", Const(1), BinOp("mul", Const(2), Const(3)))


def test_precedence_parens():
    prog = parse_program("x =. (1 +. 2) *. 3;")
    rhs = prog.body.stmts[0].value
    assert rhs == BinOp("mul", BinOp("add", Const(1), Const(2)), Const(3))


def test_division_left_associative():
    rhs = parse_program("x =. 8 /. 4 /. 2;").body.stmts[0].value
    assert rhs == BinOp("div", BinOp("div", Const(8), Const(4)), Const(2))


def test_unary_sign_folds_into_literal():
    rhs = parse_program("x =. -5 +. +3;").body.stmts[0].value
    assert rhs == BinOp("add", Const(-5), Const(3))


def test_unary_minus_on_variable_rejected():
    with pytest.raises(ParseError):
        parse_program("x =. -y;")


def test_statement_must_be_assignment():
    with pytest.raises(ParseError):
        parse_program("x +. 1;")


def test_chained_assignment_rejected():
    with pytest.raises(ParseError):
        parse_program("x =. y =. 3;")


def test_assignment_rhs_must_be_arithmetic():
    with pytest.raises(ParseError):
        parse_program("x =. (y <. 3);")


@pytest.mark.parametrize("source, message", [
    ("x =. y =. 3;", "chained assignment is not allowed"),
    ("x =. (a <. b) +. 1 =. 2;", "chained assignment is not allowed"),
    ("x =. (y =. 3);", r"expected '\)'"),
    ("if (x =. 1) { x =. 0; }", "assignment is not allowed in a condition"),
    ("while (x <. 3 =. 2) { x =. 0; }", "assignment is not allowed in a condition"),
    ("while ((x <. 3) =. 1) { x =. 0; }", "assignment is not allowed in a condition"),
    ("x +. 1;", "expression statement must be an assignment"),
    ("3 =. x;", "expression statement must be an assignment"),
    ("(x) =. 3;", "expression statement must be an assignment"),
    ("while x <. 1 { x =. 1; }", r"expected '\('"),
    ("if (x <. 1 { x =. 1; }", r"expected '\)'"),
])
def test_misplaced_assignment_messages(source, message):
    with pytest.raises(ParseError, match=message):
        parse_program(source)


@pytest.mark.parametrize("source, message", [
    ("x =. int;", r"^line 1: expected an expression, got 'int'$"),
    ("void f(int a) { a =. int +. 1; }",
     r"^line 1: expected an expression, got 'int'$"),
    ("void f(7 a) { a =. a +. 1; }", r"^line 1: expected 'int', got '7'$"),
], ids=["keyword-as-literal", "keyword-in-expression", "literal-as-keyword"])
def test_keyword_int_and_a_literal_are_told_apart(source, message):
    # a literal's token kind is "num", which no keyword's text can be: the
    # keyword int is no literal, and a literal is no parameter's type
    with pytest.raises(ParseError, match=message):
        parse_program(source)


def test_condition_must_be_comparison_or_logical():
    with pytest.raises(ParseError):
        parse_program("while (x) { x =. 0; }")
    with pytest.raises(ParseError):
        parse_program("if (x =. 1) { x =. 0; }")


def test_chained_comparison_rejected():
    with pytest.raises(ParseError):
        parse_program("if (1 <. x <. 5) { x =. 0; }")


@pytest.mark.parametrize("keyword", ["while", "if"])
@pytest.mark.parametrize("guard, message", [
    ("x <. 1 &&. x >. 0", r"^line 2: expected '\)', got '&&\.'$"),
    ("x <. 1 ||. x >. 0", r"^line 2: expected '\)', got '\|\|\.'$"),
    ("!. (x ==. 0)", r"^line 2: expected an expression, got '!\.'$"),
], ids=["and", "or", "not"])
def test_compound_guard_is_a_parse_error(keyword, guard, message):
    # a guard is one comparison; the logical operators are tokens only
    with pytest.raises(ParseError, match=message):
        parse_program(f"x =. 0;\n{keyword} ({guard}) {{\n  x =. 1;\n}}\n")


# each operator's binding level, loosest 1; atoms are 5
_SHAPE_LEVELS = {t: i for i, level in enumerate(_LEVELS, 1) for t in level}


def _shape_tree(rng: random.Random, depth: int, cmp_chance: float):
    """A random expression tree with comparisons anywhere, the source text
    that parses back to it, and the binding level of that text: operands
    are parenthesized where precedence or left associativity needs it, and
    any subtree, the root included, now and then for no reason."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            leaf = Const(rng.randint(-3, 9))
            return leaf, str(leaf.value), 5
        leaf = Var(rng.choice("abc"))
        return leaf, leaf.name, 5
    table = CMP_TOKENS if rng.random() < cmp_chance else ARITH_TOKENS
    token = rng.choice(sorted(table))
    level = _SHAPE_LEVELS[token]
    lhs, ltext, llevel = _shape_tree(rng, depth - 1, cmp_chance)
    rhs, rtext, rlevel = _shape_tree(rng, depth - 1, cmp_chance)
    ltext = f"({ltext})" if llevel < level else ltext
    rtext = f"({rtext})" if rlevel <= level else rtext
    node = (Cmp if table is CMP_TOKENS else BinOp)(table[token], lhs, rhs)
    text = f"{ltext} {token} {rtext}"
    if rng.random() < 0.15:
        return node, f"({text})", 5
    return node, text, level


def test_shape_rule_matches_the_recursive_predicates():
    # the parser flags comparisons as it builds the operators; the
    # recursive predicates over the finished tree are the reference
    rng = random.Random(2)
    seen = Counter()
    for _ in range(2000):
        tree, text, _ = _shape_tree(rng, rng.randint(1, 4),
                                    rng.choice((0.0, 0.2, 0.5, 1.0)))
        for source, accepted, message, part in (
                (f"x =. {text};", reference_is_arith(tree),
                 "assignment right side must be an arithmetic expression",
                 lambda stmt: stmt.value),
                (f"if ({text}) {{ x =. 1; }}", reference_is_condition(tree),
                 "condition must compare arithmetic expressions",
                 lambda stmt: stmt.cond)):
            seen[source[0], accepted] += 1
            if accepted:
                assert part(parse_program(source).body.stmts[0]) == tree, source
            else:
                with pytest.raises(ParseError, match=f"^line 1: {message}$"):
                    parse_program(source)
    assert len(seen) == 4 and min(seen.values()) >= 200, seen


def test_parenthesized_condition():
    prog = parse_program("while ((x <. 10)) { x =. x +. 1; }")
    assert prog.body.stmts[0].cond == Cmp("lt", Var("x"), Const(10))


def test_unbraced_bodies():
    prog = parse_program("if (x >. 0)\n  x =. 1;\nelse\n  x =. 2;\n")
    branch = prog.body.stmts[0]
    assert branch.then.stmts == (Assign("x", Const(1)),)
    assert branch.orelse.stmts == (Assign("x", Const(2)),)


def test_empty_program_rejected():
    with pytest.raises(ParseError):
        parse_program("")
    with pytest.raises(ParseError):
        parse_program("// nothing here\n")


@pytest.mark.parametrize("shape, depth", [("parens", 200), ("ifs", 600)])
def test_deep_nesting_is_a_parse_error(shape, depth):
    # the parser recurses per parenthesis and per nested statement; running
    # out of stack is reported like any other malformed program
    with pytest.raises(ParseError, match="^program is nested too deeply$"):
        parse_program(nested_program(shape, depth))


def test_long_operator_chain_parses_and_fails_to_solve():
    # the parser builds a chain in a loop; compiling it recurses per operator
    program = parse_program(nested_program("chain", 1000))
    assert program.body.stmts[1].value.op == "add"
    spec = HardwareSpec.uniform(0.999, minint=-8, maxint=7)
    with pytest.raises(ParseError, match="^program is nested too deeply$"):
        solve(build_equations(build_cfg(program)), spec)


def test_missing_semicolon():
    with pytest.raises(ParseError):
        parse_program("x =. 1")


def test_missing_closing_brace():
    with pytest.raises(ParseError):
        parse_program("void f(int x) { x =. 1;")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_program("void f(int x) { x =. 1; } x =. 2;")


def test_statement_lines():
    prog = parse_program(corpus_source("collatz.up"))
    assign, loop = prog.body.stmts
    assert assign.line == 2
    assert loop.line == 3
    branch = loop.body.stmts[0]
    assert branch.line == 4
    assert branch.then.stmts[0].line == 5
    assert branch.orelse.stmts[0].line == 7


def test_expr_vars_distinct_sorted():
    rhs = parse_program("x =. y +. z *. y;").body.stmts[0].value
    assert expr_vars(rhs) == ("y", "z")


def test_program_vars_include_params_and_targets():
    prog = parse_program("void f(int a, int b) { c =. a; }")
    assert build_cfg(prog).variables == ("a", "b", "c")


def test_walk_exprs_sees_every_node():
    prog = parse_program("x =. y +. 2;")
    kinds = [type(n).__name__ for n in walk_exprs(prog.body.stmts[0].value)]
    assert kinds.count("BinOp") == 1
    assert kinds.count("Var") == 1
    assert kinds.count("Const") == 1


def _preorder(node) -> list:
    out = [node]
    if isinstance(node, (BinOp, Cmp)):
        out += _preorder(node.lhs) + _preorder(node.rhs)
    return out


def test_walk_exprs_is_preorder_without_recursion():
    prog = parse_program("x =. (a +. 1) *. (b -. c);\n"
                         "while (x %. 3 <. y) {\n"
                         "  y =. y +. 1;\n"
                         "}\n")
    assign, loop = prog.body.stmts
    roots = (assign.value, loop.cond, loop.body.stmts[0].value)
    expected = [n for root in roots for n in _preorder(root)]
    walked = [n for root in roots for n in walk_exprs(root)]
    assert list(map(id, walked)) == list(map(id, expected))
    deep = Var("x")
    for _ in range(5000):  # far deeper than the parser admits
        deep = BinOp("add", deep, Const(1))
    assert len(walk_exprs(deep)) == 10001


@pytest.mark.parametrize("name", ["fig1.up", "collatz.up", "counter.up",
                                  "factorial.up", "reverse.up", "gcd.up"])
def test_to_source_round_trips(name):
    prog = parse_program(corpus_source(name))
    printed = to_source(prog)
    assert parse_program(printed) == prog
    assert to_source(parse_program(printed)) == printed


def test_to_source_canonicalizes_braces():
    prog = parse_program("if (x >. 0)\n  x =. 1;\n")
    assert "{" in to_source(prog)


def test_parse_is_deterministic():
    src = corpus_source("collatz.up")
    assert parse_program(src) == parse_program(src)


def test_line_numbers_ignored_in_equality():
    a = parse_program("x =. 1;")
    b = parse_program("\n\nx =. 1;")
    assert a.body == b.body


X, TWO = Var("x"), Const(2)


@pytest.mark.parametrize("a, b", [
    (Const(1, line=3), Const(1, line=9)),
    (Var("x", 1), Var("x", 2)),
    (BinOp("add", Var("x", 1), Const(1, 1), 1), BinOp("add", X, Const(1), 5)),
    (Cmp("lt", X, TWO, line=2), Cmp("lt", X, TWO, line=7)),
    (Assign("x", TWO, 1), Assign("x", TWO, line=6)),
    (Block((Assign("x", TWO),), 4), Block((Assign("x", TWO),), end_line=11)),
    (While(Cmp("lt", X, TWO), Block(()), 2), While(Cmp("lt", X, TWO), Block(()))),
    (If(Cmp("lt", X, TWO), Block(()), None, 2), If(Cmp("lt", X, TWO), Block(()))),
    (Program(None, (), Block(()), 5), Program(None, (), Block(()))),
])
def test_records_leave_lines_out_of_eq_and_hash(a, b):
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("a, b", [
    (Cmp("lt", X, TWO), BinOp("lt", X, TWO)),
    (Const("x"), Var("x")),
    (Token("num", "2", 1, 1), Token("num", "2", 2, 1)),
    (Const(1), 1),
    (Const(1, 0), (1, 0)),  # a record is a tuple, yet no plain one equals it
    (Edge(0, 1, None), (0, 1, None)),
])
def test_records_differ_across_classes_and_fields(a, b):
    assert a != b and b != a and not a == b and not b == a


@pytest.mark.parametrize("record, text", [
    (Const(1, line=3), "Const(value=1, line=3)"),
    (Token("int", "1", 2, 5), "Token(kind='int', text='1', line=2, col=5)"),
    (Assign("x", Var("y")), "Assign(target='x', value=Var(name='y', line=0), line=0)"),
    (Block(()), "Block(stmts=(), end_line=0)"),
    (Program(None, (), Block(())),
     "Program(name=None, params=(), body=Block(stmts=(), end_line=0), line=1)"),
])
def test_record_repr_lists_every_field(record, text):
    assert repr(record) == text
