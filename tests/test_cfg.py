import inspect
import random
import sys
from pathlib import Path

import pytest

from probrange.cfg import (CFG, GuardAction, build_cfg, collect_thresholds,
                           loop_heads)
from probrange.syntax import Assign, CMP_TOKENS, ParseError, parse_program

from helpers import (CORPUS, action_source, corpus_source, exits,
                     loop_heads_dfs, loop_program, nested_program,
                     random_program, reference_program_vars, reference_wto,
                     structured_program)

GOLDEN = Path(__file__).parent / "golden"


def _cfg(name_or_source: str):
    source = corpus_source(name_or_source) if name_or_source.endswith(".up") \
        else name_or_source
    return build_cfg(parse_program(source))


def _edge_set(cfg):
    return {(e.src, e.dst, action_source(e.action)) for e in cfg.edges}


def test_fig1_shape():
    cfg = _cfg("fig1.up")
    assert cfg.lines == [1, 2, 3, 4]
    assert cfg.entry == 0
    assert exits(cfg) == (3,)
    assert _edge_set(cfg) == {
        (0, 1, "x =. 0"),
        (1, 2, "x <. 10"),
        (2, 1, "x =. x +. 3"),
        (1, 3, "x >=. 10"),
    }


def test_collatz_shape():
    cfg = _cfg("collatz.up")
    assert cfg.lines == [1, 3, 4, 5, 7, 8]
    assert cfg.variables == ("x",)
    assert _edge_set(cfg) == {
        (0, 1, "x =. 10"),
        (1, 2, "x >. 1"),
        (2, 3, "x %. 2 ==. 0"),
        (2, 4, "x %. 2 !=. 0"),
        (3, 1, "x =. x /. 2"),
        (4, 1, "x =. 3 *. x +. 1"),
        (1, 5, "x <=. 1"),
    }


def test_branch_edges_negate_each_other():
    cfg = _cfg("if (x >. 0) {\n  x =. 1;\n} else {\n  x =. 2;\n}\n")
    guards = [e.action for e in cfg.edges if isinstance(e.action, GuardAction)]
    assert len(guards) == 2
    # both edges hold the comparison as parsed and test opposite operators
    assert guards[0].cond is guards[1].cond
    assert guards[0].cond.op == "gt"
    assert {g.op for g in guards} == {"gt", "le"}


def test_if_without_else_gets_fallthrough_edge():
    cfg = _cfg("x =. 0;\nif (x ==. 0) {\n  x =. 1;\n}\nx =. 2;\n")
    ops = [e.action.op for e in cfg.edges
           if isinstance(e.action, GuardAction)]
    assert sorted(ops) == ["eq", "ne"]


def test_negate_guard_covers_all_ops():
    # every operator's true edge (to line 2) tests it, and its false edge (to
    # line 4) tests its negation, in an if and in a while
    pairs = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt",
             "eq": "ne", "ne": "eq"}
    for token, op in CMP_TOKENS.items():
        for source in (f"if (x {token} 0) {{\n  y =. 1;\n}} else {{\n"
                       f"  y =. 2;\n}}\n",
                       f"while (x {token} 0) {{\n  y =. 1;\n}}\ny =. 2;\n"):
            cfg = _cfg(source)
            tests = {cfg.lines[e.dst]: e.action.op for e in cfg.edges
                     if isinstance(e.action, GuardAction)}
            assert tests == {2: op, 4: pairs[op]}, source


def test_loop_heads():
    assert loop_heads(_cfg("fig1.up")) == {1}
    assert loop_heads(_cfg("collatz.up")) == {1}
    assert loop_heads(_cfg("x =. 0;\nif (x >. 0) {\n  x =. 1;\n}\n")) == set()


def test_nested_loops_have_two_heads():
    cfg = _cfg("while (x >. 0) {\n"
               "  while (y >. 0) {\n"
               "    y =. y -. 1;\n"
               "  }\n"
               "  x =. x -. 1;\n"
               "}\n")
    assert len(loop_heads(cfg)) == 2


def test_empty_loop_body_self_loop():
    cfg = _cfg("while (x >. 0) {\n}\n")
    assert any(e.src == e.dst for e in cfg.edges)
    assert loop_heads(cfg)


def test_wto_puts_an_if_join_after_both_branches():
    # build_cfg numbers the join (3) before the branches (4 and 5); the loop
    # is one component headed by 1, the exit (6) follows it
    cfg = _cfg("x =. 0;\n"
               "while (x <. 9) {\n"
               "  if (x >. 4) {\n"
               "    x =. x +. 2;\n"
               "  } else {\n"
               "    x =. x +. 1;\n"
               "  }\n"
               "  y =. x;\n"
               "}\n")
    assert (cfg.order, cfg.heads) == ((0, 1, 2, 5, 4, 3, 6), {1})


def _wto_programs():
    sources = [(CORPUS / f"{name}.up").read_text() for name in
               ("collatz", "counter", "factorial", "fig1", "gcd", "reverse")]
    sources += [(GOLDEN / f"{name}.up").read_text()
                for name in ("emptyloop", "loops2", "loops4")]
    # the bench's loop family, with its two sets of trip counts
    sources += [loop_program(random.Random(seed),
                             (2, 4) if seed % 2 else (2, 3, 4, 5))
                for seed in range(50)]
    sources.append(nested_program("whiles", 300))
    return sources


def test_wto_heads_are_the_dfs_back_edge_targets():
    # and every edge that runs backwards in the order enters a head, so a
    # pass in that order widens on every cycle
    for source in _wto_programs():
        cfg = build_cfg(parse_program(source))
        assert cfg.heads == loop_heads_dfs(cfg) == loop_heads(cfg)
        assert sorted(cfg.order) == list(range(cfg.node_count))
        position = {node: i for i, node in enumerate(cfg.order)}
        for e in cfg.edges:
            assert position[e.src] < position[e.dst] or e.dst in cfg.heads


def test_builder_lays_out_bourdoncles_wto():
    # the order and heads the general search finds, on the structured shapes
    # too: nested loops, empty and missing branches, empty loop bodies
    sources = _wto_programs() + ["void f() { }"]
    sources += [structured_program(random.Random(seed)) for seed in range(1000)]
    for source in sources:
        cfg = build_cfg(parse_program(source))
        assert (cfg.order, cfg.heads) == reference_wto(cfg), source


def test_builder_collects_the_program_variables():
    # the parameters, targets and read variables the second statement walk
    # finds, on every shape that walk could miss: unread parameters, empty
    # branches and bodies, variables read only in a guard
    sources = [(CORPUS / f"{name}.up").read_text() for name in
               ("collatz", "counter", "factorial", "fig1", "gcd", "reverse")]
    sources += [path.read_text() for path in sorted(GOLDEN.glob("*.up"))]
    sources += [structured_program(random.Random(seed)) for seed in range(1000)]
    sources += [random_program(random.Random(seed)) for seed in range(200)]
    sources += [loop_program(random.Random(seed)) for seed in range(200)]
    for source in sources:
        program = parse_program(source)
        assert build_cfg(program).variables == \
            reference_program_vars(program), source


@pytest.mark.parametrize("shape", ["whiles", "ifs", "bare-whiles",
                                   "bare-ifs"])
def test_the_deepest_program_the_parser_admits_builds(shape):
    # build_cfg spends two frames per nesting level, thread and emit, no
    # more than the parser spends on a body without braces, and a few frames
    # fewer in all
    depth, program = 300, parse_program(nested_program(shape, 300))
    while True:
        try:
            program = parse_program(nested_program(shape, depth + 1))
        except ParseError:
            break
        depth += 1
    cfg = build_cfg(program)
    assert len(cfg.order) == cfg.node_count


def test_a_stack_too_shallow_to_build_on_is_a_parse_error():
    # the parser's message, not a RecursionError, should the stack run out
    program = parse_program(nested_program("bare-whiles", 200))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(ParseError, match="nested too deeply"):
            build_cfg(program)
    finally:
        sys.setrecursionlimit(limit)


def test_thresholds_fig1():
    cfg = _cfg("fig1.up")
    assert collect_thresholds(cfg, -32768, 32767) == \
        (-32768, 0, 3, 9, 10, 32767)


def test_thresholds_collatz():
    cfg = _cfg("collatz.up")
    assert collect_thresholds(cfg, -32768, 32767) == \
        (-32768, 0, 1, 2, 3, 10, 32767)


@pytest.mark.parametrize("guard, full, small", [
    # an edge testing `<.` against a literal c adds c-1, clamped
    ("x <. 10", (-32768, 9, 10, 32767), (-8, 7)),
    ("x >=. 5", (-32768, 4, 5, 32767), (-8, 4, 5, 7)),
    ("3 <. 5", (-32768, 3, 4, 5, 32767), (-8, 3, 4, 5, 7)),
    ("x <. -32768", (-32768, 32767), (-8, 7)),
    ("x <. -8", (-32768, -9, -8, 32767), (-8, 7)),
    # no literal right side of `<.`, or no `<.` on either edge: no c-1
    ("5 <. x", (-32768, 5, 32767), (-8, 5, 7)),
    ("x >. 4", (-32768, 4, 32767), (-8, 4, 7)),
    ("x <. y", (-32768, 32767), (-8, 7)),
])
def test_thresholds_guard_shapes(guard, full, small):
    cfg = _cfg(f"if ({guard}) {{\n}}\n")
    assert collect_thresholds(cfg, -32768, 32767) == full
    assert collect_thresholds(cfg, -8, 7) == small


def test_thresholds_constant_free():
    cfg = _cfg("x =. y;")
    assert collect_thresholds(cfg, -32768, 32767) == (-32768, 32767)


def test_thresholds_clamped_to_bounds():
    cfg = _cfg("x =. 100;")
    assert collect_thresholds(cfg, -8, 8) == (-8, 8)


def test_variables_include_params():
    cfg = _cfg("gcd.up")
    assert cfg.variables == ("a", "b", "t")


def test_preds_and_succs_agree_with_edges():
    cfg = _cfg("collatz.up")
    preds = cfg.preds()
    succs = cfg.succs()
    for e in cfg.edges:
        assert e in preds[e.dst]
        assert e.dst in succs[e.src]
    assert sum(len(p) for p in preds) == len(cfg.edges)


def test_straight_line_chain():
    cfg = _cfg("x =. 1;\ny =. 2;\nz =. x +. y;\n")
    assert cfg.lines == [1, 2, 3, 3]
    actions = [e.action for e in cfg.edges]
    # each assignment edge holds its statement as parsed, line included
    assert all(isinstance(a, Assign) for a in actions)
    assert [a.target for a in actions] == ["x", "y", "z"]
    assert [a.line for a in actions] == [1, 2, 3]
    assert exits(cfg) == (3,)


def test_single_node_cfg_is_representable():
    cfg = CFG(lines=[1], edges=[], variables=("x",), order=(0,),
              heads=frozenset())
    assert cfg.node_count == 1
    assert exits(cfg) == (0,)
    assert loop_heads(cfg) == set()
