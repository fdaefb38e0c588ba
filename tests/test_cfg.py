from probrange.cfg import (CFG, AssignAction, GuardAction, build_cfg,
                           canonicalize_guard, collect_thresholds, loop_heads,
                           negate_guard)
from probrange.syntax import BinOp, Cmp, Const, Var, parse_program

from helpers import corpus_source


def _cfg(name_or_source: str):
    source = corpus_source(name_or_source) if name_or_source.endswith(".up") \
        else name_or_source
    return build_cfg(parse_program(source))


def _edge_set(cfg):
    return {(e.src, e.dst, str(e.action)) for e in cfg.edges}


def test_fig1_shape():
    cfg = _cfg("fig1.up")
    assert cfg.lines == [1, 2, 3, 4]
    assert cfg.entry == 0
    assert cfg.exits == (3,)
    assert _edge_set(cfg) == {
        (0, 1, "x =. 0"),
        (1, 2, "x <=. 9"),
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
    guards = [e.action.cond for e in cfg.edges
              if isinstance(e.action, GuardAction)]
    assert len(guards) == 2
    assert {g.op for g in guards} == {"gt", "le"}


def test_if_without_else_gets_fallthrough_edge():
    cfg = _cfg("x =. 0;\nif (x ==. 0) {\n  x =. 1;\n}\nx =. 2;\n")
    ops = [e.action.cond.op for e in cfg.edges
           if isinstance(e.action, GuardAction)]
    assert sorted(ops) == ["eq", "ne"]


def test_canonicalize_lt_const():
    rewritten = canonicalize_guard(Cmp("lt", Var("x"), Const(10)))
    assert rewritten == Cmp("le", Var("x"), Const(9))
    unchanged = canonicalize_guard(Cmp("lt", Var("x"), Var("y")))
    assert unchanged.op == "lt"
    assert canonicalize_guard(Cmp("gt", Var("x"), Const(10))).op == "gt"


def test_negate_guard_covers_all_ops():
    pairs = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt",
             "eq": "ne", "ne": "eq"}
    for op, negated in pairs.items():
        assert negate_guard(Cmp(op, Var("x"), Const(0))).op == negated


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


def test_thresholds_fig1():
    cfg = _cfg("fig1.up")
    assert collect_thresholds(cfg, -32768, 32767) == \
        (-32768, 0, 3, 9, 10, 32767)


def test_thresholds_collatz():
    cfg = _cfg("collatz.up")
    assert collect_thresholds(cfg, -32768, 32767) == \
        (-32768, 0, 1, 2, 3, 10, 32767)


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
    assert all(isinstance(a, AssignAction) for a in actions)
    assert [a.target for a in actions] == ["x", "y", "z"]
    assert cfg.exits == (3,)


def test_single_node_cfg_is_representable():
    cfg = CFG(lines=[1], edges=[], variables=("x",))
    assert cfg.node_count == 1
    assert cfg.exits == (0,)
    assert loop_heads(cfg) == set()
