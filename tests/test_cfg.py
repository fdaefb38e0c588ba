import random
from pathlib import Path

from probrange.cfg import (CFG, AssignAction, Edge, GuardAction, build_cfg,
                           canonicalize_guard, collect_thresholds, loop_heads,
                           negate_guard, weak_topological_order)
from probrange.syntax import BinOp, Cmp, Const, Var, parse_program

from helpers import (CORPUS, action_source, corpus_source, exits,
                     loop_heads_dfs, loop_program, nested_program)

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
    assert weak_topological_order(cfg) == ([0, 1, 2, 5, 4, 3, 6], {1})


def test_wto_lists_unreached_nodes_last_in_id_order():
    cfg = CFG([1, 1, 1, 1], [Edge(0, 2, AssignAction("x", Const(0))),
                             Edge(3, 1, AssignAction("x", Const(1)))], ("x",))
    assert weak_topological_order(cfg) == ([0, 2, 1, 3], set())


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
        order, heads = weak_topological_order(cfg)
        assert heads == loop_heads_dfs(cfg) == loop_heads(cfg)
        assert sorted(order) == list(range(cfg.node_count))
        position = {node: i for i, node in enumerate(order)}
        for e in cfg.edges:
            assert position[e.src] < position[e.dst] or e.dst in heads


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
    assert exits(cfg) == (3,)


def test_single_node_cfg_is_representable():
    cfg = CFG(lines=[1], edges=[], variables=("x",))
    assert cfg.node_count == 1
    assert exits(cfg) == (0,)
    assert loop_heads(cfg) == set()
