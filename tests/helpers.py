"""Shared test utilities: corpus access, one-call analysis, random programs
and structured shapes, source printing, edges compiled and applied to
hand-made flat states (a domain's value transfer, then the engine's
probability rule), the element operations that no analysis uses (width and
density, order, join, widening, meet, top elements and the Galois maps, all
over flat (lo, hi, prob) triples and (values, prob) pairs with None as
bottom, each built from a domain's value half and the engine's probability
rules, and a solve's flat states rebuilt from its two lists), the machine
model's `clamp` and `reliable` and the CFG's `exits`, and the references
that faster code in src/ is judged against: the argparse flag parser, the
character-loop tokenizer, the scanning congruence refinement, Bourdoncle's
general weak topological order, the second walk over the statements that
listed the program's variables, the recursive predicates that checked each
statement's shape after it was parsed, the tuple-at-a-time concrete edges
and the report builder and text renderer that went through a dict per
row."""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import operator
import random
import sys
import warnings
from pathlib import Path

from probrange import (abstract, build_cfg, build_equations, concrete,
                       engine, parse_program, solve)
from probrange.cli import SET_DISPLAY_LIMIT
from probrange.hardware import (ALL_OPS, DEFAULT_MAXINT, DEFAULT_MININT,
                                HardwareSpec, c_div, c_mod)
from probrange.syntax import (_MAX_LITERAL, _OPERATORS_AT, _WORD,
                              ARITH_TOKENS, CMP_TOKENS, KEYWORDS, PUNCT,
                              Assign, BinOp, Block, Cmp, Const, Expr, If,
                              LexError, Program, Token, Var, While,
                              walk_exprs)

CORPUS = Path(__file__).parent / "corpus"


class _ArgumentParser(argparse.ArgumentParser):
    # reserve exit code 2 for non-convergence; flag mistakes are input errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI once used, kept to judge probrange.cli's
    own flag parser against."""
    parser = _ArgumentParser(
        prog="probrange", allow_abbrev=False,
        description="Range and reliability analysis for integer programs "
                    "on unreliable hardware.")
    parser.add_argument("program", help="program file to analyze")
    parser.add_argument("--spec", required=True,
                        help="hardware reliability spec file")
    parser.add_argument("--mode", choices=("concrete", "abstract"),
                        default="abstract", help="analysis domain")
    parser.add_argument("--widening", action="store_true",
                        help="widen loop heads toward program constants")
    parser.add_argument("--max-iters", type=int, default=20, metavar="N",
                        help="iteration bound (default 20)")
    parser.add_argument("--minint", type=int, help="override lower bound")
    parser.add_argument("--maxint", type=int, help="override upper bound")
    parser.add_argument("--format", choices=("text", "machine"),
                        default="text", help="report format")
    parser.add_argument("--trace", action="store_true",
                        help="include per-iteration states in the report")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    return parser


def corpus_source(name: str) -> str:
    return (CORPUS / name).read_text()


def analyze(source: str, spec, **kwargs):
    """Parse, build, and solve in one step; returns (cfg, SolveResult)."""
    cfg = build_cfg(parse_program(source))
    return cfg, solve(build_equations(cfg), spec, **kwargs)


XYZ = {"x": 0, "y": 1, "z": 2}  # positions in the tests' hand-made states


def halves(state) -> tuple:
    """A flat state's values and probabilities, each None for bottom."""
    if state is None:
        return None, None
    return (tuple(e[0] if len(e) == 2 else e[:2] for e in state),
            tuple(e[-1] for e in state))


def flat(values, probs):
    """The flat state of a domain state's values and probabilities."""
    if values is None:
        return None
    return tuple((v, p) if isinstance(v, frozenset) else (*v, p)
                 for v, p in zip(values, probs))


def flat_states(values: list, probs: list) -> list:
    """A solve's flat states, from its value and probability lists."""
    return list(map(flat, values, probs))


def flat_entry(mod, variables, spec):
    """mod's entry state as the solver's result holds it: every variable
    over the machine range, at probability 1."""
    return flat(mod.entry_state(variables, spec), (1.0,) * len(variables))


def flat_edge(mod, transfer, rule):
    """A compiled edge on flat states: mod's value transfer, then the
    engine's probability rule of the edge."""
    def apply(state):
        values, probs = halves(state)
        out = mod.sp_assign(values, transfer)
        return None if out is None else flat(out, rule(values, probs, out))
    return apply


def compile_flat_assign(mod, target: str, expr, index: dict[str, int], spec,
                        warnings: list[str]):
    """mod's edge `target =. expr` on flat states, as a solve compiles it."""
    return flat_edge(mod, mod.compile_assign(target, expr, index, spec,
                                             warnings),
                     engine.assign_rule(target, expr, index, spec.rel,
                                        mod.width))


def compile_flat_guard(mod, guard, index: dict[str, int], spec,
                       warnings: list[str]) -> tuple:
    """Both edges of mod's guard on flat states, as a solve compiles them."""
    rule = engine.guard_rule(guard, index, spec.rel, mod.width)
    return tuple(flat_edge(mod, transfer, rule) for transfer in
                 mod.compile_guard(guard, index, spec, warnings))


def apply_assign(mod, state, source: str, spec, warnings=None):
    """mod's transfer of the assignment statement source, compiled for this
    one call, on a flat state over x, y, z (a state may stop before z)."""
    stmt = parse_program(source).body.stmts[0]
    return compile_flat_assign(mod, stmt.target, stmt.value, XYZ, spec,
                               [] if warnings is None else warnings)(state)


def apply_guard(mod, state, source: str, spec, warnings=None):
    """mod's true-edge transfer of the condition of the `while` or `if`
    statement source, as apply_assign applies an assignment."""
    cond = parse_program(source).body.stmts[0].cond
    return compile_flat_guard(mod, cond, XYZ, spec,
                              [] if warnings is None else warnings)[0](state)


def value_part(state) -> tuple:
    """A flat state's values, probabilities aside: each variable's set, or
    its interval's endpoints (for comparing states across solves)."""
    return () if state is None else tuple(e[:-1] for e in state)


def expr_vars(node) -> tuple[str, ...]:
    """Distinct variables in an expression or condition, sorted by name."""
    return tuple(sorted({x.name for x in walk_exprs(node)
                         if isinstance(x, Var)}))


def line_map(cfg) -> dict[int, int]:
    """Source line -> node id (corpus programs have unique node lines)."""
    return {cfg.lines[n]: n for n in range(cfg.node_count)}


def random_program(rng: random.Random, max_vars: int = 3,
                   max_stmts: int = 6) -> str:
    """A loop-free program: assignments and if/else over tiny constants.

    Shapes follow the soundness-suite profile: at most three variables, at
    most six statements, constants within [-4, 4]. Division and modulo are
    generated freely, so zero divisors and empty branches do occur.
    """
    names = sorted(rng.sample(("x", "y", "z"), rng.randint(1, max_vars)))
    lines: list[str] = []
    budget = rng.randint(1, max_stmts)
    while budget > 0:
        if budget >= 3 and rng.random() < 0.2:
            lines.append(f"if ({_guard(rng, names)}) {{")
            lines.append(f"  {_assign(rng, names)}")
            lines.append("} else {")
            lines.append(f"  {_assign(rng, names)}")
            lines.append("}")
            budget -= 3
        elif budget >= 2 and rng.random() < 0.25:
            lines.append(f"if ({_guard(rng, names)}) {{")
            lines.append(f"  {_assign(rng, names)}")
            lines.append("}")
            budget -= 2
        else:
            lines.append(_assign(rng, names))
            budget -= 1
    return "\n".join(lines) + "\n"


def nested_program(shape: str, depth: int) -> str:
    """A program nested depth levels deep: "parens" around one literal, a
    "chain" of +. operators, "ifs" or "whiles" one inside the other, braced,
    or "bare-ifs" or "bare-whiles", whose bodies take no braces; or
    "straight", depth assignments in a row."""
    if shape == "parens":
        return "x =. " + "(" * depth + "1" + ")" * depth + ";\n"
    if shape == "chain":
        return "x =. 0;\ny =. x" + " +. 1" * depth + ";\n"
    if shape == "whiles":
        return ("x =. 0;\n" + "while (x <. 9) {\n" * depth + "x =. x +. 1;\n"
                + "}\n" * depth)
    if shape == "bare-whiles":
        return "x =. 0;\n" + "while (x <. 9)\n" * depth + "x =. x +. 1;\n"
    if shape == "bare-ifs":
        return "x =. 0;\n" + "if (x ==. 0)\n" * depth + "x =. 1;\n"
    if shape == "straight":  # depth statements, none nested
        return "".join(f"x{i % 5} =. {i % 7};\n" for i in range(depth))
    assert shape == "ifs"
    return ("x =. 0;\n" + "if (x ==. 0) {\n" * depth + "x =. 1;\n"
            + "}\n" * depth)


def loop_heads_dfs(cfg) -> set[int]:
    """Back-edge targets of a DFS from the entry node: the loop heads that
    the solver widened at before it followed a weak topological order."""
    succs = cfg.succs()
    color = [0] * cfg.node_count  # 0 unvisited, 1 on stack, 2 done
    heads: set[int] = set()
    stack: list[tuple[int, int]] = [(cfg.entry, 0)]
    color[cfg.entry] = 1
    while stack:
        node, idx = stack.pop()
        if idx < len(succs[node]):
            stack.append((node, idx + 1))
            nxt = succs[node][idx]
            if color[nxt] == 1:
                heads.add(nxt)
            elif color[nxt] == 0:
                color[nxt] = 1
                stack.append((nxt, 0))
        else:
            color[node] = 2
    return heads


def reference_wto(cfg) -> tuple[tuple[int, ...], set[int]]:
    """The nodes in a weak topological order (WTO), and its component heads:
    the general search that build_cfg's layout is judged against.

    Bourdoncle's algorithm ("Efficient chaotic iteration strategies with
    widenings", 1993) from the entry node, its nested components flattened:
    a component lists its head, then its body in a WTO of its own. Every
    cycle passes through a head, so the heads are the widening points.
    Nodes the entry does not reach follow in id order.

    The paper's recursive visit and component procedures run over a stack
    of frames [node, successor iterator, head, loop], loop None marking a
    component's frame, so a deep CFG takes no Python recursion. Partitions
    grow by prepending, so the order is built back to front.
    """
    succs = cfg.succs()
    placed = float("inf")  # above every depth-first number
    dfn: list = [0] * cfg.node_count  # 0 before a visit, placed once ordered
    pending: list[int] = []  # visited nodes not yet ordered
    backwards: list[int] = []
    heads: set[int] = set()
    frames: list[list] = []
    num = 0

    def enter(node: int) -> None:
        nonlocal num
        num += 1
        dfn[node] = num
        pending.append(node)
        frames.append([node, iter(succs[node]), num, False])

    enter(cfg.entry)
    while frames:
        frame = frames[-1]
        node, successors, head, loop = frame
        nxt = next(successors, None)
        if nxt is not None:
            if dfn[nxt] == 0:
                enter(nxt)
            elif loop is not None and dfn[nxt] <= head:
                frame[2], frame[3] = dfn[nxt], True
            continue
        frames.pop()
        if loop is None:
            backwards.append(node)
        elif head == dfn[node]:
            dfn[node] = placed
            member = pending.pop()
            if loop:
                while member != node:
                    dfn[member] = 0
                    member = pending.pop()
                heads.add(node)
                frames.append([node, iter(succs[node]), head, None])
                continue
            backwards.append(node)
        if frames and frames[-1][3] is not None and head <= frames[-1][2]:
            frames[-1][2], frames[-1][3] = head, True
    backwards.reverse()
    unreached = [n for n in range(cfg.node_count) if not dfn[n]]
    return tuple(backwards + unreached), heads


def _statements(block: Block) -> list:
    """Every statement in a block, nested ones included, in source order."""
    out = []
    for s in block.stmts:
        out.append(s)
        if isinstance(s, While):
            out += _statements(s.body)
        elif isinstance(s, If):
            out += _statements(s.then)
            if s.orelse is not None:
                out += _statements(s.orelse)
    return out


def reference_program_vars(program: Program) -> tuple[str, ...]:
    """Every variable the program mentions, parameters included, sorted,
    from a second walk over its statements: what build_cfg's variables,
    collected as it links, are judged against."""
    stmts = _statements(program.body)
    names = set(program.params)
    names.update(s.target for s in stmts if isinstance(s, Assign))
    for s in stmts:
        names.update(expr_vars(s.value if isinstance(s, Assign) else s.cond))
    return tuple(sorted(names))


def reference_is_arith(e) -> bool:
    """Whether an expression holds no comparison, by a second walk of it:
    with reference_is_condition, what the parser's check of each statement
    as it builds the operators is judged against."""
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, BinOp):
        return reference_is_arith(e.lhs) and reference_is_arith(e.rhs)
    return False


def reference_is_condition(c) -> bool:
    """Comparison of arithmetic operands."""
    return (isinstance(c, Cmp) and reference_is_arith(c.lhs)
            and reference_is_arith(c.rhs))


def structured_program(rng: random.Random, depth: int = 3,
                       max_stmts: int = 4) -> str:
    """A program of whiles and ifs nested up to depth levels: empty and
    missing else branches, empty then branches, empty loop bodies, loops
    inside either branch and an empty program all occur. Only its shape is
    meant to matter."""
    lines: list[str] = []

    def block(level: int) -> None:
        for _ in range(rng.randint(0, max_stmts)):
            kind = rng.random() if level < depth else 0.0
            if kind < 0.4:
                lines.append("x =. x +. 1;")
            elif kind < 0.7:
                lines.append("while (x <. 9) {")
                block(level + 1)
                lines.append("}")
            else:
                lines.append("if (x >. 4) {")
                block(level + 1)
                if rng.random() < 0.6:
                    lines.append("} else {")
                    block(level + 1)
                lines.append("}")

    block(0)
    return "void f() {\n" + "".join(f"{line}\n" for line in lines) + "}\n"


def loop_program(rng: random.Random, trips=(2, 4)) -> str:
    """A program of the benchmark's loop family over a, ..., h.

    Per trip count: `h =. 0;` and a loop `while (h <. trip)` of six
    `if (v %. k ==. 0) { t =. v OP c; } else { t =. t +. 1; }` statements
    and h's increment. The target t is never h, and c lies in [-9, 9],
    nonzero under /. and %.
    """
    lines = []
    for trip in trips:
        lines += ["h =. 0;", f"while (h <. {trip}) {{"]
        for _ in range(6):
            tested, target = rng.choice("abcdefgh"), rng.choice("abcdefg")
            op = rng.choice(("+.", "-.", "*.", "/.", "%."))
            operand = rng.choice([c for c in range(-9, 10)
                                  if c or op not in ("/.", "%.")])
            lines += [f"  if ({tested} %. {rng.randint(2, 9)} ==. 0) {{",
                      f"    {target} =. {tested} {op} {operand};",
                      "  } else {",
                      f"    {target} =. {target} +. 1;",
                      "  }"]
        lines += ["  h =. h +. 1;", "}"]
    return "\n".join(lines) + "\n"


# a loop's counter i: its start (k stands for the loop's bound), guard and
# step, counting up, counting down and halving
COUNTER_SHAPES = (("0", "i <. {k}", "i +. 1"), ("{k}", "i >. 0", "i -. 1"),
                  ("{k}", "i >. 0", "i /. 2"))


def bounded_loop_program(rng: random.Random) -> str:
    """random_program's statements over one to three of x, y and z, in one
    or two loops counted by i.

    Each loop follows an assignment and takes one of COUNTER_SHAPES, k in
    [1, 4]: i's start, the loop's guard, and i's step, which ends the body.
    Before the step come one to three statements, each an assignment or,
    with probability 0.4, an if/else of one assignment a side. Only the
    counter reads or writes i.
    """
    names = sorted(rng.sample(("x", "y", "z"), rng.randint(1, 3)))
    lines = []
    for _ in range(rng.randint(1, 2)):
        start, guard, step = rng.choice(COUNTER_SHAPES)
        k = rng.randint(1, 4)
        lines += [_assign(rng, names), f"i =. {start.format(k=k)};",
                  f"while ({guard.format(k=k)}) {{"]
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.4:
                lines += [f"  if ({_guard(rng, names)}) {{",
                          f"    {_assign(rng, names)}", "  } else {",
                          f"    {_assign(rng, names)}", "  }"]
            else:
                lines.append(f"  {_assign(rng, names)}")
        lines += [f"  i =. {step};", "}"]
    return "\n".join(lines) + "\n"


def _assign(rng: random.Random, names) -> str:
    return f"{rng.choice(names)} =. {_expr(rng, names, rng.choice((0, 1, 1, 2)))};"


def _expr(rng: random.Random, names, depth: int) -> str:
    if depth == 0:
        if rng.random() < 0.4:
            return str(rng.randint(-4, 4))
        return rng.choice(names)
    op = rng.choice(("+.", "-.", "*.", "/.", "%."))
    return f"({_expr(rng, names, depth - 1)} {op} {_expr(rng, names, depth - 1)})"


def _guard(rng: random.Random, names) -> str:
    if rng.random() < 0.3:
        mod = rng.randint(1, 4)
        cmp_op = rng.choice(("==.", "!=."))
        return f"{rng.choice(names)} %. {mod} {cmp_op} {rng.randint(-2, 2)}"
    cmp_op = rng.choice(("<.", "<=.", ">.", ">=.", "==.", "!=."))
    lhs = _expr(rng, names, rng.choice((0, 0, 1)))
    rhs = _expr(rng, names, rng.choice((0, 0, 1)))
    return f"{lhs} {cmp_op} {rhs}"


def check_soundness(concrete_result, abstract_result, variables) -> list[str]:
    """Variable-wise comparison of the two fixpoints through abstraction.

    For every node and variable, the abstraction of the concrete value must
    sit below the abstract value; an unreachable concrete node is below
    anything. Returns one message per violation; an empty list means the
    abstract run soundly covers the concrete one.
    """
    violations = []
    states = zip(flat_states(concrete_result.values, concrete_result.probs),
                 flat_states(abstract_result.values, abstract_result.probs))
    for node, (cstate, astate) in enumerate(states):
        if cstate is None:
            continue
        for i, (var, celem) in enumerate(zip(variables, cstate)):
            lifted = alpha(celem)
            aelem = None if astate is None else astate[i]
            if not leq(lifted, aelem):
                violations.append(
                    f"node {node}, variable {var}: alpha(concrete) = "
                    f"{lifted} is not below abstract {aelem}")
    return violations


def product_sets(cfg, minint: int, maxint: int) -> dict[int, dict[str, set]]:
    """Per-variable value sets under fault-free product semantics.

    An independent mirror of the value half of the concrete transfers, written
    directly against the CFG: per node, each variable maps to the set of
    values it can hold, with guards projected per variable and assignments
    enumerated over operand tuples. Used to pin down the Pr=1 degenerate case.
    """
    variables = cfg.variables
    full = set(range(minint, maxint + 1))
    states = {n: {v: set() for v in variables} for n in range(cfg.node_count)}
    states[cfg.entry] = {v: set(full) for v in variables}
    preds = cfg.preds()

    def clamp(v):
        return max(minint, min(maxint, v))

    def eval_expr(e, env):
        from probrange.syntax import BinOp, Const, Var
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Var):
            return env[e.name]
        a, b = eval_expr(e.lhs, env), eval_expr(e.rhs, env)
        if e.op == "add":
            return clamp(a + b)
        if e.op == "sub":
            return clamp(a - b)
        if e.op == "mul":
            return clamp(a * b)
        if b == 0:
            raise ZeroDivisionError
        return clamp(c_div(a, b) if e.op == "div" else c_mod(a, b))

    def transfer(state, action):
        if any(not s for s in state.values()):
            return {v: set() for v in variables}
        if isinstance(action, Assign):
            used = expr_vars(action.value)
            result = set()
            for tup in itertools.product(*(sorted(state[v]) for v in used)):
                try:
                    result.add(eval_expr(action.value, dict(zip(used, tup))))
                except ZeroDivisionError:
                    pass
            if not result:
                return {v: set() for v in variables}
            new = {v: set(s) for v, s in state.items()}
            new[action.target] = result
            return new
        guard = action.cond
        used = expr_vars(guard)
        keep = {v: set() for v in used}
        satisfied = False
        for tup in itertools.product(*(sorted(state[v]) for v in used)):
            env = dict(zip(used, tup))
            try:
                lhs, rhs = eval_expr(guard.lhs, env), eval_expr(guard.rhs, env)
            except ZeroDivisionError:
                continue
            ok = {"lt": lhs < rhs, "le": lhs <= rhs, "gt": lhs > rhs,
                  "ge": lhs >= rhs, "eq": lhs == rhs, "ne": lhs != rhs}[action.op]
            if ok:
                satisfied = True
                for v, val in zip(used, tup):
                    keep[v].add(val)
        # a constant guard has no tuples to project but still decides truth
        if not any(keep.values()) and (used or not satisfied):
            return {v: set() for v in variables}
        return {v: set(keep[v]) if v in keep else set(s)
                for v, s in state.items()}

    for _ in range(cfg.node_count + 2):
        changed = False
        for node in range(cfg.node_count):
            if node == cfg.entry:
                continue
            new = {v: set() for v in variables}
            for edge in preds[node]:
                t = transfer(states[edge.src], edge.action)
                for v in variables:
                    new[v] |= t[v]
            if new != states[node]:
                states[node] = new
                changed = True
        if not changed:
            break
    return states


# --- source printing ---

_ARITH_TEXT = {v: k for k, v in ARITH_TOKENS.items()}
_CMP_TEXT = {v: k for k, v in CMP_TOKENS.items()}
_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "mod": 2}


def expr_source(e: Expr, parent_prec: int = 0, right: bool = False) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    prec = _PREC[e.op]
    text = (f"{expr_source(e.lhs, prec)} {_ARITH_TEXT[e.op]} "
            f"{expr_source(e.rhs, prec, right=True)}")
    if prec < parent_prec or (prec == parent_prec and right):
        return f"({text})"
    return text


def cond_source(c: Cmp, op: str | None = None) -> str:
    """c as source text, or its sides compared by op instead."""
    return (f"{expr_source(c.lhs)} {_CMP_TEXT[op or c.op]} "
            f"{expr_source(c.rhs)}")


def action_source(action) -> str:
    """A CFG edge's action as source text: `x =. e`, or the guard's sides
    compared by the edge's test."""
    if isinstance(action, Assign):
        return f"{action.target} =. {expr_source(action.value)}"
    return cond_source(action.cond, action.op)


def to_source(program: Program) -> str:
    """Canonical source text; parsing it back gives an equal Program."""
    lines: list[str] = []

    def emit(block: Block, depth: int) -> None:
        pad = "  " * depth
        for s in block.stmts:
            if isinstance(s, Assign):
                lines.append(f"{pad}{s.target} =. {expr_source(s.value)};")
            elif isinstance(s, While):
                lines.append(f"{pad}while ({cond_source(s.cond)}) {{")
                emit(s.body, depth + 1)
                lines.append(f"{pad}}}")
            else:
                lines.append(f"{pad}if ({cond_source(s.cond)}) {{")
                emit(s.then, depth + 1)
                if s.orelse is not None:
                    lines.append(f"{pad}}} else {{")
                    emit(s.orelse, depth + 1)
                lines.append(f"{pad}}}")

    if program.name is None:
        emit(program.body, 0)
    else:
        params = ", ".join(f"int {p}" for p in program.params)
        lines.append(f"void {program.name}({params}) {{")
        emit(program.body, 1)
        lines.append("}")
    return "\n".join(lines) + "\n"


# --- element operations, meet and the Galois maps ---

class BottomArgument(Exception):
    """The density of the empty interval was requested."""


# density comparisons allow this much absolute slack, so that chained joins
# of equal densities stay reflexive
PMF_TOLERANCE = 1e-12


def width(m) -> int:
    """The number of values of a triple; 0 for None, the empty interval."""
    return 0 if m is None else m[1] - m[0] + 1


def pmf(m) -> float:
    """The density of each value of a triple: its mass over its width."""
    if m is None:
        raise BottomArgument("empty interval has no density")
    return m[2] / width(m)


def _cell(e) -> tuple:
    """A triple's or pair's domain, and its value as a one-variable state."""
    if len(e) == 2:
        return concrete, (e[0],)
    return abstract, (e[:2],)


def leq(a, b) -> bool:
    """a below b in the order of their domain: two triples or two pairs,
    None (bottom) on either side. Values are ordered by the domain, and the
    densities (probability over the cell width) the other way round."""
    if a is None:
        return True
    if b is None:
        return False
    mod, x = _cell(a)
    y = _cell(b)[1]
    return (mod.leq_states(x, y) and a[-1] / mod.width(x[0])
            >= b[-1] / mod.width(y[0]) - PMF_TOLERANCE)


def join(a, b):
    """Least upper bound of two triples or two pairs, None being bottom:
    the domain's value join and the engine's probability rule."""
    if a is None or b is None:
        return a if b is None else b
    mod, x = _cell(a)
    y = _cell(b)[1]
    z = mod.join_states(x, y)
    return flat(z, engine.join_probs(mod.width, x, a[-1:], y, b[-1:], z))[0]


def widen(a, b, thresholds):
    """Jump both endpoints of two triples outward to thresholds bracketing
    the hull.

    Identity on a bottom side; returns a unchanged when b's interval lies
    inside a's, whatever either probability. The result's mass is the hull
    width times the larger of the two densities, capped at 1.
    """
    if a is None or b is None:
        return a if b is None else b
    x, y = a[:2], b[:2]
    z = abstract.widen_states((x,), (y,), thresholds)
    return flat(z, engine.widen_probs(abstract.width, (x,), a[-1:], (y,),
                                      b[-1:], z))[0]


def join_states(a, b):
    """The join of two flat states, variable by variable."""
    if a is None or b is None:
        return a if b is None else b
    return tuple(map(join, a, b))


def leq_states(a, b) -> bool:
    return a is None or b is not None and all(map(leq, a, b))


def widen_states(a, b, thresholds):
    if a is None or b is None:
        return a if b is None else b
    return tuple(widen(x, y, thresholds) for x, y in zip(a, b))


def range_top(minint: int, maxint: int) -> tuple[int, int, float]:
    return minint, maxint, 0.0


def set_top(minint: int, maxint: int) -> tuple[frozenset[int], float]:
    return frozenset(range(minint, maxint + 1)), 0.0


def meet(a, b):
    """Greatest lower bound of two triples or two pairs, None being bottom.

    Sets intersect and keep the larger probability, an empty intersection
    included. Intervals intersect, None when they are disjoint, and take the
    larger density, capped at mass 1; the cap cannot fire for triples whose
    mass is at most 1, so when it does, a RuntimeWarning says so.
    """
    if a is None or b is None:
        return None
    if len(a) == 2:
        return a[0] & b[0], max(a[1], b[1])
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    if lo > hi:
        return None
    p = (hi - lo + 1) * max(pmf(a), pmf(b))
    if p > 1.0:
        warnings.warn(f"meet of {a} and {b} capped at mass 1",
                      RuntimeWarning, stacklevel=2)
        p = 1.0
    return lo, hi, p


def alpha(c):
    """Abstraction of a pair: the hull of the set, at mass min(1, p * hull
    width); None for None or an empty set."""
    if c is None or not c[0]:
        return None
    lo, hi = min(c[0]), max(c[0])
    return lo, hi, min(1.0, c[1] * (hi - lo + 1))


def gamma(m):
    """Concretization of a triple: every value of the interval, at its
    density; None for None."""
    if m is None:
        return None
    return frozenset(range(m[0], m[1] + 1)), pmf(m)


# --- references for faster code in src/ ---

def reference_tokenize(source: str) -> list[Token]:
    """The tokenizer that walked source one character at a time, kept to
    judge syntax.tokenize against."""
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "/" and source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        op = None
        for candidate in _OPERATORS_AT.get(ch, ()):
            if source.startswith(candidate, i):
                op = candidate
                break
        if op is not None:
            tokens.append(Token(op, op, line, col))
            i += len(op)
            col += len(op)
        elif "0" <= ch <= "9":
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            text = source[i:j]
            if int(text) > _MAX_LITERAL:
                raise LexError(f"line {line}: literal {text} does not fit in 64 bits")
            tokens.append(Token("int", text, line, col))
            col += j - i
            i = j
        elif ch in _WORD:
            j = i
            while j < n and source[j] in _WORD:
                j += 1
            word = source[i:j]
            tokens.append(Token(word if word in KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
        elif ch in PUNCT:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
        else:
            raise LexError(f"line {line}, col {col}: unexpected character {ch!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


def reference_refine_congruence(i: int, k: int, c: int, keep_equal: bool,
                                state: tuple):
    """The congruence refinement that scanned up to 2k values with one c_mod
    call each, kept to judge abstract._refine_congruence's closed form
    against."""
    elo, ehi = state[i]

    def first(start: int, stop: int, step: int) -> int | None:
        for v in range(start, stop, step):
            if (c_mod(v, k) == c) == keep_equal:
                return v
        return None

    # Residues of truncating % repeat with period k only within one sign; a
    # single bounded scan from an endpoint can miss the other sign's values,
    # so scan from each sign segment's boundary.
    ups = [first(s, min(s + k, ehi + 1), 1)
           for s in [elo] + ([0] if elo < 0 <= ehi else [])]
    if ups == [None] * len(ups):
        return None
    downs = [first(s, max(s - k, elo - 1), -1)
             for s in [ehi] + ([-1] if elo <= -1 < ehi else [])]
    return abstract._narrowed(
        state, i, min(v for v in ups if v is not None),
        max(v for v in downs if v is not None))


class EvalError(Exception):
    """Division or modulo by zero while evaluating one operand tuple."""


def _reference_operation(spec, warnings: list[str], e, left: tuple,
                         right: tuple):
    lvar, lconst, lhs = left
    rvar, rconst, rhs = right
    apply = concrete.ARITH[e.op]
    minint, maxint = spec.minint, spec.maxint
    overflow = (f"line {e.line}: arithmetic overflow clamped to "
                f"[{minint},{maxint}]")
    zero = (f"line {e.line}: {'division' if e.op == 'div' else 'modulo'} "
            f"by zero" if e.op in ("div", "mod") else None)

    def evaluate(operands: tuple[int, ...]) -> int:
        a = operands[lhs] if lvar else lhs if lconst else lhs(operands)
        b = operands[rhs] if rvar else rhs if rconst else rhs(operands)
        if zero is not None and b == 0:
            raise EvalError(zero)
        raw = apply(a, b)
        if minint <= raw <= maxint:
            return raw
        concrete._warn(warnings, overflow)
        return minint if raw < minint else maxint

    return evaluate


def _reference_operand(e, names, spec, warnings) -> tuple:
    """How a closure reads e on one operand tuple ordered like names."""
    return concrete.compile_operand(
        e, names.index, int, functools.partial(_reference_operation, spec,
                                               warnings))


def _reference_unseen(sets: list, seen: list | None):
    """The operand tuples not enumerated yet, given seen[k] <= sets[k]: all
    of them before the first call, then those that _fresh_tuples yields."""
    if seen is None:
        return itertools.product(*map(sorted, sets))
    if list(map(len, seen)) == list(map(len, sets)):
        return ()
    return concrete._fresh_tuples(list(map(sorted, sets)), seen)


def _reference_operand_sets(state, reads, names) -> list:
    sets = [state[i][0] for i in reads]
    if math.prod(map(len, sets)) > concrete.TUPLE_CAP:
        raise concrete.OracleBlowup(
            f"tuple product over {names} exceeds cap {concrete.TUPLE_CAP}")
    return sets


def reference_compile_assign(target: str, expr, index: dict[str, int], spec,
                             warnings: list[str]):
    """The assignment edge that evaluated one operand tuple at a time
    through per-operator closures, kept to judge concrete.compile_assign's
    column evaluator against: the same state and the same warnings, in the
    same order, on every call."""
    position = index[target]
    names, charge = engine.assign_charge(expr, spec.rel)
    reads = tuple(index[v] for v in names)
    is_var, is_const, x = _reference_operand(expr, names, spec, warnings)
    evaluate = (operator.itemgetter(x) if is_var
                else (lambda operands: x) if is_const else x)
    seen, image, had_eval_error = None, frozenset(), False

    def transfer(state):
        nonlocal seen, image, had_eval_error
        sets = _reference_operand_sets(state, reads, names)
        values = set()
        for operands in _reference_unseen(sets, seen):
            try:
                values.add(evaluate(operands))
            except EvalError as exc:
                had_eval_error = True
                concrete._warn(warnings,
                               f"{exc} (offending operand tuple excluded)")
        seen = sets
        if not values <= image:
            image |= values
        if not image:
            if had_eval_error:
                concrete._warn(warnings, f"every operand tuple of `{target} "
                               f"=. ...` divides by zero; state is unreachable")
            return None
        prob = charge
        for i in reads:
            prob *= state[i][1]
        out = list(state)
        out[position] = (image, min(1.0, prob))
        return tuple(out)

    return transfer


def reference_compile_guard(guard, index: dict[str, int], spec,
                            warnings: list[str]):
    """The guard edge that evaluated one operand tuple at a time, kept to
    judge concrete.compile_guard against."""
    names, factor = engine.guard_factor(guard, spec.rel)
    reads = tuple(index[v] for v in names)
    lvar, lconst, lhs = _reference_operand(guard.lhs, names, spec, warnings)
    rvar, rconst, rhs = _reference_operand(guard.rhs, names, spec, warnings)
    compare = concrete.COMPARE[guard.op]
    seen, kept, satisfiable = None, [frozenset()] * len(reads), False

    def transfer(state):
        nonlocal seen, kept, satisfiable
        sets = _reference_operand_sets(state, reads, names)
        hits = []
        for operands in _reference_unseen(sets, seen):
            try:
                a = operands[lhs] if lvar else lhs if lconst else lhs(operands)
                b = operands[rhs] if rvar else rhs if rconst else rhs(operands)
                if compare(a, b):
                    hits.append(operands)
            except EvalError as exc:
                concrete._warn(warnings,
                               f"{exc} (offending operand tuple excluded)")
                if not reads:  # the one empty tuple: nothing gets past
                    concrete._warn(warnings,
                                   f"{exc} (constant guard unreachable)")
        seen = sets
        if hits:
            satisfiable = True
            kept = [old.union(new) for old, new in zip(kept, zip(*hits))]
        if not satisfiable:
            return None
        out = [(values, min(1.0, prob * factor)) for values, prob in state]
        for i, values in zip(reads, kept):
            out[i] = (values, out[i][1])
        return tuple(out)

    return transfer


# --- what only the tests use of the machine model and the CFG ---

def reference_report(name: str, mode: str, widening: bool, spec, cfg, result,
                     warnings: list[str]) -> dict:
    """The report as probrange.cli.build_report once assembled it, and as a
    machine report reads back: from the result's value and probability
    lists, one dict per row. json.dumps(report, separators=(",", ":")) +
    "\n" is then the machine report and reference_text(report) the text
    report."""
    def rows(values: list, probs: list) -> list[dict]:
        bottom = (None,) * len(cfg.variables)  # an unreachable node's
        return [_reference_row(node, cfg.lines[node], var, value, prob, mode)
                for node in range(cfg.node_count)
                for var, value, prob in zip(cfg.variables,
                                            values[node] or bottom,
                                            probs[node] or bottom)]

    report = {
        "schema": 2, "program": name, "mode": mode, "widening": widening,
        "schedule": "round-robin",
        "spec": {"minint": spec.minint, "maxint": spec.maxint,
                 "probabilities": {op: spec.prob(op) for op in ALL_OPS}},
        "iterations": result.iterations, "converged": result.converged,
        "warnings": list(warnings),
        "results": rows(result.values, result.probs),
    }
    if result.trace is not None:
        report["trace"] = [{"iteration": i + 1, "rows": rows(*snapshot)}
                           for i, snapshot in enumerate(result.trace)]
    return report


def _reference_row(node: int, line: int, var: str, value, prob,
                   mode: str) -> dict:
    row = {"node": node, "line": line, "variable": var}
    if mode == "abstract":
        row["interval"] = None if value is None else list(value)
    else:
        row["values"] = [] if value is None else sorted(value)
    prob = 1.0 if prob is None else prob
    row["probability"] = float(f"{prob:.12g}")
    return row


def _reference_value_text(row: dict) -> str:
    if "interval" in row:
        if row["interval"] is None:
            return "[]"
        lo, hi = row["interval"]
        return f"[{lo},{hi}]"
    values = row["values"]
    if not values:
        return "{}"
    if len(values) <= SET_DISPLAY_LIMIT:
        return "{" + ",".join(str(v) for v in values) + "}"
    shown = ",".join(str(v) for v in values[:3])
    return f"{{{shown},...,{values[-1]}}} ({len(values)} values)"


def reference_text(report: dict) -> str:
    """The text report of a row-dict report, as probrange.cli once rendered
    it."""
    def cells(rows):
        return [(str(row["line"]), row["variable"], _reference_value_text(row),
                 f"{row['probability']:.12g}") for row in rows]

    probs = set(report["spec"]["probabilities"].values())
    ops = (f"all ops Pr={probs.pop():.12g}" if len(probs) == 1
           else f"op Pr in [{min(probs):.12g}, {max(probs):.12g}]")
    mode = report["mode"] + (" with widening" if report["widening"] else "")
    lines = [
        f"program: {report['program']}",
        f"mode: {mode}",
        f"spec: {ops}, bounds [{report['spec']['minint']},"
        f"{report['spec']['maxint']}]",
        f"converged: {'yes' if report['converged'] else 'NO'} "
        f"({report['iterations']} iterations, {report['schedule']})",
        "",
    ]
    header = ("line", "variable", "value", "probability")
    table = [header] + cells(report["results"])
    widths = [max(len(c[i]) for c in table) for i in range(4)]
    # every column but the last padded to its width
    padded = [" | ".join([*(c.ljust(w) for c, w in zip(row, widths[:3])),
                          row[3]]) for row in table]
    lines += [padded[0], "-+-".join("-" * w for w in widths), *padded[1:]]
    if report["warnings"]:
        lines += ["", "warnings:"] + [f"  - {w}" for w in report["warnings"]]
    if "trace" in report:
        lines += ["", "trace:"]
        for entry in report["trace"]:
            lines.append(f"  iteration {entry['iteration']}:")
            lines.extend("    line %s: %s = %s p=%s" % c
                         for c in cells(entry["rows"]))
    lines.append("")
    return "\n".join(lines)


def clamp(spec, v: int) -> int:
    """v saturated to spec's machine range."""
    return min(max(v, spec.minint), spec.maxint)


def reliable(minint: int = DEFAULT_MININT,
             maxint: int = DEFAULT_MAXINT) -> HardwareSpec:
    """Hardware that never fails; the analysis degenerates to plain ranges."""
    return HardwareSpec({}, minint, maxint)


def exits(cfg) -> tuple[int, ...]:
    """The nodes without an outgoing edge."""
    with_out = {e.src for e in cfg.edges}
    return tuple(n for n in range(cfg.node_count) if n not in with_out)
