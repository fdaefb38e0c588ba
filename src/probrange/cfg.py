"""Control-flow graph over program points.

Nodes are program points labeled with source lines; edges carry the action
that leads from one point to the next, an Assign as parsed or a guard.
Statement lists are threaded so that a loop's head is the point the loop
statement sits at, the loop body flows back into the head, and the point
after the loop is reached through the negated guard.

The builder lays out the weak topological order (Bourdoncle 1993) as it
links: it creates every loop head, a `while` statement's point, and every
cycle passes through one, so the heads are the widening points. It also
collects the variables: the parameters, every assignment's target and every
variable an edge reads.

Guards are single comparisons, the only condition the parser admits. Both
edges of a guard hold the comparison as parsed, which the domains evaluate and
charge as the program executes it, and the operator the edge tests: the
guard's own on the true edge, its negation on the false edge.
"""

from __future__ import annotations

from .syntax import (NEGATED, Assign, Const, ParseError, Program, Stmt, Var,
                     While, end_line, walk_exprs)
from .record import Record


class GuardAction(Record):
    # cond: the Cmp as parsed, shared by both edges; op: the edge's test
    _fields = ("cond", "op")


Action = Assign | GuardAction


class Edge(Record):
    _fields = ("src", "dst", "action")


class CFG(Record):
    # lines[node]: its source line; order: every node once, in a weak
    # topological order; heads: the order's component heads
    _fields = ("lines", "edges", "variables", "order", "heads", "entry")
    _defaults = {"entry": 0}

    @property
    def node_count(self) -> int:
        return len(self.lines)

    def preds(self) -> list[list[Edge]]:
        incoming: list[list[Edge]] = [[] for _ in self.lines]
        for e in self.edges:
            incoming[e.dst].append(e)
        return incoming

    def succs(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.lines]
        for e in self.edges:
            out[e.src].append(e.dst)
        return out


class _Builder:
    def __init__(self) -> None:
        self.lines: list[int] = []
        self.edges: list[Edge] = []
        self.heads: list[int] = []
        self.names: set[str] = set()  # the variables the edges name

    def note(self, root) -> None:
        self.names.update(x.name for x in walk_exprs(root)
                          if isinstance(x, Var))

    def node(self, line: int) -> int:
        self.lines.append(line)
        return len(self.lines) - 1

    def edge(self, src: int, dst: int, action: Action) -> None:
        self.edges.append(Edge(src, dst, action))

    def thread(self, stmts: tuple[Stmt, ...], point: int,
               guard: GuardAction | None, get_cont) -> list[int]:
        """Link stmts in turn: the first sits at point when guard is None,
        else guard's edge leads from point to it, or straight to the
        continuation when stmts is empty. The points the statements sit at
        and the nodes inside them, in order, the continuation left out."""
        if guard is not None:
            if not stmts:
                self.edge(point, get_cont(), guard)
                return []
            first = self.node(stmts[0].line)
            self.edge(point, first, guard)
            point = first
        order: list[int] = []
        for i, stmt in enumerate(stmts):
            if i + 1 < len(stmts):
                nxt = self.node(stmts[i + 1].line)
                order += self.emit(stmt, point, lambda nxt=nxt: nxt)
                point = nxt
            else:
                order += self.emit(stmt, point, get_cont)
        return order

    def emit(self, stmt: Stmt, point: int, get_cont) -> list[int]:
        """Link stmt at point; point and the nodes inside stmt in a weak
        topological order, as Bourdoncle's depth-first search from point,
        taking the true edge first, places them: a loop is a component of
        its head and then its body; an if lists the else branch before the
        then branch, both before the continuation. Two frames per nesting
        level, thread and emit, no more than the parser spends on a body
        without braces."""
        if isinstance(stmt, Assign):
            self.names.add(stmt.target)
            self.note(stmt.value)
            self.edge(point, get_cont(), stmt)
            return [point]
        # the edges taken when the guard holds and when it fails
        cond = stmt.cond
        self.note(cond)
        true_guard = GuardAction(cond, cond.op)
        false_guard = GuardAction(cond, NEGATED[cond.op])
        if isinstance(stmt, While):
            self.heads.append(point)
            body = self.thread(stmt.body.stmts, point, true_guard,
                               lambda: point)
            self.edge(point, get_cont(), false_guard)
            return [point, *body]
        then = self.thread(stmt.then.stmts, point, true_guard, get_cont)
        orelse = self.thread(stmt.orelse.stmts if stmt.orelse else (), point,
                             false_guard, get_cont)
        return [point, *orelse, *then]


def build_cfg(program: Program) -> CFG:
    b = _Builder()
    entry = b.node(program.line)
    stmts = program.body.stmts
    exit_id: list[int] = []  # the exit, made when the last statement links

    def get_exit() -> int:
        if not exit_id:
            exit_id.append(b.node(end_line(stmts[-1])))
        return exit_id[0]

    try:
        order = (b.thread(stmts, entry, None, get_exit) or [entry]) + exit_id
    except RecursionError:
        # a backstop: the parser gives out first at the default limit
        raise ParseError("program is nested too deeply") from None
    return CFG(b.lines, b.edges, tuple(sorted(b.names | set(program.params))),
               tuple(order), frozenset(b.heads), entry)


def loop_heads(cfg: CFG) -> frozenset[int]:
    """The widening points: the heads of the weak topological order."""
    return cfg.heads


def literals(cfg: CFG) -> list[Const]:
    """The literals on the CFG's edges in source order, a guard's once for
    both of its edges."""
    roots = {}
    for e in cfg.edges:
        action = e.action
        root = action.value if isinstance(action, Assign) else action.cond
        roots[id(root)] = root
    return [node for root in roots.values() for node in walk_exprs(root)
            if isinstance(node, Const)]


def collect_thresholds(cfg: CFG, minint: int, maxint: int) -> tuple[int, ...]:
    """Widening thresholds: every constant on an edge, plus the range bounds.

    An edge that tests `e <. c` for a literal c also contributes c-1, the
    largest value that passes it.
    """
    values = {minint, maxint, *(node.value for node in literals(cfg))}
    for e in cfg.edges:
        action = e.action
        if isinstance(action, GuardAction) and action.op == "lt" \
                and isinstance(action.cond.rhs, Const):
            values.add(action.cond.rhs.value - 1)
    return tuple(sorted({min(max(v, minint), maxint) for v in values}))
