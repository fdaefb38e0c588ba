"""Control-flow graph over program points.

Nodes are program points labeled with source lines; edges carry the action
(an assignment or a guard) that leads from one point to the next. Statement
lists are threaded so that a loop's head is the point the loop statement sits
at, the loop body flows back into the head, and the point after the loop is
reached through the negated guard.

Guards are single comparisons, the only condition the parser admits. Both
edges of a guard hold the comparison as parsed, which the domains evaluate and
charge as the program executes it, and the operator the edge tests: the
guard's own on the true edge, its negation on the false edge.
"""

from __future__ import annotations

from .syntax import (Assign, Const, Program, Stmt, While, end_line,
                     program_vars, walk_exprs)
from .record import MutableRecord, Record, set_field


class AssignAction(Record):
    __slots__ = ("target", "value")  # value: Expr


class GuardAction(Record):
    # cond: the Cmp as parsed, shared by both edges; op: the edge's test
    __slots__ = ("cond", "op")


Action = AssignAction | GuardAction


class Edge(Record):
    __slots__ = ("src", "dst", "action")

    def __init__(self, src: int, dst: int, action: Action) -> None:
        set_field(self, "src", src)
        set_field(self, "dst", dst)
        set_field(self, "action", action)


class CFG(MutableRecord):
    __slots__ = ("lines", "edges", "variables", "entry")  # lines[node]: its source line
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


_NEGATED = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt", "eq": "ne", "ne": "eq"}


class _Builder:
    def __init__(self) -> None:
        self.lines: list[int] = []
        self.edges: list[Edge] = []

    def node(self, line: int) -> int:
        self.lines.append(line)
        return len(self.lines) - 1

    def edge(self, src: int, dst: int, action: Action) -> None:
        self.edges.append(Edge(src, dst, action))

    def thread(self, stmts: tuple[Stmt, ...], entry: int, get_exit) -> None:
        point = entry
        for i, stmt in enumerate(stmts):
            if i + 1 < len(stmts):
                nxt = self.node(stmts[i + 1].line)
                self.emit(stmt, point, lambda nxt=nxt: nxt)
                point = nxt
            else:
                self.emit(stmt, point, get_exit)

    def emit(self, stmt: Stmt, point: int, get_cont) -> None:
        if isinstance(stmt, Assign):
            self.edge(point, get_cont(), AssignAction(stmt.target, stmt.value))
            return
        # the edges taken when the guard holds and when it fails
        cond = stmt.cond
        true_guard = GuardAction(cond, cond.op)
        false_guard = GuardAction(cond, _NEGATED[cond.op])
        if isinstance(stmt, While):
            if stmt.body.stmts:
                body = self.node(stmt.body.stmts[0].line)
                self.edge(point, body, true_guard)
                self.thread(stmt.body.stmts, body, lambda: point)
            else:
                self.edge(point, point, true_guard)
            self.edge(point, get_cont(), false_guard)
        else:
            if stmt.then.stmts:
                then = self.node(stmt.then.stmts[0].line)
                self.edge(point, then, true_guard)
                self.thread(stmt.then.stmts, then, get_cont)
            else:
                self.edge(point, get_cont(), true_guard)
            orelse = stmt.orelse
            if orelse is not None and orelse.stmts:
                other = self.node(orelse.stmts[0].line)
                self.edge(point, other, false_guard)
                self.thread(orelse.stmts, other, get_cont)
            else:
                self.edge(point, get_cont(), false_guard)


def build_cfg(program: Program) -> CFG:
    b = _Builder()
    entry = b.node(program.line)
    stmts = program.body.stmts
    if stmts:
        exit_line = end_line(stmts[-1])
        exit_id: list[int] = []

        def get_exit() -> int:
            if not exit_id:
                exit_id.append(b.node(exit_line))
            return exit_id[0]

        b.thread(stmts, entry, get_exit)
    return CFG(b.lines, b.edges, program_vars(program), entry)


def weak_topological_order(cfg: CFG) -> tuple[list[int], set[int]]:
    """The nodes in a weak topological order (WTO), and its component heads.

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
    return backwards + [n for n in range(cfg.node_count) if not dfn[n]], heads


def loop_heads(cfg: CFG) -> set[int]:
    """The widening points: the heads of the weak topological order."""
    return weak_topological_order(cfg)[1]


def literals(cfg: CFG) -> list[Const]:
    """The literals on the CFG's edges in source order, a guard's once for
    both of its edges."""
    roots = {}
    for e in cfg.edges:
        action = e.action
        root = action.value if isinstance(action, AssignAction) else action.cond
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
