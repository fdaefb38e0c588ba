"""Reference interpreter and report checker, independent of probrange.

The interpreter has its own tokenizer and parser for the analyzed language and
runs programs fault-free under the semantics `probrange/hardware.py`
documents: every arithmetic result saturates into [minint, maxint], `/.`
truncates toward zero and `%.` takes the sign of the dividend, as in C. A
division or modulo by zero ends the run, as the analyzer excludes such
operand tuples. Comparisons compare plain values.

A run starts from a seeded value for every variable and records, at each
program point it passes, the value of every variable. Points are keyed by
source line the way probrange labels CFG nodes: a statement's point by its
line, except that the program's first statement sits at the entry point,
which carries the program's own line, and the exit carries the line the last
statement ends on. A report misses when some observed value at a line lies
outside every interval (or set) it prints for that line and variable.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass

ARITH = {"+.": "add", "-.": "sub", "*.": "mul", "/.": "div", "%.": "mod"}
COMPARE = {"<.": "lt", "<=.": "le", ">.": "gt", ">=.": "ge",
           "==.": "eq", "!=.": "ne"}
_TOKEN = re.compile(r"\s*(?://[^\n]*\n?)?")
_LEXEME = re.compile(r"==\.|!=\.|<=\.|>=\.|&&\.|\|\|\.|=\.|<\.|>\.|\+\.|-\.|"
                     r"\*\.|/\.|%\.|!\.|\d+|[A-Za-z_]\w*|[(){};,+-]")


class OracleError(Exception):
    """The program uses a construct the reference interpreter does not run."""


class _DivByZero(Exception):
    pass


class _StepCap(Exception):
    pass


# --- parsing: statements are ("assign", line, target, expr),
# ("while", line, cond, body, end), ("if", line, cond, then, orelse, end);
# bodies are (stmts, end_line); expressions are ("const", v), ("var", name),
# (op, lhs, rhs); a condition is (cmp, lhs, rhs).

@dataclass(frozen=True)
class Program:
    line: int
    variables: tuple[str, ...]
    body: tuple
    end: int


def _lex(source: str) -> list[tuple[str, int]]:
    tokens, pos, line = [], 0, 1
    while True:
        gap = _TOKEN.match(source, pos)
        while gap.end() > pos:
            line += source.count("\n", pos, gap.end())
            pos = gap.end()
            gap = _TOKEN.match(source, pos)
        if pos == len(source):
            tokens.append(("", line))
            return tokens
        m = _LEXEME.match(source, pos)
        if not m:
            raise OracleError(f"line {line}: cannot tokenize {source[pos]!r}")
        tokens.append((m.group(), line))
        pos = m.end()


class _Parser:
    def __init__(self, source: str):
        self.toks = _lex(source)
        self.i = 0
        self.names: set[str] = set()

    def peek(self) -> str:
        return self.toks[self.i][0]

    def take(self, want: str | None = None) -> tuple[str, int]:
        tok = self.toks[self.i]
        if want is not None and tok[0] != want:
            raise OracleError(f"line {tok[1]}: expected {want!r}, got {tok[0]!r}")
        self.i += 1
        return tok

    def program(self) -> Program:
        if self.peek() == "void":
            line = self.take()[1]
            self.take()
            self.take("(")
            while self.peek() != ")":
                self.take("int")
                self.names.add(self.take()[0])
                if self.peek() == ",":
                    self.take()
            self.take(")")
            stmts = self.block()[0]
        else:
            stmts = []
            while self.peek():
                stmts.append(self.stmt())
            line = stmts[0][1]
        self.take("")
        return Program(line, tuple(sorted(self.names)), tuple(stmts),
                       _end_line(stmts[-1]) if stmts else line)

    def block(self) -> tuple[list, int]:
        self.take("{")
        stmts = []
        while self.peek() != "}":
            stmts.append(self.stmt())
        return stmts, self.take("}")[1]

    def body(self) -> tuple[tuple, int]:
        if self.peek() == "{":
            stmts, end = self.block()
            return tuple(stmts), end
        stmt = self.stmt()
        return (stmt,), _end_line(stmt)

    def stmt(self) -> tuple:
        word, line = self.toks[self.i]
        if word in ("while", "if"):
            self.take()
            self.take("(")
            cond = self.cond()
            self.take(")")
            first = self.body()
            if word == "while":
                return ("while", line, cond, first[0], first[1])
            if self.peek() == "else":
                self.take()
                other = self.body()
                return ("if", line, cond, first[0], other[0], other[1])
            return ("if", line, cond, first[0], (), first[1])
        target = self.take()[0]
        self.names.add(target)
        self.take("=.")
        value = self.expr()
        self.take(";")
        return ("assign", line, target, value)

    def cond(self) -> tuple:
        lhs = self.expr()
        op = self.peek()
        if op not in COMPARE:
            raise OracleError(f"line {self.toks[self.i][1]}: only single "
                              f"comparisons are supported as guards")
        self.take()
        return (COMPARE[op], lhs, self.expr())

    def expr(self) -> tuple:
        node = self.term()
        while self.peek() in ("+.", "-."):
            node = (ARITH[self.take()[0]], node, self.term())
        return node

    def term(self) -> tuple:
        node = self.atom()
        while self.peek() in ("*.", "/.", "%."):
            node = (ARITH[self.take()[0]], node, self.atom())
        return node

    def atom(self) -> tuple:
        tok, line = self.take()
        if tok in ("-", "+"):
            inner = self.atom()
            if inner[0] != "const":
                raise OracleError(f"line {line}: sign applies to literals only")
            return ("const", -inner[1] if tok == "-" else inner[1])
        if tok.isdigit():
            return ("const", int(tok))
        if tok == "(":
            node = self.expr()
            self.take(")")
            return node
        if re.fullmatch(r"[A-Za-z_]\w*", tok):
            self.names.add(tok)
            return ("var", tok)
        raise OracleError(f"line {line}: unexpected {tok!r}")


def _end_line(stmt: tuple) -> int:
    return stmt[1] if stmt[0] == "assign" else stmt[-1]


def parse(source: str) -> Program:
    return _Parser(source).program()


# --- execution

def _div(a: int, b: int) -> int:
    if b == 0:
        raise _DivByZero
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _mod(a: int, b: int) -> int:
    return a - _div(a, b) * b


_OPS = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b, "div": _div, "mod": _mod}
_CMPS = {"lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
         "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b,
         "eq": lambda a, b: a == b, "ne": lambda a, b: a != b}


def observe(program: Program, minint: int, maxint: int, seed: int,
            runs: int = 32, step_cap: int = 5000) -> dict[tuple[int, str], set[int]]:
    """Values seen per (line, variable) over runs from seeded starts.

    Each run passes at most step_cap program points. The first three starts
    put every variable at 0, minint and maxint; the rest draw each variable
    uniformly from the machine range.
    """
    rng = random.Random(seed)
    names = program.variables
    index = {v: i for i, v in enumerate(names)}
    seen: dict[int, set[tuple[int, ...]]] = {}

    def clamp(v: int) -> int:
        return minint if v < minint else maxint if v > maxint else v

    def ev(e, env):
        kind = e[0]
        if kind == "const":
            return e[1]
        if kind == "var":
            return env[index[e[1]]]
        return clamp(_OPS[kind](ev(e[1], env), ev(e[2], env)))

    def run(env: list[int]) -> None:
        budget = [step_cap]

        def visit(line: int) -> None:
            if budget[0] == 0:
                raise _StepCap
            budget[0] -= 1
            seen.setdefault(line, set()).add(tuple(env))

        def block(stmts, first_line=None) -> None:
            for i, s in enumerate(stmts):
                stmt(s, first_line if i == 0 and first_line else s[1])

        def test(cond) -> bool:
            return _CMPS[cond[0]](ev(cond[1], env), ev(cond[2], env))

        def stmt(s, line: int) -> None:
            visit(line)
            if s[0] == "assign":
                env[index[s[2]]] = ev(s[3], env)
            elif s[0] == "while":
                while test(s[2]):
                    block(s[3])
                    visit(line)
            elif test(s[2]):
                block(s[3])
            else:
                block(s[4])

        try:
            block(program.body, program.line)
            visit(program.end)
        except (_StepCap, _DivByZero):
            pass

    starts = [[0] * len(names), [minint] * len(names), [maxint] * len(names)]
    while len(starts) < runs:
        starts.append([rng.randint(minint, maxint) for _ in names])
    for env in starts[:runs]:
        run(env)
    return {(line, var): {env[i] for env in envs}
            for line, envs in seen.items() for i, var in enumerate(names)}


# --- reports

def report_rows(text: str, machine: bool) -> list[dict]:
    """Rows of a probrange report: {line, variable, interval|values, probability}.

    `interval` is [lo, hi], or None when empty; machine reports of the
    concrete domain give `values` instead. Text reports are read in the
    abstract domain only, since the text form abbreviates large sets.
    """
    if machine:
        return json.loads(text)["results"]
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("line |")) + 2
    rows = []
    for raw in lines[start:]:
        if not raw.strip():
            break
        line, var, value, prob = (c.strip() for c in raw.split(" | "))
        if not value.startswith("["):
            raise ValueError(f"not an interval: {value!r}")
        rows.append({"line": int(line), "variable": var,
                     "probability": float(prob),
                     "interval": (None if value == "[]" else
                                  [int(v) for v in value[1:-1].split(",")])})
    return rows


def misses(rows: list[dict], seen: dict[tuple[int, str], set[int]],
           limit: int = 5) -> list[str]:
    """Observed values that no row for their line and variable covers."""
    covers: dict[tuple[int, str], list] = {}
    for r in rows:
        covers.setdefault((r["line"], r["variable"]), []).append(r)
    out = []
    for key, values in sorted(seen.items()):
        rs = covers.get(key, [])
        missed = sorted(v for v in values if not any(_covers(r, v) for r in rs))
        if missed:
            out.append(f"line {key[0]}, {key[1]}: observed {missed[:3]} "
                       f"outside {[_shown(r) for r in rs]}")
            if len(out) == limit:
                break
    return out


def _covers(row: dict, v: int) -> bool:
    if "values" in row:
        return v in row["values"]
    iv = row["interval"]
    return iv is not None and iv[0] <= v <= iv[1]


def _shown(row: dict):
    return row["values"] if "values" in row else row["interval"]


def precision(rows: list[dict]) -> tuple[float, float]:
    """Mean log2 width (or set size) and mean probability over non-empty rows."""
    widths, probs = [], []
    for r in rows:
        if "values" in r:
            size = len(r["values"])
        else:
            size = 0 if r["interval"] is None else r["interval"][1] - r["interval"][0] + 1
        if size:
            widths.append(math.log2(size))
            probs.append(r["probability"])
    if not widths:
        return math.nan, math.nan
    return sum(widths) / len(widths), sum(probs) / len(probs)
