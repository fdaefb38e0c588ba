"""Machine model: integer range, C-style division, per-op success probabilities.

A hardware description assigns every unreliable operation a probability of
computing the correct result. When an operation misfires, its result is assumed
uniformly distributed over the operation's result space: the machine integer
range for arithmetic and memory ops, {true, false} for comparisons. The
*reliability* of an op is therefore the chance that its output is correct
regardless of whether the op itself worked:

    Rel(op) = Pr(op) + (1 - Pr(op)) / |result space|

Spec files are line oriented, one `key = value` per line, `#` starts a comment.
Keys are the op names below plus `minint` and `maxint`. Ops missing from the
file default to probability 1.0 and the parser records a warning for each.
The logical ops `and`, `or` and `not` are still accepted as keys, and their
values ignored: no guard can use them, since compound guards do not parse.
"""

from __future__ import annotations

from .record import Record

ARITH_OPS = ("add", "sub", "mul", "div", "mod", "read", "write")
BOOL_OPS = ("lt", "le", "gt", "ge", "eq", "ne")
ALL_OPS = ARITH_OPS + BOOL_OPS
UNCHARGED_OPS = ("and", "or", "not")

DEFAULT_MININT = -32768
DEFAULT_MAXINT = 32767


class SpecError(Exception):
    """Raised for malformed or inconsistent hardware descriptions."""


def c_div(a: int, b: int) -> int:
    """Integer division truncating toward zero, as C evaluates `/`."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def c_mod(a: int, b: int) -> int:
    """Remainder matching c_div: a == c_div(a, b) * b + c_mod(a, b), so it
    has the magnitude of abs(a) % abs(b) and the dividend's sign."""
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


class HardwareSpec(Record):
    """Success probability per op plus the machine integer range."""

    __slots__ = ("probs", "minint", "maxint")
    _defaults = {"probs": dict, "minint": DEFAULT_MININT, "maxint": DEFAULT_MAXINT}

    def __post_init__(self) -> None:
        for op, p in self.probs.items():
            if op not in ALL_OPS:
                raise SpecError(f"unknown op {op!r}")
            if not 0.0 <= p <= 1.0:
                raise SpecError(f"probability for {op!r} out of [0,1]: {p}")
        if self.minint >= self.maxint:
            raise SpecError(f"integer range [{self.minint},{self.maxint}] must hold at least two values")
        if not self.minint <= 0 <= self.maxint:
            raise SpecError("integer range must contain 0")

    @property
    def width(self) -> int:
        return self.maxint - self.minint + 1

    def prob(self, op: str) -> float:
        return self.probs.get(op, 1.0)

    def rel(self, op: str) -> float:
        """Probability that op's result is correct, counting lucky failures."""
        p = self.prob(op)
        space = self.width if op in ARITH_OPS else 2
        return p + (1.0 - p) / space

    @classmethod
    def uniform(cls, p: float, minint: int = DEFAULT_MININT, maxint: int = DEFAULT_MAXINT) -> HardwareSpec:
        """Same success probability for every op."""
        return cls({op: p for op in ALL_OPS}, minint, maxint)


def parse_spec(text: str) -> tuple[HardwareSpec, list[str]]:
    """Parse a spec file, returning the hardware and default-use warnings."""
    probs: dict[str, float] = {}
    minint, maxint = DEFAULT_MININT, DEFAULT_MAXINT
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SpecError(f"line {lineno}: expected `key = value`, got {raw.strip()!r}")
        key, value = key.strip(), value.strip()
        try:
            if key == "minint":
                minint = int(value)
            elif key == "maxint":
                maxint = int(value)
            elif key in ALL_OPS:
                if key in probs:
                    raise SpecError(f"line {lineno}: duplicate op {key!r}")
                probs[key] = float(value)
            elif key not in UNCHARGED_OPS:
                raise SpecError(f"line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise SpecError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    warnings = [f"op {op!r} missing from spec, assuming probability 1.0"
                for op in ALL_OPS if op not in probs]
    return HardwareSpec(probs, minint, maxint), warnings
