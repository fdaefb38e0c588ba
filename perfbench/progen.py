"""Seeded generator for the benchmark's loop family.

A program is N sequential loops over 8 variables. Each loop resets the
counter h, then runs `while (h <. c)` over a body of 6 if/else statements of
the form `if (a %. k ==. 0) { t =. a OP c; } else { t =. t +. 1; }` and the
increment of h. The target t is never h. A loop counter that a later loop
incremented would enter that loop as a single value and make concrete mode
grow its set one value per pass up to maxint, so the work per program would
swing by 2x with the draw. Every statement sits on its own line and the program ends
with a closing brace, so each line of a report maps to exactly one CFG node.
Every constant is drawn inside the machine range given to the generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIABLES = ("a", "b", "c", "d", "e", "f", "g", "h")
COUNTER = "h"  # every loop's counter; never a target, so no loop can outrun it
OPS = ("+.", "-.", "*.", "/.", "%.")
IFS_PER_LOOP = 6
OPERANDS = (-9, 9)  # right operands of OP; never 0 for /. and %.
MODULI = (2, 9)


@dataclass(frozen=True)
class Generated:
    source: str
    nodes: int  # CFG program points, entry and exit included
    edges: int


def generate(seed: int, trips: tuple[int, ...], minint: int, maxint: int) -> Generated:
    """Emit one loop per entry of `trips`, its bound, in a seeded order.

    The same arguments give the same bytes.
    """
    if not (minint <= OPERANDS[0] and max(OPERANDS[1], MODULI[1]) <= maxint):
        raise ValueError(f"machine range [{minint},{maxint}] is too narrow")
    if not all(1 <= t <= maxint for t in trips):
        raise ValueError("trip counts must lie in [1, maxint]")
    rng = random.Random(seed)
    bounds = rng.sample(trips, len(trips))
    loops = len(trips)

    def const(lo: int, hi: int, nonzero: bool = False) -> int:
        while True:
            v = rng.randint(lo, hi)
            if v or not nonzero:
                return v

    lines = [f"void loops{loops}({', '.join('int ' + v for v in VARIABLES)}) {{"]
    # the entry node doubles as the point of the first statement
    nodes, edges = 1, 0
    targets = [v for v in VARIABLES if v != COUNTER]
    for i in range(loops):
        lines.append(f"  {COUNTER} =. 0;")
        lines.append(f"  while ({COUNTER} <. {bounds[i]}) {{")
        nodes += 2 if i else 1
        edges += 3
        for _ in range(IFS_PER_LOOP):
            tested = rng.choice(VARIABLES)
            target = rng.choice(targets)
            op = rng.choice(OPS)
            operand = const(*OPERANDS, nonzero=op in ("/.", "%."))
            lines += [
                f"    if ({tested} %. {const(*MODULI)} ==. 0) {{",
                f"      {target} =. {tested} {op} {operand};",
                "    } else {",
                f"      {target} =. {target} +. 1;",
                "    }",
            ]
            nodes += 3
            edges += 4
        lines.append(f"    {COUNTER} =. {COUNTER} +. 1;")
        lines.append("  }")
        nodes += 1
        edges += 1
    lines.append("}")
    return Generated("\n".join(lines) + "\n", nodes + 1, edges)
