"""Range and reliability analysis for integer programs on unreliable hardware.

Given a program in a small C-like language whose dotted operators (`+.`,
`<=.`, ...) may silently fault, and a hardware spec assigning each operation
a probability of correct execution, the analyzer computes for every program
point the possible values of each variable together with a lower bound on the
probability that the value is correct. Two interchangeable domains back the
analysis: an exact finite-set domain for desk-scale validation and an
interval domain with threshold widening for everything else.
"""

from .hardware import (DEFAULT_MAXINT, DEFAULT_MININT, HardwareSpec,
                       SpecError, c_div, c_mod, parse_spec)
from .syntax import (FrontendError, LexError, LiteralRangeError, ParseError,
                     Program, parse_program)
from .cfg import CFG, build_cfg, collect_thresholds, loop_heads
from .concrete import OracleBlowup
from .engine import EquationSystem, SolveResult, build_equations, solve
from .cli import main

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAXINT", "DEFAULT_MININT", "HardwareSpec", "SpecError",
    "c_div", "c_mod", "parse_spec",
    "FrontendError", "LexError", "LiteralRangeError", "ParseError",
    "Program", "parse_program",
    "CFG", "build_cfg", "collect_thresholds", "loop_heads",
    "OracleBlowup",
    "EquationSystem", "SolveResult", "build_equations", "solve",
    "main",
    "__version__",
]
