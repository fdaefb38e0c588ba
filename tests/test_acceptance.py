"""Acceptance gate: one test per shipped guarantee, loudest failures first.

Each test prints a single `criterion N: PASS/FAIL` line (visible under
`pytest -rA` or on failure) and then asserts, so the suite both documents
and enforces the claims made in the README.
"""

import random
import time

from probrange.cfg import build_cfg, collect_thresholds
from probrange.engine import build_equations, solve
from probrange.hardware import HardwareSpec
from probrange.syntax import parse_program

from helpers import (alpha, analyze, bounded_loop_program, check_soundness,
                     corpus_source, gamma, join, leq, line_map, meet, pmf,
                     random_program)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def test_criterion_1_concrete_worked_example(spec4):
    start = time.perf_counter()
    cfg, result = analyze(corpus_source("fig1.up"), spec4, domain="concrete")
    elapsed = time.perf_counter() - start
    want = {
        1: (frozenset({0, 3, 6, 9, 12}), 0.99810173981),
        2: (frozenset({0, 3, 6, 9}), 0.99840122568),
        3: (frozenset({12}), 0.99795203106),
    }
    errors = []
    for node, (values, prob) in want.items():
        (got_values,), (got_prob,) = result.values[node], result.probs[node]
        if got_values != values:
            errors.append(f"node {node} values {sorted(got_values)}")
        if rel_err(got_prob, prob) > 1e-9:
            errors.append(f"node {node} prob off by {rel_err(got_prob, prob):.2e}")
    if not result.converged:
        errors.append("did not converge")
    if elapsed >= 1.0:
        errors.append(f"took {elapsed:.2f}s")
    report(1, not errors, f"{elapsed * 1000:.0f} ms; " + ("; ".join(errors) or
           "sets exact, probabilities within 1e-9"))
    assert not errors


def test_criterion_2_abstract_worked_example(spec4):
    start = time.perf_counter()
    cfg, result = analyze(corpus_source("fig1.up"), spec4, domain="abstract")
    elapsed = time.perf_counter() - start
    want = {
        1: (0, 12, 1.0),
        2: (0, 9, 0.9998500065),
        3: (10, 12, 0.23073461688),
    }
    errors = []
    for node, (lo, hi, prob) in want.items():
        ((got_lo, got_hi),), (got_prob,) = (result.values[node],
                                            result.probs[node])
        if (got_lo, got_hi) != (lo, hi):
            errors.append(f"node {node} interval [{got_lo},{got_hi}]")
        if rel_err(got_prob, prob) > 1e-9:
            errors.append(f"node {node} prob off by {rel_err(got_prob, prob):.2e}")
    if not result.converged:
        errors.append("did not converge")
    if elapsed >= 1.0:
        errors.append(f"took {elapsed:.2f}s")
    report(2, not errors, f"{elapsed * 1000:.0f} ms; " + ("; ".join(errors) or
           "intervals exact, probabilities within 1e-9"))
    assert not errors


def test_criterion_3_collatz_intervals(spec7):
    cfg = build_cfg(parse_program(corpus_source("collatz.up")))
    system = build_equations(cfg)
    thresholds = collect_thresholds(cfg, spec7.minint, spec7.maxint)
    plain = solve(system, spec7, domain="abstract")
    widened = solve(system, spec7, domain="abstract", widening=thresholds)
    m, big = spec7.minint, spec7.maxint
    want = {1: (m, big), 3: (1, big), 4: (2, big), 5: (2, 32766),
            7: (3, big), 8: (1, 1)}
    lines = line_map(cfg)
    errors = []
    for run, label in ((plain, "plain"), (widened, "widened")):
        for line, (lo, hi) in want.items():
            ((got_lo, got_hi),), (got_prob,) = (run.values[lines[line]],
                                                run.probs[lines[line]])
            if (got_lo, got_hi) != (lo, hi):
                errors.append(f"{label} line {line}: [{got_lo},{got_hi}]")
            if not 0.0 < got_prob <= 1.0:
                errors.append(f"{label} line {line}: prob {got_prob}")
        (head,), (exit_prob,) = run.probs[lines[3]], run.probs[lines[8]]
        if exit_prob > head:
            errors.append(f"{label}: line 8 prob above line 3")
    if not (widened.converged and widened.iterations <= 4):
        errors.append(f"widened: {widened.iterations} iterations, "
                      f"converged={widened.converged}")
    if not (plain.converged and plain.iterations <= 20):
        errors.append(f"plain: {plain.iterations} iterations, "
                      f"converged={plain.converged}")
    report(3, not errors, "; ".join(errors) or
           f"six intervals exact both modes; widened in {widened.iterations}, "
           f"plain in {plain.iterations}")
    assert not errors


def test_criterion_4_collatz_concrete_sets(spec7):
    cfg, result = analyze(corpus_source("collatz.up"), spec7,
                          domain="concrete")
    lines = line_map(cfg)
    (head,), (head_prob,) = result.values[lines[3]], result.probs[lines[3]]
    (exit_values,), (exit_prob,) = (result.values[lines[8]],
                                    result.probs[lines[8]])
    errors = []
    if head != frozenset({1, 2, 4, 5, 8, 10, 16}):
        errors.append(f"line 3 values {sorted(head)}")
    if exit_values != frozenset({1}):
        errors.append(f"line 8 values {sorted(exit_values)}")
    for label, got, want in (("line 3", head_prob, 0.999996199976),
                             ("line 8", exit_prob, 0.999996049977)):
        if rel_err(got, want) > 1e-6:
            errors.append(f"{label} prob off by {rel_err(got, want):.2e}")
    report(4, not errors, "; ".join(errors) or
           "sets exact, probabilities within 1e-6")
    assert not errors


def test_criterion_5_galois_laws():
    rng = random.Random(501)
    violations = 0
    checked = 0

    def random_concrete():
        if rng.random() < 0.02:
            return None
        size = rng.randint(1, 9)
        return frozenset(rng.sample(range(-8, 9), size)), rng.random()

    def random_abstract():
        if rng.random() < 0.02:
            return None
        lo = rng.randint(-8, 8)
        hi = rng.randint(lo, 8)
        return lo, hi, rng.random()

    for _ in range(10000):
        c = random_concrete()
        checked += 1
        if not leq(c, gamma(alpha(c))):
            violations += 1
        m = random_abstract()
        checked += 1
        back = alpha(gamma(m))
        if (back is None) != (m is None) or m is not None and (
                back[:2] != m[:2] or abs(back[2] - m[2]) > 1e-12):
            violations += 1

    for _ in range(10000):
        # ordered concrete pair: subset with the larger probability below
        big = random_concrete()
        while big is None:
            big = random_concrete()
        values, p = big
        sub = frozenset(v for v in values if rng.random() < 0.7)
        small = sub, min(1.0, p + rng.random() * (1 - p))
        checked += 1
        if not (leq(small, big) and leq(alpha(small), alpha(big))):
            violations += 1
        # ordered abstract pair: containment with density no larger above
        inner = random_abstract()
        while inner is None:
            inner = random_abstract()
        lo = inner[0] - rng.randint(0, 3)
        hi = inner[1] + rng.randint(0, 3)
        w = hi - lo + 1
        mass = pmf(inner) * w
        prob = rng.random() * min(1.0, mass)
        outer = lo, hi, prob
        checked += 1
        if not (leq(inner, outer) and leq(gamma(inner), gamma(outer))):
            violations += 1

    report(5, violations == 0,
           f"{checked} checks across both maps, {violations} violations")
    assert violations == 0


def test_criterion_6_lattice_oracle_equivalence():
    probs = (0.0, 0.25, 0.5, 0.75, 1.0)
    universe = [None] + [
        (a, b, p)
        for a in range(0, 5) for b in range(a, 5) for p in probs]
    assert len(universe) == 76
    violations = 0
    for a in universe:
        for b in universe:
            j = join(a, b)
            if not (leq(a, j) and leq(b, j)):
                violations += 1
            m = meet(a, b)
            if not (leq(m, a) and leq(m, b)):
                violations += 1
            for u in universe:
                if leq(a, u) and leq(b, u) and not leq(j, u):
                    violations += 1
                if leq(u, a) and leq(u, b) and not leq(u, m):
                    violations += 1
    report(6, violations == 0,
           f"{len(universe) ** 2} pairs against brute-force bounds, "
           f"{violations} violations")
    assert violations == 0


def test_criterion_7_end_to_end_soundness():
    rng = random.Random(707)
    spec = HardwareSpec.uniform(0.999, minint=-8, maxint=8)
    start = time.perf_counter()
    failures = []
    for i in range(500):
        source = random_program(rng)
        cfg = build_cfg(parse_program(source))
        system = build_equations(cfg)
        conc = solve(system, spec, domain="concrete")
        abst = solve(system, spec, domain="abstract")
        bad = check_soundness(conc, abst, cfg.variables)
        if bad:
            failures.append((i, source, bad[0]))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60
    detail = (f"500 programs in {elapsed:.1f}s, "
              f"{len(failures)} unsound")
    if failures:
        detail += f"; first: {failures[0][2]}"
    report(7, ok, detail)
    assert ok, failures[:3]


def _values_outside(concrete_result, abstract_result, variables) -> list:
    """(node, variable) wherever a concrete value lies outside the abstract
    interval, probabilities aside."""
    out = []
    for node, (cstate, astate) in enumerate(zip(concrete_result.values,
                                                abstract_result.values)):
        for i, var in enumerate(variables if cstate else ()):
            values = cstate[i]
            if values and (astate is None or min(values) < astate[i][0]
                           or max(values) > astate[i][1]):
                out.append((node, var))
    return out


def test_criterion_7_value_soundness_on_loops():
    # values only: inside a loop the probabilities follow the solver's
    # schedule, so the full check_soundness does not hold there yet
    spec = HardwareSpec.uniform(0.999, minint=-8, maxint=7)
    start = time.perf_counter()
    failures, runs = [], 0
    for seed in range(400):
        source = bounded_loop_program(random.Random(seed))
        cfg = build_cfg(parse_program(source))
        system = build_equations(cfg)
        conc = solve(system, spec, domain="concrete", max_iters=500)
        assert conc.converged, source
        thresholds = collect_thresholds(cfg, spec.minint, spec.maxint)
        for widening in (None, thresholds):
            abst = solve(system, spec, widening=widening, max_iters=500)
            assert abst.converged, source
            runs += 1
            bad = _values_outside(conc, abst, cfg.variables)
            if bad:
                failures.append((seed, widening is not None, source, bad[0]))
    elapsed = time.perf_counter() - start
    report(7, not failures, f"{runs} abstract runs of 400 bounded-loop "
           f"programs in {elapsed:.1f}s, {len(failures)} hold a value "
           f"outside the interval")
    assert not failures, failures[:3]


def test_criterion_8_widening_convergence(spec4):
    errors = []
    iteration_counts = {}
    for name in ("counter.up", "factorial.up", "reverse.up"):
        cfg = build_cfg(parse_program(corpus_source(name)))
        thresholds = collect_thresholds(cfg, spec4.minint, spec4.maxint)
        result = solve(build_equations(cfg), spec4, domain="abstract",
                       widening=thresholds)
        iteration_counts[name] = result.iterations
        if not (result.converged and result.iterations <= 20):
            errors.append(f"{name}: {result.iterations} iterations, "
                          f"converged={result.converged}")
    _, unwidened = analyze(corpus_source("counter.up"), spec4,
                           domain="abstract")
    if unwidened.converged:
        errors.append("counter.up converged without widening")
    counts = ", ".join(f"{n} in {i}" for n, i in iteration_counts.items())
    report(8, not errors, "; ".join(errors) or
           f"widened: {counts}; counter without widening stalls as expected")
    assert not errors
