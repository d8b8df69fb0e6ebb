"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ifs_lab import (Arc, CirclePoint, Expanding, Flip, IfsSystem,
                     NonInvertible, Resolution, Rotation,
                     almost_periodic_verdict, build_example, circ_dist,
                     cofinite_sensitivity_verdict, compose_word, concat,
                     constant_rule, expanding_verdict, fixed_points,
                     local_expanding_cover,
                     minimality_verdict, periodic_points,
                     s_transitivity_verdict, sensitivity_estimate,
                     sensitivity_witness_from_nonminimality, separation_times,
                     strong_transitivity_verdict,
                     topological_transitivity_verdict)
from ifs_lab.cli import render_report, run_analyze
from ifs_lab.detectors import DEFAULT_RESOLUTION, _radius_ladder
from ifs_lab.generators import NotDifferentiable

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def announce(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_rotation_flip_conformance():
    t0 = time.monotonic()
    entry = build_example("rotation_flip")
    system = entry.system

    trans = topological_transitivity_verdict(system)

    pts = periodic_points(system, 2)
    values = np.sort([p.value for p, _ in pts])
    gaps = np.diff(values)
    max_gap = max(float(gaps.max()), 1.0 - float(values[-1]) + float(values[0]))
    dense = max_gap <= 2 * 0.01
    # the doubled flip fixes every point exactly: its lift is bitwise the
    # identity, and the circle-level round trip is within one rounding step
    lift = system.word_lift((2, 2))
    exact = all(lift(x) == x for x in np.linspace(0.0, 0.999, 333))
    exact = exact and all(
        circ_dist(compose_word(system, (2, 2), x), x) <= 1e-15
        for x in np.linspace(0.0, 0.999, 333))
    has_idword = any(w == (2, 2) for _, w in pts)

    report, verdict = sensitivity_estimate(system)
    r_min = _radius_ladder(DEFAULT_RESOLUTION.r)[-1]
    sens_ok = (not verdict.holds) and report.delta_hat <= 2 * r_min + 1e-9

    elapsed = time.monotonic() - t0
    ok = trans.holds and dense and exact and has_idword and sens_ok and elapsed <= 30
    announce(1, ok,
             f"transitivity={trans.holds}, periodic max_gap={max_gap:.4f}, "
             f"identity word exact={exact}, delta_hat={report.delta_hat:.5f} "
             f"<= {2 * r_min + 1e-9:.5f}, {elapsed:.1f}s <= 30s")


def test_criterion_2_hinge_example_conformance():
    t0 = time.monotonic()
    system = build_example("ex42_hinges").system

    st = s_transitivity_verdict(system)
    covers_ok = st.holds and len(st.witnesses["covers"]) > 0

    mini = minimality_verdict(system)
    mini_ok = (not mini.holds and mini.witnesses["witness_point"] == 0.0
               and mini.witnesses["uncovered_gap"] == 1.0
               and mini.witnesses["orbit_points"] == 1)

    strong = strong_transitivity_verdict(system)

    ap_fail = [almost_periodic_verdict(system, x).holds
               for x in [round(0.05 + 0.1 * i, 2) for i in range(10)]]
    ap_p = almost_periodic_verdict(system, 0.0).holds

    report, sens = sensitivity_estimate(system)
    sens_ok = sens.holds and report.delta_hat >= 0.05

    elapsed = time.monotonic() - t0
    ok = (covers_ok and mini_ok and not strong.holds and not any(ap_fail)
          and ap_p and sens_ok and elapsed <= 120)
    announce(2, ok,
             f"s_transitivity={st.holds}, minimality witness p exact={mini_ok}, "
             f"strong={strong.holds}, almost_periodic off-p all fail={not any(ap_fail)}, "
             f"at p={ap_p}, delta_hat={report.delta_hat:.4f} >= 0.05, "
             f"{elapsed:.1f}s <= 120s")


def test_criterion_3_witness_pipeline():
    system = build_example("ex42_hinges").system
    delta_candidate, verdict = sensitivity_witness_from_nonminimality(system)
    ok = abs(delta_candidate - 0.125) <= 1e-6 and verdict.holds
    announce(3, ok,
             f"delta_candidate={delta_candidate!r} (target 0.125 +- 1e-6), "
             f"verification holds={verdict.holds}")


def test_criterion_4_ns_rotation_conformance():
    t0 = time.monotonic()
    system = build_example("thm34_ns_rotation").system

    strong = strong_transitivity_verdict(system, DEFAULT_RESOLUTION.replaced(depth=200))

    recs = fixed_points(system.generators[0])
    repeller = next(r for r in recs if r.classification == "repelling")
    rep_ok = (repeller.location.value == pytest.approx(0.0, abs=1e-9)
              and repeller.one_sided_multipliers[0] == pytest.approx(2.0, abs=1e-6)
              and repeller.one_sided_multipliers[1] == pytest.approx(2.0, abs=1e-6))

    report, sens = sensitivity_estimate(system)
    steered = report.strategy_notes.get("repeller_steered", 0)
    sens_ok = sens.holds and report.delta_hat >= 0.05 and steered > 0

    elapsed = time.monotonic() - t0
    ok = strong.holds and rep_ok and sens_ok and elapsed <= 120
    announce(4, ok,
             f"strong(depth=200)={strong.holds}, repeller at 0 mult 2.0={rep_ok}, "
             f"delta_hat={report.delta_hat:.4f} >= 0.05 with {steered} steered wins, "
             f"{elapsed:.1f}s <= 120s")


def test_criterion_5_expanding_conformance():
    system = build_example("prop35_expanding").system

    v = expanding_verdict(system, DEFAULT_RESOLUTION.replaced(net_size=1024))
    eta = v.witnesses["eta"]
    eta_ok = v.holds and eta == 0.5

    res = DEFAULT_RESOLUTION.replaced(r=0.01)
    cof = cofinite_sensitivity_verdict(system, 0.2, res, window=100)
    cof_ok = cof.holds and cof.witnesses["max_N"] <= 6

    horizon = 30
    times = separation_times(system, Arc(CirclePoint(0.1), 0.02),
                             constant_rule(1), 0.2, horizon)
    # oracle: diameter min(0.02 * 2^n, 1/2) first exceeds 0.2 at n = 4
    expected = [n for n in range(horizon + 1) if min(0.02 * 2 ** n, 0.5) > 0.2]
    times_ok = times == expected and expected[0] == 4

    ok = eta_ok and cof_ok and times_ok
    announce(5, ok,
             f"expanding=(True, eta={eta}), cofinite N={cof.witnesses.get('max_N')} <= 6, "
             f"separation_times == {{4..{horizon}}}: {times_ok}")


# ---------------------------------------------------------------------------
# criterion 6: exact-arithmetic oracle over the finite invariant lattice

# boundary-free resolution: no comparison threshold coincides with a lattice
# distance, so float and exact arithmetic order identically
RES6 = Resolution(eps=0.013, r=0.011, depth=60, net_size=100, budget=100_000)
HALF = Fraction(1, 2)


def lattice_semigroup(gens):
    """Closure of (sign, offset) isometries under composition."""
    elems = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for s1, c1 in frontier:
            for s2, c2 in gens:
                # apply (s1,c1) first, then (s2,c2)
                comp = (s1 * s2, (s2 * c1 + c2) % 1)
                if comp not in elems:
                    new.add(comp)
        elems |= new
        frontier = new
    return sorted(elems)


def lattice_apply(el, x):
    s, c = el
    return (s * x + c) % 1


def frac_dist(a, b):
    d = abs(a - b)
    return d if d <= HALF else 1 - d


def frac_gap(points):
    pts = sorted(set(points))
    if len(pts) == 1:
        return Fraction(1)
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    gaps.append(1 - pts[-1] + pts[0])
    return max(gaps)


class LatticeOracle:
    """Exhaustive exact evaluation of every discretized property question for
    a system of finite-order circle isometries."""

    def __init__(self, gens, fixed_pts, res: Resolution):
        self.sg = lattice_semigroup(gens)
        self.inv_sg = lattice_semigroup([(s, (-s * c) % 1) for s, c in gens])
        self.eps = Fraction(res.eps).limit_denominator(10**6)
        self.rr = Fraction(res.r).limit_denominator(10**6)
        n = res.net_size
        base = [Fraction(2 * i + 1, 2 * n) for i in range(n)]
        self.net = sorted(set(base) | set(fixed_pts))
        self.fixed_pts = list(fixed_pts)

    def orbit(self, x, sg=None):
        sg = self.sg if sg is None else sg
        return sorted({x} | {lattice_apply(el, x) for el in sg})

    def minimality(self, inverse=False):
        sg = self.inv_sg if inverse else self.sg
        return all(frac_gap(self.orbit(x, sg)) <= 2 * self.eps for x in self.net)

    def transitivity(self):
        for cu in self.net:
            orb = self.orbit(cu)
            for cv in self.net:
                if min(frac_dist(p, cv) for p in orb) > 2 * self.rr:
                    return False
        return True

    def s_transitivity(self):
        reach = self.rr + self.eps
        for cu in self.net:
            orb = self.orbit(cu)
            for t in self.net:
                if min(frac_dist(p, t) for p in orb) > reach:
                    return False
        return True

    def sensitivity(self):
        return False  # every word is an isometry: separation never exceeds r

    def cofinite_sensitivity(self, delta):
        return 2 * self.rr > Fraction(delta).limit_denominator(10**6) and False

    def almost_periodic(self, x):
        closure = set(self.orbit(x))
        for fp in self.fixed_pts:
            if min(frac_dist(fp, p) for p in closure) <= self.eps / 2:
                closure.add(fp)
        for y in sorted(closure):
            orb_y = self.orbit(y)
            if any(min(frac_dist(s, p) for p in orb_y) > self.eps for s in closure):
                return False
        return True

    def dense_periodic(self, gens, max_len=2):
        words = [(1, Fraction(0))]
        fixed = set()
        for _ in range(max_len):
            words = [( (s1 * s2), (s2 * c1 + c2) % 1)
                     for s1, c1 in words for s2, c2 in gens]
            for s, c in words:
                if s == 1 and c == 0:
                    return True  # an identity word fixes the whole circle
                if s == -1:
                    fixed.add((c / 2) % 1)
                    fixed.add((c / 2 + HALF) % 1)
        return bool(fixed) and frac_gap(sorted(fixed)) <= 2 * self.eps

    def witness_candidate(self):
        worst = max(frac_gap(self.orbit(x)) for x in self.net)
        return worst / 2 / 4


def run_lattice_comparison(system, gens, fixed_pts, x_ap):
    oracle = LatticeOracle(gens, fixed_pts, RES6)
    got, want = {}, {}

    got["minimality"] = minimality_verdict(system, RES6).holds
    want["minimality"] = oracle.minimality()
    got["strong_transitivity"] = strong_transitivity_verdict(system, RES6).holds
    want["strong_transitivity"] = oracle.minimality(inverse=True)
    got["transitivity"] = topological_transitivity_verdict(system, RES6).holds
    want["transitivity"] = oracle.transitivity()
    got["s_transitivity"] = s_transitivity_verdict(system, RES6).holds
    want["s_transitivity"] = oracle.s_transitivity()
    _, sens = sensitivity_estimate(system, RES6)
    got["sensitivity"] = sens.holds
    want["sensitivity"] = oracle.sensitivity()
    got["cofinite_sensitivity"] = cofinite_sensitivity_verdict(system, 0.1, RES6).holds
    want["cofinite_sensitivity"] = oracle.cofinite_sensitivity(0.1)
    got["almost_periodic"] = almost_periodic_verdict(system, float(x_ap), RES6).holds
    want["almost_periodic"] = oracle.almost_periodic(x_ap)
    got["expanding"] = expanding_verdict(system, DEFAULT_RESOLUTION.replaced(net_size=1024)).holds
    want["expanding"] = False
    pts = periodic_points(system, 2)
    vals = [p.value for p, _ in pts]
    if vals:
        arr = np.sort(vals)
        gap = max(float(np.diff(arr).max()) if arr.size > 1 else 1.0,
                  1.0 - float(arr[-1]) + float(arr[0]))
        got["dense_periodic"] = gap <= 2 * RES6.eps
    else:
        got["dense_periodic"] = False
    want["dense_periodic"] = oracle.dense_periodic(gens)
    got["repelling_fixed_point"] = any(
        r.classification == "repelling"
        for g in system.generators for r in fixed_points(g))
    want["repelling_fixed_point"] = False

    delta_candidate, verdict = sensitivity_witness_from_nonminimality(system, RES6)
    got["witness_candidate"] = round(delta_candidate, 9)
    want["witness_candidate"] = round(float(oracle.witness_candidate()), 9)
    got["witness_verdict"] = verdict.holds
    want["witness_verdict"] = False

    mismatches = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
    return mismatches


def test_criterion_6_oracle_equivalence():
    quarter = IfsSystem([Rotation(0.25)])
    mism_a = run_lattice_comparison(
        quarter, [(1, Fraction(1, 4))], [], Fraction(1, 200))

    sixth_flip = IfsSystem([Rotation(1.0 / 6.0), Flip()])
    mism_b = run_lattice_comparison(
        sixth_flip, [(1, Fraction(1, 6)), (-1, Fraction(0))],
        [Fraction(0), HALF], Fraction(1, 200))

    ok = not mism_a and not mism_b
    announce(6, ok,
             f"rotation(1/4) mismatches={mism_a or 'none'}; "
             f"rotation(1/6)+flip mismatches={mism_b or 'none'}")


# ---------------------------------------------------------------------------


def random_word(rng, k, max_len=8):
    length = int(rng.integers(0, max_len + 1))
    return tuple(int(v) for v in rng.integers(1, k + 1, size=length))


def test_criterion_7_property_suites():
    hinges = build_example("ex42_hinges").system
    symmetric = build_example("thm34_ns_rotation").system
    isometries = build_example("rotation_flip").system
    rng = np.random.default_rng(20240809)

    violations = []

    for _ in range(10_000):
        u, v = random_word(rng, hinges.k, 5), random_word(rng, hinges.k, 5)
        x = rng.random()
        lhs = compose_word(hinges, concat(u, v), x)
        rhs = compose_word(hinges, v, compose_word(hinges, u, x))
        if circ_dist(lhs, rhs) > 1e-12:
            violations.append(("homomorphism", u, v, x))

    for _ in range(10_000):
        w = random_word(rng, symmetric.k, 6)
        x = rng.random()
        y = symmetric.apply_word(w, x)
        if circ_dist(symmetric.apply_inverse_word(w, y), x) > 1e-12:
            violations.append(("inverse", w, x))

    for _ in range(10_000):
        w = random_word(rng, isometries.k, 10)
        x, y = rng.random(), rng.random()
        before = circ_dist(x, y)
        after = circ_dist(compose_word(isometries, w, x), compose_word(isometries, w, y))
        if abs(before - after) > 1e-12:
            violations.append(("isometry", w, x, y))

    gens = (list(hinges.generators) + list(symmetric.generators)
            + [Expanding(2), Expanding(3)])
    fd_checked = 0
    for g in gens:
        for x in rng.random(120):
            try:
                d = g.derivative(float(x))
            except NotDifferentiable:
                continue
            fd = (g.lift(float(x) + 1e-6) - g.lift(float(x) - 1e-6)) / 2e-6
            fd_checked += 1
            if abs(d - fd) > 1e-4:
                violations.append(("derivative", repr(g), x))
    assert fd_checked > 1000

    # two-sided Lebesgue check on a computed cover
    cover = local_expanding_cover(symmetric)
    arcs = [p.arc for p in cover.pieces]
    rho = cover.lebesgue

    def fits(x, radius):
        for a in arcs:
            if a.length >= 1.0 - 1e-15:
                return True
            dl = (x - a.start.value) % 1.0
            if dl <= a.length and radius <= min(dl, a.length - dl):
                return True
        return False

    net = [(i + 0.5) / 10_000 for i in range(10_000)]
    if not all(fits(x, rho * (1 - 1e-6)) for x in net):
        violations.append(("lebesgue_lower",))
    if all(fits(x, rho * (1 + 1e-3)) for x in net):
        violations.append(("lebesgue_upper",))

    # expanding-structure harness on the gallery: a uniformly expanding family
    # is cofinitely sensitive, and a pointwise expanding cover forces the
    # sensitivity verdict
    expanding_gallery = build_example("prop35_expanding").system
    expanding = expanding_verdict(expanding_gallery, DEFAULT_RESOLUTION.replaced(net_size=1024))
    if expanding.holds and not cofinite_sensitivity_verdict(
            expanding_gallery, 0.2, DEFAULT_RESOLUTION, 100).holds:
        violations.append(("expanding_implies_cofinite", "prop35_expanding"))
    for name in ("thm34_ns_rotation", "prop35_expanding"):
        system = build_example(name).system
        local_expanding_cover(system)  # raises if no cover exists
        _, sens = sensitivity_estimate(system)
        if not sens.holds:
            violations.append(("cover_implies_sensitive", name))

    # implication chain at one shared resolution across the whole gallery
    chain = {}
    for name in ("rotation_flip", "ex42_hinges", "thm34_ns_rotation",
                 "cor33_morse_smale", "prop35_expanding"):
        system = build_example(name).system
        try:
            strong = strong_transitivity_verdict(system, DEFAULT_RESOLUTION).holds
        except NonInvertible:
            strong = None
        s_tr = s_transitivity_verdict(system, DEFAULT_RESOLUTION).holds
        top = topological_transitivity_verdict(system, DEFAULT_RESOLUTION).holds
        chain[name] = (strong, s_tr, top)
        if strong and not s_tr:
            violations.append(("chain_strong_implies_s", name))
        if s_tr and not top:
            violations.append(("chain_s_implies_top", name))

    ok = not violations
    announce(7, ok, f"violations={violations or 'none'}; chain={chain}")


def test_criterion_8_determinism_across_runs():
    props = ["s_transitivity", "minimality", "strong_transitivity",
             "almost_periodic", "sensitivity"]
    params = {"x": 0.237}
    source = {"kind": "gallery", "name": "ex42_hinges"}

    def run(order):
        # a freshly built system each time, so no cached state is shared
        system = build_example("ex42_hinges").system
        return render_report(run_analyze(
            system, source, order, DEFAULT_RESOLUTION, params,
            echo=lambda *a, **k: None))

    first = run(props)
    again = run(props[::-1])
    ok = first == again
    announce(8, ok,
             f"byte-identical reports across two runs, properties in reverse "
             f"order: {ok} ({len(first)} bytes)")
