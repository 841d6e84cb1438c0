"""Acceptance gate: one test per criterion, exact tolerances, timed budgets.

Each test prints one line `ACCEPTANCE <n>: PASS|FAIL - <name> (<elapsed>s)`.

Criterion 3 contains sub-cases that the shipped construction provably cannot
satisfy; it is implemented as stated and fails honestly rather than being
weakened.  The weight-truncated divided-power lattice acquires extra p-torsion
in H^2 for the sphere (p = 2, 3) and the projective plane (p = 2).  For p = 2
the extra Z/2 appears from weight 4 on, and the model's own stability flag
fires at weight 4 (weight 4 disagrees with weight 3).  For the sphere at p = 3
the extra Z/3 appears from weight 3 on, so the flag fires at weight 3 and not
at weights 4 or 5: at the default weight 4 the wrong answer is reported as
stable.  The witness
class (a multiple of dx1 dx2 minus x1^[2] dx1 dx2 on the sphere) stays
non-exact for every primitive weight tried up to 32, and the failure is forced
by the Moore 1-cycle t^[2] - t at level 1, which no lattice element with
vanishing axis restrictions bounds.

Criterion 5b compares the decalage eta^n = {x in p^n C^n : dx in p^{n+1}
C^{n+1}} with the generator-wise p-shifted lattice D^n.  D^n lies in eta^n,
and the Bockstein y -> dy/p identifies eta^n/D^n with H^{n+1}(X; Z)[p], so
[eta^n : D^n] = |H^{n+1}[p]|.  The test checks this index law, and that the
lattices are HNF-identical exactly when the index is 1.  They cannot be
identical everywhere: criterion 5a needs H^2(D) = H^2(rp2) = Z/2, while
H^i(eta_p K) = H^i(K)/H^i(K)[p] gives H^2(eta_2) = 0 on the projective plane,
whose degree-1 lattices differ by index 2.

Everything else passes; see tests/test_* for the supporting evidence and the
brute-force oracles behind the frozen expected values.
"""

import itertools
import random
import time

import pytest

from padicforms.decalage import (
    TensorLevels,
    VLevels,
    build_D,
    eta_p,
)
from padicforms.derham import (
    OmegaLevels,
    SectionComplex,
    apl_mod_p,
    build_omega,
    extendability_witness,
    homotopy_groups_check,
    omega_cohomology,
    form_class_coordinates,
)
from padicforms.divided import DividedMonomial, OmegaElement, gamma_tensor_oracle
from padicforms.linalg import p_local_cohomology
from padicforms.massey import (
    DgaData,
    UndefinedMasseyProduct,
    eligible_pairs,
    enumerate_massey_coset,
    in_subgroup_mod,
    massey_coset_from_result,
    massey_scaling_check,
    obstruction_fixture,
    random_space,
    triple_massey,
)
from padicforms.products import (
    cohomology_ring,
    cup_i_coboundary_defect,
    hirsch_check,
    steenrod_square,
)
from padicforms.simplicial import (
    basis_cochain,
    boundary_delta,
    delta,
    normalized_cochain_complex,
    rp2,
    sphere,
)

LIBRARY = lambda: [delta(1), delta(2), boundary_delta(2),
                   sphere(1), sphere(2), rp2()]


def report_line(number, name, failures, started, budget):
    elapsed = time.monotonic() - started
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {name} ({elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"
    assert not failures, f"criterion {number} failed: {failures}"


def test_criterion_01_poincare_lemma():
    started = time.monotonic()
    failures = []
    for n in (1, 2):
        for weight in (4, 5, 6):
            for p in (2, 3):
                level = build_omega(n, weight, p)
                for k in range(n + 1):
                    d_prev = level.diff_matrix(k - 1) if k else \
                        [[] for _ in range(level.dims(0))]
                    d_cur = level.diff_matrix(k) if k < n else []
                    rep = p_local_cohomology(d_prev, d_cur, p)
                    want = (1, []) if k == 0 else (0, [])
                    if rep.invariants() != want:
                        failures.append((n, weight, p, k, rep.invariants()))
    report_line(1, "Poincare lemma for the level lattices", failures,
                started, 60)


def test_criterion_02_circle_answer():
    started = time.monotonic()
    failures = []
    for p in (2, 3):
        result = omega_cohomology(sphere(1), 4, 1, p)
        reports = result["reports"]
        if reports[0].invariants() != (1, []):
            failures.append((p, 0, reports[0].invariants()))
        if reports[1].invariants() != (1, []):
            failures.append((p, 1, reports[1].invariants()))
        dx1 = OmegaElement(1, {DividedMonomial((0,), (1,)): 1})
        coords = form_class_coordinates(result, 1, {"cell": dx1})
        from padicforms.arith import valuation
        if len(coords) != 1 or valuation(coords[0], p) != 0:
            failures.append((p, "generator", coords))
        singular = normalized_cochain_complex(sphere(1))
        for q in (0, 1):
            if singular.cohomology(q, "Z", p).invariants() != \
                    reports[q].invariants():
                failures.append((p, "singular-mismatch", q))
    report_line(2, "circle: free rank one in degrees 0 and 1, generator dx0",
                failures, started, 30)


def test_criterion_03_ring_comparison():
    started = time.monotonic()
    failures = []
    for space in (sphere(1), sphere(2), rp2()):
        for p in (2, 3):
            q_max = space.dimension
            omega = omega_cohomology(space, 4, q_max, p)
            singular, products = cohomology_ring(space, "Z", p, q_max)
            for q in range(q_max + 1):
                got = omega["reports"][q].invariants()
                want = singular[q].invariants()
                if got != want:
                    failures.append((space.name, p, q, got, want,
                                     "stable" if omega["stable"][q]
                                     else "flagged-unstable"))
            # generator products: compare vanishing patterns of products of
            # positive-degree generators (all are zero for these spaces)
            for (q1, i1, q2, i2), coords in products.items():
                if q1 == 0 or q2 == 0:
                    continue
                omega_coords = omega["products"].get((q1, i1, q2, i2))
                want_zero = all(c == 0 for c in coords)
                got_zero = omega_coords is None or \
                    all(c == 0 for c in omega_coords)
                if want_zero != got_zero:
                    failures.append((space.name, p, "product", q1, q2))
    report_line(3, "sphere and projective plane match the singular ring",
                failures, started, 300)


def test_criterion_04_non_extendability():
    started = time.monotonic()
    failures = []
    for p in (2, 3):
        for weight in range(1, 7):
            report = extendability_witness(weight, p)
            if report["extendable"]:
                failures.append((p, weight, "extendable"))
            if not report["certificate_valid"]:
                failures.append((p, weight, "bad-certificate"))
            if not report["control_extendable"]:
                failures.append((p, weight, "control"))
    report_line(4, "(1, p) does not extend over the interval; (p, p) does",
                failures, started, 10)


def test_criterion_05a_decalage_cohomology():
    started = time.monotonic()
    failures = []
    for space in LIBRARY():
        cx = normalized_cochain_complex(space)
        for p in (2, 3):
            shifted = build_D(space, p)
            for q in range(space.dimension + 1):
                got = shifted.cohomology(q, p).invariants()
                want = cx.cohomology(q, "Z", p).invariants()
                if got != want:
                    failures.append((space.name, p, q, got, want))
    report_line("5a", "p-shifted lattice computes singular cohomology",
                failures, started, 60)


def _pivot_product(basis):
    product = 1
    for row in basis:
        product *= next(x for x in row if x)
    return product


def test_criterion_05b_eta_equals_shifted_lattice():
    # The Bockstein y -> dy/p identifies eta^n/D^n with H^{n+1}(X; Z)[p], so
    # the index [eta^n : D^n] is p^t, t the number of p-power torsion summands
    # of H^{n+1}, and the HNF bases agree exactly when t = 0.  Both lattices
    # contain p^{n+1} C^n, so they are full rank and the index is the ratio of
    # the pivot products of their HNF bases.
    started = time.monotonic()
    failures = []
    for space in LIBRARY():
        cx = normalized_cochain_complex(space)
        top = cx.top_degree()
        for p in (2, 3):
            shifted = build_D(space, p)
            eta = eta_p(cx, p)
            for n in range(top + 1):
                t = len(cx.cohomology(n + 1, "Z", p).torsion) if n < top else 0
                expected = p ** t
                equal = shifted.bases[n] == eta.bases[n]
                nested = all(eta.contains(n, vec) for vec in shifted.bases[n])
                full = len(shifted.bases[n]) == len(eta.bases[n]) == cx.dim(n)
                found = (_pivot_product(shifted.bases[n])
                         // _pivot_product(eta.bases[n])
                         if nested and full else None)
                if found != expected or equal != (t == 0):
                    failures.append((space.name, p, n, found, expected, equal))
    report_line("5b", "decalage over p-shifted lattice has index "
                      "|H^{n+1}[p]|, equal exactly when it is 1",
                failures, started, 60)


def test_criterion_06_homotopy_ladder():
    started = time.monotonic()
    failures = []
    for p in (2, 3):
        for k in (0, 1):
            rep = homotopy_groups_check(k, 4, p)
            if not rep["pi_k_omega_is_z_mod_p"]:
                failures.append((p, k, "pi_k_omega", rep["pi_k_omega"]))
            if not rep.get("stated_generator_generates"):
                failures.append((p, k, "generator"))
            if rep["generator_valuation"] != k:
                failures.append((p, k, "valuation", rep["generator_valuation"]))
    report_line(6, "homotopy ladder: pi_k(Omega^k) = Z/p, cocycle generator "
                   "has valuation k", failures, started, 120)


def test_criterion_07_apl_mod_2():
    started = time.monotonic()
    failures = []
    out = apl_mod_p(1, 2, 8)
    # degree-0 classes are the even powers up to t^8; degree-1 classes the odd
    # powers times dt within weight 8
    if out["dims"][0] != 5:
        failures.append(("n=1 degree 0", out["dims"][0]))
    if out["dims"][1] != 4:
        failures.append(("n=1 degree 1", out["dims"][1]))
    rep1 = out["reports"][1]
    forms = out["forms"]
    for a in range(8):
        vec = [0] * forms.dims(1)
        vec[forms.index[((a,), (1,))]] = 1
        if rep1.is_coboundary(vec) != (a % 2 == 0):
            failures.append(("n=1 class pattern", a))
    square = apl_mod_p(2, 2, 4)
    want = {0: 0, 1: 0, 2: 0}
    for a1 in range(5):
        for a2 in range(5):
            b1, b2 = a1 % 2, a2 % 2
            if a1 + a2 + b1 + b2 <= 4:
                want[b1 + b2] += 1
    if square["dims"] != want:
        failures.append(("n=2 tuple rule", square["dims"], want))
    report_line(7, "mod-2 polynomial forms: even/odd basis and tuple count",
                failures, started, 30)


def test_criterion_08_cup_i_conformance():
    started = time.monotonic()
    failures = []
    for space in (rp2(), sphere(2)):
        for ring in (("GF", 2), "Z"):
            basis1 = [basis_cochain(space, 1, i, ring)
                      for i in range(space.n_cells(1))]
            basis2 = [basis_cochain(space, 2, i, ring)
                      for i in range(space.n_cells(2))]
            for a in basis1:
                for b in basis1:
                    if not cup_i_coboundary_defect(a, b, 1).is_zero():
                        failures.append((space.name, ring, "coboundary-1-1"))
                    for c in basis1:
                        ok, witness = hirsch_check(a, b, c)
                        if not ok:
                            failures.append((space.name, ring, "hirsch",
                                             witness))
                for b in basis2:
                    if not cup_i_coboundary_defect(a, b, 1).is_zero():
                        failures.append((space.name, ring, "coboundary-1-2"))
                    if not cup_i_coboundary_defect(b, a, 1).is_zero():
                        failures.append((space.name, ring, "coboundary-2-1"))
    cx = normalized_cochain_complex(rp2())
    h1 = cx.cohomology(1, ("GF", 2))
    sq_vec, sq_rep = steenrod_square(rp2(), 1, h1.generators[0], 1)
    if sq_rep.is_coboundary(sq_vec):
        failures.append(("rp2", "Sq1-vanished"))
    report_line(8, "cup-1 identities exhaustively over F_2 and Z; Sq^1 "
                   "nonzero on the projective plane", failures, started, 60)


def test_criterion_09_massey_identity():
    started = time.monotonic()
    failures = []
    checked_identity = 0
    checked_oracle = 0
    spaces = [(s, DgaData.from_space(s)) for s in LIBRARY()]
    spaces += [(None, DgaData.from_space(random_space(seed)))
               for seed in range(50)]
    for origin, dga in spaces:
        for (qa, a), (qb, b) in eligible_pairs(dga, 2):
            try:
                result = triple_massey(dga, a, b, a, ("GF", 2),
                                       degrees=(qa, qb, qa))
            except UndefinedMasseyProduct:
                continue
            sq = dga.cup1(qa, qa, a, a)
            sq_cup_b = dga.mul(2 * qa - 1, qb, sq, b)
            diff = [(x - y) % 2 for x, y in
                    zip(sq_cup_b, result.representative)]
            if not in_subgroup_mod(dga, result.degree, diff,
                                   result.indeterminacy, ("GF", 2)):
                failures.append((dga.label, qa, qb, "identity"))
            checked_identity += 1
    for seed in range(50):
        space = random_space(seed, n_vertices=2, n_edges=2, n_triangles=1)
        if sum(len(l) for l in space.simplices) > 6:
            continue
        dga = DgaData.from_space(space)
        for (qa, a), (qb, b) in eligible_pairs(dga, 2):
            try:
                result = triple_massey(dga, a, b, a, ("GF", 2),
                                       degrees=(qa, qb, qa))
                want = enumerate_massey_coset(dga, a, b, a, (qa, qb, qa), 2)
            except UndefinedMasseyProduct:
                continue
            got = massey_coset_from_result(dga, result)
            if got != want:
                failures.append((dga.label, qa, qb, "oracle"))
            checked_oracle += 1
    if checked_identity < 20 or checked_oracle < 4:
        failures.append(("too-few-instances", checked_identity,
                         checked_oracle))
    report_line(9, "m(a,b,a) equals [(a cup_1 a) cup b] mod indeterminacy; "
                   "oracle agreement", failures, started, 300)


def test_criterion_10_massey_scaling():
    started = time.monotonic()
    failures = []
    rng = random.Random(2026)
    for p, precision in ((2, 5), (3, 4)):
        ring = ("Zmod", p ** precision)
        checked = 0
        seed = 0
        while checked < 25 and seed < 200:
            space = random_space(seed)
            seed += 1
            dga = DgaData.from_space(space)
            pairs = eligible_pairs(dga, p, ring=ring)
            for (qa, a), (qb, b) in pairs[:3]:
                r = rng.randint(0, 2)
                s = rng.randint(0, min(2, 3 - r))
                t = rng.randint(0, 3 - r - s)
                try:
                    ok = massey_scaling_check(dga, a, b, a, (qa, qb, qa),
                                              (r, s, t), p, precision)
                except UndefinedMasseyProduct:
                    continue
                if not ok:
                    failures.append((space.name, p, (r, s, t)))
                checked += 1
                if checked >= 25:
                    break
        if checked < 25:
            failures.append((p, "too-few-instances", checked))
    report_line(10, "p-power Massey scaling over Z/2^5 and Z/3^4", failures,
                started, 120)


def test_criterion_11_divided_power_oracle():
    started = time.monotonic()
    failures = []
    for degrees in ({"v": 2}, {"v": 1}, {"v": 2, "w": 2}, {"v": 2, "w": 1},
                    {"v": 1, "w": 1}):
        cap = 4 if all(d % 2 == 0 for d in degrees.values()) else 3
        report = gamma_tensor_oracle(cap, degrees)
        if not report["ok"]:
            failures.append((degrees, report))
    report_line(11, "divided powers match shuffle-invariant tensors",
                failures, started, 10)


def test_criterion_12_tensor_stretch():
    started = time.monotonic()
    failures = []
    for p in (2, 3):
        per_weight = {}
        for w in (1, 2):
            omega = OmegaLevels(w, p)
            v = VLevels(p)
            tensor = TensorLevels(v, omega)
            cx = SectionComplex(sphere(1), tensor, 1)
            per_weight[w] = {q: cx.cohomology(q).invariants() for q in (0, 1)}
        if per_weight[2] != {0: (1, []), 1: (1, [])}:
            failures.append((p, per_weight[2]))
        if per_weight[1] != per_weight[2]:
            # flagged unstable; only a failure if the weight-2 answer is off
            print(f"  note: tensor model at p={p} unstable between "
                  f"weights 1 and 2: {per_weight}")
    report_line(12, "(V x Omega)(S^1) has free rank one in degrees 0 and 1",
                failures, started, 600)
