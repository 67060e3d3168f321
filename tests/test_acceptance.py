"""Seven end-to-end checks, one per release gate.

Each test prints a single "ACCEPTANCE n <name>: PASS/FAIL" line through
the capture bypass so the verdicts survive in batch logs, and enforces
its own wall-clock budget.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from fm_oracle import brute_force_chamber_meet, brute_force_cone_meets_subspace
from linalg_oracle import eigenbasis, in_span, vdot

from branchdec.catalog import load_catalog
from branchdec.cone_kernel import (
    Cone,
    cone_meets_subspace,
    cones_meet,
)
from branchdec.decider import (
    Query,
    discretely_decomposable,
    rho_compat_check,
    transitive_check,
)
from branchdec.involution import (
    InvolutionData,
    build_theta_involution,
    cap_dims,
    member_signs,
    restricted_roots,
)
from branchdec.parabolic import build_parabolic, enumerate_parabolics
from branchdec.root_core import (
    WeightMultiset,
    is_zero_vec,
    project_onto_span,
    subspace_normals,
    vadd,
    vec,
    vec_from,
    vneg,
    vscale,
    vsub,
    vzero,
)

F = Fraction


@lru_cache(maxsize=None)
def _cat():
    return load_catalog()


@contextmanager
def _criterion(capsys, number: int, name: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        if elapsed >= budget_s:
            raise AssertionError(
                f"criterion {number} took {elapsed:.1f} s, "
                f"budget is {budget_s:.0f} s"
            )
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f} s)")


# ---------------------------------------------------------------------------


def test_criterion_1_table_restrictions(capsys):
    # the five catalogued symmetric rows restrict along both parabolic
    # choices: the orbit is open and the induced half sums agree
    with _criterion(capsys, 1, "table-restrictions", 10.0):
        cat = _cat()
        rows_seen = 0
        for pid in (
            "(su(2,2),sp(2,R))",
            "(su(2,2),sp(1,1))",
            "(so(2,2),so(2,1))",
            "(so(4),so(3))",
            "(su(4),sp(2))",
        ):
            pair = cat.pair(pid)
            assert pair.table_rows, pid
            for row in pair.table_rows:
                for x in (row.x, vneg(row.x)):
                    row = Query(pair, build_parabolic(pair.base, x))
                    assert transitive_check(row).answer is True, (pid, x)
                    assert rho_compat_check(row).answer is True, (pid, x)
                    rows_seen += 1
        assert rows_seen == 10


def test_criterion_2_levi_exhaustion(capsys):
    # sweeping every parabolic class of the split-rank-two pair shows the
    # open-orbit property singles out the one catalogued Levi shape
    with _criterion(capsys, 2, "levi-exhaustion", 30.0):
        cat = _cat()
        pair = cat.pair("(su(2,2),sp(2,R))")
        classes = list(enumerate_parabolics(pair.base, dominant_only=True))
        assert len(classes) == 26

        passes = [
            q for q in classes if transitive_check(Query(pair, q)).answer
        ]
        trivial = [q for q in passes if q.dim_u == 0]
        proper = [q for q in passes if q.dim_u > 0]

        # the zero face always passes: the orbit is a single point
        assert len(trivial) == 1
        assert len(proper) == 4
        for q in proper:
            assert q.dim_levi == 9
            counts = sorted(q.x.count(c) for c in set(q.x))
            assert counts == [1, 3]

        row_x = pair.table_rows[0].x
        assert build_parabolic(pair.base, row_x) in set(proper)


def test_criterion_3_maximal_compact_sweep(capsys):
    # against the identity-component fixed points of the Cartan
    # involution, every parabolic class decomposes discretely
    with _criterion(capsys, 3, "maximal-compact-sweep", 60.0):
        cat = _cat()
        swept = 0
        for aid in cat.algebra_ids():
            base = cat.algebra(aid)
            if base.dim_t > 3:
                continue
            theta = build_theta_involution(base)
            for q in enumerate_parabolics(base):
                v = discretely_decomposable(Query(theta, q))
                assert v.answer is True, (aid, q.x)
                swept += 1
        assert swept >= 400


def test_criterion_4_doubled_group_signs(capsys):
    # same chamber choice in both factors decomposes; opposite choices
    # push the noncompact cone onto the antidiagonal and it fails
    with _criterion(capsys, 4, "doubled-group-signs", 1.0):
        cat = _cat()
        pair = cat.pair("swap:su(1,1)^2")

        same = discretely_decomposable(
            Query(pair, build_parabolic(pair.base, vec(1, 1)))
        )
        assert same.answer is True

        q = build_parabolic(pair.base, vec(1, -1))
        opposite = discretely_decomposable(Query(pair, q))
        assert opposite.answer is False
        w = opposite.witness
        assert w["kind"] == "intersection-point"
        point = vec_from(w["point"])
        coeffs = [F(c) for c in w["cone_coefficients"]]
        gens = [g for g, _ in q.base.noncompact if vdot(g, q.x) > 0]
        total = vzero(2)
        for c, g in zip(coeffs, gens):
            assert c >= 0
            total = vadd(total, vscale(c, g))
        assert total == point
        assert not is_zero_vec(point)
        assert point[0] == -point[1]


def test_criterion_5_complex_pair_borel(capsys):
    # restriction of a Borel-type module from the complex group to its
    # split real form keeps continuous spectrum: the cone test fails
    with _criterion(capsys, 5, "complex-pair-borel", 5.0):
        cat = _cat()
        pair = cat.pair("(so(5,C),so(3,2))")
        q = build_parabolic(pair.base, vec(2, 1))
        # Borel type: no nonzero weight is left in the Levi (the torus and
        # its mirrored zero weights always stay)
        assert all(
            is_zero_vec(w)
            for _, w, _ in q.base.weight_entries()
            if vdot(w, q.x) == 0
        )
        v = discretely_decomposable(Query(pair, q))
        assert v.answer is False
        assert v.witness["kind"] == "intersection-point"
        point = vec_from(v.witness["point"])
        assert in_span(point, eigenbasis(pair, -1))


def _rand_vec(rng, dim, lo=-4, hi=4):
    return vec(*(rng.randint(lo, hi) for _ in range(dim)))


def _rand_pointed_gens(rng, dim, count):
    # draw a strict functional first, then flip generators onto its
    # positive side so pointedness comes with a certificate
    while True:
        cert = _rand_vec(rng, dim)
        if not is_zero_vec(cert):
            break
    gens = []
    while len(gens) < count:
        g = _rand_vec(rng, dim)
        d = vdot(g, cert)
        if d == 0:
            continue
        gens.append(g if d > 0 else vneg(g))
    return gens, cert


def test_criterion_6_kernel_oracle_agreement(capsys):
    # the pivoting route and the elimination route must agree everywhere
    with _criterion(capsys, 6, "kernel-oracle-agreement", 120.0):
        rng = random.Random(20260823)
        instances = 0
        disagreements = 0

        for _ in range(650):
            dim = rng.randint(1, 4)
            gens, cert = _rand_pointed_gens(rng, dim, rng.randint(1, 8))
            rows = [_rand_vec(rng, dim) for _ in range(rng.randint(0, dim))]
            cone = Cone.from_generators(gens, dim)
            got = cone_meets_subspace(
                cone, subspace_normals(rows, dim), cert
            ).meets
            want = brute_force_cone_meets_subspace(gens, rows)
            instances += 1
            if got != want:
                disagreements += 1

        completed = 0
        attempts = 0
        while completed < 400 and attempts < 2000:
            attempts += 1
            dim = rng.randint(1, 4)
            gens, cert = _rand_pointed_gens(rng, dim, rng.randint(1, 6))
            rows = [_rand_vec(rng, dim) for _ in range(rng.randint(0, dim))]
            walls = [_rand_vec(rng, dim) for _ in range(rng.randint(0, 3))]
            cone = Cone.from_generators(gens, dim)
            got = cones_meet(
                cone, subspace_normals(rows, dim), walls, cert
            ).meets
            try:
                want = brute_force_chamber_meet(gens, rows, walls)
            except RuntimeError:
                # the elimination oracle refuses rare blowup instances;
                # they are redrawn, not counted
                continue
            completed += 1
            instances += 1
            if got != want:
                disagreements += 1

        assert completed == 400
        assert instances >= 1000
        assert disagreements == 0


def test_criterion_7_property_suite(capsys):
    with _criterion(capsys, 7, "property-suite", 60.0):
        cat = _cat()
        rng = random.Random(20260824)

        # parabolic classes depend on X only through its sign pattern
        for aid in ("su(2,2)", "so(4,3)"):
            base = cat.algebra(aid)
            for _ in range(40):
                raw = [rng.randint(-3, 3) for _ in range(base.ambient_dim)]
                x = _embed_torus(base, raw)
                for c in (2, F(7, 3)):
                    assert build_parabolic(base, x) == build_parabolic(
                        base, vscale(c, x)
                    )

        # negating X swaps u with its opposite
        for aid in ("su(2,2)", "so(5,C)"):
            base = cat.algebra(aid)
            for q in enumerate_parabolics(base):
                opp = build_parabolic(base, vneg(q.x))
                assert opp.dim_u == q.dim_u
                flipped = WeightMultiset.of(
                    (vneg(w), m)
                    for w, m in base.noncompact
                    if vdot(w, q.x) > 0
                )
                assert flipped == WeightMultiset.of(
                    (w, m) for w, m in base.noncompact if vdot(w, opp.x) > 0
                )

        # restricted root systems close under their own reflections
        for pid in cat.pair_ids():
            pair = cat.pair(pid)
            if not isinstance(pair, InvolutionData):
                continue
            system = restricted_roots(pair)
            roots = dict(system.roots)
            for alpha in roots:
                for beta, mult in roots.items():
                    shift = F(2) * vdot(beta, alpha) / vdot(alpha, alpha)
                    image = vsub(beta, vscale(shift, alpha))
                    assert roots.get(image) == mult

        # witnesses replay against the data they were produced from
        replayed = 0
        for pid in cat.pair_ids():
            pair = cat.pair(pid)
            if not isinstance(pair, InvolutionData):
                continue
            tminus = eigenbasis(pair, -1)
            for q in enumerate_parabolics(pair.base, dominant_only=True):
                v = discretely_decomposable(Query(pair, q))
                gens = [g for g, _ in pair.base.noncompact if vdot(g, q.x) > 0]
                if v.witness["kind"] == "intersection-point":
                    point = vec_from(v.witness["point"])
                    coeffs = [F(c) for c in v.witness["cone_coefficients"]]
                    total = vzero(pair.base.ambient_dim)
                    for c, g in zip(coeffs, gens):
                        assert c >= 0
                        total = vadd(total, vscale(c, g))
                    assert total == point
                    assert not is_zero_vec(point)
                    assert in_span(point, tminus)
                else:
                    assert not brute_force_cone_meets_subspace(gens, tminus)

                t = transitive_check(Query(pair, q))
                cap_q, cap_l = cap_dims(pair.view, member_signs(pair.view, q))
                assert t.witness["dim_gprime_cap_q"] == cap_q
                assert t.witness["dim_gprime_cap_levi"] == cap_l
                replayed += 1
        assert replayed >= 80


def _embed_torus(base, raw):
    # fold an arbitrary ambient tuple into the torus of the datum
    x = vec(*raw)
    if base.t_constraints:
        x = vsub(x, project_onto_span(x, list(base.t_constraints)))
    return x
