from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from fm_oracle import (
    brute_force_chamber_meet,
    brute_force_cone_meets_subspace,
    fm_feasible,
)
from linalg_oracle import in_span, vdot

from branchdec import cone_kernel
from branchdec.cone_kernel import (
    Cone,
    PointednessError,
    cone_meets_subspace,
    cones_meet,
    simplex_feasible,
)
from branchdec.root_core import (
    CertificateError,
    subspace_normals,
    vadd,
    vec,
    vscale,
    vzero,
)

F = Fraction


def _normals(rows, dim: int = 2):
    """The normals of span(rows), the subspace the cone queries take."""
    return subspace_normals(rows, dim)


def _rand_vec(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(F(rng.randint(-4, 4)) for _ in range(n))


# ---------------------------------------------------------------------------
# simplex core


def test_simplex_feasible_basic():
    # x0 + x1 = 2 with x >= 0 has a solution
    sol, basis = simplex_feasible([vec(1, 1)], [F(2)])
    assert sol is not None
    assert sum(sol) == 2 and all(c >= 0 for c in sol)
    assert basis

    # x0 + x1 = -1 with x >= 0 does not
    sol, _ = simplex_feasible([vec(1, 1)], [F(-1)])
    assert sol is None


def test_simplex_feasible_substitutes():
    rng = random.Random(20260805)
    feas = infeas = 0
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = [_rand_vec(rng, n) for _ in range(m)]
        rhs = [F(rng.randint(-3, 3)) for _ in range(m)]
        sol, _ = simplex_feasible(rows, rhs)
        if sol is None:
            infeas += 1
            continue
        feas += 1
        assert all(c >= 0 for c in sol)
        for row, b in zip(rows, rhs):
            assert vdot(row, sol) == b
    assert feas > 50 and infeas > 50


def test_simplex_feasible_rational_entries():
    # mixed denominators exercise the integer scaling of each row; the
    # verdict is checked both ways against elimination
    rng = random.Random(20261018)
    pool = [F(0), F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(5, 7), F(-3, 4)]
    feas = infeas = 0
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = [tuple(rng.choice(pool) for _ in range(n)) for _ in range(m)]
        rhs = [rng.choice(pool) for _ in range(m)]
        sol, basis = simplex_feasible(rows, rhs)
        nonneg = [
            (tuple(F(-1) if k == j else F(0) for k in range(n)), F(0))
            for j in range(n)
        ]
        assert (sol is not None) == fm_feasible(n, list(zip(rows, rhs)), nonneg)
        if sol is None:
            infeas += 1
            continue
        feas += 1
        assert all(type(c) is Fraction and c >= 0 for c in sol)
        for row, b in zip(rows, rhs):
            assert vdot(row, sol) == b
        # a basic solution: nonzero entries sit only at basic columns
        assert {j for j, c in enumerate(sol) if c} <= set(basis)
    assert feas > 50 and infeas > 50


def test_simplex_bland_tie_break_pins_basis():
    # x0 enters first, at row 1, the only row where it is positive; x1
    # enters next with the ratios of both rows equal to 1.  Bland's rule
    # lets the row whose basic variable has the smaller index leave, which
    # is row 1 (x0), not row 0 (its artificial); picking the first row
    # would end at basis (1, 0)
    rows = [vec(0, 1, 1), vec(1, 1, 0)]
    sol, basis = simplex_feasible(rows, [F(1), F(1)])
    assert sol == vec(0, 1, 0)
    assert basis == (2, 1)


def test_simplex_with_surplus_columns_agrees_with_elimination():
    # nonnegative variables, mixed = and >= rows, each >= row written as
    # row . z - s = b with its own surplus column s >= 0 after the
    # variables, as a meet writes its walls; every point must satisfy the
    # constraints it was asked for, and every refusal must be confirmed
    # by elimination
    rng = random.Random(20261019)
    pool = [F(0), F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3)]
    feas = infeas = 0
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        constraints = [
            (
                tuple(rng.choice(pool) for _ in range(n)),
                rng.random() < 0.5,
                rng.choice(pool),
            )
            for _ in range(m)
        ]
        n_surplus = sum(1 for _, ineq, _ in constraints if ineq)
        rows = []
        at = 0
        for row, ineq, _ in constraints:
            surplus = [0] * n_surplus
            if ineq:
                surplus[at] = -1
                at += 1
            rows.append((*row, *surplus))
        sol, _ = simplex_feasible(rows, [b for _, _, b in constraints])
        if sol is not None:
            feas += 1
            assert len(sol) == n + n_surplus
            assert all(type(c) is Fraction for c in sol)
            assert all(c >= 0 for c in sol)
            z = sol[:n]
            for row, is_inequality, b in constraints:
                if is_inequality:
                    assert vdot(row, z) >= b
                else:
                    assert vdot(row, z) == b
            continue
        infeas += 1
        eqs = [(row, b) for row, ineq, b in constraints if not ineq]
        # row . z >= b as -row . z <= -b, and z_j >= 0 as -z_j <= 0
        ineqs = [
            (tuple(-x for x in row), -b) for row, ineq, b in constraints if ineq
        ]
        ineqs += [
            (tuple(F(-1) if k == j else F(0) for k in range(n)), F(0))
            for j in range(n)
        ]
        assert not fm_feasible(n, eqs, ineqs)
    assert feas > 50 and infeas > 50


def test_meet_basis_indexes_the_column_layout():
    # the quadrant against the diagonal line, stated by two proportional
    # normals, and the wall x >= 0.  The rows are the normals (rows 0 and
    # 1), c0 + c1 = 1 (row 2) and the wall (row 3); the columns are c0,
    # c1, the wall's surplus (column 2), then one artificial per row
    # (columns 3 to 6).  The meet is (1/2, 1/2) with surplus 1/2, so c0,
    # c1 and the surplus are basic, and the redundant row 1 keeps its
    # artificial, column 3 + 1
    quad = Cone.from_generators([vec(1, 0), vec(0, 1)], 2)
    res = cones_meet(quad, [vec(1, -1), vec(2, -2)], [vec(1, 0)], vec(1, 1))
    assert res.meets
    assert res.coefficients == (F(1, 2), F(1, 2))
    assert res.basis == (0, 4, 2, 1)


def _simplex_callers(tree: ast.AST) -> list[str | None]:
    """Name of the innermost function around each simplex_feasible call."""
    found: list[str | None] = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and "simplex_feasible" in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None),
            ):
                found.append(function)
            visit(child, function)

    visit(tree, None)
    return found


def test_simplex_feasible_is_called_only_by_the_builder():
    # every feasibility question is a cone meet, so no other code in the
    # package builds a tableau for the kernel itself
    package = Path(__file__).resolve().parents[1] / "src" / "branchdec"
    callers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        callers += [(path.name, fn) for fn in _simplex_callers(tree)]
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert "simplex_feasible" not in imported, path.name
    assert callers == [("cone_kernel.py", "_meet")]


def test_enumeration_and_chamber_construction_stay_lp_free():
    # parabolic enumeration walks the Weyl group and the momentum chamber
    # is its walls, the positive restricted roots, so neither module
    # reaches the LP
    package = Path(__file__).resolve().parents[1] / "src" / "branchdec"

    def from_cone_kernel(name):
        # names imported from the module; importing the module itself
        # counts as importing everything
        names = []
        for node in ast.walk(ast.parse((package / name).read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                for alias in node.names:
                    if module.endswith("cone_kernel"):
                        names.append(alias.name)
                    elif alias.name.endswith("cone_kernel"):
                        names.append("*")
        return sorted(names)

    assert from_cone_kernel("parabolic.py") == []
    assert from_cone_kernel("involution.py") == []


def test_simplex_redundant_rows():
    rows = [vec(1, 1), vec(2, 2)]
    sol, _ = simplex_feasible(rows, [F(1), F(2)])
    assert sol is not None and vdot(rows[0], sol) == 1
    sol, _ = simplex_feasible(rows, [F(1), F(3)])
    assert sol is None


# ---------------------------------------------------------------------------
# cone containers


def test_cone_rejects_zero_and_mismatched_vectors():
    with pytest.raises(ValueError):
        Cone((vzero(2),), 2)
    with pytest.raises(ValueError):
        Cone((vec(1, 0, 0),), 2)
    c = Cone.from_generators([vec(1, 0), vzero(2)], 2)
    assert c.generators == (vec(1, 0),)
    assert Cone.from_generators([], 2).generators == ()


def test_pointedness_certificate_is_checked():
    gens = [vec(1, 0), vec(-1, 0)]
    with pytest.raises(PointednessError):
        cone_meets_subspace(
            Cone.from_generators(gens, 2), _normals([vec(0, 1)]), vec(1, 1)
        )
    with pytest.raises(PointednessError):
        cones_meet(Cone.from_generators(gens, 2), _normals([vec(0, 1)]),
                   [vec(1, 1)], vec(1, 1))


# ---------------------------------------------------------------------------
# cone meets subspace


def test_cone_meets_subspace_hand_cases():
    # first orthant meets the diagonal line
    cone = Cone.from_generators([vec(1, 0), vec(0, 1)], 2)
    res = cone_meets_subspace(cone, _normals([vec(1, 1)]), vec(1, 1))
    assert res.meets
    assert res.point is not None and vdot(res.point, vec(1, -1)) == 0

    # first orthant misses the anti-diagonal
    res = cone_meets_subspace(cone, _normals([vec(1, -1)]), vec(1, 1))
    assert not res.meets and res.point is None

    # empty cone never meets anything
    res = cone_meets_subspace(
        Cone.from_generators([], 2), _normals([vec(1, 0)]), vec(1, 1)
    )
    assert not res.meets


def test_cone_meets_subspace_certificate_reconstructs_point():
    gens = [vec(2, 1, 0), vec(0, 1, 1), vec(1, 0, 3)]
    cone = Cone.from_generators(gens, 3)
    res = cone_meets_subspace(
        cone, _normals([vec(1, 1, -1), vec(0, 1, 0)], 3), vec(1, 1, 1)
    )
    if res.meets:
        point = vzero(3)
        for c, g in zip(res.coefficients, gens):
            assert c >= 0
            point = vadd(point, vscale(c, g))
        assert point == res.point
        assert sum(res.coefficients) == 1


# ---------------------------------------------------------------------------
# cones meet


def test_cones_meet_hand_cases():
    # chambers in the whole plane: the cone over (-1,1) and (1,1) is the
    # one with walls (1,1) and (-1,1), the third quadrant the one with
    # walls (-1,0) and (0,-1)
    quad = Cone.from_generators([vec(1, 0), vec(0, 1)], 2)
    plane = [vec(1, 0), vec(0, 1)]
    res = cones_meet(quad, _normals(plane), [vec(1, 1), vec(-1, 1)], vec(1, 1))
    assert res.meets
    assert res.point is not None and res.point[1] >= abs(res.point[0])

    res = cones_meet(quad, _normals(plane), [vec(-1, 0), vec(0, -1)],
                     vec(1, 1))
    assert not res.meets


def test_cones_meet_where_a_wall_decides():
    quad = Cone.from_generators([vec(1, 0), vec(0, 1)], 2)
    line = _normals([vec(1, 1)])
    # the line through (1,1) passes through the open quadrant; a wall
    # keeping its half with x + y >= 0 keeps the meet
    assert cones_meet(quad, line, [], vec(1, 1)).meets
    res = cones_meet(quad, line, [vec(1, 1)], vec(1, 1))
    assert res.meets
    assert res.point is not None and res.point[0] == res.point[1] > 0
    # the wall -(1,1) keeps only the other half, which misses the quadrant
    assert not cones_meet(quad, line, [vec(-1, -1)], vec(1, 1)).meets
    # the line through (1,-1) only touches the quadrant at the origin
    assert not cones_meet(quad, _normals([vec(1, -1)]), [], vec(1, 1)).meets


@pytest.mark.parametrize(
    ("coefficients", "line", "walls", "message"),
    [
        # 1/3 (1,0) + 2/3 (0,1) lies in the plane but across the wall x >= y
        ((F(1, 3), F(2, 3)), [vec(1, 0), vec(0, 1)], [vec(1, -1)],
         "outside the chamber"),
        # the same point is off the diagonal line
        ((F(1, 3), F(2, 3)), [vec(1, 1)], [], "outside the subspace"),
        ((F(0), F(0)), [vec(1, 1)], [], "is zero"),
    ],
)
def test_a_forged_lp_point_is_refused(
    monkeypatch, coefficients, line, walls, message
):
    # the replay runs on 3 p, the point with the denominators cleared
    monkeypatch.setattr(
        cone_kernel, "simplex_feasible", lambda rows, rhs: (coefficients, ())
    )
    quad = Cone.from_generators([vec(1, 0), vec(0, 1)], 2)
    with pytest.raises(CertificateError, match=message):
        cones_meet(quad, _normals(line), walls, vec(1, 1))


def test_an_honest_fractional_lp_point_is_returned_exactly(monkeypatch):
    monkeypatch.setattr(
        cone_kernel, "simplex_feasible",
        lambda rows, rhs: ((F(1, 2), F(1, 3), F(1)), (0, 1)),
    )
    gens = [vec(2, 0), vec(0, 3)]
    res = cones_meet(Cone.from_generators(gens, 2), _normals([vec(1, 1)]),
                     [vec(1, 0)], vec(1, 1))
    assert res.meets and res.point == (F(1), F(1))
    assert all(type(x) is Fraction for x in res.point)


# ---------------------------------------------------------------------------
# dual-route agreement: LP and elimination must always agree


def _rand_cone_gens(rng: random.Random, dim: int, count: int):
    """Generators kept on the positive side of a random strict functional.

    That guarantees pointedness with an explicit certificate."""
    while True:
        cert = _rand_vec(rng, dim)
        if not all(x == 0 for x in cert):
            break
    gens = []
    while len(gens) < count:
        g = _rand_vec(rng, dim)
        if vdot(cert, g) > 0:
            gens.append(g)
    return gens, cert


def test_lp_and_elimination_agree_on_subspace_queries():
    rng = random.Random(20260806)
    hits = misses = 0
    for _ in range(600):
        dim = rng.randint(2, 4)
        gens, cert = _rand_cone_gens(rng, dim, rng.randint(1, 4))
        sub = [_rand_vec(rng, dim) for _ in range(rng.randint(0, dim - 1))]
        lp = cone_meets_subspace(Cone.from_generators(gens, dim),
                                 _normals(sub, dim), cert)
        fm = brute_force_cone_meets_subspace(gens, sub)
        assert lp.meets == fm
        if lp.meets:
            hits += 1
        else:
            misses += 1
    assert hits > 50 and misses > 50


def test_lp_and_elimination_agree_on_cone_queries():
    rng = random.Random(20260807)
    hits = misses = 0
    for _ in range(600):
        dim = rng.randint(2, 4)
        gens, cert = _rand_cone_gens(rng, dim, rng.randint(1, 4))
        sub = [_rand_vec(rng, dim) for _ in range(rng.randint(1, dim))]
        walls = [_rand_vec(rng, dim) for _ in range(rng.randint(0, 3))]
        lp = cones_meet(Cone.from_generators(gens, dim), _normals(sub, dim),
                        walls, cert)
        fm = brute_force_chamber_meet(gens, sub, walls)
        assert lp.meets == fm
        if lp.meets:
            hits += 1
            assert all(vdot(w, lp.point) >= 0 for w in walls)
            assert in_span(lp.point, sub)
        else:
            misses += 1
    assert hits > 100 and misses > 100


def test_meet_points_satisfy_membership():
    rng = random.Random(20260808)
    for _ in range(200):
        dim = rng.randint(2, 4)
        gens, cert = _rand_cone_gens(rng, dim, rng.randint(1, 4))
        sub = [_rand_vec(rng, dim) for _ in range(rng.randint(1, dim - 1))]
        res = cone_meets_subspace(Cone.from_generators(gens, dim),
                                  _normals(sub, dim), cert)
        if not res.meets:
            continue
        # point is a nonnegative combination and sits inside the subspace
        assert all(c >= 0 for c in res.coefficients)
        assert sum(res.coefficients) == 1
        assert in_span(res.point, sub)
