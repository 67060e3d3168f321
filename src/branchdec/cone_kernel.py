"""Exact cone intersection tests over Q.

Every LP in the package is a cone meet: ``_meet`` writes its phase-1
rows itself and is the only caller of the phase-1 simplex (Bland's rule
on an integer tableau), which produces witness points and bases.  The
decider's only runtime LP is ``admissible``'s chamber test
(``cones_meet``) on a row whose functional X + sigma X does not separate
the cone from t^{-sigma}; ``deco`` runs none, and
``cone_meets_subspace`` is kept as the oracle the tests hold that sign
test against.  An independent Fourier-Motzkin eliminator that rebuilds
the same feasibility questions from scratch lives with the tests
(``tests/fm_oracle.py``), which compare the two routes on every instance
they generate.

A cone query states its subspace by its normals, which the caller
solves for once (``root_core.subspace_normals``); the decider reads the
normals cached on a pair, so no meet eliminates.  A meet point is checked
by substitution against every normal and wall on the integer point
D p, D the common denominator of its coefficients, and a ``Fraction``
is built only for the point returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .root_core import (
    CertificateError,
    Vec,
    clear_denominators,
    cleared_combination,
    dot,
    is_zero_vec,
    primitive_ints,
    record,
)


class PointednessError(RuntimeError):
    """The supplied certificate fails to prove the generator cone pointed."""


@record
class Cone:
    """Finitely generated cone {sum c_i g_i : c >= 0}."""

    generators: tuple[Vec, ...]
    ambient_dim: int

    def __post_init__(self) -> None:
        for g in self.generators:
            if is_zero_vec(g):
                raise ValueError("zero vector stored as a cone generator")
            if len(g) != self.ambient_dim:
                raise ValueError("generator dimension mismatch")

    @staticmethod
    def from_generators(gens: Sequence[Vec], dim: int) -> "Cone":
        return Cone(tuple(g for g in gens if not is_zero_vec(g)), dim)


@record
class MeetResult:
    """Outcome of a cone intersection query.

    On a meet, ``point`` is a common nonzero point and ``coefficients`` are
    the generator coefficients producing it.  Either way ``basis`` records
    the final simplex basis, as column indices in the layout of the
    meet's phase-1 rows: the coefficients, one surplus per wall, then
    one artificial per row.
    """

    meets: bool
    point: Vec | None
    coefficients: tuple[Fraction, ...] | None
    basis: tuple[int, ...]


# ---------------------------------------------------------------------------
# phase-1 simplex


def simplex_feasible(
    rows: Sequence[Vec], rhs: Sequence[int | Fraction]
) -> tuple[Vec | None, tuple[int, ...]]:
    """Find x >= 0 with rows . x = rhs, or prove there is none.

    Returns (solution, basis); solution is None when infeasible.  Bland's
    rule is used for every pivot, so the method terminates.

    The tableau is fraction-free: each stored row, the cost row included,
    is a positive multiple of the rational tableau row with coprime integer
    entries.  Positive row scaling changes no ratio and no reduced-cost
    sign, so the pivots, the basis and the point are exactly those of the
    rational tableau; ``Fraction`` appears only in the returned point.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("simplex_feasible: shape mismatch")
    if m == 0:
        return (), ()
    n = len(rows[0])
    width = n + m + 1
    last = width - 1
    tab: list[list[int]] = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        r, scale = clear_denominators((*row, b))
        rb = r.pop()
        if rb < 0:
            r = [-x for x in r]
            rb = -rb
        r += [0] * m
        r[n + i] = scale
        r.append(rb)
        tab.append(primitive_ints(r))
    basis = [n + i for i in range(m)]
    # reduced costs for minimising the sum of artificials; the artificials
    # are basic, so their reduced cost is 0
    common = lcm(*(tab[i][n + i] for i in range(m)))
    weights = [common // tab[i][n + i] for i in range(m)]
    cost = [0] * width
    for j in (*range(n), last):
        cost[j] = -sum(w * r[j] for w, r in zip(weights, tab))

    def pivot(prow: int, pcol: int) -> None:
        nonlocal cost
        pr = tab[prow]
        pv = pr[pcol]
        if pv < 0:
            pr = tab[prow] = [-x for x in pr]
            pv = -pv
        for i in range(m):
            f = tab[i][pcol]
            if i != prow and f:
                tab[i] = primitive_ints(
                    [pv * x - f * y for x, y in zip(tab[i], pr)]
                )
        f = cost[pcol]
        if f:
            cost = primitive_ints([pv * x - f * y for x, y in zip(cost, pr)])
        basis[prow] = pcol

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # ratios b_i / a_i compared by cross-multiplying
                left = tab[i][last] * tab[leave][enter]
                right = tab[leave][last] * a
                if left < right or (left == right and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # the phase-1 objective is bounded below by 0
            raise CertificateError(
                "phase-1 objective unbounded; system is malformed"
            )
        pivot(leave, enter)

    if any(tab[i][last] for i in range(m) if basis[i] >= n):
        return None, tuple(basis)
    # drive artificials out of the basis where the row allows it
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tab[i][j] != 0:
                    pivot(i, j)
                    break
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][last], tab[i][basis[i]])
    return tuple(x), tuple(basis)


# ---------------------------------------------------------------------------
# cone queries


def _meet(
    cone: Cone,
    normals: Sequence[Vec],
    walls: Sequence[Vec],
    certificate: Vec,
) -> MeetResult:
    """Does the cone meet {p : nrm . p = 0 for every normal, w . p >= 0 for
    every wall w} outside the origin?

    The certificate, taken as given (the decider passes a parabolic's
    integer row), must pair strictly positively with every generator;
    this makes the normalisation sum(c) = 1 exhaustive.  The coefficients
    c >= 0 satisfy one = row per normal, sum(c) = 1, then one >= row per
    wall w, written sum_i (w . g_i) c_i - s_w = 0 with its own surplus
    column s_w >= 0 after the coefficient columns; the point is checked
    against both by substitution.

    The rows hold int where the value is integral: the normals keep their
    scale, with integral entries as int, so each row's values, and with
    them the tableau, the pivots and the basis, are those of the rational
    rows.  The substitution runs on D p, for D the common denominator of
    the coefficients: D > 0 keeps every sign and every zero, and with
    integer generators D p is an integer vector, so the only Fractions
    built are the entries of the returned point.
    """
    generators = cone.generators
    for g in generators:
        if dot(g, certificate) <= 0:
            raise PointednessError(
                "certificate does not pair strictly positively with every "
                "generator; the cone may fail to be pointed"
            )
    if not generators:
        return MeetResult(False, None, None, ())
    k = len(generators)
    no_surplus = (0,) * len(walls)
    rows = [(*(dot(nrm, g) for g in generators), *no_surplus)
            for nrm in normals]
    rows.append((1,) * k + no_surplus)
    for i, w in enumerate(walls):
        surplus = list(no_surplus)
        surplus[i] = -1
        rows.append((*(dot(w, g) for g in generators), *surplus))
    rhs = [0] * len(rows)
    rhs[len(normals)] = 1
    sol, basis = simplex_feasible(rows, rhs)
    if sol is None:
        return MeetResult(False, None, None, basis)
    coeffs = sol[:k]
    scaled, den = cleared_combination(coeffs, generators, cone.ambient_dim)
    if is_zero_vec(scaled):
        raise CertificateError("intersection point is zero")
    if any(dot(nrm, scaled) != 0 for nrm in normals):
        raise CertificateError("intersection point is outside the subspace")
    if any(dot(w, scaled) < 0 for w in walls):
        raise CertificateError("intersection point is outside the chamber")
    point = tuple(Fraction(x, den) for x in scaled)
    return MeetResult(True, point, coeffs, basis)


def cone_meets_subspace(
    cone: Cone,
    normals: Sequence[Vec],
    pointedness_certificate: Vec,
) -> MeetResult:
    """Does the cone meet the subspace {p : nrm . p = 0 for every normal}
    outside the origin?  ``root_core.subspace_normals(rows, dim)`` gives
    the normals of span(rows).

    The certificate must pair strictly positively with every generator.
    """
    return _meet(cone, normals, (), pointedness_certificate)


def cones_meet(
    cone: Cone,
    normals: Sequence[Vec],
    walls: Sequence[Vec],
    pointedness_certificate: Vec,
) -> MeetResult:
    """Does the cone meet the chamber {p : nrm . p = 0 for every normal,
    w . p >= 0 for every wall w} outside the origin?

    The certificate must pair strictly positively with every generator.
    """
    return _meet(cone, normals, walls, pointedness_certificate)
