"""Exact cone intersection tests over Q.

Two independent decision routes are kept side by side on purpose: a phase-1
simplex with Bland's rule, and a Fourier-Motzkin eliminator that rebuilds the
same feasibility question from scratch.  Tests compare the two on every
instance they generate; production callers use the simplex route because it
also produces witness points and bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .root_core import (
    Vec,
    identity,
    is_zero_vec,
    nullspace,
    vadd,
    vdot,
    vscale,
    vzero,
)


class PointednessError(RuntimeError):
    """The supplied certificate fails to prove the generator cone pointed."""


@dataclass(frozen=True)
class Cone:
    """Finitely generated cone {sum c_i g_i + sum d_j l_j : c >= 0, d free}."""

    generators: tuple[Vec, ...]
    lineality: tuple[Vec, ...]
    ambient_dim: int

    def __post_init__(self) -> None:
        for g in self.generators:
            if is_zero_vec(g):
                raise ValueError("zero vector stored as a cone generator")
            if len(g) != self.ambient_dim:
                raise ValueError("generator dimension mismatch")
        for l in self.lineality:
            if is_zero_vec(l):
                raise ValueError("zero vector stored in a lineality basis")
            if len(l) != self.ambient_dim:
                raise ValueError("lineality dimension mismatch")

    @staticmethod
    def from_generators(gens: Sequence[Vec], dim: int) -> "Cone":
        return Cone(tuple(g for g in gens if not is_zero_vec(g)), (), dim)

    def is_zero(self) -> bool:
        return not self.generators and not self.lineality


@dataclass(frozen=True)
class MeetResult:
    """Outcome of a cone intersection query.

    On a meet, ``point`` is a common nonzero point and ``coefficients`` are
    the generator coefficients producing it.  Either way ``basis`` records
    the final simplex basis (column indices; indices past the structural
    variables are artificials left on redundant rows).
    """

    meets: bool
    point: Vec | None
    coefficients: tuple[Fraction, ...] | None
    basis: tuple[int, ...]


# ---------------------------------------------------------------------------
# phase-1 simplex


def simplex_feasible(
    rows: Sequence[Vec], rhs: Sequence[Fraction]
) -> tuple[Vec | None, tuple[int, ...]]:
    """Find x >= 0 with rows . x = rhs, or prove there is none.

    Returns (solution, basis); solution is None when infeasible.  Bland's
    rule is used for every pivot, so the method terminates.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("simplex_feasible: shape mismatch")
    if m == 0:
        return (), ()
    n = len(rows[0])
    tab: list[list[Fraction]] = []
    for row, b in zip(rows, rhs):
        r = [Fraction(x) for x in row]
        b = Fraction(b)
        if b < 0:
            r = [-x for x in r]
            b = -b
        tab.append(r + [Fraction(0)] * m + [b])
    for i in range(m):
        tab[i][n + i] = Fraction(1)
    basis = [n + i for i in range(m)]
    width = n + m + 1
    # reduced costs for minimising the sum of artificials
    cost = [Fraction(0)] * width
    for j in range(width):
        s = sum(tab[i][j] for i in range(m))
        cj = Fraction(1) if n <= j < n + m else Fraction(0)
        cost[j] = cj - s
    cost[n : n + m] = [Fraction(0)] * m  # artificials are basic, reduced cost 0

    def pivot(prow: int, pcol: int) -> None:
        pv = tab[prow][pcol]
        tab[prow] = [x / pv for x in tab[prow]]
        for i in range(m):
            if i != prow and tab[i][pcol] != 0:
                f = tab[i][pcol]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[prow])]
        f = cost[pcol]
        if f != 0:
            for j in range(width):
                cost[j] -= f * tab[prow][j]
        basis[prow] = pcol

    while True:
        enter = None
        for j in range(n + m):
            if cost[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best: Fraction | None = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width - 1] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; system is malformed")
        pivot(leave, enter)

    artificial_level = sum(
        tab[i][width - 1] for i in range(m) if basis[i] >= n
    )
    if artificial_level > 0:
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
            x[basis[i]] = tab[i][width - 1]
    return tuple(x), tuple(basis)


# ---------------------------------------------------------------------------
# cone queries, LP route


def _check_pointed(generators: Sequence[Vec], certificate: Vec) -> None:
    for g in generators:
        if vdot(g, certificate) <= 0:
            raise PointednessError(
                "certificate does not pair strictly positively with every "
                "generator; the cone may fail to be pointed"
            )


def _complement_basis(subspace_rows: Sequence[Vec], dim: int) -> list[Vec]:
    rows = [r for r in subspace_rows if not is_zero_vec(r)]
    if not rows:
        return list(identity(dim))
    return nullspace(rows)


def cone_meets_subspace(
    cone: Cone,
    subspace_rows: Sequence[Vec],
    pointedness_certificate: Vec,
) -> MeetResult:
    """Does the cone meet span(subspace_rows) outside the origin?

    The cone must carry no lineality, and the certificate must pair
    strictly positively with every generator; this makes the
    normalisation sum(c) = 1 exhaustive.
    """
    if cone.lineality:
        raise ValueError("cone_meets_subspace needs a cone without lineality")
    generators = list(cone.generators)
    if not generators:
        return MeetResult(False, None, None, ())
    _check_pointed(generators, pointedness_certificate)
    dim = len(generators[0])
    normals = _complement_basis(subspace_rows, dim)
    k = len(generators)
    rows: list[Vec] = [
        tuple(vdot(nrm, g) for g in generators) for nrm in normals
    ]
    rows.append((Fraction(1),) * k)
    rhs = [Fraction(0)] * len(normals) + [Fraction(1)]
    sol, basis = simplex_feasible(rows, rhs)
    if sol is None:
        return MeetResult(False, None, None, basis)
    point = vzero(dim)
    for c, g in zip(sol, generators):
        point = vadd(point, vscale(c, g))
    assert not is_zero_vec(point)
    assert all(vdot(nrm, point) == 0 for nrm in normals)
    return MeetResult(True, point, sol, basis)


def cones_meet(
    cone: Cone,
    other: Cone,
    pointedness_certificate: Vec,
) -> MeetResult:
    """Do the two cones share a point outside the origin?

    Only the first cone needs the pointedness certificate (and must carry
    no lineality); the second may contain lines.
    """
    if cone.lineality:
        raise ValueError("cones_meet needs the first cone without lineality")
    generators = list(cone.generators)
    if not generators:
        return MeetResult(False, None, None, ())
    _check_pointed(generators, pointedness_certificate)
    dim = len(generators[0])
    rays = list(other.generators)
    lines = list(other.lineality)
    k, kr, kl = len(generators), len(rays), len(lines)
    # variables: c (k), d (kr), e+ (kl), e- (kl)
    nvars = k + kr + 2 * kl
    rows: list[Vec] = []
    for coord in range(dim):
        row = (
            [g[coord] for g in generators]
            + [-r[coord] for r in rays]
            + [-l[coord] for l in lines]
            + [l[coord] for l in lines]
        )
        rows.append(tuple(row))
    rows.append((Fraction(1),) * k + (Fraction(0),) * (nvars - k))
    rhs = [Fraction(0)] * dim + [Fraction(1)]
    sol, basis = simplex_feasible(rows, rhs)
    if sol is None:
        return MeetResult(False, None, None, basis)
    coeffs = sol[:k]
    point = vzero(dim)
    for c, g in zip(coeffs, generators):
        point = vadd(point, vscale(c, g))
    assert not is_zero_vec(point)
    return MeetResult(True, point, coeffs, basis)


# ---------------------------------------------------------------------------
# Fourier-Motzkin route (boolean only, built independently of the LP route)

_FM_ROW_CAP = 200_000


def _fm_normalise(
    coeffs: tuple[Fraction, ...], const: Fraction
) -> tuple[tuple[Fraction, ...], Fraction] | None | bool:
    """Canonical form of the row coeffs . x <= const.

    Returns None for a trivially true row, False for a contradiction, or
    the row scaled to primitive integers.
    """
    if all(c == 0 for c in coeffs):
        return None if const >= 0 else False
    denom_lcm = const.denominator
    for c in coeffs:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in coeffs]
    ci = int(const * denom_lcm)
    g = abs(ci)
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
        ci //= g
    return tuple(Fraction(v) for v in ints), Fraction(ci)


def _fm_feasible(
    n_vars: int,
    equalities: list[tuple[tuple[Fraction, ...], Fraction]],
    inequalities: list[tuple[tuple[Fraction, ...], Fraction]],
) -> bool:
    """Feasibility of {a.x = b} and {a.x <= b} by elimination.

    Equalities are consumed first by substitution, which never grows the
    system; the rest is classical Fourier-Motzkin with a greedy variable
    order and row deduplication.
    """
    eqs = [(tuple(a), Fraction(b)) for a, b in equalities]
    ineqs = [(tuple(a), Fraction(b)) for a, b in inequalities]
    active = set(range(n_vars))

    def substitute(
        row: tuple[tuple[Fraction, ...], Fraction],
        piv: tuple[tuple[Fraction, ...], Fraction],
        j: int,
    ) -> tuple[tuple[Fraction, ...], Fraction]:
        (a, b), (pa, pb) = row, piv
        if a[j] == 0:
            return row
        f = a[j] / pa[j]
        na = tuple(x - f * y for x, y in zip(a, pa))
        return na, b - f * pb

    while eqs:
        piv = eqs.pop()
        pa, pb = piv
        j = next((i for i in sorted(active) if pa[i] != 0), None)
        if j is None:
            if pb != 0:
                return False
            continue
        eqs = [substitute(r, piv, j) for r in eqs]
        ineqs = [substitute(r, piv, j) for r in ineqs]
        active.discard(j)

    rows: set[tuple[tuple[Fraction, ...], Fraction]] = set()
    for a, b in ineqs:
        norm = _fm_normalise(a, b)
        if norm is False:
            return False
        if norm is not None:
            rows.add(norm)

    while True:
        target = None
        best_cost = None
        for j in sorted(active):
            pos = sum(1 for a, _ in rows if a[j] > 0)
            neg = sum(1 for a, _ in rows if a[j] < 0)
            if pos + neg == 0:
                active.discard(j)
                continue
            cost = pos * neg
            if best_cost is None or cost < best_cost:
                best_cost = cost
                target = j
        if target is None:
            return True
        j = target
        pos = [(a, b) for a, b in rows if a[j] > 0]
        neg = [(a, b) for a, b in rows if a[j] < 0]
        keep = {(a, b) for a, b in rows if a[j] == 0}
        for (pa, pb) in pos:
            for (na, nb) in neg:
                # positive combination cancelling x_j keeps the direction
                ca = tuple(-na[j] * x + pa[j] * y for x, y in zip(pa, na))
                cb = -na[j] * pb + pa[j] * nb
                norm = _fm_normalise(ca, cb)
                if norm is False:
                    return False
                if norm is not None:
                    keep.add(norm)
                if len(keep) > _FM_ROW_CAP:
                    raise RuntimeError("Fourier-Motzkin row explosion")
        rows = keep
        active.discard(j)


def brute_force_cone_meets_subspace(
    generators: Sequence[Vec], subspace_rows: Sequence[Vec]
) -> bool:
    """Same question as cone_meets_subspace, settled by elimination alone."""
    generators = list(generators)
    if not generators:
        return False
    dim = len(generators[0])
    normals = _complement_basis(subspace_rows, dim)
    k = len(generators)
    eqs = [
        (tuple(vdot(nrm, g) for g in generators), Fraction(0)) for nrm in normals
    ]
    eqs.append(((Fraction(1),) * k, Fraction(1)))
    ineqs = []
    for i in range(k):
        a = [Fraction(0)] * k
        a[i] = Fraction(-1)
        ineqs.append((tuple(a), Fraction(0)))  # c_i >= 0
    return _fm_feasible(k, eqs, ineqs)


def brute_force_cones_meet(
    generators: Sequence[Vec],
    chamber_rays: Sequence[Vec],
    chamber_lineality: Sequence[Vec],
) -> bool:
    """Same question as cones_meet, settled by elimination alone."""
    generators = list(generators)
    if not generators:
        return False
    dim = len(generators[0])
    rays = [r for r in chamber_rays if not is_zero_vec(r)]
    lines = [l for l in chamber_lineality if not is_zero_vec(l)]
    k, kr, kl = len(generators), len(rays), len(lines)
    nvars = k + kr + kl  # lineality variables stay free
    eqs: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for coord in range(dim):
        row = (
            [g[coord] for g in generators]
            + [-r[coord] for r in rays]
            + [-l[coord] for l in lines]
        )
        eqs.append((tuple(row), Fraction(0)))
    eqs.append(
        ((Fraction(1),) * k + (Fraction(0),) * (kr + kl), Fraction(1))
    )
    ineqs = []
    for i in range(k + kr):  # c >= 0 and d >= 0; e is free
        a = [Fraction(0)] * nvars
        a[i] = Fraction(-1)
        ineqs.append((tuple(a), Fraction(0)))
    return _fm_feasible(nvars, eqs, ineqs)
