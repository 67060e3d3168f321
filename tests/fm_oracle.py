"""Fourier-Motzkin oracle for the cone queries of ``branchdec.cone_kernel``.

Test-only.  It rebuilds the same feasibility questions from scratch and
settles them by elimination alone, without the simplex kernel, so the tests
can compare the two routes on every instance they generate.  It returns
booleans only; the simplex route also produces witness points and bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from branchdec.root_core import Vec, identity, is_zero_vec, nullspace, vdot

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
    eqs = [(tuple(map(Fraction, a)), Fraction(b)) for a, b in equalities]
    ineqs = [(tuple(map(Fraction, a)), Fraction(b)) for a, b in inequalities]
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
    return brute_force_chamber_meet(generators, subspace_rows, ())


def brute_force_chamber_meet(
    generators: Sequence[Vec],
    subspace_rows: Sequence[Vec],
    walls: Sequence[Vec],
) -> bool:
    """Same question as cones_meet, with the chamber {p in
    span(subspace_rows) : w . p >= 0 for every wall w} given by its
    inequalities, settled by elimination alone."""
    generators = list(generators)
    if not generators:
        return False
    dim = len(generators[0])
    rows = [r for r in subspace_rows if not is_zero_vec(r)]
    normals = nullspace(rows) if rows else list(identity(dim))
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
    for w in walls:  # w . sum c_i g_i >= 0
        ineqs.append((tuple(-vdot(w, g) for g in generators), Fraction(0)))
    return _fm_feasible(k, eqs, ineqs)


def brute_force_cones_meet(
    generators: Sequence[Vec],
    chamber_rays: Sequence[Vec],
    chamber_lineality: Sequence[Vec],
) -> bool:
    """Does the cone meet the chamber given by its rays and lines outside
    the origin?  Settled by elimination alone; it checks the runtime's
    chamber, which is stated by its walls, against its vertex
    description."""
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
