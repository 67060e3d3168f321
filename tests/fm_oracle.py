"""Fourier-Motzkin oracle for the cone queries of ``branchdec.cone_kernel``.

Test-only.  It rebuilds the same feasibility questions from scratch and
settles them by elimination alone, without the simplex kernel, so the tests
can compare the two routes on every instance they generate.  It returns
booleans only; the simplex route also produces witness points and bases.
Its normals and dot products come from ``linalg_oracle``; from
``branchdec`` it imports only the vector type.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from linalg_oracle import is_zero_vec, nullspace, vdot

from branchdec.root_core import Vec

_FM_ROW_CAP = 200_000


def _integer_row(coeffs: Sequence, const) -> tuple[tuple[int, ...], int]:
    """The row coeffs . x (<)= const times the least common denominator
    of its entries."""
    scale = lcm(*(Fraction(x).denominator for x in (*coeffs, const)))
    return tuple(int(x * scale) for x in coeffs), int(const * scale)


def _fm_normalise(
    coeffs: tuple[int, ...], const: int
) -> tuple[tuple[int, ...], int] | None | bool:
    """Canonical form of the integer row coeffs . x <= const.

    Returns None for a trivially true row, False for a contradiction, or
    the row divided by the gcd of its entries.
    """
    if not any(coeffs):
        return None if const >= 0 else False
    g = gcd(const, *coeffs)
    return tuple(v // g for v in coeffs), const // g


def fm_feasible(
    n_vars: int,
    equalities: list[tuple[tuple[Fraction, ...], Fraction]],
    inequalities: list[tuple[tuple[Fraction, ...], Fraction]],
) -> bool:
    """Feasibility of {a.x = b} and {a.x <= b} by elimination.

    The rows are scaled to integers first.  Equalities are consumed by
    substitution, which never grows the system; the rest is classical
    Fourier-Motzkin with a greedy variable order and row deduplication.
    """
    eqs = [_integer_row(a, b) for a, b in equalities]
    ineqs = [_integer_row(a, b) for a, b in inequalities]
    active = set(range(n_vars))

    def substitute(
        row: tuple[tuple[int, ...], int],
        piv: tuple[tuple[int, ...], int],
        j: int,
    ) -> tuple[tuple[int, ...], int]:
        (a, b), (pa, pb) = row, piv
        if a[j] == 0:
            return row
        # |pa_j| times the row, less a multiple of the equality: an
        # inequality keeps its direction
        s, f = abs(pa[j]), (a[j] if pa[j] > 0 else -a[j])
        return tuple(s * x - f * y for x, y in zip(a, pa)), s * b - f * pb

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

    rows: set[tuple[tuple[int, ...], int]] = set()
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
    # the zero row fixes the dimension when there is no other row
    normals = nullspace([*subspace_rows, (0,) * len(generators[0])])
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
    return fm_feasible(k, eqs, ineqs)


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
    return fm_feasible(nvars, eqs, ineqs)
