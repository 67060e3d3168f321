"""Fraction elimination oracle for the integer kernels of ``branchdec.root_core``.

Test-only.  This is rational Gauss-Jordan elimination and a ``Fraction``
dot product, with every entry made a ``Fraction`` first, so the tests can
compare the runtime kernels, which compute over integers and build a
``Fraction`` only for what they return, with it value for value and type
for type.  ``simple_system`` is the lexicographic simple system worked
out on ``Fraction`` vectors, for the integer-row ``simple_system``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from branchdec.root_core import DatumError, Vec, lex_positive, primitive_vector


def vdot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def rref(rows: Sequence[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows: Sequence[Vec]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Sequence[Vec]) -> list[Vec]:
    if not rows:
        raise DatumError("nullspace needs at least one row to fix the dimension")
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    basis: list[Vec] = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            x[pc] = -row[fc]
        basis.append(tuple(x))
    return basis


def solve_linear(rows: Sequence[Vec], rhs: Sequence) -> Vec | None:
    ncols = len(rows[0])
    reduced, pivots = rref([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(reduced, pivots):
        x[pc] = row[ncols]
    return tuple(x)


def in_span(v: Vec, rows: Sequence[Vec]) -> bool:
    base = [r for r in rows if any(x != 0 for x in r)]
    if not base:
        return all(x == 0 for x in v)
    return rank(base + [v]) == rank(base)


def dual_basis(basis: Sequence[Vec]) -> tuple[Vec, ...]:
    """The c_i in the span of the rows b_j with c_i . b_j = 1 if i == j and
    0 otherwise: one solve against the Gram matrix per i."""
    gram = [tuple(vdot(a, b) for b in basis) for a in basis]
    coweights = []
    for i in range(len(basis)):
        g = solve_linear(gram, [Fraction(int(i == j)) for j in range(len(basis))])
        coweights.append(tuple(
            sum((c * a[k] for c, a in zip(g, basis)), Fraction(0))
            for k in range(len(basis[0]))
        ))
    return tuple(coweights)


def simple_system(weights) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Simple roots of the lexicographic positive system of the shortest
    weight on each ray, and their dual basis in the span of the roots.

    The input is assumed to be a root system; nothing is validated.
    """
    rays: dict[Vec, list[Vec]] = {}
    for w in weights:
        rays.setdefault(primitive_vector(w), []).append(w)
    roots = {min(ws, key=lambda w: vdot(w, w)) for ws in rays.values()}
    positive = {r for r in roots if lex_positive(r)}
    simple = sorted(
        a for a in positive
        if not any(tuple(x - y for x, y in zip(a, b)) in positive
                   for b in positive)
    )
    return tuple(simple), dual_basis(simple)
