"""Fraction elimination oracle for the integer kernels of ``branchdec.root_core``.

Test-only.  This is rational Gauss-Jordan elimination and a ``Fraction``
dot product, with every entry made a ``Fraction`` first, so the tests can
compare the runtime kernels, which compute over integers and build a
``Fraction`` only for what they return, with it value for value and type
for type.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from branchdec.root_core import DatumError, Vec


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
