"""Plain ``Fraction`` linear algebra: the one kit every test oracle uses.

Test-only.  This is rational Gauss-Jordan elimination, a ``Fraction`` dot
product and the vector predicates, with every entry made a ``Fraction``
first, so the tests can compare the runtime kernels, which compute over
integers and build a ``Fraction`` only for what they return, with it
value for value and type for type.  The other oracles (``fm_oracle``,
``lp_face_oracle``, ``projection_oracle``, ``reflection_walk_oracle``
and ``virtsym_oracle``) take their arithmetic from here, and no oracle
imports anything but data types, loaders and error classes from
``branchdec``.  ``simple_roots`` and ``simple_system`` are the simple
system of a positive system worked out on ``Fraction`` vectors, for
``RootSystem.coweight_rows`` and ``ThetaStableParabolic.free_coefficients``,
and ``coweight_chamber`` the momentum chamber as rays and lines built
from it and from ``restricted_root_support``, for the chamber that the
runtime states by its walls.
``eigenbasis`` spans t^{sigma} or t^{-sigma}, of which the runtime keeps
only the dimension of the first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from branchdec.root_core import DatumError, Vec


def vdot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def lex_positive(a: Vec) -> bool:
    """True if the first nonzero entry is positive; False for 0."""
    return next((x > 0 for x in a if x != 0), False)


def primitive_vector(a: Vec) -> Vec:
    """Scale by a positive factor to coprime integer entries; 0 stays 0."""
    if is_zero_vec(a):
        return a
    scale = lcm(*(Fraction(x).denominator for x in a))
    ints = [int(x * scale) for x in a]
    g = gcd(*ints)
    return tuple(Fraction(v // g) for v in ints)


def primitive_direction(a: Vec) -> Vec:
    """primitive_vector of a or of -a, whichever is lex-positive; 0 stays 0."""
    p = primitive_vector(a)
    return p if lex_positive(p) or is_zero_vec(p) else tuple(-x for x in p)


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


def simple_roots(weights, x: Vec | None = None) -> tuple[Vec, ...]:
    """Simple roots of the positive system that x orders first, among the
    shortest weight on each ray, sorted.

    The positive roots pair > 0 with x, or to 0 and are lexicographically
    positive; with no x, the lexicographic positive system.  The input is
    assumed to be a root system; nothing is validated.
    """
    rays: dict[Vec, list[Vec]] = {}
    for w in weights:
        rays.setdefault(primitive_vector(w), []).append(w)
    roots = {min(ws, key=lambda w: vdot(w, w)) for ws in rays.values()}

    def is_positive(r: Vec) -> bool:
        s = vdot(r, x) if x is not None else 0
        return s > 0 or s == 0 and lex_positive(r)

    positive = {r for r in roots if is_positive(r)}
    return tuple(sorted(
        a for a in positive
        if not any(tuple(s - t for s, t in zip(a, b)) in positive
                   for b in positive)
    ))


def simple_system(
    weights, x: Vec | None = None
) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """simple_roots and their dual basis in the span of the roots."""
    simple = simple_roots(weights, x)
    return simple, dual_basis(simple)


def eigenbasis(inv, sign: int) -> tuple[Vec, ...]:
    """A basis of the sign eigenspace of an involution's sigma on t: the
    vectors of t with sigma x = sign x."""
    n = inv.base.ambient_dim
    rows = [
        tuple(r[j] - (sign if i == j else 0) for j in range(n))
        for i, r in enumerate(inv.matrix)
    ]
    return tuple(nullspace(rows + list(inv.base.t_constraints)))


def restricted_root_support(inv) -> list[Vec]:
    """The distinct nonzero restricted roots of an involution pair,
    sorted: each compact root w restricts to t^{-sigma} as
    (w - sigma^T w)/2, worked out from the pair's matrix."""
    n = inv.base.ambient_dim
    roots = set()
    for w, _ in inv.base.compact:
        image = [sum((Fraction(inv.matrix[i][j]) * w[i] for i in range(n)),
                     Fraction(0)) for j in range(n)]
        r = tuple((w[j] - image[j]) / 2 for j in range(n))
        if not is_zero_vec(r):
            roots.add(r)
    return sorted(roots)


def coweight_chamber(inv) -> tuple[list[Vec], list[Vec]]:
    """The dominant chamber of the restricted roots of an involution pair,
    as rays and lines: the rays are the primitive fundamental coweights of
    the restricted simple roots, and the lines a basis of the part of
    t^{-sigma} orthogonal to every restricted root."""
    basis = list(eigenbasis(inv, -1))
    roots = restricted_root_support(inv)
    if not basis:
        return [], []
    _, coweights = simple_system(roots)
    rows = [tuple(vdot(w, b) for b in basis) for w in roots]
    lines = nullspace(rows) if rows else [
        tuple(Fraction(int(i == j)) for j in range(len(basis)))
        for i in range(len(basis))
    ]
    n = len(basis[0])
    return (
        sorted(primitive_vector(c) for c in coweights),
        [primitive_direction(tuple(
            sum((c * b[k] for c, b in zip(y, basis)), Fraction(0))
            for k in range(n)
        )) for y in lines],
    )
