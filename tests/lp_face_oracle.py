"""LP face walk: an oracle for ``branchdec.parabolic.enumerate_parabolics``.

Test-only.  It finds the faces of the weight hyperplane arrangement by
extending sign vectors one hyperplane at a time and asking
``cone_kernel.feasible_point`` whether each extension is realised, so it
uses no root-system structure at all: no simple roots, no reflections and
no Weyl group.  The tests compare its signature lists with those of the
Weyl-orbit enumerator.
"""

from __future__ import annotations

from fractions import Fraction

from linalg_oracle import primitive_direction

from branchdec.cone_kernel import feasible_point
from branchdec.root_core import (
    RootDatum,
    Vec,
    is_zero_vec,
    lex_positive,
    orthogonal_complement,
    vdot,
    vneg,
    vzero,
)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def lp_face_signatures(
    base: RootDatum, dominant_only: bool
) -> list[tuple[int, ...]]:
    """Sorted signatures (signs of every weight entry) of all faces, or of
    the faces in the closed dominant chamber of the lexicographic positive
    system of Delta(k,t)."""
    tbasis = orthogonal_complement(base.t_constraints, base.ambient_dim)
    dim = len(tbasis)

    def restrict(w: Vec) -> Vec:
        return tuple(vdot(w, b) for b in tbasis)

    normals = sorted({
        primitive_direction(restrict(w))
        for _, w, _ in base.weight_entries()
        if not is_zero_vec(w)
    })

    def free(row: Vec) -> Vec:
        # feasible_point keeps its variables >= 0, so y is y+ - y-
        return (*row, *vneg(row))

    # sign s of n . y as a constraint on y; strictness is encoded as
    # |n . y| >= 1, which is harmless up to scaling
    sign_constraints = [
        {
            -1: (free(vneg(n)), True, Fraction(1)),
            0: (free(n), False, Fraction(0)),
            1: (free(n), True, Fraction(1)),
        }
        for n in normals
    ]
    dominance = [
        (free(restrict(w)), True, Fraction(0))
        for w, _ in base.compact
        if dominant_only and lex_positive(w)
    ]

    # incremental sign-vector extension; each kept prefix carries a witness
    frontier: list[tuple[tuple[int, ...], Vec]] = [
        ((), vzero(dim))
    ]
    for n in normals:
        nxt: list[tuple[tuple[int, ...], Vec]] = []
        for signs, y in frontier:
            inherited = _sign(vdot(n, y))
            for s in (-1, 0, 1):
                if s == inherited:
                    nxt.append((signs + (s,), y))
                    continue
                constraints = [
                    sign_constraints[i][t] for i, t in enumerate(signs + (s,))
                ]
                z, _ = feasible_point(constraints + dominance)
                if z is not None:
                    y2 = tuple(p - m for p, m in zip(z[:dim], z[dim:]))
                    nxt.append((signs + (s,), y2))
        frontier = nxt

    out = []
    for _, y in frontier:
        x = tuple(
            sum((c * b[i] for c, b in zip(y, tbasis)), Fraction(0))
            for i in range(base.ambient_dim)
        )
        out.append(
            tuple(_sign(vdot(w, x)) for _, w, _ in base.weight_entries())
        )
    return sorted(out)
