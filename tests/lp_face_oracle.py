"""Sign-vector face walk: an oracle for
``branchdec.parabolic.enumerate_parabolics``.

Test-only.  It finds the faces of the weight hyperplane arrangement by
extending sign vectors one hyperplane at a time and deciding by
Fourier-Motzkin elimination (``fm_oracle.fm_feasible``) whether each
extension is realised, so it uses no root-system structure at all: no
simple roots, no reflections and no Weyl group.  A face's signature is
read off its sign vector: each weight has the sign of its primitive
direction, negated when the weight points the other way.  The tests
compare its signature lists with those of the Weyl-orbit enumerator.
Its elimination is ``linalg_oracle``'s and ``fm_oracle``'s; from
``branchdec`` it imports only data types.
"""

from __future__ import annotations

from fractions import Fraction

from fm_oracle import fm_feasible
from linalg_oracle import (
    is_zero_vec,
    lex_positive,
    nullspace,
    primitive_direction,
    vdot,
)

from branchdec.root_core import RootDatum


def lp_face_signatures(
    base: RootDatum, dominant_only: bool
) -> list[tuple[int, ...]]:
    """Sorted signatures (signs of every weight entry) of all faces, or of
    the faces in the closed dominant chamber of the lexicographic positive
    system of Delta(k,t)."""
    # y are the coordinates of X along a basis of t; the zero row fixes
    # the dimension when there is no torus constraint
    tbasis = nullspace([*base.t_constraints, (0,) * base.ambient_dim])

    def restrict(w) -> tuple[Fraction, ...]:
        return tuple(vdot(w, b) for b in tbasis)

    weights = [restrict(w) for _, w, _ in base.weight_entries()]
    normals = sorted({primitive_direction(w) for w in weights
                      if not is_zero_vec(w)})
    index = {n: i for i, n in enumerate(normals)}
    # (normal, orientation) per weight entry; None for a zero weight
    reads = [None if is_zero_vec(w) else
             (index[primitive_direction(w)], 1 if lex_positive(w) else -1)
             for w in weights]

    dominance = [
        (tuple(-x for x in restrict(w)), 0)
        for w, _ in base.compact
        if dominant_only and lex_positive(w)
    ]

    def realised(signs: tuple[int, ...]) -> bool:
        # sign s of n . y is n . y = 0 for s = 0, else -s n . y <= -1:
        # strictness as |n . y| >= 1, which is harmless up to scaling
        equalities = [(normals[i], 0) for i, s in enumerate(signs) if s == 0]
        inequalities = [(tuple(-s * x for x in normals[i]), -1)
                        for i, s in enumerate(signs) if s]
        return fm_feasible(len(tbasis), equalities, inequalities + dominance)

    frontier: list[tuple[int, ...]] = [()]
    for _ in normals:
        nxt = []
        for signs in frontier:
            signed = [s for s in (0, -1) if realised(signs + (s,))]
            # the prefix is realised, so some sign of the next normal is:
            # the last one needs a test only when another one passed
            if not signed or realised(signs + (1,)):
                signed.append(1)
            nxt.extend(signs + (s,) for s in signed)
        frontier = nxt

    return sorted(
        tuple(0 if r is None else r[1] * signs[r[0]] for r in reads)
        for signs in frontier
    )
