"""Subset walk: an oracle for ``is_symmetric_type`` and
``is_virtually_symmetric_type``.

Test-only.  It asks whether some X' in t pairs to 0 on the nonzero Levi
weights and to 1 on the weights of u, once for symmetric type and, for
virtual symmetric type, once for each set Z of compact directions of u,
with the compact u-weights along Z moved to the 0 side.  It uses no
root-system structure: no simple roots, no coweights and no simple
factors.  Each question is a system A X' = b whose rows A are fixed by
the face and whose right side b is 0 or 1 per row, so one elimination per
face (``linalg_oracle.nullspace`` of A^T) gives ker A^T, and A X' = b is
solvable exactly when b is orthogonal to every vector of it.  From
``branchdec`` it imports only data types.  The walk tests 2^k sets for k
compact directions of u, so keep it to faces with k up to about 12.
"""

from __future__ import annotations

import itertools

from linalg_oracle import (
    is_zero_vec,
    nullspace,
    primitive_direction,
    primitive_vector,
    vdot,
)

from branchdec.parabolic import ThetaStableParabolic
from branchdec.root_core import PART_COMPACT, Vec


def _subset_test(q: ThetaStableParabolic):
    """The test zeroed -> is A X' = b solvable, for the b that is 1 on the
    u-weights except the compact ones along a direction in zeroed, and 0
    on the nonzero Levi weights and the torus constraints."""
    levi = [w for _, w, _ in q.base.weight_entries()
            if vdot(w, q.x) == 0 and not is_zero_vec(w)]
    u = list(q.u_weights())
    rows = levi + [w for _, w, _ in u] + list(q.base.t_constraints)
    if not rows:
        return lambda zeroed: True
    # y . b reads only the u rows, the ones where b can be 1: keep each
    # y's u part, scaled to integers
    u_rows = slice(len(levi), len(levi) + len(u))
    kernel = [tuple(map(int, primitive_vector(y[u_rows])))
              for y in nullspace(list(zip(*rows)))]
    directions = [primitive_direction(w) if part == PART_COMPACT else None
                  for part, w, _ in u]

    def solvable(zeroed: frozenset[Vec]) -> bool:
        ones = [i for i, d in enumerate(directions) if d not in zeroed]
        return all(sum(y[i] for i in ones) == 0 for y in kernel)

    return solvable


def symmetric_type(q: ThetaStableParabolic) -> bool:
    return _subset_test(q)(frozenset())


def virtually_symmetric_type(q: ThetaStableParabolic) -> bool:
    solvable = _subset_test(q)
    directions = sorted({
        primitive_direction(w) for w, _ in q.base.compact if vdot(w, q.x) > 0
    })
    return any(
        solvable(frozenset(zeroed))
        for r in range(len(directions) + 1)
        for zeroed in itertools.combinations(directions, r)
    )
