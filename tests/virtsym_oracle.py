"""Subset walk: an oracle for ``is_symmetric_type`` and
``is_virtually_symmetric_type``.

Test-only.  It asks ``root_core.solve_linear`` for an X' in t that pairs
to 0 on the nonzero Levi weights and to 1 on the weights of u, once for
symmetric type and, for virtual symmetric type, once for each set Z of
compact directions of u, with the compact u-weights along Z moved to the
0 side.  It uses no root-system structure: no simple roots, no coweights
and no simple factors.  The walk makes 2^k solves for k compact
directions of u, so keep it to faces with k up to about 12.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from linalg_oracle import primitive_direction

from branchdec.parabolic import ThetaStableParabolic
from branchdec.root_core import (
    PART_COMPACT,
    Vec,
    is_zero_vec,
    solve_linear,
    vdot,
)


def symmetric_system_solvable(
    q: ThetaStableParabolic, zeroed: frozenset[Vec]
) -> bool:
    """Does some X' in t pair to 0 on the nonzero Levi weights and on the
    compact u-weights whose direction is in zeroed, and to 1 on the rest
    of Delta(u)?
    """
    rows: list[Vec] = []
    rhs: list[Fraction] = []
    for _, w, _ in q.base.weight_entries():
        if vdot(w, q.x) == 0 and not is_zero_vec(w):
            rows.append(w)
            rhs.append(Fraction(0))
    for part, w, _ in q.u_weights():
        absorbed = part == PART_COMPACT and primitive_direction(w) in zeroed
        rows.append(w)
        rhs.append(Fraction(0 if absorbed else 1))
    for c in q.base.t_constraints:
        rows.append(c)
        rhs.append(Fraction(0))
    if not rows:
        return True
    return solve_linear(rows, rhs) is not None


def symmetric_type(q: ThetaStableParabolic) -> bool:
    return symmetric_system_solvable(q, frozenset())


def virtually_symmetric_type(q: ThetaStableParabolic) -> bool:
    directions = sorted({
        primitive_direction(w) for w, _ in q.base.compact if vdot(w, q.x) > 0
    })
    return any(
        symmetric_system_solvable(q, frozenset(zeroed))
        for r in range(len(directions) + 1)
        for zeroed in itertools.combinations(directions, r)
    )
