"""Record validation worked out from its definitions, for the runtime's
one-walk validators.

Test-only.  Each check is computed on its own, in the words of its
definition, with this file's matrix-vector product and
``linalg_oracle.rank``: ``involution_report`` and ``embedding_report``
return the names of the checks a record fails, in the runtime's order,
and ``datum_error`` the message of the first ``DatumError`` that
``RootDatum.validate`` raises, or None.  From ``branchdec`` it imports
only data types; it reads a record's fields and no value the runtime
computed and kept on it.  ``fixed_pair_counts``, ``dim_g_sigma`` and
``is_negation_closed`` are the counts the tests read.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Sequence

import linalg_oracle

from branchdec.root_core import PART_COMPACT, PART_NONCOMPACT, Vec


def _fmt(w: Vec) -> str:
    return ",".join(str(x) for x in w)


def _dot(a: Vec, b: Vec):
    return sum(x * y for x, y in zip(a, b, strict=True))


@lru_cache(maxsize=None)
def rank(rows: tuple) -> int:
    """linalg_oracle.rank, remembered: most mutations keep sigma and the
    constraints, whose ranks the checks read."""
    return linalg_oracle.rank(rows)


def sigma_image(matrix: Sequence[Vec], w: Vec) -> Vec:
    """sigma acting on a weight: (sigma w)(X) = w(sigma X), the
    transpose of the matrix applied to w."""
    return tuple(sum(map(mul, column, w)) for column in zip(*matrix))


def sigma_images(inv) -> dict:
    """sigma_image of every weight of the base."""
    return {w: sigma_image(inv.matrix, w) for _, w, _ in _entries(inv.base)}


def _matmul(a: Sequence[Vec], b: Sequence[Vec]) -> list[list]:
    n = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(n)]
            for row in a]


def _entries(datum):
    return [(PART_COMPACT, w, m) for w, m in datum.compact.entries] + [
        (PART_NONCOMPACT, w, m) for w, m in datum.noncompact.entries
    ]


def _counts(multiset) -> dict:
    counts: dict = {}
    for w, m in multiset.entries:
        counts[w] = m
    return counts


def is_negation_closed(multiset) -> bool:
    counts = _counts(multiset)
    return all(counts.get(tuple(-x for x in w), 0) == m
               for w, m in multiset.entries)


def _zero_mult(multiset) -> int:
    return sum(m for w, m in multiset.entries if all(x == 0 for x in w))


def _in_torus(datum, x: Vec) -> bool:
    return len(x) == datum.ambient_dim and all(
        _dot(c, x) == 0 for c in datum.t_constraints
    )


def _first_signs(inv) -> dict:
    signs: dict = {}
    for p, w, s in inv.eps:
        signs.setdefault((p, w), s)
    return signs


def dim_t_sigma(inv) -> int:
    """dim t^sigma: n minus the rank of sigma - 1 and the constraints."""
    n = inv.base.ambient_dim
    rows = [tuple(r[j] - (i == j) for j in range(n))
            for i, r in enumerate(inv.matrix)]
    return n - rank(tuple(rows) + tuple(inv.base.t_constraints))


def fixed_pair_counts(inv, images=None) -> tuple[int, int, int]:
    """(#pairs {w, sigma w}, #fixed with eps +1, #fixed with eps -1),
    nonzero weights, counted with multiplicity."""
    images = images or sigma_images(inv)
    signs = _first_signs(inv)
    moved = plus = minus = 0
    for part, w, m in _entries(inv.base):
        if all(x == 0 for x in w):
            continue
        if images[w] != w:
            moved += m
        elif signs.get((part, w)) == 1:
            plus += m
        else:
            minus += m
    return moved // 2, plus, minus


def dim_g_sigma(inv, images=None) -> int:
    """dim g^sigma: t^sigma, the fixed zero weights of p, one line per
    pair and the fixed weights with sign +1."""
    pairs, plus, _ = fixed_pair_counts(inv, images)
    return dim_t_sigma(inv) + inv.zero_weight_fixed_dim + pairs + plus


def involution_report(inv) -> tuple[str, ...]:
    base = inv.base
    n = base.ambient_dim
    m = inv.matrix
    if len(m) != n or any(len(r) != n for r in m):
        return ("matrix-shape",)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    mt = [[m[j][i] for j in range(n)] for i in range(n)]
    cons = tuple(base.t_constraints)
    signs = _first_signs(inv)
    images = sigma_images(inv)
    fixed = [(p, w, mm) for p, w, mm in _entries(base)
             if any(w) and images[w] == w]

    def permutes(multiset) -> bool:
        counts = _counts(multiset)
        return all(counts.get(images[w], 0) == mm
                   for w, mm in multiset.entries if any(w))

    checks = {
        "matrix-involutive": _matmul(m, m) == eye,
        "matrix-orthogonal": _matmul(mt, m) == eye,
        "matrix-preserves-torus": rank(
            cons + tuple(sigma_image(m, c) for c in cons)) == rank(cons),
        "permutes-compact-weights": permutes(base.compact),
        "permutes-noncompact-weights": permutes(base.noncompact),
        "eps-covers-fixed-weights": (
            {(p, w) for p, w, _ in fixed} == {(p, w) for p, w, _ in inv.eps}
            and all(s in (1, -1) for _, _, s in inv.eps)
            and all(mm == 1 for _, _, mm in fixed)
        ),
        "eps-negation-symmetric": all(
            signs.get((p, tuple(-x for x in w))) == s for p, w, s in inv.eps
        ),
        "zero-weight-fixed-dim-range": (
            0 <= inv.zero_weight_fixed_dim <= _zero_mult(base.noncompact)
        ),
        "fixed-dimension-bookkeeping": (
            dim_g_sigma(inv, images) == inv.dim_gprime),
        "tminus-maximality-necessary": all(
            images[w] != w or signs.get((PART_COMPACT, w)) == 1
            for w, _ in base.compact.entries
        ),
        "table-rows-in-torus": all(
            _in_torus(base, row.x) for row in inv.table_rows
        ),
    }
    return tuple(name for name, ok in checks.items() if not ok)


def embedding_report(rec) -> tuple[str, ...]:
    base = rec.base
    rows = tuple(rec.tprime_rows)
    if any(len(r) != base.ambient_dim for r in rows):
        return ("tprime-shape",)
    # a weight restricts to t' by its values on the rows; one line of the
    # subalgebra per distinct nonzero restriction within a part
    restrictions = {(p, tuple(_dot(w, r) for r in rows))
                    for p, w, _ in _entries(base)}
    cells = {(p, values) for p, values in restrictions if any(values)}
    checks = {
        "tprime-independent": rank(rows) == len(rows),
        "tprime-in-torus": all(_in_torus(base, r) for r in rows),
        "no-weight-vanishes-on-tprime": all(
            any(_dot(w, r) != 0 for r in rows)
            for _, w, _ in _entries(base) if any(w)
        ),
        "cell-count-bookkeeping": (
            len(rows) + rec.extra_zero_dim + len(cells) == rec.dim_gprime
        ),
        "table-rows-in-torus": all(
            _in_torus(base, row.x) for row in rec.table_rows
        ),
    }
    return tuple(name for name, ok in checks.items() if not ok)


def _integral(v: Vec) -> bool:
    return all(x.denominator == 1 for x in v)


def datum_error(datum) -> str | None:
    """The message of the first DatumError RootDatum.validate raises, in
    its order: each constraint's shape, each weight's shape, the compact
    zero weight, negation closure of each part, the dimension count."""
    name, n = datum.name, datum.ambient_dim
    for c in datum.t_constraints:
        if len(c) != n:
            return f"{name}: constraint row of wrong length"
        if not _integral(c):
            return f"{name}: torus constraint {_fmt(c)} is not integral"
    for part, w, _ in _entries(datum):
        if len(w) != n:
            return f"{name}: weight of wrong length in part {part}"
        if not _integral(w):
            return f"{name}: weight {_fmt(w)} in part {part} is not integral"
        if any(_dot(c, w) != 0 for c in datum.t_constraints):
            return (f"{name}: weight {_fmt(w)} not orthogonal to the torus "
                    "constraints")
    if _zero_mult(datum.compact):
        return f"{name}: zero weight in the compact part"
    if not is_negation_closed(datum.compact):
        return f"{name}: compact part not closed under negation"
    if not is_negation_closed(datum.noncompact):
        return f"{name}: noncompact part not closed under negation"
    size = sum(m for _, _, m in _entries(datum))
    expect = n - rank(tuple(datum.t_constraints)) + size
    if expect != datum.dim_g:
        return f"{name}: dim bookkeeping {expect} != declared {datum.dim_g}"
    return None
