"""The runtime's record validation against ``validation_oracle``.

Every stored, theta: and swap: record, seeded mutations of them and of
their base data, and random embeddings must get the same report tuple
(and, for the base datum, the same DatumError message) from the
runtime's one-walk validators as from the oracle, which works each
check out on its own from its definition.  Between them the records
fail every check and raise every DatumError, so a runtime with any one
check left out fails this test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from validation_oracle import (
    datum_error,
    embedding_report,
    involution_report,
    sigma_images,
)

from branchdec.catalog import UnknownIdError, load_catalog
from branchdec.involution import (
    EmbeddingRecord,
    InvolutionData,
    TableRow,
)
from branchdec.root_core import DatumError, WeightMultiset, replace

SEED = 20261021
# seeded mutations per catalogued involution and embedding, and the
# synthetic embeddings
INVOLUTION_MUTATIONS = 24
EMBEDDING_MUTATIONS = 48
SYNTHETIC_EMBEDDINGS = 60


@lru_cache(maxsize=None)
def _catalogued() -> tuple:
    cat = load_catalog()
    records = [cat.pair(pid) for pid in cat.pair_ids()]
    records += [cat.pair(f"theta:{a}") for a in cat.algebra_ids()]
    for algebra_id in cat.algebra_ids():
        try:
            records.append(cat.pair(f"swap:{algebra_id}"))
        except UnknownIdError:
            pass
    return tuple(records)


def _bump(v, k, delta):
    return v[:k] + (v[k] + delta,) + v[k + 1:]


def _mutate_entries(rng, multiset, n):
    """A copy of a weight multiset with one weight dropped, shifted, made
    non-integral, lengthened, or a zero weight added."""
    entries = list(multiset.entries)
    kind = rng.choice(["drop", "shift", "fraction", "length", "zero"])
    if kind == "zero" or not entries:
        return WeightMultiset.of(entries + [((0,) * n, 1)])
    i = rng.randrange(len(entries))
    w, m = entries[i]
    if kind == "drop":
        del entries[i]
    elif kind == "shift":
        entries[i] = (_bump(w, rng.randrange(n), 1), m)
    elif kind == "fraction":
        entries[i] = (_bump(w, rng.randrange(n), Fraction(1, 2)), m)
    else:
        entries[i] = (w + (0,), m)
    return WeightMultiset.of(entries)


def _mutate_base(rng, base):
    n = base.ambient_dim
    kind = rng.choice(["compact", "noncompact", "constraint", "dim_g"])
    if kind == "dim_g":
        return replace(base, dim_g=base.dim_g + rng.choice([-1, 1]))
    if kind == "constraint" and base.t_constraints:
        c = base.t_constraints[0]
        c = rng.choice([_bump(c, rng.randrange(n), 1), c[:-1],
                        _bump(c, 0, Fraction(1, 3))])
        return replace(
            base, t_constraints=(c,) + base.t_constraints[1:])
    part = "noncompact" if kind == "noncompact" else "compact"
    return replace(
        base, **{part: _mutate_entries(rng, getattr(base, part), n)})


def _mutate_table_rows(rng, rows, n):
    if not rows or rng.random() < 0.3:
        x = tuple(rng.randint(-2, 2) for _ in range(n))
        return rows + (TableRow(x, "random"),)
    i = rng.randrange(len(rows))
    x = rows[i].x
    x = _bump(x, rng.randrange(n), 1) if rng.random() < 0.7 else x[:-1]
    return rows[:i] + (TableRow(x, rows[i].levi),) + rows[i + 1:]


def _mutate_involution(rng, inv):
    n = inv.base.ambient_dim
    kind = rng.choice(["matrix", "matrix", "shape", "eps-sign", "eps-drop",
                       "eps-weight", "dim_gprime", "zero_dim", "table",
                       "base", "base"])
    m, eps = inv.matrix, inv.eps
    if kind == "matrix":
        i, j = rng.randrange(n), rng.randrange(n)
        value = rng.choice([v for v in (-2, -1, 0, 1, 2, Fraction(1, 2))
                            if v != m[i][j]])
        row = m[i][:j] + (value,) + m[i][j + 1:]
        return replace(inv, matrix=m[:i] + (row,) + m[i + 1:])
    if kind == "shape":
        i = rng.randrange(n)
        shorter = (m[:i] + m[i + 1:] if rng.random() < 0.5
                   else m[:i] + (m[i][:-1],) + m[i + 1:])
        return replace(inv, matrix=shorter)
    if kind.startswith("eps") and eps:
        i = rng.randrange(len(eps))
        p, w, s = eps[i]
        if kind == "eps-sign":
            entry = [(p, w, rng.choice([v for v in (-1, 1, 0, 2) if v != s]))]
        elif kind == "eps-drop":
            entry = []
        else:
            entry = [(p, tuple(-x for x in w), s)] if rng.random() < 0.5 else [
                (p, _bump(w, rng.randrange(n), 1), s)]
        return replace(inv, eps=eps[:i] + tuple(entry) + eps[i + 1:])
    if kind == "dim_gprime":
        return replace(
            inv, dim_gprime=inv.dim_gprime + rng.choice([-2, -1, 1, 2]))
    if kind == "zero_dim":
        z = inv.base.noncompact.zero_mult()
        return replace(
            inv, zero_weight_fixed_dim=rng.choice(
                [v for v in range(-1, z + 2) if v != inv.zero_weight_fixed_dim]))
    if kind == "table":
        return replace(
            inv, table_rows=_mutate_table_rows(rng, inv.table_rows, n))
    return replace(inv, base=_mutate_base(rng, inv.base))


def _mutate_embedding(rng, rec):
    n = rec.base.ambient_dim
    rows = rec.tprime_rows
    kind = rng.choice(["entry", "drop", "duplicate", "shape", "extra",
                       "dim_gprime", "table", "base"])
    i = rng.randrange(len(rows)) if rows else 0
    if kind == "entry" and rows:
        rows = rows[:i] + (_bump(rows[i], rng.randrange(n),
                                 rng.choice([-1, 1])),) + rows[i + 1:]
    elif kind == "drop" and rows:
        rows = rows[:i] + rows[i + 1:]
    elif kind == "duplicate" and rows:
        rows = rows + (rows[i],)
    elif kind == "shape" and rows:
        rows = rows[:i] + (rows[i][:-1],) + rows[i + 1:]
    elif kind == "extra":
        return replace(
            rec, extra_zero_dim=rec.extra_zero_dim + rng.choice([-1, 1]))
    elif kind == "dim_gprime":
        return replace(
            rec, dim_gprime=rec.dim_gprime + rng.choice([-1, 1]))
    elif kind == "table":
        return replace(
            rec, table_rows=_mutate_table_rows(rng, rec.table_rows, n))
    elif kind == "base":
        return replace(rec, base=_mutate_base(rng, rec.base))
    return replace(rec, tprime_rows=rows)


def _synthetic_embedding(rng, base):
    """t' spanned by one to three random small rows, which may leave the
    torus, be dependent or let a weight vanish; the declared dimension
    is right about half the time."""
    n = base.ambient_dim
    rows = tuple(tuple(rng.randint(-1, 1) for _ in range(n))
                 for _ in range(rng.randint(1, 3)))
    rec = EmbeddingRecord(base, rows, rng.randint(0, 1), 0, "random",
                          "random")
    # one cell per part and nonzero tuple of values on the rows
    restrictions = {(p, tuple(sum(a * b for a, b in zip(w, r)) for r in rows))
                    for p, w, _ in base.weight_entries()}
    cells = sum(any(values) for _, values in restrictions)
    dim = len(rows) + rec.extra_zero_dim + cells + rng.choice([0, 0, 1, -1])
    return replace(rec, dim_gprime=dim)


def _records() -> list:
    rng = random.Random(SEED)
    out = []
    for rec in _catalogued():
        out.append(rec)
        if isinstance(rec, InvolutionData):
            out += [_mutate_involution(rng, rec)
                    for _ in range(INVOLUTION_MUTATIONS)]
        else:
            out += [_mutate_embedding(rng, rec)
                    for _ in range(EMBEDDING_MUTATIONS)]
    cat = load_catalog()
    bases = [cat.algebra(a) for a in ("su(2,2)", "sl(4,C)", "so(4,3)")]
    out += [_synthetic_embedding(rng, rng.choice(bases))
            for _ in range(SYNTHETIC_EMBEDDINGS)]
    return out


def _runtime_datum_error(datum) -> str | None:
    try:
        datum.validate()
    except DatumError as exc:
        return str(exc)
    return None


# what each DatumError message says after the datum's name, in the order
# a message is matched against them
DATUM_ERRORS = (
    "constraint row of wrong length", "not orthogonal", "torus constraint",
    "weight of wrong length", "is not integral",
    "zero weight in the compact part", "noncompact part not closed",
    "compact part not closed", "dim bookkeeping",
)

CHECKS = (
    "matrix-shape", "matrix-involutive", "matrix-orthogonal",
    "matrix-preserves-torus", "permutes-compact-weights",
    "permutes-noncompact-weights", "eps-covers-fixed-weights",
    "eps-negation-symmetric", "zero-weight-fixed-dim-range",
    "fixed-dimension-bookkeeping", "tminus-maximality-necessary",
    "table-rows-in-torus", "tprime-shape", "tprime-independent",
    "tprime-in-torus", "no-weight-vanishes-on-tprime",
    "cell-count-bookkeeping",
)


def _error_kind(message: str) -> str:
    said = message.split(": ", 1)[1]
    return next(kind for kind in DATUM_ERRORS if kind in said)


def test_validation_equals_the_oracle_on_catalogued_and_mutated_records():
    records = _records()
    assert len(records) - len(_catalogued()) >= 500
    checks_seen: set[str] = set()
    errors_seen: set[str] = set()
    errors = {}
    for rec in records:
        base = rec.base
        if id(base) not in errors:
            error = errors[id(base)] = datum_error(base)
            assert _runtime_datum_error(base) == error, rec.pair_id
            if error is not None:
                errors_seen.add(_error_kind(error))
        # a pair is only built over a datum of the right shape
        if "wrong length" in (errors[id(base)] or ""):
            continue
        # report is validate_involution or validate_embedding, run once
        oracle = (involution_report if isinstance(rec, InvolutionData)
                  else embedding_report)
        got, want = rec.report, oracle(rec)
        assert got == want, (rec.pair_id, got, want)
        checks_seen.update(got)
        if isinstance(rec, InvolutionData) and got != ("matrix-shape",):
            assert rec.sigma_images == sigma_images(rec)
    # the catalogued records pass, and the mutations fail every check and
    # raise every DatumError
    assert all(rec.report == () for rec in _catalogued())
    assert all(datum_error(rec.base) is None for rec in _catalogued())
    assert checks_seen == set(CHECKS)
    assert errors_seen == set(DATUM_ERRORS)
