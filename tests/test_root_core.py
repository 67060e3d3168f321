from __future__ import annotations

import ast
import hashlib
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import linalg_oracle
import pytest
from linalg_oracle import primitive_direction, primitive_vector
from projection_oracle import gram_projection, independent_rows
from validation_oracle import is_negation_closed

from branchdec import root_core
from branchdec.catalog import load_catalog
from branchdec.root_core import (
    DatumError,
    _echelon,
    RootDatum,
    RootSystem,
    WeightMultiset,
    as_fraction,
    build_root_datum,
    direct_sum,
    dot,
    dual_rows,
    format_vector,
    identity,
    in_span,
    lex_positive,
    mat_apply,
    nullspace,
    parse_vector,
    project_onto_span,
    projection_matrix,
    rank,
    replace,
    rref,
    solve_linear,
    sum_parts,
    vadd,
    vdot,
    vec,
    vec_from,
    vhalf,
    vneg,
    vscale,
    vsub,
    vzero,
)

F = Fraction


def _rand_vec(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(n))


# ---------------------------------------------------------------------------
# scalars and vectors


def test_as_fraction_accepts_common_forms():
    assert as_fraction("3") == 3
    assert as_fraction("-1/2") == F(-1, 2)
    assert as_fraction(F(2, 4)) == F(1, 2)
    assert as_fraction(7) == 7
    with pytest.raises(DatumError):
        as_fraction("one")
    with pytest.raises(DatumError):
        as_fraction(0.5)
    # only the literals the program writes; an exponent would be expanded
    for bad in ("1e3", "0.5", "1/0", "1/-2"):
        with pytest.raises(DatumError, match="bad rational literal"):
            as_fraction(bad)


def test_vector_arithmetic():
    a = vec(1, "1/2", -2)
    b = vec(0, "3/2", 1)
    assert vadd(a, b) == vec(1, 2, -1)
    assert vsub(a, b) == vec(1, -1, -3)
    assert vneg(a) == vec(-1, "-1/2", 2)
    assert vscale(2, a) == vec(2, 1, -4)
    assert vdot(a, b) == F(3, 4) - 2
    assert vzero(3) == vec(0, 0, 0)


def test_int_rows_give_int_products():
    # integral literals decode to int, and products of int rows stay int;
    # vdot alone always returns a Fraction
    assert vec_from(["3", "-2", " 7 ", "4/2", "1/2", F(6, 3)]) == (
        3, -2, 7, 2, F(1, 2), 2)
    assert [type(x) for x in vec_from(["3", "4/2", "1/2", F(6, 3)])] == [
        int, int, F, int]
    a, b = (1, -2, 3), (4, 0, -1)
    assert dot(a, b) == 1 and type(dot(a, b)) is int
    assert type(dot(a, vec(4, 0, -1))) is F
    assert type(vdot(a, b)) is F
    with pytest.raises(ValueError):
        dot(a, b[:2])
    eye = identity(3)
    assert all(type(x) is int for row in eye for x in row)
    image = mat_apply(eye, a)
    assert image == a and all(type(x) is int for x in image)
    halves = vhalf((4, -3, 0, F(-6), F(1, 3)))
    assert halves == (2, F(-3, 2), 0, -3, F(1, 6))
    assert [type(x) for x in halves] == [int, F, int, int, F]


def test_parse_and_format_vector_round_trip():
    for text in ("3,-1,-1,-1", "1/2,-1/2,0", "0"):
        assert format_vector(parse_vector(text)) == text
    with pytest.raises(DatumError):
        parse_vector("")
    with pytest.raises(DatumError):
        parse_vector("1,2,x")
    with pytest.raises(DatumError):
        parse_vector("1,2", expect_dim=3)


def test_lex_positive():
    assert lex_positive(vec(0, 0, 1))
    assert not lex_positive(vec(0, -1, 5))
    assert not lex_positive(vzero(4))


def test_primitive_direction_canonicalises_lines():
    rng = random.Random(20260801)
    for _ in range(300):
        v = _rand_vec(rng, 4)
        p = primitive_direction(v)
        if all(x == 0 for x in v):
            assert p == v
            continue
        # same line, integer coprime entries, canonical sign
        assert lex_positive(p)
        assert all(x.denominator == 1 for x in p)
        scale = rng.choice([F(1, 3), F(5, 2), 2, -1, F(-7, 4)])
        assert primitive_direction(vscale(scale, v)) == p
    assert primitive_direction(vec("1/2", "-1/2")) == vec(1, -1)
    assert primitive_direction(vec(-2, 4)) == vec(1, -2)
    # primitive_vector keeps the sign: a lex-negative X stays on its side
    assert primitive_vector(vec(-2, 4)) == vec(-1, 2)
    assert primitive_vector(vec("-1/2", "-3/4")) == vec(-2, -3)


# ---------------------------------------------------------------------------
# exact linear algebra


def test_rref_small_example():
    rows, pivots = rref([vec(1, 2, 3), vec(2, 4, 6), vec(0, 0, 1)])
    assert pivots == [0, 2]
    assert rows == [vec(1, 2, 0), vec(0, 0, 1)]


def test_int_fraction_and_mixed_rows_give_exact_fractions():
    want = ([(F(1), F(0)), (F(0), F(1))], [0, 1])
    third = ([(F(1), F(1, 3), F(0))], [0])
    for cast in (int, F, lambda k: F(k) if k % 2 else k):
        got = rref([tuple(map(cast, r)) for r in [(2, 1), (1, 3)]])
        assert got == want
        assert all(type(x) is F for row in got[0] for x in row)
        got = rref([tuple(map(cast, r)) for r in [(3, 1, 0), (0, 0, 0)]])
        assert got == third
        assert all(type(x) is F for row in got[0] for x in row)
        null = nullspace([tuple(map(cast, (3, 1, 0)))])
        assert null == [(F(-1, 3), F(1), F(0)), (F(0), F(0), F(1))]
        assert all(type(x) is F for v in null for x in v)
    # a float elimination loses the last unit and finds rank 1
    big = 10**17
    assert rank([(big + 1, big), (big, big - 1)]) == 2


def _random_entry(rng: random.Random, large: bool):
    if large:
        return F(rng.randint(-(10**30), 10**30), rng.randint(1, 10**6))
    num = rng.randint(-9, 9)
    if rng.random() < 0.4:
        return num
    return F(num, rng.choice([1, 2, 3, 4, 7]))


def _random_matrix(rng: random.Random) -> tuple[list[tuple], set[str]]:
    """Rows mixing int and Fraction entries, with the features drawn."""
    n = rng.randint(1, 6)
    m = rng.choice([0, *range(1, 7)])
    large = rng.random() < 0.2
    zero_cols = {c for c in range(n) if rng.random() < 0.15}
    rows = [
        tuple(0 if c in zero_cols else _random_entry(rng, large) for c in range(n))
        for _ in range(m)
    ]
    if rows and rng.random() < 0.4:
        a, b = rng.choice(rows), rng.choice(rows)
        s, t = rng.choice([-2, F(1, 3), 3]), rng.choice([0, 1, F(-5, 2)])
        rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
    if rows and rng.random() < 0.3:
        rows.insert(rng.randint(0, len(rows)), (0,) * n)
    features = set()
    if not rows:
        features.add("empty")
    if any(not any(r) for r in rows):
        features.add("zero row")
    if rows and linalg_oracle.rank(rows) < len(rows):
        features.add("dependent")
    if rows and any(not any(r[c] for r in rows) for c in range(n)):
        features.add("zero column")
    entries = [x for r in rows for x in r]
    if any(isinstance(x, F) and x.denominator > 1 for x in entries):
        features.add("non-integral")
    if any(x < 0 for x in entries):
        features.add("negative")
    if large and rows:
        features.add("large")
    if {type(x) for x in entries} == {int, F}:
        features.add("mixed")
    return rows, features


def _fraction_rows(rows) -> tuple:
    """The rows n / d of dual_rows, every entry a Fraction."""
    return tuple(tuple(F(x, d) for x in n) for n, d in rows)


def _same(got, want) -> bool:
    """Equal, with the same type at every position."""
    if isinstance(want, (list, tuple)):
        return (
            type(got) is type(want)
            and len(got) == len(want)
            and all(_same(g, w) for g, w in zip(got, want))
        )
    return type(got) is type(want) and got == want


def test_integer_kernels_match_the_fraction_oracle():
    rng = random.Random(20261018)
    seen: dict[str, int] = {}
    for _ in range(320):
        rows, features = _random_matrix(rng)
        for f in features:
            seen[f] = seen.get(f, 0) + 1
        n = len(rows[0]) if rows else rng.randint(1, 4)
        assert _same(rref(rows), linalg_oracle.rref(rows))
        assert _same(rank(rows), linalg_oracle.rank(rows))
        basis: list[tuple] = []
        for r in rows:
            if linalg_oracle.rank(basis + [r]) > len(basis):
                basis.append(r)
        assert _same(_fraction_rows(dual_rows(basis)),
                     linalg_oracle.dual_basis(basis))
        # the integer rows behind it are in lowest terms
        assert all(d > 0 and gcd(d, *n) == 1 for n, d in dual_rows(basis))
        v = tuple(_random_entry(rng, False) for _ in range(n))
        coeffs = [rng.randint(-2, 2) for _ in rows]
        combo = tuple(
            sum((k * r[c] for k, r in zip(coeffs, rows)), 0) for c in range(n)
        )
        for u in (v, combo):
            assert _same(in_span(u, rows), linalg_oracle.in_span(u, rows))
            for r in rows:
                assert _same(vdot(r, u), linalg_oracle.vdot(r, u))
        if not rows:
            with pytest.raises(DatumError):
                nullspace(rows)
            with pytest.raises(DatumError):
                solve_linear(rows, [])
            continue
        assert _same(nullspace(rows), linalg_oracle.nullspace(rows))
        x = tuple(_random_entry(rng, False) for _ in range(n))
        for rhs in (
            [vdot(r, x) for r in rows],
            [_random_entry(rng, False) for _ in rows],
        ):
            assert _same(
                solve_linear(rows, rhs),
                linalg_oracle.solve_linear(rows, [F(b) for b in rhs]),
            )
    for feature in ("dependent", "zero row", "zero column", "non-integral",
                    "negative", "large", "mixed"):
        assert seen.get(feature, 0) >= 20, (feature, seen)
    assert seen.get("empty", 0) >= 10, seen
    assert _same(rref([()]), ([], []))
    with pytest.raises(ValueError):
        vdot(vec(1, 2), vec(1, 2, 3))


def test_echelon_rows_are_coprime_multiples_of_the_rref_rows():
    rng = random.Random(20261019)
    for _ in range(150):
        rows, _ = _random_matrix(rng)
        ints, pivots = _echelon(rows)
        reduced, want_pivots = linalg_oracle.rref(rows)
        assert pivots == want_pivots
        for row, pc, want in zip(ints, pivots, reduced, strict=True):
            assert all(type(x) is int for x in row)
            assert gcd(*row) == 1
            assert tuple(F(x, row[pc]) for x in row) == want


def test_rank_nullspace_dimension_formula():
    rng = random.Random(20260802)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        rows = [_rand_vec(rng, n) for _ in range(m)]
        r = rank(rows)
        null = nullspace(rows)
        assert r + len(null) == n
        for v in null:
            for row in rows:
                assert vdot(row, v) == 0
        assert rank(null) == len(null)


def test_solve_linear_by_substitution():
    rng = random.Random(20260803)
    consistent = inconsistent = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        rows = [_rand_vec(rng, n) for _ in range(m)]
        rhs = _rand_vec(rng, m)
        x = solve_linear(rows, rhs)
        if x is None:
            inconsistent += 1
            # no solution means appending rhs as a column raises the rank
            aug = [tuple(rows[i]) + (rhs[i],) for i in range(m)]
            assert rank(aug) > rank(rows)
        else:
            consistent += 1
            assert all(vdot(rows[i], x) == rhs[i] for i in range(m))
    assert consistent > 20 and inconsistent > 20


def test_span_and_projection():
    rows = [vec(1, 0, 1, 0), vec(0, 1, 0, 1)]
    assert in_span(vec(2, -3, 2, -3), rows)
    assert not in_span(vec(1, 0, 0, 0), rows)
    v = vec(1, 2, 3, 4)
    p = project_onto_span(v, rows)
    assert in_span(p, rows)
    for r in rows:
        assert vdot(vsub(v, p), r) == 0
    assert project_onto_span(p, rows) == p


def test_project_onto_span_random_idempotent():
    rng = random.Random(20260804)
    for _ in range(100):
        n = rng.randint(2, 5)
        rows = [_rand_vec(rng, n) for _ in range(rng.randint(1, 3))]
        if rank(rows) == 0:
            continue
        v = _rand_vec(rng, n)
        p = project_onto_span(v, rows)
        assert project_onto_span(p, rows) == p
        assert all(vdot(vsub(v, p), r) == 0 for r in rows)


def test_project_onto_span_matches_gram_oracle():
    # dependent and zero rows, and row sets with no nonzero row at all
    rng = random.Random(20261018)
    dependent = spanless = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = [_rand_vec(rng, n) for _ in range(rng.randint(0, 3))]
        if rows and rng.random() < 0.5:
            rows.append(vscale(rng.choice([-2, F(1, 3), 3]), rng.choice(rows)))
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), vzero(n))
        rng.shuffle(rows)
        dependent += rank(rows) < len(rows)
        spanless += rank(rows) == 0
        matrix = projection_matrix(rows, n)
        for _ in range(3):
            v = _rand_vec(rng, n)
            expected = gram_projection(v, rows)
            assert project_onto_span(v, rows) == expected
            assert mat_apply(matrix, v) == expected
    assert dependent > 50 and spanless > 5
    assert projection_matrix([], 2) == (vzero(2), vzero(2))


def test_dual_basis_pairs_to_the_identity():
    basis = [vec(1, -1, 0), vec(0, 1, -1)]
    dual = _fraction_rows(dual_rows(basis))
    assert [[vdot(c, b) for b in basis] for c in dual] == [[1, 0], [0, 1]]
    assert all(in_span(c, basis) for c in dual)
    assert dual_rows([]) == ()


def test_independent_rows_is_a_basis_of_the_row_span():
    rows = [vec(1, 1), vec(2, 2), vec(0, 1), vec(3, 0)]
    basis = independent_rows(rows)
    assert len(basis) == 2 == rank(rows)
    assert all(in_span(r, basis) for r in rows)


# what a test oracle may take from branchdec: data types, loaders and
# error classes, never a routine or a cached property that computes what
# the oracle checks
ORACLE_IMPORTS = {
    "Vec", "IntVec", "RootDatum", "ThetaStableParabolic", "PART_COMPACT",
    "PART_NONCOMPACT", "DatumError", "CertificateError", "build_root_datum",
    "load_catalog",
}


def _runtime_cached_properties() -> set[str]:
    """The name of every cached_property of a branchdec class, read from
    the source."""
    names = set()
    for path in Path(root_core.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                getattr(d, "id", getattr(d, "attr", None)) == "cached_property"
                for d in node.decorator_list
            ):
                names.add(node.name)
    return names


def test_oracles_import_only_data_from_branchdec():
    # nor do they read what the runtime computed and kept on a record: an
    # attribute read, which no import shows
    cached = _runtime_cached_properties()
    assert {"restricted", "view", "sigma_images", "root_system"} <= cached
    oracles = sorted(Path(__file__).parent.glob("*oracle*.py"))
    assert len(oracles) == 7
    for path in oracles:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr not in cached, (path.name, node.lineno,
                                                 node.attr)
            elif isinstance(node, ast.Import):
                modules = {alias.name.split(".")[0] for alias in node.names}
                assert "branchdec" not in modules, path.name
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "branchdec"):
                names = {alias.name for alias in node.names}
                assert names <= ORACLE_IMPORTS, (
                    path.name, sorted(names - ORACLE_IMPORTS))


# ---------------------------------------------------------------------------
# weight multisets


def test_weight_multiset_merges_and_sorts():
    ws = WeightMultiset.of([(vec(1, 0), 1), (vec(0, 1), 2), (vec(1, 0), 1)])
    assert ws.mult(vec(1, 0)) == 2
    assert ws.total() == 4
    assert len(ws) == 2
    assert ws.support() == (vec(0, 1), vec(1, 0))


def test_weight_multiset_rejects_negative_mult():
    with pytest.raises(DatumError):
        WeightMultiset.of([(vec(1, 0), -1)])
    assert len(WeightMultiset.of([(vec(1, 0), 0)])) == 0


def test_weight_multiset_zero_handling():
    ws = WeightMultiset.of([(vec(0, 0), 3), (vec(1, -1), 1), (vec(-1, 1), 1)])
    assert ws.zero_mult() == 3
    assert ws.nonzero().total() == 2
    assert is_negation_closed(ws)
    assert not is_negation_closed(WeightMultiset.of([(vec(1, 0), 1)]))


# ---------------------------------------------------------------------------
# builders

# name -> (dim_g, dim_k, dim_t, equal_rank)
BUILDER_TABLE = {
    "su(1,1)": (3, 1, 1, True),
    "su(2)": (3, 3, 1, True),
    "su(2,2)": (15, 7, 3, True),
    "su(4)": (15, 15, 3, True),
    "so(2,2)": (6, 2, 2, True),
    "so(4)": (6, 6, 2, True),
    "so(4,3)": (21, 9, 3, True),
    "so(4,4)": (28, 12, 4, True),
    "sp(2,R)": (10, 4, 2, True),
    "sp(1,1)": (10, 6, 2, True),
    "sp(2)": (10, 10, 2, True),
    "g2(R)": (14, 6, 2, True),
    "g2": (14, 14, 2, True),
    "sl(2,C)": (6, 3, 1, False),
    "sl(4,C)": (30, 15, 3, False),
    "so(5,C)": (20, 10, 2, False),
    "so(8,C)": (56, 28, 4, False),
    "sp(2,C)": (20, 10, 2, False),
    "g2(C)": (28, 14, 2, False),
}


@pytest.mark.parametrize("name", sorted(BUILDER_TABLE))
def test_builder_dimensions(name):
    dim_g, dim_k, dim_t, equal_rank = BUILDER_TABLE[name]
    d = build_root_datum(name)
    d.validate()
    assert d.name == name
    # t is a Cartan subalgebra of g exactly when no weight of p is zero
    assert (d.dim_g, d.dim_k, d.dim_t, d.noncompact.zero_mult() == 0) == (
        dim_g,
        dim_k,
        dim_t,
        equal_rank,
    )


def test_complex_builders_pair_k_and_p():
    # for a complexified algebra the compact and noncompact weights agree
    for name in ("sl(4,C)", "so(5,C)", "g2(C)"):
        d = build_root_datum(name)
        assert d.compact.entries == d.noncompact.nonzero().entries
        assert d.noncompact.zero_mult() == d.dim_t


def test_su22_weights():
    d = build_root_datum("su(2,2)")
    assert d.in_torus(vec(3, -1, -1, -1))
    assert not d.in_torus(vec(1, 0, 0, 0))
    assert d.compact.mult(vec(1, -1, 0, 0)) == 1
    assert d.compact.mult(vec(0, 0, 1, -1)) == 1
    assert d.noncompact.mult(vec(1, 0, -1, 0)) == 1
    assert d.compact.mult(vec(1, 0, -1, 0)) == 0
    assert d.compact.total() == 4 and d.noncompact.total() == 8


def test_so_odd_split_weights():
    d = build_root_datum("so(4,3)")
    # p is the 4x3 tensor of the two vector representations
    assert d.noncompact.mult(vec(1, 0, 0)) == 1  # e1 paired with the so(3) zero
    assert d.noncompact.mult(vec(0, 0, 1)) == 0  # so(4)'s vector rep has no zero
    assert d.noncompact.mult(vec(1, 0, -1)) == 1
    assert d.compact.mult(vec(1, 1, 0)) == 1
    assert d.compact.mult(vec(0, 0, 1)) == 1
    assert d.noncompact.zero_mult() == 0


def test_direct_sum_blocks():
    # su(1,1) lives in a single coordinate with weights +-2
    a = build_root_datum("su(1,1)")
    b = build_root_datum("sp(2,R)")
    assert a.ambient_dim == 1
    assert a.noncompact.mult(vec(2)) == 1
    s = direct_sum(a, b)
    assert s.name == "su(1,1)+sp(2,R)"
    assert s.ambient_dim == a.ambient_dim + b.ambient_dim == 3
    assert s.dim_g == a.dim_g + b.dim_g
    assert s.dim_t == a.dim_t + b.dim_t
    s.validate()
    # left-block weights are padded with zeros on the right
    assert s.noncompact.mult(vec(2, 0, 0)) == 1
    assert s.noncompact.mult(vec(0, 2, 0)) == 1
    assert s.compact.mult(vec(0, 1, -1)) == 1


def test_dim_t_is_computed_once_per_datum(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(root_core, "rank", counted)
    d = build_root_datum("su(2,2)")
    assert d.dim_t == d.dim_t == 3
    assert calls == [1]


def test_build_root_datum_parses_sum_expressions():
    d = build_root_datum("su(1,1)+su(1,1)")
    assert d.dim_g == 6 and d.dim_t == 2
    assert d.noncompact.mult(vec(2, 0)) == 1
    assert d.noncompact.mult(vec(0, -2)) == 1
    assert len(d.compact) == 0


def test_build_root_datum_rejects_unknown_names():
    for bad in ("e8", "su(1)", "so(1,0)", "sp(0,R)", ""):
        with pytest.raises(DatumError):
            build_root_datum(bad)


def _grid(template: str) -> list[str]:
    """The family strings of a template over p, q >= 0 with p + q <= 8,
    then over n = 0..8 for a one-argument template."""
    if "{q}" in template:
        return [template.format(p=p, q=q) for p in range(9) for q in range(9 - p)]
    return [template.format(n=n) for n in range(9)]


# one grid of family strings per family kind, built or refused
FAMILY_GRID = {
    "su": _grid("su({p},{q})") + _grid("su({n})"),
    "so": _grid("so({p},{q})") + _grid("so({n})"),
    "sp(p,q)": _grid("sp({p},{q})") + _grid("sp({n})"),
    "sp(n,R)": _grid("sp({n},R)"),
    "complex": _grid("sl({n},C)") + _grid("so({n},C)") + _grid("sp({n},C)"),
    "g2": ["g2", "g2(R)", "g2(C)"],
    "sums": [
        "su(1,1)+su(1,1)", " su(1,1) + su(1,1) ", "su(2)+sp(2,R)",
        "so(4,3)+g2(R)", "su(2,1)+so(5,C)+sp(1,1)", "sl(2,C)+su(2,0)",
        "su(2)+", "su(1)+e8", "e8", "", "su(2,2", "so(4,R)", "g2(r)",
    ],
}

# sha256 of each kind's records, as the builders before the shared
# family layer wrote them
FAMILY_DIGESTS = {
    "complex": "7e629463de247549fc9db6b1bb9cdfd5ab7812763cfd1aa55560d0d8fbb41bad",
    "g2": "60fddc96894e046b48c3466f8e69d5f5d3a91392d0d9e2386c187e4e7848c40e",
    "so": "28cceec794aba8b3cff19792c4839b6d1ab93378d0933f48844f9d1007a4f548",
    "sp(n,R)": "4d951929fbe57ecc10a4b1a68dfa5f6aa4fa87dda492ede08467009e8d4c3a3d",
    "sp(p,q)": "ccf92fdb7958ea4a90226e98b68449ebe978d5300a936ae0978bb9bcb4f5a36d",
    "su": "f69d62f6ba98ed5e57b4126ece4c91670c60525103a311a7f6a4afd664780e60",
    "sums": "d574694067cf5795a4ac678f56ee170798fae23501a9882d4774108771c2a49e",
}


def _family_record(name: str) -> str:
    try:
        d = build_root_datum(name)
    except DatumError as exc:
        return f"{name!r} refused: {exc}"
    return repr((name, d.name, d.ambient_dim, d.t_constraints,
                 d.compact.entries, d.noncompact.entries, d.dim_g))


@pytest.mark.parametrize("kind", sorted(FAMILY_GRID))
def test_every_family_string_builds_the_datum_it_always_built(kind):
    records = "\n".join(map(_family_record, FAMILY_GRID[kind]))
    assert hashlib.sha256(records.encode()).hexdigest() == FAMILY_DIGESTS[kind]


def test_a_rank_above_the_bound_is_refused_before_any_weight_is_built(
    monkeypatch,
):
    # the largest family strings the tests, tools and catalog use, and the
    # bound itself, build
    bound = root_core.MAX_FAMILY_RANK
    for name in ("su(5,4)", "sp(7,R)", "so(6,6)", "so(8,C)", f"su({bound + 1})"):
        build_root_datum(name)
    # every family root list starts from these three generators
    built = []
    for name in ("_differences", "_signed_pairs", "_signed_units"):
        monkeypatch.setattr(root_core, name,
                            lambda *args, _name=name: built.append(_name))
    for name, rank in (
        ("su(2000)", 1999),
        ("so(2000,2000)", 2000),
        ("sp(1000,R)", 1000),
        (f"su({bound + 2})", bound + 1),
        (f"su({bound}) + su(2)+ g2", bound + 2),
        ("+".join(["su(2)"] * 10_000), 10_000),
    ):
        start = time.perf_counter()
        with pytest.raises(DatumError, match=f": rank {rank} is above the "
                           f"bound {bound}$"):
            build_root_datum(name)
        assert time.perf_counter() - start < 0.1
    assert built == []


def test_sum_parts_strips_each_part():
    assert sum_parts(" su(1,1) +su(1,1)\n") == ["su(1,1)", "su(1,1)"]
    assert sum_parts("g2") == ["g2"]
    assert sum_parts("su(2)+") == ["su(2)", ""]


def simple_system(weights, x=None):
    """RootSystem.coweight_rows with the coweights as Fraction vectors."""
    simple, coweights = RootSystem(weights).coweight_rows(x)
    return simple, _fraction_rows(coweights)


def test_simple_system_of_a_non_reduced_system():
    # BC2: the doubles (2,0) and (0,2) lie on the rays of (1,0) and (0,1)
    # and drop out of the reduced part, which is B2
    bc2 = [vec(1, 0), vec(2, 0), vec(0, 1), vec(0, 2), vec(1, 1), vec(1, -1)]
    simple, coweights = simple_system(bc2 + [vneg(w) for w in bc2])
    assert simple == (vec(0, 1), vec(1, -1))
    assert coweights == (vec(1, 1), vec(1, 0))
    for i, a in enumerate(simple):
        assert [vdot(a, c) for c in coweights] == [int(i == j) for j in (0, 1)]


def _frame_data() -> list[RootDatum]:
    cat = load_catalog()
    return [cat.algebra(a) for a in cat.algebra_ids()] + [
        build_root_datum(name) for name in ("su(4,3)", "so(6,6)")
    ]


def test_simple_system_matches_the_fraction_oracle():
    # the integer rows change nothing: same simple roots, same coweights;
    # the simple roots are the integer weights, the coweights integer rows
    # over integer denominators
    for d in _frame_data():
        ws = [w for _, w, _ in d.weight_entries() if any(w)]
        simple, rows = RootSystem(ws).coweight_rows()
        assert (simple, _fraction_rows(rows)) == linalg_oracle.simple_system(
            ws), d.name
        assert all(type(x) is int for v in simple for x in v)
        assert all(type(x) is int for n, den in rows for x in (*n, den))


def test_simple_system_of_an_element_is_a_base_it_dominates():
    # with x, every simple root pairs >= 0 with x, and the simple roots are
    # a base: each root has integral coefficients of one sign along them;
    # x = 0 leaves the lexicographic order
    rng = random.Random(7)
    for d in _frame_data():
        ws = [w for _, w, _ in d.weight_entries() if any(w)]
        n = d.ambient_dim
        assert simple_system(ws, vzero(n)) == simple_system(ws)
        for _ in range(12):
            x = tuple(F(rng.choice([0, 0, 1, -1, 2, -3])) for _ in range(n))
            for c in d.t_constraints:
                x = vsub(x, vscale(vdot(x, c) / vdot(c, c), c))
            simple, coweights = simple_system(ws, x)
            assert len(simple) == rank(ws)
            assert all(vdot(a, x) >= 0 for a in simple), (d.name, x)
            for w in ws:
                coeffs = [vdot(c, w) for c in coweights]
                assert all(c >= 0 for c in coeffs) or all(
                    c <= 0 for c in coeffs)
                if vdot(w, x) > 0:
                    assert all(c >= 0 for c in coeffs)


def test_simple_system_refuses_a_non_integral_cartan_number():
    # B2 plus +-(3,1): (3,1) is indecomposable, so it is a third simple
    # root, and 2 ((1,0) . (3,1)) / ((3,1) . (3,1)) = 3/5
    weights = [vec(1, 0), vec(0, 1), vec(1, 1), vec(1, -1), vec(3, 1)]
    with pytest.raises(DatumError, match="not a root system"):
        simple_system(weights + [vneg(w) for w in weights])


def test_simple_system_refuses_a_root_outside_the_span_of_the_simple_roots():
    # -e2 has no negative, so it is no sum of positives: one simple root,
    # e1, for rank 2
    with pytest.raises(DatumError, match="1 simple roots for rank 2"):
        simple_system([vec(1, 0), vec(-1, 0), vec(0, -1)])


def test_a_positive_system_is_worked_out_once_per_chamber(monkeypatch):
    calls = []

    def counted(basis):
        calls.append(basis)
        return dual_rows(basis)

    monkeypatch.setattr(root_core, "dual_rows", counted)
    rs = build_root_datum("su(2,2)").root_system
    assert rs._systems == {}
    # two X in one chamber share one entry and one elimination
    first = rs.coweight_rows(vec(3, 1, -1, -3))
    assert rs.coweight_rows(vec(5, 2, -3, -4)) is first
    assert len(calls) == len(rs._systems) == 1
    # the lexicographic system, e_i - e_j for i < j, is that chamber's,
    # and so is the one that X on the wall e1 - e2 orders first
    for x in (None, vzero(4), vec(1, 1, -1, -1)):
        assert rs.coweight_rows(x) is first
    assert len(calls) == 1
    # another chamber is another entry
    other = rs.coweight_rows(vec(3, -1, 1, -3))
    assert other[0] != first[0]
    assert len(calls) == len(rs._systems) == 2
    # a freshly built datum starts with an empty memo
    assert build_root_datum("su(2,2)").root_system._systems == {}
    assert load_catalog().algebra("su(2,2)").root_system._systems == {}


def test_validate_refuses_a_non_integral_weight():
    # su(1,1) with its weights halved: +-1/2 in place of +-2
    half = WeightMultiset.of([(vec(F(1, 2)), 1), (vec(F(-1, 2)), 1)])
    d = RootDatum("half", 1, (), WeightMultiset.of([]), half, 3)
    with pytest.raises(DatumError, match="weight -1/2 in part p is not integral"):
        d.validate()
    d = build_root_datum("su(2,2)")
    cons = (vec(F(1, 2), F(1, 2), F(1, 2), F(1, 2)),)
    with pytest.raises(DatumError, match="constraint 1/2,1/2,1/2,1/2 is not"):
        replace(d, t_constraints=cons).validate()


def test_from_dict_validates():
    # the catalog validates every datum it builds; validate refuses wrong
    # bookkeeping and a compact part that is not closed under negation
    d = build_root_datum("su(2,2)")
    with pytest.raises(DatumError, match="dim bookkeeping"):
        replace(d, dim_g=16).validate()
    compact = WeightMultiset(d.compact.entries[1:])
    with pytest.raises(DatumError, match="not closed under negation"):
        replace(d, compact=compact).validate()
