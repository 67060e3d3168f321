from __future__ import annotations

import ast
import functools
import itertools
import math
from fractions import Fraction
from pathlib import Path

import linalg_oracle
import pytest
import reflection_walk_oracle
import virtsym_oracle
from lp_face_oracle import lp_face_signatures

from branchdec import parabolic
from branchdec.catalog import load_catalog
from branchdec.cone_kernel import Cone, MeetResult
from branchdec.decider import Verdict
from branchdec.involution import TableRow
from branchdec.parabolic import (
    UnsupportedQuery,
    build_parabolic,
    enumerate_parabolics,
    is_symmetric_type,
    is_virtually_symmetric_type,
)
from branchdec.root_core import (
    DatumError,
    PART_COMPACT,
    PART_NONCOMPACT,
    RootDatum,
    WeightMultiset,
    build_root_datum,
    lex_positive,
    record,
    replace,
    vdot,
    vec,
    vneg,
    vzero,
)

F = Fraction


# ---------------------------------------------------------------------------
# single parabolics


def test_full_algebra_at_zero():
    base = build_root_datum("su(2,2)")
    q = build_parabolic(base, vzero(4))
    assert q.dim_u == 0 and q.dim_levi == base.dim_g
    assert q.rho_u == vzero(4)


def test_build_parabolic_requires_torus_element():
    base = build_root_datum("su(2,2)")
    with pytest.raises(DatumError):
        build_parabolic(base, vec(1, 0, 0, 0))  # coordinate sum is nonzero
    with pytest.raises(DatumError):
        build_parabolic(base, vec(1, -1))


def test_su22_one_three_parabolic():
    base = build_root_datum("su(2,2)")
    q = build_parabolic(base, vec(3, -1, -1, -1))
    assert q.dim_u == 3 and q.S == 1
    assert q.dim_levi == 9  # u(1,2) inside su(2,2)
    assert q.dim_q == 12 and base.dim_g - q.dim_q == q.dim_u
    assert q.rho_u == vec(F(3, 2), F(-1, 2), F(-1, 2), F(-1, 2))
    for w in (vec(1, -1, 0, 0), vec(1, 0, -1, 0)):
        assert vdot(w, q.x) > 0  # w is a weight of u
    signs = q.weight_signs
    assert signs[vec(0, 0, 1, -1)] == signs[vec(0, 1, 0, -1)] == 0  # in l
    assert signs[vec(0, 1, -1, 0)] >= 0  # in q
    assert signs[vec(-1, 1, 0, 0)] < 0  # not in q
    d = q.describe()
    assert d["S"] == 1 and d["dim_levi"] == 9
    assert d["rho_u"] == ["3/2", "-1/2", "-1/2", "-1/2"]


def test_su22_hermitian_parabolic():
    base = build_root_datum("su(2,2)")
    q = build_parabolic(base, vec(1, 1, -1, -1))
    assert q.S == 0 and q.dim_u == 4
    assert sum(m for w, m in base.noncompact if vdot(w, q.x) > 0) == 4
    assert q.rho_u == vec(1, 1, -1, -1)


def _record_cases():
    """(a, b, c, changes) for one record of each runtime record class: a
    and b equal but built apart, c unequal to both, and a change of one
    field for replace."""
    pairs = [load_catalog().pair for _ in range(2)]
    inv, inv2 = (get("(su(2,2),sp(2,R))") for get in pairs)
    emb, emb2 = (get("(so(4,3),g2(R))") for get in pairs)
    other = pairs[0]("(su(2,2),sp(1,1))")
    base, base2 = build_root_datum("su(2,2)"), build_root_datum("su(2,2)")
    row = inv.table_rows[0]
    gens = (vec(1, 0), vec(1, 1))
    point = (True, vec(2, 1), (F(1), F(1)), (0, 1))
    verdict = ("deco", True, ("deco-some",), None, {"pair": "p"}, "c")
    return [
        (base, base2, build_root_datum("su(3,1)"), {"name": "renamed"}),
        (base.compact, base2.compact, base.noncompact, {"entries": ()}),
        (row, TableRow(row.x, row.levi), TableRow(row.x, "l"),
         {"levi": "l"}),
        (inv, inv2, other, {"dim_gprime": 11}),
        (inv.restricted, inv2.restricted, other.restricted,
         {"positive": other.restricted.positive}),
        (inv.view.cells[0], inv2.view.cells[0], inv.view.cells[-1],
         {"part": PART_NONCOMPACT}),
        (inv.view, inv2.view, other.view, {"pair_id": "p"}),
        (emb, emb2, replace(emb, label="l"), {"extra_zero_dim": 1}),
        (Verdict(*verdict), Verdict(*verdict), Verdict(*verdict, ("n",)),
         {"answer": False}),
        (Cone(gens, 2), Cone(gens, 2), Cone(gens[:1], 2),
         {"generators": gens[1:]}),
        (MeetResult(*point), MeetResult(*point),
         MeetResult(False, None, None, ()), {"basis": ()}),
    ]


def test_identity_is_the_partition_not_x():
    base = build_root_datum("su(2,2)")
    a = build_parabolic(base, vec(3, -1, -1, -1))
    b = build_parabolic(base, vec(6, -2, -2, -2))
    c = build_parabolic(base, vec(1, 1, -1, -1))
    # the same contract holds for every runtime record: equal fields
    # (x and row aside, for a parabolic) make equal records, of one class
    # only; no field can be assigned or deleted; replace makes a new
    # record with no cached value
    cases = [(a, b, c, {"x": vec(1, 1, -1, -1)}), *_record_cases()]
    assert len({type(case[0]) for case in cases}) == 12
    for one, equal, unequal, changes in cases:
        cls = type(one)
        assert one == equal and one is not equal and one != unequal, cls
        if cls is not Verdict:  # its witness and inputs are dicts
            assert hash(one) == hash(equal)
            assert len({one, equal, unequal}) == 2, cls
        twin = record(type("Twin", (), {
            "__annotations__": dict.fromkeys(cls._fields, "object")}))
        same = twin(*[getattr(one, f) for f in cls._fields])
        assert one != same and same != one, cls
        for f in cls._fields:
            with pytest.raises(AttributeError):
                setattr(one, f, getattr(one, f))
            with pytest.raises(AttributeError):
                delattr(one, f)
        cached = [n for n, v in vars(cls).items()
                  if isinstance(v, functools.cached_property)]
        for name in cached:
            getattr(one, name)
        assert set(vars(one)) == {*cls._fields, *cached}, cls
        new = replace(one, **changes)
        assert type(new) is cls, cls
        assert all(getattr(new, f) == v for f, v in changes.items()), cls
        assert set(vars(new)) == set(cls._fields), cls
        with pytest.raises(TypeError):
            replace(one, no_such_field=0)
    # a replaced cone is checked as a new one is
    with pytest.raises(ValueError):
        replace(Cone((vec(1, 0),), 2), generators=(vzero(2),))
    # X, 2X and X/3 share one primitive integer row; each keeps its X
    third = build_parabolic(base, vec(1, F(-1, 3), F(-1, 3), F(-1, 3)))
    assert a.row == b.row == third.row == (3, -1, -1, -1)
    assert all(type(v) is int for v in third.row)
    assert a.signature == b.signature == third.signature
    assert [q.x for q in (a, b, third)] == [
        vec(3, -1, -1, -1), vec(6, -2, -2, -2),
        vec(1, F(-1, 3), F(-1, 3), F(-1, 3))]


# ---------------------------------------------------------------------------
# enumeration

# the all-face count is the sum over sets J of simple roots of |W|/|W_J|
FACE_COUNTS = {
    "su(1,1)": 3,
    "sl(2,C)": 3,
    "su(1,1)+su(1,1)": 9,
    "so(2,2)": 9,
    "sp(2,R)": 17,
    "so(5,C)": 17,
    "g2(R)": 25,
    "su(2,2)": 75,
    "su(4)": 75,
    "sl(4,C)": 75,
    "so(4,3)": 147,
    "su(3,2)": 541,
}


@pytest.mark.parametrize("name", sorted(FACE_COUNTS))
def test_enumeration_counts(name):
    base = build_root_datum(name)
    qs = enumerate_parabolics(base)
    assert len(qs) == FACE_COUNTS[name]
    assert len({q.signature for q in qs}) == len(qs)


@pytest.mark.parametrize("dominant", [False, True])
def test_enumeration_builds_each_face_once(monkeypatch, dominant):
    # each face comes from its minimal chamber only, so no candidate point
    # is made twice and none is thrown away
    calls = []
    make = parabolic.ThetaStableParabolic

    def counted(base, x, signature, row):
        calls.append(x)
        return make(base, x, signature, row)

    monkeypatch.setattr(parabolic, "ThetaStableParabolic", counted)
    qs = enumerate_parabolics(build_root_datum("su(3,2)"), dominant)
    assert len(qs) == (76 if dominant else 541)
    assert len(calls) == len(qs)


def _integer_weight_data() -> list[RootDatum]:
    cat = load_catalog()
    return [cat.algebra(a) for a in cat.algebra_ids()] + [
        build_root_datum(name) for name in ("su(3,2)", "su(3,3)", "so(5,4)")
    ]


def test_weights_are_int_tuples():
    data = _integer_weight_data()
    assert len(data) == 16
    for d in data:
        for _, w, _ in d.weight_entries():
            assert type(w) is tuple and all(type(x) is int for x in w), d.name
        for c in d.t_constraints:
            assert type(c) is tuple and all(type(x) is int for x in c), d.name


@pytest.mark.parametrize("dominant", [False, True])
def test_integer_walk_matches_the_fraction_walk(dominant):
    # same faces, same X (as ints, which print as the oracle's Fractions),
    # same order; each X is its own primitive row, the row build_parabolic
    # finds for it
    for d in _integer_weight_data():
        qs = enumerate_parabolics(d, dominant)
        assert all(type(v) is int for q in qs for v in q.x), d.name
        for q in qs:
            assert q.row == q.x, (d.name, q.x)
            assert build_parabolic(d, q.x).row == q.row, (d.name, q.x)
        want = reflection_walk_oracle.faces(d, dominant)
        assert [(q.signature, q.x) for q in qs] == want, d.name
        assert [",".join(map(str, q.x)) for q in qs] == [
            ",".join(map(str, x)) for _, x in want
        ]


def test_face_sizes_match_a_direct_count_by_sign():
    cat = load_catalog()
    bases = [cat.algebra(aid) for aid in cat.algebra_ids()]
    for base in bases + [build_root_datum("su(3,2)")]:
        for q in enumerate_parabolics(base):
            signed = [(p, w, m, vdot(w, q.x))
                      for p, w, m in base.weight_entries()]
            u_compact = sum(m for p, _, m, d in signed
                            if p == PART_COMPACT and d > 0)
            u_noncompact = [(w, m) for p, w, m, d in signed
                            if p == PART_NONCOMPACT and d > 0]
            levi = sum(m for _, _, m, d in signed if d == 0)
            assert q.S == u_compact
            assert q.dim_u == u_compact + sum(m for _, m in u_noncompact)
            assert q.dim_levi == base.dim_t + levi
            assert [(w, m) for p, w, m in q.u_weights()
                    if p == PART_NONCOMPACT] == u_noncompact
            assert q.dim_levi + 2 * q.dim_u == base.dim_g
            d = q.describe()
            assert (d["u_compact"], d["u_noncompact"]) == (
                u_compact, q.dim_u - u_compact)


def test_enumeration_matches_fubini_count():
    # the su(4) hyperplanes are the type A braid arrangement, whose faces
    # biject with ordered set partitions of {1,2,3,4}
    def stirling2(n, k):
        if k in (0, n):
            return int(k == n or n == 0)
        return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)

    ordered_partitions = sum(
        math.factorial(k) * stirling2(4, k) for k in range(5)
    )
    assert len(enumerate_parabolics(build_root_datum("su(4)"))) == ordered_partitions


GRID_ORACLE = {
    "sp(2,R)": 6,
    "so(2,2)": 3,
    "su(1,1)+su(1,1)": 3,
    "so(5,C)": 6,
}


@pytest.mark.parametrize("name", sorted(GRID_ORACLE))
def test_enumeration_against_grid_rank_two(name):
    # every face of these small arrangements contains a small integer point,
    # so scanning a grid is an independent route to the face list
    base = build_root_datum(name)
    bound = GRID_ORACLE[name]
    want = {q.signature for q in enumerate_parabolics(base)}
    got = set()
    for x0 in range(-bound, bound + 1):
        for x1 in range(-bound, bound + 1):
            got.add(build_parabolic(base, vec(x0, x1)).signature)
    assert got == want


def test_enumeration_against_grid_g2():
    # g2 coordinates live in the sum-zero plane of Q^3
    base = build_root_datum("g2(R)")
    want = {q.signature for q in enumerate_parabolics(base)}
    got = set()
    for a in range(-4, 5):
        for b in range(-4, 5):
            got.add(build_parabolic(base, vec(a, b, -(a + b))).signature)
    assert got == want


def test_enumeration_against_grid_su22():
    base = build_root_datum("su(2,2)")
    want = {q.signature for q in enumerate_parabolics(base)}
    got = set()
    rng = range(-4, 5)
    for a, b, c in itertools.product(rng, rng, rng):
        x = vec(a, b, c, -(a + b + c))
        got.add(build_parabolic(base, x).signature)
    assert got == want


def test_enumeration_against_grid_so43():
    base = build_root_datum("so(4,3)")
    want = {q.signature for q in enumerate_parabolics(base)}
    got = set()
    rng = range(-5, 6)
    for a, b, c in itertools.product(rng, rng, rng):
        got.add(build_parabolic(base, vec(a, b, c)).signature)
    assert got == want


def test_enumeration_is_deterministic():
    base = build_root_datum("sp(2,R)")
    first = enumerate_parabolics(base)
    second = enumerate_parabolics(base)
    assert [q.signature for q in first] == [q.signature for q in second]
    assert [q.x for q in first] == [q.x for q in second]
    for q in first:
        assert all(c.denominator == 1 for c in q.x)
        assert math.gcd(*(int(c) for c in q.x)) in (0, 1)


def _signatures(base, dominant):
    qs = enumerate_parabolics(base, dominant_only=dominant)
    return [q.signature for q in qs]


def test_enumeration_matches_lp_oracle_on_the_catalog():
    cat = load_catalog()
    for aid in cat.algebra_ids():
        base = cat.algebra(aid)
        for dominant in (False, True):
            want = lp_face_signatures(base, dominant)
            assert _signatures(base, dominant) == want, (aid, dominant)


@pytest.mark.parametrize(
    ("name", "dominant"),
    [("su(3,2)", False), ("su(3,2)", True), ("su(3,3)", True)],
)
def test_enumeration_matches_lp_oracle_at_rank_4_and_5(name, dominant):
    base = build_root_datum(name)
    assert _signatures(base, dominant) == lp_face_signatures(base, dominant)


def _vector_compositions(p, q):
    # sequences of nonzero (a, b) in N^2 summing to (p, q): the 2-row
    # contingency tables with row sums p, q and positive column sums, one
    # per double coset W_K \ W / W_J of S_p x S_q and a Young subgroup
    if (p, q) == (0, 0):
        return 1
    return sum(
        _vector_compositions(p - a, q - b)
        for a in range(p + 1)
        for b in range(q + 1)
        if (a, b) != (0, 0)
    )


@pytest.mark.parametrize(
    ("p", "q", "count"), [(2, 2, 26), (3, 2, 76), (3, 3, 252), (4, 3, 768)]
)
def test_dominant_count_matches_contingency_tables(p, q, count):
    assert _vector_compositions(p, q) == count
    base = build_root_datum(f"su({p},{q})")
    qs = enumerate_parabolics(base, dominant_only=True)
    assert len(qs) == count


def test_enumeration_refuses_weights_that_are_not_a_root_system():
    # +-(1,0) and +-(1,1): reflecting (1,1) in (1,0) gives (-1,1), which
    # is missing, so no Weyl group acts on these weights
    weights = WeightMultiset.from_vectors(
        [vec(1, 0), vec(-1, 0), vec(1, 1), vec(-1, -1)]
    )
    base = RootDatum("broken", 2, (), weights, WeightMultiset.of([]), 6)
    base.validate()
    with pytest.raises(DatumError, match="not a root system"):
        enumerate_parabolics(base)


def test_enumeration_refuses_roots_outside_the_torus():
    # an unvalidated datum: the root +-(1,0) does not pair to 0 with the
    # constraint (1,1), so the X of some face leaves the torus
    weights = WeightMultiset.from_vectors([vec(1, 0), vec(-1, 0)])
    base = RootDatum("off-torus", 2, (vec(1, 1),), weights,
                     WeightMultiset.of([]), 3)
    with pytest.raises(DatumError, match="not orthogonal to the torus"):
        base.validate()
    for dominant in (False, True):
        with pytest.raises(DatumError,
                           match="violates the torus constraints"):
            enumerate_parabolics(base, dominant)


def test_enumeration_of_weights_that_are_not_weyl_stable():
    # A2 with one doubled root: +-(2,-2,0) is a weight but its conjugates
    # are not, so the simple reflections carry it outside the weights; the
    # enumerator's signatures still agree with build_parabolic
    roots = [vec(1, -1, 0), vec(0, 1, -1), vec(1, 0, -1)]
    compact = WeightMultiset.from_vectors(roots[1:] + [vneg(r)
                                                       for r in roots[1:]])
    noncompact = WeightMultiset.from_vectors(
        [roots[0], vneg(roots[0]), vec(2, -2, 0), vec(-2, 2, 0)])
    base = RootDatum("a2-doubled", 3, (vec(1, 1, 1),), compact, noncompact,
                     10)
    base.validate()
    for dominant, count in ((False, 13), (True, 6)):
        qs = enumerate_parabolics(base, dominant)
        assert len(qs) == count
        for q in qs:
            assert q.signature == build_parabolic(base, q.x).signature


def test_enumeration_of_a_datum_with_no_roots():
    # a torus: no simple roots, one chamber and its one face, X = 0
    base = RootDatum("torus", 2, (), WeightMultiset.of([]),
                     WeightMultiset.of([]), 2)
    base.validate()
    for dominant in (False, True):
        [q] = enumerate_parabolics(base, dominant)
        assert q.x == (0, 0) and q.signature == ()


def test_dominant_enumeration():
    base = build_root_datum("su(2,2)")
    qs = enumerate_parabolics(base, dominant_only=True)
    assert len(qs) == 26
    full = {q.signature for q in enumerate_parabolics(base)}
    assert {q.signature for q in qs} <= full
    # witnesses really sit in the closed dominant chamber
    for q in qs:
        for w, _ in base.compact:
            if lex_positive(w):
                assert vdot(w, q.x) >= 0


def test_rank_bound(monkeypatch):
    base = build_root_datum("su(5,4)")
    assert base.dim_t == 8 > parabolic.DEFAULT_MAX_RANK

    def no_walk(*args):
        raise AssertionError("the walk started before the rank check")

    monkeypatch.setattr(RootDatum, "root_system", property(no_walk))
    with pytest.raises(UnsupportedQuery, match="rank 8 exceeds"):
        enumerate_parabolics(base)


def _chambers_held(excinfo) -> int:
    """How many chambers the walk held in the frame that was stopped."""
    frame = next(entry.frame for entry in reversed(excinfo.traceback)
                 if entry.name == "enumerate_parabolics")
    return len(frame.f_locals["chambers"])


class WalkDone(Exception):
    pass


def _stop_at_first_face(*args):
    raise WalkDone


def test_face_budget_refuses_su44_all_faces_part_way(monkeypatch):
    # rank 7 passes the rank bound, but the 8! chambers of A7 have
    # 545,835 faces; the walk stops once it has reached MAX_FACES of them
    base = build_root_datum("su(4,4)")
    assert base.dim_t == parabolic.DEFAULT_MAX_RANK

    def no_face(*args):
        raise AssertionError("a face was built before the refusal")

    monkeypatch.setattr(parabolic, "ThetaStableParabolic", no_face)
    with pytest.raises(UnsupportedQuery,
                       match=f"more than {parabolic.MAX_FACES} faces") as info:
        enumerate_parabolics(base)
    assert _chambers_held(info) < math.factorial(8) // 4


@pytest.mark.parametrize(("dominant", "count"), [(False, 4_683),
                                                  (True, 252)])
def test_face_budget_counts_exactly_the_faces(monkeypatch, dominant, count):
    base = build_root_datum("su(3,3)")
    monkeypatch.setattr(parabolic, "MAX_FACES", count)
    assert len(enumerate_parabolics(base, dominant)) == count
    monkeypatch.setattr(parabolic, "MAX_FACES", count - 1)
    with pytest.raises(UnsupportedQuery):
        enumerate_parabolics(base, dominant)


def test_face_budget_admits_su43_all_faces_and_su44_dominant(monkeypatch):
    # su(4,3) has 47,293 faces: its walk ends unrefused, and the test
    # stops at the first face it would build (the faces are listed by
    # the test above and by the oracle tests at lower rank)
    assert 47_293 <= parabolic.MAX_FACES
    with monkeypatch.context() as patch:
        patch.setattr(parabolic, "ThetaStableParabolic", _stop_at_first_face)
        with pytest.raises(WalkDone):
            enumerate_parabolics(build_root_datum("su(4,3)"))
    su44 = build_root_datum("su(4,4)")
    assert len(enumerate_parabolics(su44, dominant_only=True)) == 2_568


@pytest.mark.parametrize(("name", "dominant", "count"), [
    ("su(3,2)", False, 120), ("su(3,2)", True, 10), ("so(4,3)", False, 48),
    ("g2(R)", False, 12), ("sp(2,R)", False, 8), ("su(4,3)", False, 5_040),
    ("su(4,4)", True, 70),
])
def test_walk_reaches_every_chamber(monkeypatch, name, dominant, count):
    # |W| chambers, or |W| / |W_K| inside the dominant chamber of K: two
    # elements of W with the same key would merge two chambers into one
    monkeypatch.setattr(parabolic, "ThetaStableParabolic", _stop_at_first_face)
    with pytest.raises(WalkDone) as info:
        enumerate_parabolics(build_root_datum(name), dominant)
    assert _chambers_held(info) == count


# ---------------------------------------------------------------------------
# symmetric type


def test_symmetric_type_cases():
    base = build_root_datum("su(2,2)")
    assert is_symmetric_type(build_parabolic(base, vec(1, 1, -1, -1)))
    assert is_symmetric_type(build_parabolic(base, vec(3, -1, -1, -1)))
    assert is_symmetric_type(build_parabolic(base, vzero(4)))
    borel = build_parabolic(base, vec(3, 1, -1, -3))
    assert not is_symmetric_type(borel)
    assert is_virtually_symmetric_type(borel)


def test_virtually_symmetric_negative_case():
    base = build_root_datum("su(2,2)")
    q = build_parabolic(base, vec(1, 0, 0, -1))
    assert not is_symmetric_type(q)
    assert not is_virtually_symmetric_type(q)


def test_virtually_symmetric_matches_face_poset_oracle():
    # q is virtually symmetric iff some symmetric-type face differs from q
    # only by zeros at compact entries; this oracle uses the face enumerator
    # and is_symmetric_type, not the coarsening search
    for name in ("su(2,2)", "sp(2,R)", "g2(R)", "sl(4,C)",
                 "su(1,1)+su(1,1)"):
        base = build_root_datum(name)
        compact = [part == PART_COMPACT
                   for part, _, _ in base.weight_entries()]
        faces = enumerate_parabolics(base)
        symmetric = [q2.signature for q2 in faces if is_symmetric_type(q2)]

        def absorbs(sig, sig2):
            return all(s2 == s or (c and s2 == 0)
                       for s, s2, c in zip(sig, sig2, compact))

        for q in faces:
            expect = any(absorbs(q.signature, s2) for s2 in symmetric)
            assert is_virtually_symmetric_type(q) == expect, (
                name, q.signature)


def _predicates(q) -> tuple[bool, bool]:
    return is_symmetric_type(q), is_virtually_symmetric_type(q)


def _oracle_predicates(q) -> tuple[bool, bool]:
    return (virtsym_oracle.symmetric_type(q),
            virtsym_oracle.virtually_symmetric_type(q))


@pytest.fixture(scope="module")
def faces_of():
    """faces_of(name, dominant): the faces of build_root_datum(name), or
    of every catalogued algebra for "catalog", enumerated once per module
    for every test that asks."""
    seen: dict[tuple[str, bool], list] = {}

    def faces(name: str, dominant: bool = False) -> list:
        if (name, dominant) not in seen:
            if name == "catalog":
                cat = load_catalog()
                bases = [cat.algebra(a) for a in cat.algebra_ids()]
            else:
                bases = [build_root_datum(name)]
            seen[name, dominant] = [
                q for base in bases
                for q in enumerate_parabolics(base, dominant_only=dominant)
            ]
        return seen[name, dominant]

    return faces


@pytest.mark.parametrize("dominant", [False, True])
@pytest.mark.parametrize("name", ["catalog", "su(3,2)", "su(3,3)", "so(5,4)"])
def test_enumerated_signatures_match_build_parabolic(name, dominant,
                                                     faces_of):
    # the enumerator reads each signature through its chamber's Weyl
    # permutation; build_parabolic signs every weight against X
    for q in faces_of(name, dominant):
        built = build_parabolic(q.base, q.x)
        assert q == built, (q.base.name, q.x)
        assert q.signature == built.signature, (q.base.name, q.x)


@pytest.mark.parametrize(
    ("name", "dominant"),
    [("catalog", False), ("su(3,2)", False), ("so(5,3)", False),
     ("sp(2,1)", False), ("so(6,2)", True), ("su(3,3)", True)],
)
def test_symmetric_predicates_match_the_subset_walk(name, dominant, faces_of):
    for q in faces_of(name, dominant):
        assert _predicates(q) == _oracle_predicates(q), (
            q.base.name, q.signature)


def _bc2_splits():
    """The non-reduced BC2 weights +-e_i, +-2e_i and +-e1+-e2, with each
    +- pair compact or noncompact: (split, datum) for all 64 splits."""
    lines = [vec(1, 0), vec(0, 1), vec(2, 0), vec(0, 2), vec(1, 1),
             vec(1, -1)]
    for split in itertools.product((PART_COMPACT, PART_NONCOMPACT),
                                   repeat=len(lines)):
        parts = {PART_COMPACT: [], PART_NONCOMPACT: []}
        for part, w in zip(split, lines):
            parts[part] += [w, vneg(w)]
        base = RootDatum(
            "bc2", 2, (),
            WeightMultiset.from_vectors(parts[PART_COMPACT]),
            WeightMultiset.from_vectors(parts[PART_NONCOMPACT]),
            14,
        )
        base.validate()
        yield split, base


def test_symmetric_predicates_on_every_split_of_bc2():
    # every face of each of the 64 data
    seen = set()
    for split, base in _bc2_splits():
        for q in enumerate_parabolics(base):
            got = _predicates(q)
            assert got == _oracle_predicates(q), (split, q.signature)
            seen.add(got)
    assert seen == {(True, True), (False, True), (False, False)}


_LARGE_BORELS = [("sp(6,R)", (32, 17, 9, 5, 3, 1)),
                 ("sp(7,R)", (64, 33, 17, 9, 5, 3, 1))]


@pytest.mark.parametrize(("name", "x"), _LARGE_BORELS)
def test_symmetric_predicates_at_a_large_borel(name, x):
    # 15 and 21 compact directions in u: 2^15 and 2^21 subsets for the
    # subset walk; X' = (1/2, ..., 1/2), the coweight of the long simple
    # root, absorbs every compact root into the Levi u(n)
    q = build_parabolic(build_root_datum(name), vec(*x))
    assert _predicates(q) == (False, True)


# ---------------------------------------------------------------------------
# free coefficients


# many faces share a positive system, so each simple system is dualised
# once per module
_oracle_dual_basis = functools.lru_cache(maxsize=None)(
    linalg_oracle.dual_basis)


def _fraction_route(q) -> tuple[tuple[str, tuple], ...]:
    """q.free_coefficients on Fraction vectors: the simple roots of the
    positive system of X and their dual basis from linalg_oracle, and one
    linalg_oracle.vdot per u-weight and simple root in u."""
    weights = [w for _, w, _ in q.base.weight_entries() if any(w)]
    simple = linalg_oracle.simple_roots(weights, q.x)
    coweights = _oracle_dual_basis(simple)
    free = [c for a, c in zip(simple, coweights)
            if linalg_oracle.vdot(a, q.x) > 0]
    return tuple(
        (part, tuple(linalg_oracle.vdot(c, w) for c in free))
        for part, w, _ in q.u_weights()
    )


def _assert_free_coefficients_exact(q) -> None:
    # same values in the same columns, and an int wherever the value is
    # integral
    got = q.free_coefficients
    assert got == _fraction_route(q), (q.base.name, q.signature)
    for _, c in got:
        assert all(type(v) is (int if F(v).denominator == 1 else F)
                   for v in c), (q.base.name, q.signature, c)


@pytest.mark.parametrize("name", ["catalog", "su(3,2)", "so(5,3)",
                                  "sp(2,1)"])
def test_free_coefficients_equal_the_fraction_route(name, faces_of):
    for q in faces_of(name):
        _assert_free_coefficients_exact(q)


def test_free_coefficients_equal_the_fraction_route_off_the_catalog():
    # every face of the 64 BC2 splits, where +-2e_i are doubles of roots
    for _, base in _bc2_splits():
        for q in enumerate_parabolics(base):
            _assert_free_coefficients_exact(q)
    # the large Borels, whose long-root coweight (1/2, ..., 1/2) is
    # fractional and still gives integral coefficients
    for name, x in _LARGE_BORELS:
        q = build_parabolic(build_root_datum(name), vec(*x))
        _assert_free_coefficients_exact(q)
        _, coweights = q.base.root_system.coweight_rows(q.x)
        assert ((1,) * len(x), 2) in coweights
        assert all(type(v) is int for _, c in q.free_coefficients for v in c)
    # +-2e1 compact and +-3e1 noncompact: the root is 2e1, its coweight
    # 1/2, and the weight 3e1 has the coefficient 3/2
    base = RootDatum(
        "hand", 1, (),
        WeightMultiset.from_vectors([vec(2), vec(-2)]),
        WeightMultiset.from_vectors([vec(3), vec(-3)]),
        5,
    )
    base.validate()
    for x in (vec(1), vec(-1), vzero(1)):
        _assert_free_coefficients_exact(build_parabolic(base, x))
    q = build_parabolic(base, vec(1))
    assert q.free_coefficients == (
        (PART_COMPACT, (1,)), (PART_NONCOMPACT, (F(3, 2),)))


def test_symmetric_predicates_refuse_weights_that_are_not_a_root_system():
    weights = WeightMultiset.from_vectors(
        [vec(1, 0), vec(-1, 0), vec(1, 1), vec(-1, -1)]
    )
    base = RootDatum("broken", 2, (), weights, WeightMultiset.of([]), 6)
    q = build_parabolic(base, vec(1, 0))
    for predicate in (is_symmetric_type, is_virtually_symmetric_type):
        with pytest.raises(DatumError, match="not a root system"):
            predicate(q)


def test_parabolic_module_makes_no_linear_solve():
    # the symmetric predicates read simple-root coefficients; a solve per
    # set of u-directions would bring the subset walk back
    path = Path(__file__).resolve().parents[1] / "src" / "branchdec"
    tree = ast.parse((path / "parabolic.py").read_text())
    called = {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "solve_linear" not in called | imported
    # the chamber walk moves indices of weights, not walls or rays; the
    # vector reflection and ray sums it replaced must not come back
    defined = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    assert not defined & {"_mirror", "_primitive_rows", "_ray_sum"}
