from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from linalg_oracle import (
    coweight_chamber,
    eigenbasis,
    in_span,
    primitive_direction,
    vdot,
)
from projection_oracle import gram_projection, independent_rows
from test_validation import seeded_embeddings
from validation_oracle import dim_g_sigma, fixed_pair_counts, is_negation_closed

from branchdec.catalog import load_catalog
from branchdec.involution import (
    EmbeddingRecord,
    EmbeddingView,
    InvolutionData,
    InvolutionError,
    WeightCell,
    build_swap_involution,
    build_theta_involution,
    cap_dims,
    embedding_view,
    ensure_valid,
    involution_view,
    member_signs,
    momentum_chamber,
    restricted_roots,
    validate_embedding,
    validate_involution,
)
from branchdec.parabolic import build_parabolic, enumerate_parabolics
from branchdec.root_core import (
    PART_COMPACT,
    PART_NONCOMPACT,
    WeightMultiset,
    build_root_datum,
    is_zero_vec,
    lex_positive,
    mat_apply,
    rank,
    replace,
    subspace_normals,
    vadd,
    vec,
    vneg,
    vscale,
    vsub,
)

F = Fraction


@lru_cache(maxsize=None)
def _cat():
    return load_catalog()


def _pair(pid: str):
    return _cat().pair(pid)


# ---------------------------------------------------------------------------
# theta and swap builders


def test_theta_involution_su22():
    base = build_root_datum("su(2,2)")
    inv = build_theta_involution(base)
    assert inv.pair_id == "theta:su(2,2)"
    assert validate_involution(inv) == ()
    assert inv.dim_gprime == base.dim_k == 7
    assert inv.dim_t_sigma == len(eigenbasis(inv, 1)) == 3
    assert eigenbasis(inv, -1) == ()
    system = restricted_roots(inv)
    assert system.roots.total() == 0
    assert momentum_chamber(inv) == ()


def _dim_g_minus_sigma(inv):
    # t^{-sigma}, the zero weights of p that sigma negates, one vector per
    # pair {w, sigma w} and the fixed weights with eps -1
    pairs, _, minus = fixed_pair_counts(inv)
    zminus = inv.base.noncompact.zero_mult() - inv.zero_weight_fixed_dim
    return len(eigenbasis(inv, -1)) + zminus + pairs + minus


def test_theta_dimension_split_on_all_catalog_algebras():
    for name in _cat().algebra_ids():
        base = _cat().algebra(name)
        inv = build_theta_involution(base)
        assert validate_involution(inv) == (), name
        assert dim_g_sigma(inv) == base.dim_k
        assert dim_g_sigma(inv) + _dim_g_minus_sigma(inv) == base.dim_g
        assert momentum_chamber(inv) == ()


def test_swap_involution_doubled_su11():
    base = build_root_datum("su(1,1)+su(1,1)")
    half = build_root_datum("su(1,1)")
    inv = build_swap_involution(base, half)
    assert validate_involution(inv) == ()
    assert inv.dim_gprime == 3
    tplus = eigenbasis(inv, 1)
    tminus = eigenbasis(inv, -1)
    assert inv.dim_t_sigma == 1
    assert len(tplus) == 1 and in_span(vec(1, 1), tplus)
    assert len(tminus) == 1 and in_span(vec(1, -1), tminus)
    # no compact roots, so no walls: the chamber is the whole
    # antidiagonal line t^{-sigma}
    assert momentum_chamber(inv) == ()


def test_swap_involution_rejects_wrong_half():
    base = build_root_datum("su(2,2)")
    half = build_root_datum("su(1,1)")
    with pytest.raises(InvolutionError):
        build_swap_involution(base, half)


# ---------------------------------------------------------------------------
# catalog pairs: frozen structure


def test_sp2r_pair_structure():
    inv = _pair("(su(2,2),sp(2,R))")
    assert validate_involution(inv) == ()
    assert inv.dim_gprime == 10
    assert dim_g_sigma(inv) + _dim_g_minus_sigma(inv) == 15

    tplus = eigenbasis(inv, 1)
    tminus = eigenbasis(inv, -1)
    assert inv.dim_t_sigma == 2
    assert len(tplus) == 2 and len(tminus) == 1
    assert in_span(vec(1, 0, -1, 0), tplus) and in_span(vec(0, 1, 0, -1), tplus)
    assert in_span(vec(1, -1, 1, -1), tminus)

    system = restricted_roots(inv)
    assert system.positive.entries == (
        (vec(F(1, 2), F(-1, 2), F(1, 2), F(-1, 2)), 2),
    )
    assert momentum_chamber(inv) == (
        vec(F(1, 2), F(-1, 2), F(1, 2), F(-1, 2)),
    )


def test_sp11_pair_structure():
    inv = _pair("(su(2,2),sp(1,1))")
    assert validate_involution(inv) == ()
    assert inv.dim_gprime == 10
    system = restricted_roots(inv)
    # both compact root lines are sigma-fixed, nothing survives restriction
    assert system.roots.total() == 0
    # so no walls: the chamber is the whole line t^{-sigma}
    assert momentum_chamber(inv) == ()
    tminus = eigenbasis(inv, -1)
    assert len(tminus) == 1
    assert in_span(vec(1, 1, -1, -1), tminus)


def test_so32_pair_structure():
    inv = _pair("(so(5,C),so(3,2))")
    assert validate_involution(inv) == ()
    assert inv.zero_weight_fixed_dim == 2
    system = restricted_roots(inv)
    assert system.positive == WeightMultiset.of(
        [(vec(0, 1), 1), (vec(1, -1), 1), (vec(1, 0), 1), (vec(1, 1), 1)]
    )
    assert set(momentum_chamber(inv)) == {
        vec(0, 1), vec(1, -1), vec(1, 0), vec(1, 1)
    }


def test_restricted_roots_negation_and_reflection_closed():
    for pid in _cat().pair_ids():
        pair = _pair(pid)
        if not isinstance(pair, InvolutionData):
            continue
        system = restricted_roots(pair)
        roots = system.roots
        for w, m in roots:
            assert roots.mult(vneg(w)) == m, pid
        for b, _ in roots:
            bb = vdot(b, b)
            for w, m in roots:
                image = vsub(w, vscale(F(2) * vdot(w, b) / bb, b))
                assert roots.mult(image) == m, pid


def test_momentum_chamber_lives_in_tminus_and_is_dominant():
    for pid in _cat().pair_ids():
        pair = _pair(pid)
        if not isinstance(pair, InvolutionData):
            continue
        tminus = eigenbasis(pair, -1)
        system = restricted_roots(pair)
        walls = momentum_chamber(pair)
        # the walls are the positive restricted roots, which lie in
        # t^{-sigma}
        assert walls == system.positive.support(), pid
        for w in walls:
            assert lex_positive(w) and in_span(w, tminus), pid
        # the chamber they cut out holds the coweight rays and the lines
        rays, lines = coweight_chamber(pair)
        for v in rays + lines:
            assert in_span(v, tminus), pid
        for v in rays:
            assert all(vdot(v, w) >= 0 for w in walls), pid
        for v in lines:
            assert all(vdot(v, w) == 0 for w in walls), pid


# ---------------------------------------------------------------------------
# validation diagnostics


def _retyped(record, entry):
    """The record with every entry of its vectors passed through entry."""
    def vecs(rows):
        return tuple(tuple(map(entry, r)) for r in rows)

    rows = tuple(replace(r, x=tuple(map(entry, r.x)))
                 for r in record.table_rows)
    if isinstance(record, EmbeddingRecord):
        return replace(
            record, tprime_rows=vecs(record.tprime_rows), table_rows=rows
        )
    return replace(
        record,
        matrix=vecs(record.matrix),
        eps=tuple((p, tuple(map(entry, w)), s) for p, w, s in record.eps),
        table_rows=rows,
    )


def _flags(record) -> tuple[str, ...]:
    """The checks the record fails, the same whether its integral entries
    are int or Fraction."""
    as_int = _retyped(record, lambda x: int(x) if x == int(x) else x)
    as_fraction = _retyped(record, Fraction)
    names = as_int.report
    assert as_fraction.report == names
    return names


def test_validation_flags_non_involutive_matrix():
    inv = _pair("(su(2,2),sp(2,R))")
    bad_matrix = tuple(
        vscale(2, row) if i == 0 else row for i, row in enumerate(inv.matrix)
    )
    bad = replace(inv, matrix=bad_matrix)
    names = set(_flags(bad))
    assert "matrix-involutive" in names
    assert "matrix-orthogonal" in names


def test_validation_flags_torus_violation():
    base = build_root_datum("su(2,2)")
    inv = build_theta_involution(base)
    reflect_last = (
        vec(1, 0, 0, 0),
        vec(0, 1, 0, 0),
        vec(0, 0, 1, 0),
        vec(0, 0, 0, -1),
    )
    bad = replace(inv, matrix=reflect_last)
    assert "matrix-preserves-torus" in set(_flags(bad))


def _preserves_torus_row_by_row(inv) -> bool:
    """The torus check as it was made, one span test per constraint."""
    mt = inv.sigma_transpose
    cons = inv.base.t_constraints
    return all(in_span(mat_apply(mt, c), cons) for c in cons)


def test_torus_check_agrees_with_the_row_by_row_span_tests():
    cat = _cat()
    pairs = [cat.pair(pid) for pid in cat.pair_ids()]
    pairs += [cat.pair(f"theta:{aid}") for aid in cat.algebra_ids()]
    pairs.append(cat.pair("swap:su(1,1)^2"))
    involutions = [p for p in pairs if isinstance(p, InvolutionData)]
    assert len(involutions) == 7 + 13 + 1
    assert sum(bool(p.base.t_constraints) for p in involutions) >= 5
    for inv in involutions:
        assert _preserves_torus_row_by_row(inv), inv.pair_id
        assert "matrix-preserves-torus" not in _flags(inv), inv.pair_id
    # reflecting the last coordinate moves the constraint row (1,...,1)
    # of su(2,2) and of g2(R) out of its span, and negating every
    # coordinate keeps it in: both forms agree on each
    for pid in ("(su(2,2),sp(2,R))", "theta:g2(R)"):
        inv = _pair(pid)
        n = inv.base.ambient_dim
        for diagonal, kept in (([1] * (n - 1) + [-1], False),
                               ([-1] * n, True)):
            matrix = tuple(
                tuple(diagonal[i] if i == j else 0 for j in range(n))
                for i in range(n)
            )
            moved = replace(inv, matrix=matrix)
            assert _preserves_torus_row_by_row(moved) is kept, pid
            assert ("matrix-preserves-torus" not in _flags(moved)) is kept, pid


def test_validation_flags_part_mixing_matrix():
    # swapping coordinates 1 and 2 sends the compact root e1-e2 of su(2,2)
    # to the noncompact weight e1-e3
    base = build_root_datum("su(2,2)")
    inv = build_theta_involution(base)
    swap_middle = (
        vec(1, 0, 0, 0),
        vec(0, 0, 1, 0),
        vec(0, 1, 0, 0),
        vec(0, 0, 0, 1),
    )
    bad = replace(inv, matrix=swap_middle)
    names = set(_flags(bad))
    assert "permutes-compact-weights" in names
    assert "permutes-noncompact-weights" in names


def test_validation_flags_missing_eps():
    inv = _pair("(su(2,2),sp(2,R))")
    bad = replace(inv, eps=inv.eps[1:])
    assert "eps-covers-fixed-weights" in set(_flags(bad))


def test_validation_flags_asymmetric_eps():
    inv = _pair("(su(2,2),sp(2,R))")
    part, w, s = inv.eps[0]
    flipped = ((part, w, -s),) + inv.eps[1:]
    assert "eps-negation-symmetric" in _flags(
        replace(inv, eps=flipped)
    )


def test_validation_catches_eps_perturbation_through_dimensions():
    # flipping a +- pair of signs keeps every local check happy but moves
    # dim g^sigma, so only the dimension identity can catch it
    inv = _pair("(su(2,2),sp(2,R))")
    _, w, _ = inv.eps[0]
    flipped = tuple(
        (p, v, -sv) if v in (w, vneg(w)) else (p, v, sv) for p, v, sv in inv.eps
    )
    bad = replace(inv, eps=flipped)
    assert set(validate_involution(bad)) == {
        "fixed-dimension-bookkeeping"
    }
    with pytest.raises(InvolutionError, match="fixed-dimension-bookkeeping"):
        ensure_valid(bad)


def test_validation_flags_zero_weight_dim_out_of_range():
    inv = _pair("(so(5,C),so(3,2))")
    bad = replace(inv, zero_weight_fixed_dim=3)
    assert "zero-weight-fixed-dim-range" in set(_flags(bad))
    low = replace(inv, zero_weight_fixed_dim=1)
    assert "fixed-dimension-bookkeeping" in set(_flags(low))


def test_validation_flags_wrong_declared_dimension():
    inv = _pair("(su(2,2),sp(2,R))")
    bad = replace(inv, dim_gprime=11)
    assert set(_flags(bad)) == {
        "fixed-dimension-bookkeeping"
    }


def test_validation_flags_compact_centraliser_of_tminus():
    # flipping the sign on a sigma-fixed compact line of theta makes that
    # line centralise t^{-sigma} = 0 without being fixed with +1
    base = build_root_datum("su(2,2)")
    inv = build_theta_involution(base)
    target = vec(1, -1, 0, 0)
    flipped = tuple(
        (p, v, -s) if p == PART_COMPACT and v in (target, vneg(target)) else (p, v, s)
        for p, v, s in inv.eps
    )
    bad = replace(inv, eps=flipped)
    names = set(_flags(bad))
    assert "tminus-maximality-necessary" in names
    assert "fixed-dimension-bookkeeping" in names


def test_validation_flags_non_square_matrix():
    # a matrix of the wrong shape stops validation before any product
    inv = _pair("(su(2,2),sp(2,R))")
    for matrix in (inv.matrix[:3], tuple(row[:3] for row in inv.matrix)):
        bad = replace(inv, matrix=matrix)
        assert set(_flags(bad)) == {"matrix-shape"}


def test_validation_flags_short_tprime_row():
    emb = _pair("(so(4,3),g2(R))")
    r1, r2 = emb.tprime_rows
    bad = replace(emb, tprime_rows=(r1, r2[:2]))
    assert set(_flags(bad)) == {"tprime-shape"}


def test_validation_flags_dependent_tprime_rows():
    # the sum of the two rows spans nothing new, so the cells are those of
    # g2(R); one more torus row is declared with them
    emb = _pair("(so(4,3),g2(R))")
    r1, r2 = emb.tprime_rows
    bad = replace(
        emb, tprime_rows=(r1, r2, vadd(r1, r2)), dim_gprime=15
    )
    assert set(_flags(bad)) == {"tprime-independent"}


def test_validation_flags_tprime_row_off_the_torus():
    # so(4,3) has no torus constraints, so a row of the right length is
    # always in its torus; su(2,2)'s torus is x1 + x2 + x3 + x4 = 0, and
    # its whole torus plus 1,1,1,1 with every root line is u(2,2)
    base = build_root_datum("su(2,2)")
    torus = (vec(1, 1, -1, -1), vec(1, -1, 1, -1), vec(1, -1, -1, 1))
    assert _flags(
        EmbeddingRecord(base, torus, 0, 15, "su(2,2)", "whole")
    ) == ()
    bad = EmbeddingRecord(base, torus + (vec(1, 1, 1, 1),), 0, 16,
                          "u(2,2)", "off-torus")
    assert set(_flags(bad)) == {"tprime-in-torus"}


def test_validation_flags_weight_vanishing_on_tprime():
    # on the line through 1,-1,0 the roots +-(1,1,0) and +-e3 vanish; the
    # declared dimension is the one the cells give
    emb = _pair("(so(4,3),g2(R))")
    bad = replace(emb, tprime_rows=emb.tprime_rows[:1],
                              dim_gprime=5)
    assert set(_flags(bad)) == {
        "no-weight-vanishes-on-tprime"
    }


def test_validation_flags_table_row_off_the_torus():
    # a table row is a defining element X, so it must lie in the torus
    inv = _pair("(su(2,2),sp(2,R))")
    emb = _pair("(so(4,3),g2(R))")
    for pair, x in ((inv, vec(1, 1, 1, 1)), (inv, vec(3, -1, -1)),
                    (emb, vec(1, 0))):
        row = replace(pair.table_rows[0], x=x)
        bad = replace(pair, table_rows=(row,))
        assert _flags(bad) == ("table-rows-in-torus",), x


def test_ensure_valid_passes_catalog_pairs():
    for pid in _cat().pair_ids():
        ensure_valid(_pair(pid))


# ---------------------------------------------------------------------------
# sigma conjugation equivariance


def _apply_perm_matrix(p_rows, w):
    return tuple(vdot(r, w) for r in p_rows)


def _line_multiset(roots: WeightMultiset) -> dict:
    lines: dict = {}
    for w, m in roots:
        lines[primitive_direction(w)] = lines.get(primitive_direction(w), 0) + m
    return lines


def test_conjugating_by_a_datum_symmetry_transports_restricted_roots():
    inv = _pair("(su(2,2),sp(2,R))")
    # swap the first two coordinates; this permutes the su(2,2) weights
    p_rows = (
        vec(0, 1, 0, 0),
        vec(1, 0, 0, 0),
        vec(0, 0, 1, 0),
        vec(0, 0, 0, 1),
    )
    conj_matrix = tuple(
        _apply_perm_matrix(
            p_rows, _apply_perm_matrix(inv.matrix, _apply_perm_matrix(p_rows, e))
        )
        for e in (vec(1, 0, 0, 0), vec(0, 1, 0, 0), vec(0, 0, 1, 0), vec(0, 0, 0, 1))
    )
    conj_eps = tuple(
        (part, _apply_perm_matrix(p_rows, w), s) for part, w, s in inv.eps
    )
    conj = replace(
        inv,
        matrix=conj_matrix,
        eps=conj_eps,
        pair_id="conjugated",
    )
    assert validate_involution(conj) == ()
    before = _line_multiset(restricted_roots(inv).roots)
    after = _line_multiset(restricted_roots(conj).roots)
    transported = {
        primitive_direction(_apply_perm_matrix(p_rows, w)): m
        for w, m in before.items()
    }
    assert after == transported
    # the walls move the same way, as lines
    walls_after = {primitive_direction(w) for w in momentum_chamber(conj)}
    walls_moved = {
        primitive_direction(_apply_perm_matrix(p_rows, w))
        for w in momentum_chamber(inv)
    }
    assert walls_after == walls_moved


# ---------------------------------------------------------------------------
# embedding views and cells


def test_involution_view_bookkeeping():
    for pid in _cat().pair_ids():
        pair = _pair(pid)
        if not isinstance(pair, InvolutionData):
            continue
        view = involution_view(pair)
        assert view.dim_gprime == view.fixed_zero_dim + len(view.cells), pid
        parts = {
            PART_COMPACT: pair.base.compact,
            PART_NONCOMPACT: pair.base.noncompact,
        }
        for cell in view.cells:
            assert len(cell.members) in (1, 2)
            for w in cell.members:
                assert parts[cell.part].mult(w) > 0


def test_sp2r_view_cells():
    view = involution_view(_pair("(su(2,2),sp(2,R))"))
    assert view.fixed_zero_dim == 2
    assert len(view.cells) == 8
    sizes = sorted(len(c.members) for c in view.cells)
    assert sizes == [1, 1, 1, 1, 2, 2, 2, 2]


def test_g2_embedding_view_matches_branching():
    rec = _pair("(so(4,3),g2(R))")
    assert isinstance(rec, EmbeddingRecord)
    assert validate_embedding(rec) == ()
    view = embedding_view(rec)
    assert view.fixed_zero_dim == 2
    assert len(view.cells) == 12
    assert sum(len(c.members) for c in view.cells) == 18

    norms = {}
    for cell in view.cells:
        r = _cell_restriction(view, cell)
        norms.setdefault(vdot(r, r), []).append(cell)
    short, long_ = sorted(norms)
    assert long_ == 3 * short
    # the complement of the subalgebra is its 7-dimensional representation:
    # doubled weight lines sit over the short roots only
    assert all(len(c.members) == 2 for c in norms[short])
    assert all(len(c.members) == 1 for c in norms[long_])
    restricted = WeightMultiset.from_vectors(
        [_cell_restriction(view, c) for c in view.cells])
    assert is_negation_closed(restricted)


def test_cap_functions_reject_foreign_parabolic():
    pair = _pair("(su(2,2),sp(2,R))")
    other = build_parabolic(build_root_datum("su(4)"), vec(3, -1, -1, -1))
    with pytest.raises(InvolutionError):
        member_signs(pair.view, other)


# ---------------------------------------------------------------------------
# derived data cached on the records

_CACHE_PAIRS = ("theta:so(4,3)", "theta:su(2,2)", "swap:su(1,1)^2")


def _fresh_sigma_image(inv, w):
    n = inv.base.ambient_dim
    return tuple(
        sum((inv.matrix[i][j] * w[i] for i in range(n)), F(0))
        for j in range(n)
    )


def _int_rows(rows) -> tuple:
    """Rational rows as (integers, least denominator > 0), the form of a
    view's restriction."""
    out = []
    for row in rows:
        den = lcm(*(F(x).denominator for x in row))
        out.append((tuple(int(x * den) for x in row), den))
    return tuple(out)


def _restrict(rows, w):
    """A view's integer restriction rows applied to w."""
    return tuple(vdot(nums, w) / den for nums, den in rows)


def _products(rows, restricted):
    """A restricted weight as a view's cell keeps it: entry i times the
    denominator of restriction row i, which must give an integer."""
    scaled = [F(x) * den for x, (_, den) in zip(restricted, rows, strict=True)]
    assert all(x.denominator == 1 for x in scaled), restricted
    return tuple(int(x) for x in scaled)


def _cell_restriction(view, cell):
    """A cell's restricted weight: its products over the denominators of
    the view's restriction rows."""
    return tuple(F(x, den) for x, (_, den) in zip(
        cell.products, view.restriction, strict=True))


def _assert_involution_caches_fresh(inv):
    # every value is recomputed here without the record's caches, with
    # the Gram-solve oracle for every restriction to a torus
    tplus = eigenbasis(inv, 1)
    tminus = eigenbasis(inv, -1)
    assert inv.dim_t_sigma == len(tplus)
    assert inv.t_minus_sigma_normals == subspace_normals(
        tminus, inv.base.ambient_dim
    )
    for part, w, _ in inv.base.weight_entries():
        image = _fresh_sigma_image(inv, w)
        assert inv.sigma_images[w] == image == inv.sigma_weight(w)
        first = next((s for p, v, s in inv.eps if (p, v) == (part, w)), None)
        assert inv.eps_signs.get((part, w)) == first

    n = inv.base.ambient_dim
    # (I + sigma^T)/2, read off the matrix as stored
    restriction = _int_rows(
        tuple((int(i == j) + inv.matrix[j][i]) / F(2) for j in range(n))
        for i in range(n)
    )
    cells = []
    for part, w, m in inv.base.weight_entries():
        sw = inv.sigma_images[w]
        if is_zero_vec(w) or (sw == w and inv.eps_signs.get((part, w)) != 1):
            continue
        if sw == w or w < sw:
            members = (w,) if sw == w else (w, sw)
            products = _products(restriction, gram_projection(w, tplus))
            cells += [WeightCell(part, members, products)] * m
    assert inv.view == EmbeddingView(
        inv.base, restriction, len(tplus) + inv.zero_weight_fixed_dim,
        tuple(cells), inv.dim_gprime, inv.pair_id,
    )
    for _, w, _ in inv.base.weight_entries():
        assert _restrict(inv.view.restriction, w) == gram_projection(w, tplus)

    roots = WeightMultiset.of(
        (r, m)
        for r, m in ((gram_projection(w, tminus), m) for w, m in inv.base.compact)
        if not is_zero_vec(r)
    )
    assert inv.restricted.roots == roots
    assert inv.restricted.positive == WeightMultiset.of(
        (r, m) for r, m in roots if lex_positive(r)
    )
    for attr in ("view", "restricted", "sigma_images"):
        assert getattr(inv, attr) is getattr(inv, attr)


def _assert_embedding_caches_fresh(rec):
    # the projection is symmetric, so its row j is the image of e_j
    n = rec.base.ambient_dim
    restriction = _int_rows(
        gram_projection(tuple(F(int(i == j)) for i in range(n)),
                        rec.tprime_rows)
        for j in range(n)
    )
    groups = {}
    for part, w, _ in rec.base.weight_entries():
        r = gram_projection(w, rec.tprime_rows)
        if not is_zero_vec(r):
            groups.setdefault((part, r), []).append(w)
    cells = tuple(
        WeightCell(part, tuple(sorted(ws)), _products(restriction, r))
        for (part, r), ws in sorted(groups.items())
    )
    assert rec.view == EmbeddingView(
        rec.base, restriction, len(rec.tprime_rows) + rec.extra_zero_dim,
        cells, rec.dim_gprime, rec.pair_id,
    )
    for _, w, _ in rec.base.weight_entries():
        assert _restrict(rec.view.restriction, w) == (
            gram_projection(w, rec.tprime_rows)
        )
    assert rec.view is rec.view


def test_cached_pair_data_equals_a_fresh_computation():
    cat = _cat()
    for pid in cat.pair_ids() + list(_CACHE_PAIRS):
        pair = cat.pair(pid)
        if isinstance(pair, InvolutionData):
            # fill the caches the way the verdicts do
            momentum_chamber(pair)
            _assert_involution_caches_fresh(pair)
        else:
            _assert_embedding_caches_fresh(pair)
    # the seeded embeddings of the validation test: moved, dropped and
    # duplicated t' rows, mutated bases and random rows
    dependent = 0
    for rec in seeded_embeddings():
        _assert_embedding_caches_fresh(rec)
        if len(independent_rows(rec.tprime_rows)) < len(rec.tprime_rows):
            assert "tprime-independent" in rec.report, rec.tprime_rows
            dependent += 1
    assert dependent > 0


def test_sigma_restriction_equals_the_gram_projection():
    # a valid sigma is an orthogonal involution preserving t, so a weight
    # w restricts to t^{+-sigma} as (w +- sigma w)/2, as the runtime
    # assumes; sigma w is computed here without the record's caches
    cat = _cat()
    seen = set()
    for pid in cat.pair_ids() + list(_CACHE_PAIRS):
        inv = cat.pair(pid)
        if not isinstance(inv, InvolutionData):
            continue
        ensure_valid(inv)
        seen.add(pid)
        for _, w, _ in inv.base.weight_entries():
            sw = _fresh_sigma_image(inv, w)
            assert vscale(F(1, 2), vadd(w, sw)) == (
                gram_projection(w, eigenbasis(inv, 1))
            ), (pid, w)
            assert vscale(F(1, 2), vsub(w, sw)) == (
                gram_projection(w, eigenbasis(inv, -1))
            ), (pid, w)
    assert len(seen) == 10 and set(_CACHE_PAIRS) <= seen


def test_replaced_record_recomputes_its_derived_data():
    pair = _pair("(su(2,2),sp(2,R))")
    before = (pair.t_minus_sigma_normals, pair.view, pair.restricted)
    assert eigenbasis(pair, -1)
    # the identity fixes the whole torus, so t^-sigma becomes zero
    replaced = replace(
        pair, matrix=tuple(tuple(F(int(i == j)) for j in range(4))
                           for i in range(4))
    )
    _assert_involution_caches_fresh(replaced)
    assert eigenbasis(replaced, -1) == ()
    assert replaced.restricted.roots == WeightMultiset.of([])
    assert replaced.view != before[1]
    assert (pair.t_minus_sigma_normals, pair.view, pair.restricted) == before

    emb = _pair("(so(4,3),g2(R))")
    emb.view
    moved = replace(emb, tprime_rows=(vec(1, 0, 0),))
    _assert_embedding_caches_fresh(moved)
    assert moved.view != emb.view


# ---------------------------------------------------------------------------
# matrix-model oracle for the intersection dimensions
#
# The complexification of each rank-three involution pair here is sp(4,C)
# inside sl(4,C), so intersection dimensions with parabolic subalgebras can
# be recomputed with plain 4x4 matrices and rank arithmetic.

_J_SWAP = (
    vec(0, 0, 1, 0),
    vec(0, 0, 0, 1),
    vec(-1, 0, 0, 0),
    vec(0, -1, 0, 0),
)
_J_ADJ = (
    vec(0, 1, 0, 0),
    vec(-1, 0, 0, 0),
    vec(0, 0, 0, 1),
    vec(0, 0, -1, 0),
)


def _mm(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


def _tp(a):
    return tuple(tuple(a[j][i] for j in range(4)) for i in range(4))


def _flat(a):
    return tuple(a[i][j] for i in range(4) for j in range(4))


def _unit(i, j):
    return tuple(
        tuple(F(1) if (r, c) == (i, j) else F(0) for c in range(4)) for r in range(4)
    )


def _sp4_basis(j_mat):
    # sigma(A) = -J A^T J^{-1} and J^2 = -I, so sigma(A) = J A^T J
    assert _mm(j_mat, j_mat) == tuple(
        tuple(F(-1) if i == j else F(0) for j in range(4)) for i in range(4)
    )
    fixed = []
    for i in range(4):
        for j in range(4):
            b = _unit(i, j)
            image = _mm(_mm(j_mat, _tp(b)), j_mat)
            symm = tuple(
                tuple(b[r][c] + image[r][c] for c in range(4)) for r in range(4)
            )
            fixed.append(_flat(symm))
    return independent_rows(fixed)


def _subspace_dim(basis_a, basis_b):
    return len(basis_a) + len(basis_b) - rank(list(basis_a) + list(basis_b))


def _parabolic_matrix_basis(x, *, levi_only):
    out = []
    for k in range(3):
        diag = [F(0)] * 4
        diag[k], diag[k + 1] = F(1), F(-1)
        out.append(_flat(tuple(
            tuple(diag[r] if r == c else F(0) for c in range(4)) for r in range(4)
        )))
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            pairing = x[i] - x[j]
            keep = pairing == 0 if levi_only else pairing >= 0
            if keep:
                out.append(_flat(_unit(i, j)))
    return out


@pytest.mark.parametrize(
    "pair_id,j_mat",
    [
        ("(su(2,2),sp(2,R))", _J_SWAP),
        ("(su(2,2),sp(1,1))", _J_ADJ),
        ("(su(4),sp(2))", _J_SWAP),
    ],
)
def test_matrix_model_confirms_intersection_dims(pair_id, j_mat):
    pair = _pair(pair_id)
    sp4 = _sp4_basis(j_mat)
    assert len(sp4) == 10 == pair.dim_gprime

    # the stored torus matrix and the matrix-model sigma agree on diagonals
    x_probe = vec(1, 2, 3, -6)
    diag = tuple(
        tuple(x_probe[r] if r == c else F(0) for c in range(4)) for r in range(4)
    )
    sigma_diag = _mm(_mm(j_mat, _tp(diag)), j_mat)
    expected = tuple(vdot(row, x_probe) for row in pair.matrix)
    assert tuple(sigma_diag[i][i] for i in range(4)) == expected

    for q in enumerate_parabolics(pair.base):
        q_basis = _parabolic_matrix_basis(q.x, levi_only=False)
        l_basis = _parabolic_matrix_basis(q.x, levi_only=True)
        assert len(q_basis) == q.dim_q and len(l_basis) == q.dim_levi
        cap_q, cap_l = cap_dims(pair.view, member_signs(pair.view, q))
        assert _subspace_dim(sp4, q_basis) == cap_q
        assert _subspace_dim(sp4, l_basis) == cap_l
