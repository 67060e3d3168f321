from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache
from io import StringIO

import linalg_oracle
import pytest
from fm_oracle import brute_force_cones_meet
from linalg_oracle import coweight_chamber

from branchdec import cli, cone_kernel, decider, involution, root_core
from branchdec.catalog import load_catalog
from branchdec.cone_kernel import (
    Cone,
    MeetResult,
    cone_meets_subspace,
    cones_meet,
)
from branchdec.decider import (
    DECO_EQUIVALENTS,
    QUESTIONS,
    CertificateError,
    Query,
    _verify_point,
    admissible_sufficient,
    answer_question,
    discretely_decomposable,
    rho_compat_check,
    symmetric_type_verdict,
    transitive_check,
    virtually_symmetric_verdict,
)
from branchdec.involution import (
    EmbeddingView,
    InvolutionData,
    InvolutionError,
    WeightCell,
    build_theta_involution,
    member_signs,
    momentum_chamber,
    restricted_roots,
)
from branchdec.parabolic import (
    UnsupportedQuery,
    build_parabolic,
    enumerate_parabolics,
)
from branchdec.root_core import (
    PART_COMPACT,
    PART_NONCOMPACT,
    build_root_datum,
    in_span,
    lex_positive,
    replace,
    vadd,
    vdot,
    vec,
    vneg,
    vscale,
    vzero,
)

F = Fraction


@lru_cache(maxsize=None)
def _cat():
    return load_catalog()


def _pair(pid: str):
    return _cat().pair(pid)


def _q(pair, x):
    return build_parabolic(pair.base, x)


def _row(pair, x):
    return Query(pair, _q(pair, x))


# ---------------------------------------------------------------------------
# wire format


def test_verdict_json_shape():
    pair = _pair("(su(2,2),sp(2,R))")
    v = discretely_decomposable(_row(pair, vec(3, -1, -1, -1)))
    d = v.to_json_dict()
    assert list(d) == [
        "question",
        "answer",
        "equivalents",
        "witness",
        "inputs",
        "criterion",
        "notes",
    ]
    assert d["question"] == "deco"
    assert d["answer"] is True
    assert d["equivalents"] == list(DECO_EQUIVALENTS)
    assert d["inputs"] == {
        "pair": "(su(2,2),sp(2,R))",
        "base": "su(2,2)",
        "x": ["3", "-1", "-1", "-1"],
    }
    assert any("weakly fair" in n for n in d["notes"])


def test_answer_question_dispatch_matches_direct_calls():
    pair = _pair("(su(2,2),sp(2,R))")
    q = _q(pair, vec(3, -1, -1, -1))
    direct = {
        "deco": discretely_decomposable(Query(pair, q)),
        "admissible": admissible_sufficient(Query(pair, q)),
        "transitive": transitive_check(Query(pair, q)),
        "rho": rho_compat_check(Query(pair, q)),
        "symtype": symmetric_type_verdict(q),
        "virtsym": virtually_symmetric_verdict(q),
    }
    assert set(direct) == set(QUESTIONS)
    for question, verdict in direct.items():
        assert (
            answer_question(Query(pair, q), question).to_json_dict()
            == verdict.to_json_dict()
        )
    with pytest.raises(ValueError):
        answer_question(Query(pair, q), "decomposable")


# ---------------------------------------------------------------------------
# one Query per classify row

# the pairs of the classify benchmark: the stored ones and one of each
# synthesised family
_CLASSIFY_PAIRS = ("theta:so(4,3)", "theta:su(2,2)", "swap:su(1,1)^2")


def _run(argv) -> str:
    out = StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _fresh_cell(pair, q, question) -> str:
    try:
        return str(answer_question(Query(pair, q), question).answer).lower()
    except UnsupportedQuery:
        return "unsupported"


def test_a_shared_row_answers_as_fresh_single_questions():
    # classify asks all six questions of one Query per row; every cell,
    # and every check payload, equals a fresh call for that question alone
    rows = 0
    for pid in [*_cat().pair_ids(), *_CLASSIFY_PAIRS]:
        pair = _pair(pid)
        table = json.loads(_run(["classify", "--pair", pid, "--format",
                                 "json"]))["rows"]
        for cells in table:
            q = _q(pair, root_core.parse_vector(cells["X"]))
            row = Query(pair, q)
            for question in QUESTIONS:
                assert cells[question] == _fresh_cell(pair, q, question), (
                    pid, cells["X"], question)
                try:
                    shared = answer_question(row, question)
                except UnsupportedQuery:
                    continue
                payload = json.loads(_run([
                    "check", "--pair", pid, f"--X={cells['X']}",
                    "--question", question, "--format", "json",
                ]))
                assert payload == shared.to_json_dict(), (
                    pid, cells["X"], question)
            rows += 1
    assert rows == 172


# each question's verdict function, by the name answer_question calls
_VERDICTS = {
    "deco": "discretely_decomposable",
    "admissible": "admissible_sufficient",
    "transitive": "transitive_check",
    "rho": "rho_compat_check",
    "symtype": "symmetric_type_verdict",
    "virtsym": "virtually_symmetric_verdict",
}


def _count_calls(monkeypatch, names) -> Counter:
    """Count the calls of each named ``decider`` attribute, with a counter
    bound in its place on the module, as the benchmark tracer binds its
    span wrappers."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _fn=getattr(decider, name), **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(decider, name, counted)
    return calls


def test_classify_runs_the_meet_and_the_transitive_count_once_per_row(
    monkeypatch, capsys
):
    calls = _count_calls(monkeypatch, ("cones_meet", "cap_dims",
                                       *_VERDICTS.values()))
    # every LP the kernel runs goes through simplex_feasible, looked up on
    # the module at each call
    simplex = cone_kernel.simplex_feasible
    monkeypatch.setattr(
        cone_kernel, "simplex_feasible",
        lambda *args: calls.update(["simplex_feasible"]) or simplex(*args))
    # deco asks no LP for its subspace test: the decider does not even
    # bind the kernel's subspace meet
    assert not hasattr(decider, "cone_meets_subspace")
    # a check reaches its own verdict function once, and no other
    for question, name in _VERDICTS.items():
        calls.clear()
        assert cli.main(["check", "--pair", "(su(2,2),sp(2,R))",
                         "--X=3,-1,-1,-1", "--question", question]) == 0
        assert {n: calls[n] for n in _VERDICTS.values()} == {
            n: int(n == name) for n in _VERDICTS.values()}, question
        assert calls["cap_dims"] == (question in ("transitive", "rho"))
        assert calls["simplex_feasible"] == 0, question
    capsys.readouterr()
    calls.clear()
    assert cli.main(["classify", "--pair", "(su(2,2),sp(2,R))"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    rows = len(lines)
    assert rows == 26
    deco = header.split("\t").index("deco")
    deco_false = sum(line.split("\t")[deco] == "false" for line in lines)
    assert deco_false == 11
    # only admissible's chamber test runs an LP, and only where deco's
    # functional does not separate, one LP each
    assert calls["cones_meet"] == calls["simplex_feasible"] == deco_false
    # rho reads the transitive verdict of its row
    assert calls["cap_dims"] == rows
    for name in _VERDICTS.values():
        assert calls[name] == rows, name


def test_verify_counts_each_table_row_transitive_once(monkeypatch, capsys):
    # a table-row check asks transitivity and rho of one Query
    calls = _count_calls(monkeypatch, ("cap_dims",))
    assert cli.main(["verify"]) == 0
    checks = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("table-row ")]
    assert len(checks) == 16
    assert calls["cap_dims"] == len(checks)


def test_classify_works_out_each_positive_system_once(monkeypatch, capsys):
    # the simple systems of the rows are eliminated once per positive
    # system, by the dual_rows calls RootSystem.coweight_rows makes;
    # projection_matrix's are not counted.  The enumerator's lexicographic
    # system is a row's system.
    calls = 0
    dual_rows = root_core.dual_rows
    coweight_rows = root_core.RootSystem.coweight_rows.__code__

    def counted(basis):
        nonlocal calls
        calls += sys._getframe(1).f_code is coweight_rows
        return dual_rows(basis)

    monkeypatch.setattr(root_core, "dual_rows", counted)
    eliminations, rows = {}, 0
    for pid in sorted([*_cat().pair_ids(), *_CLASSIFY_PAIRS]):
        before = calls
        assert cli.main(["classify", "--pair", pid]) == 0
        xs = [root_core.parse_vector(line.split("\t")[0])
              for line in capsys.readouterr().out.splitlines()[1:]]
        rows += len(xs)
        eliminations[pid] = calls - before
        weights = [w for _, w, _ in _pair(pid).base.weight_entries()
                   if any(w)]
        systems = {linalg_oracle.simple_roots(weights, x) for x in xs}
        assert linalg_oracle.simple_roots(weights) in systems, pid
        assert eliminations[pid] == len(systems), pid
    assert rows == 172
    assert list(eliminations.values()) == [1, 4, 1, 6, 1, 6, 6, 1, 4, 6, 6]


# ---------------------------------------------------------------------------
# discrete decomposability


def test_deco_sp2r_levi_row():
    # y = X + sigma X, with sigma x = -(x3, x4, x1, x2)
    pair = _pair("(su(2,2),sp(2,R))")
    for x, y in ((vec(3, -1, -1, -1), ["4", "0", "-4", "0"]),
                 (vec(-3, 1, 1, 1), ["-4", "0", "4", "0"])):
        v = discretely_decomposable(_row(pair, x))
        assert v.answer is True
        assert v.witness == {"kind": "separating-functional",
                             "functional": y}


def test_deco_swap_pair_frozen_witness():
    pair = _pair("swap:su(1,1)^2")
    hol = discretely_decomposable(_row(pair, vec(1, 1)))
    assert hol.answer is True

    mixed = discretely_decomposable(_row(pair, vec(1, -1)))
    assert mixed.answer is False
    # y = X + sigma X is 0 here, so the first generator g = (0, -2)
    # fails it, and the point is g - sigma g
    assert mixed.witness == {
        "kind": "intersection-point",
        "point": ["2", "-2"],
        "cone_coefficients": ["1", "1"],
    }
    # re-derive the point from the coefficients and the stored generators
    q = _q(pair, vec(1, -1))
    gens = [w for w, _ in q.base.noncompact if vdot(w, q.x) > 0]
    point = vzero(2)
    for c, g in zip((1, 1), gens):
        point = vadd(point, vscale(c, g))
    assert point == vec(2, -2)
    assert in_span(point, linalg_oracle.eigenbasis(pair, -1))


def test_deco_so32_borel_frozen_witness():
    pair = _pair("(so(5,C),so(3,2))")
    v = discretely_decomposable(_row(pair, vec(2, 1)))
    assert v.answer is False
    # sigma g = -g for g = (0, 1), so the point g - sigma g is 2 g
    assert v.witness == {
        "kind": "intersection-point",
        "point": ["0", "2"],
        "cone_coefficients": ["2", "0", "0", "0"],
    }


def test_deco_true_for_theta_everywhere():
    base = _cat().algebra("su(2,2)")
    theta = build_theta_involution(base)
    for q in enumerate_parabolics(base):
        v = discretely_decomposable(Query(theta, q))
        assert v.answer is True
        assert any("split torus part is zero" in n for n in v.notes)


def test_deco_full_algebra_note():
    pair = _pair("(su(2,2),sp(2,R))")
    v = discretely_decomposable(_row(pair, vzero(4)))
    assert v.answer is True
    assert any("no noncompact weights" in n for n in v.notes)


def test_deco_rejects_embedding_pairs():
    pair = _pair("(so(4,3),g2(R))")
    q = _q(pair, vec(0, 0, 1))
    with pytest.raises(UnsupportedQuery):
        discretely_decomposable(Query(pair, q))
    with pytest.raises(UnsupportedQuery):
        admissible_sufficient(Query(pair, q))


def test_deco_rejects_foreign_base():
    pair = _pair("(su(2,2),sp(2,R))")
    other = build_parabolic(build_root_datum("su(4)"), vec(3, -1, -1, -1))
    with pytest.raises(InvolutionError):
        discretely_decomposable(Query(pair, other))


# ---------------------------------------------------------------------------
# admissibility


def test_admissible_cross_references_subspace_test():
    pair = _pair("swap:su(1,1)^2")
    good = admissible_sufficient(_row(pair, vec(1, 1)))
    assert good.answer is True
    assert any("chamber test intersects: false" in n for n in good.notes)

    bad = admissible_sufficient(_row(pair, vec(1, -1)))
    assert bad.answer is False
    assert any("chamber test intersects: true" in n for n in bad.notes)
    assert any("full subspace test intersects: true" in n for n in bad.notes)
    assert any("discrete decomposability = false" in n for n in bad.notes)


def test_deco_implies_admissible_across_catalog():
    checked = 0
    for pid in _cat().pair_ids():
        pair = _pair(pid)
        if not isinstance(pair, InvolutionData):
            continue
        for q in enumerate_parabolics(pair.base, dominant_only=True):
            deco = discretely_decomposable(Query(pair, q))
            adm = admissible_sufficient(Query(pair, q))
            if deco.answer:
                assert adm.answer, (pid, q.x)
            checked += 1
    assert checked > 50


def test_a_meeting_chamber_test_settles_the_subspace_note_without_an_lp(
    monkeypatch,
):
    # the momentum chamber lies in t^{-sigma}, so a chamber point is a
    # subspace point: one LP, and the note still matches the deco verdict
    lps = []
    simplex = cone_kernel.simplex_feasible
    monkeypatch.setattr(
        cone_kernel,
        "simplex_feasible",
        lambda *args: lps.append(args) or simplex(*args),
    )
    met = missed = 0
    for pid in _cat().pair_ids():
        pair = _pair(pid)
        if not isinstance(pair, InvolutionData):
            continue
        for q in enumerate_parabolics(pair.base, dominant_only=True):
            deco = discretely_decomposable(Query(pair, q))
            lps.clear()
            adm = admissible_sufficient(Query(pair, q))
            note = f"full subspace test intersects: {str(not deco.answer).lower()}"
            assert note in adm.notes, (pid, q.x)
            if adm.answer:
                missed += 1
            else:
                assert len(lps) == 1, (pid, q.x)
                met += 1
    assert met > 10 and missed > 10


def _involution_pairs() -> list[InvolutionData]:
    """Every stored involution pair, the swap pair and every theta pair."""
    cat = _cat()
    ids = [pid for pid in cat.pair_ids()
           if isinstance(cat.pair(pid), InvolutionData)]
    ids += ["swap:su(1,1)^2"] + [f"theta:{a}" for a in cat.algebra_ids()]
    return [cat.pair(pid) for pid in ids]


def _noncompact_u(q):
    return [w for part, w, _ in q.u_weights() if part == PART_NONCOMPACT]


# the stored involution pairs and one pair of each synthesised family
_SIGN_TEST_FAMILIES = ("theta:su(2,2)", "theta:so(4,3)", "swap:su(1,1)^2")


def _sigma(pair, v):
    """sigma on t* by the transpose of the stored matrix."""
    n = len(v)
    return tuple(sum(pair.matrix[j][i] * v[j] for j in range(n))
                 for i in range(n))


def _replays(pair, gens, witness) -> bool:
    """Whether a deco or admissible witness replays by substitution: a
    functional fixed by sigma and > 0 on every generator, or a point
    that _verify_point accepts."""
    if witness["kind"] == "separating-functional":
        y = tuple(F(c) for c in witness["functional"])
        return _sigma(pair, y) == y and all(
            sum(a * b for a, b in zip(y, g)) > 0 for g in gens)
    result = MeetResult(
        True,
        tuple(F(c) for c in witness["point"]),
        tuple(F(c) for c in witness["cone_coefficients"]),
        (),
    )
    try:
        _verify_point(pair, gens, result)
    except CertificateError:
        return False
    return True


def test_deco_sign_test_agrees_with_the_lp_on_every_face():
    # the LP stays as the oracle: deco's sign test against the subspace
    # meet, and admissible against the chamber meet, on every face
    answers = Counter()
    for pid in (*(pid for pid in _cat().pair_ids()
                  if isinstance(_pair(pid), InvolutionData)),
                *_SIGN_TEST_FAMILIES):
        pair = _pair(pid)
        normals = pair.t_minus_sigma_normals
        walls = momentum_chamber(pair)
        for q in enumerate_parabolics(pair.base, dominant_only=False):
            gens = _noncompact_u(q)
            cone = Cone.from_generators(gens, pair.base.ambient_dim)
            deco = discretely_decomposable(Query(pair, q))
            adm = admissible_sufficient(Query(pair, q))
            assert deco.answer is not cone_meets_subspace(
                cone, normals, q.row).meets, (pid, q.x)
            assert adm.answer is not cones_meet(
                cone, normals, walls, q.row).meets, (pid, q.x)
            assert _replays(pair, gens, deco.witness), (pid, q.x)
            if deco.answer:
                # the chamber lies in t^{-sigma}: the same functional
                assert adm.witness == deco.witness, (pid, q.x)
            elif adm.witness["kind"] == "intersection-point":
                assert _replays(pair, gens, adm.witness), (pid, q.x)
            answers[deco.answer] += 1
    assert (answers.total(), answers[True], answers[False]) == (566, 452, 114)


def test_a_flipped_sign_in_a_shipped_functional_fails_the_replay():
    flipped = 0
    for pid in ("(su(2,2),sp(2,R))", "swap:su(1,1)^2", "(so(5,C),so(3,2))"):
        pair = _pair(pid)
        for q in enumerate_parabolics(pair.base, dominant_only=False):
            witness = discretely_decomposable(Query(pair, q)).witness
            if witness["kind"] != "separating-functional":
                continue
            gens = _noncompact_u(q)
            assert _replays(pair, gens, witness)
            y = witness["functional"]
            for i, c in enumerate(y):
                if F(c):
                    forged = [str(-F(c)) if j == i else d
                              for j, d in enumerate(y)]
                    assert not _replays(
                        pair, gens, {**witness, "functional": forged}), (
                        pid, q.x, i)
                    flipped += 1
    assert flipped > 50


def _unchecked(pair, matrix):
    """The record with sigma replaced and its validation report forced
    empty, so no check before the meet refuses it."""
    forged = replace(pair, matrix=matrix)
    forged.__dict__["report"] = ()
    return forged


def test_a_sigma_that_breaks_the_meet_certificate_is_refused():
    pair = _pair("(su(2,2),sp(2,R))")
    # deco is false here: y = X + sigma X fails a generator
    q = _q(pair, vec(F(1, 2), F(-3, 2), F(3, 2), F(-1, 2)))
    # sigma = -2: y = -X fails every generator g, and -sigma g = 2 g is
    # no weight at all
    doubled = _unchecked(
        pair, tuple(tuple(-2 * (i == j) for j in range(4)) for i in range(4)))
    with pytest.raises(CertificateError, match="-sigma g is not"):
        discretely_decomposable(Query(doubled, q))
    # sigma = 2: y = 3 X separates, but is not fixed by sigma
    stretched = _unchecked(
        pair, tuple(tuple(2 * (i == j) for j in range(4)) for i in range(4)))
    with pytest.raises(CertificateError, match="not fixed by sigma"):
        discretely_decomposable(Query(stretched, q))
    with pytest.raises(CertificateError, match="not fixed by sigma"):
        admissible_sufficient(Query(stretched, q))


def test_admissible_agrees_with_elimination_against_the_coweight_chamber():
    # the runtime states the chamber by its walls; elimination against its
    # vertex description (coweight rays and lines) gives every answer
    faces = 0
    for pair in _involution_pairs():
        rays, lines = coweight_chamber(pair)
        for q in enumerate_parabolics(pair.base, dominant_only=False):
            want = not brute_force_cones_meet(_noncompact_u(q), rays, lines)
            got = admissible_sufficient(Query(pair, q)).answer
            assert got == want, (pair.pair_id, q.x)
            faces += 1
    assert faces == 811


def test_admissible_intersection_points_replay_by_substitution():
    # each point is checked with the stored matrix and the weights alone:
    # a conic combination of the noncompact u-weights, negated by sigma
    # (which acts on t* by the transpose of the matrix), and >= 0 on every
    # positive restricted root (w - sigma w)/2
    points = 0
    for pair in _involution_pairs():
        n = pair.base.ambient_dim
        restricted = (
            tuple((F(a) - b) / 2 for a, b in zip(w, _sigma(pair, w)))
            for w, _ in pair.base.compact
        )
        positive = [b for b in restricted if any(b) and lex_positive(b)]
        for q in enumerate_parabolics(pair.base, dominant_only=True):
            witness = admissible_sufficient(Query(pair, q)).witness
            if witness["kind"] != "intersection-point":
                continue
            point = tuple(F(x) for x in witness["point"])
            coeffs = [F(c) for c in witness["cone_coefficients"]]
            gens = _noncompact_u(q)
            assert len(coeffs) == len(gens) and min(coeffs) >= 0
            total = tuple(
                sum((c * g[i] for c, g in zip(coeffs, gens)), F(0))
                for i in range(n)
            )
            assert total == point and any(point), (pair.pair_id, q.x)
            assert _sigma(pair, point) == tuple(-x for x in point), (
                pair.pair_id)
            for b in positive:
                assert sum(x * y for x, y in zip(b, point)) >= 0, (
                    pair.pair_id, q.x, b)
            points += 1
    assert points > 10


# ---------------------------------------------------------------------------
# transitivity


def test_transitive_sp2r_row_dimension_count():
    pair = _pair("(su(2,2),sp(2,R))")
    v = transitive_check(_row(pair, vec(3, -1, -1, -1)))
    assert v.answer is True
    assert v.witness == {
        "kind": "dimension-count",
        "dim_gprime": 10,
        "dim_gprime_cap_q": 7,
        "dim_gprime_cap_levi": 4,
        "dim_g": 15,
        "dim_q": 12,
        "dim_u": 3,
    }
    assert any("span identity" in n and "true" in n for n in v.notes)


def test_transitive_fails_for_borel():
    pair = _pair("(su(2,2),sp(2,R))")
    v = transitive_check(_row(pair, vec(3, 1, -1, -3)))
    assert v.answer is False
    assert v.witness["dim_gprime_cap_levi"] == 2
    assert v.witness["dim_u"] == 6


def test_transitive_separates_orbit_openness_from_span_identity():
    # for this compact-Levi parabolic the span identity holds even though
    # the orbit is not open, so only the orbit count rejects it
    pair = _pair("(su(2,2),sp(2,R))")
    v = transitive_check(_row(pair, vec(0, 0, 1, -1)))
    assert v.answer is False
    assert v.witness["dim_gprime_cap_q"] == 5
    assert v.witness["dim_gprime_cap_levi"] == 2
    assert v.witness["dim_u"] == 5
    assert any("span identity" in n and "true" in n for n in v.notes)


def test_transitive_g2_rows():
    pair = _pair("(so(4,3),g2(R))")
    for x in (vec(0, 0, 1), vec(0, 0, -1), vec(1, 0, 0), vec(-1, 0, 0)):
        v = transitive_check(_row(pair, x))
        assert v.answer is True, x
        assert v.witness["dim_gprime"] == 14
        assert v.witness["dim_gprime_cap_levi"] == 4
        assert v.witness["dim_gprime_cap_q"] == 9
        assert v.witness["dim_u"] == 5


def test_transitive_all_table_rows():
    for pid in _cat().pair_ids():
        pair = _pair(pid)
        for row in pair.table_rows:
            for x in (row.x, vneg(row.x)):
                row = _row(pair, x)
                assert transitive_check(row).answer, (pid, x)
                assert rho_compat_check(row).answer, (pid, x)


# ---------------------------------------------------------------------------
# rho comparison


def test_rho_sp2r_row_vectors():
    pair = _pair("(su(2,2),sp(2,R))")
    v = rho_compat_check(_row(pair, vec(3, -1, -1, -1)))
    assert v.answer is True
    assert v.witness == {
        "kind": "rho-vectors",
        "rho_u_restricted": ["1", "0", "-1", "0"],
        "rho_u_prime": ["1", "0", "-1", "0"],
    }
    assert v.notes == ("u' carries 3 restricted weights",)


def test_rho_g2_row_vectors():
    pair = _pair("(so(4,3),g2(R))")
    v = rho_compat_check(_row(pair, vec(0, 0, 1)))
    assert v.answer is True
    assert v.witness["rho_u_restricted"] == ["-5/6", "-5/6", "5/3"]
    assert v.witness["rho_u_prime"] == ["-5/6", "-5/6", "5/3"]


def test_rho_requires_transitivity():
    pair = _pair("(su(2,2),sp(2,R))")
    with pytest.raises(UnsupportedQuery, match="transitivity"):
        rho_compat_check(_row(pair, vec(3, 1, -1, -3)))


def test_rho_validates_pair_first():
    pair = _pair("(su(2,2),sp(2,R))")
    # a replaced record is new and unvalidated, even after pair.report ran
    assert pair.report == ()
    bad = replace(pair, dim_gprime=11)
    q = _q(pair, vec(3, -1, -1, -1))
    for check in (discretely_decomposable, admissible_sufficient,
                  transitive_check, rho_compat_check):
        with pytest.raises(InvolutionError,
                           match="fixed-dimension-bookkeeping"):
            check(Query(bad, q))

    emb = _pair("(so(4,3),g2(R))")
    bad_emb = replace(emb, dim_gprime=13)
    for check in (transitive_check, rho_compat_check):
        with pytest.raises(InvolutionError, match="cell-count-bookkeeping"):
            check(Query(bad_emb, _q(emb, vec(0, 0, 1))))


def test_forged_meet_certificate_is_refused():
    # sigma maps x to -(x3, x4, x1, x2), so t^{-sigma} is the line
    # through (1, -1, 1, -1), the sum of the two noncompact weights
    inv = _pair("(su(2,2),sp(2,R))")
    gens = [vec(1, 0, 0, -1), vec(0, -1, 1, 0)]
    honest = MeetResult(True, vec(1, -1, 1, -1), (F(1), F(1)), ())
    _verify_point(inv, gens, honest)
    negative = MeetResult(True, vec(-1, -2, 2, 1), (F(-1), F(2)), ())
    with pytest.raises(CertificateError, match="negative"):
        _verify_point(inv, gens, negative)
    outside = MeetResult(True, vec(1, 0, 0, -1), (F(1), F(0)), ())
    with pytest.raises(CertificateError, match="outside the subspace"):
        _verify_point(inv, gens, outside)
    # fractional coefficients: the replay runs on D p, D the least common
    # denominator of the coefficients (2, and 6 below)
    _verify_point(inv, gens, MeetResult(
        True, vec(F(1, 2), F(-1, 2), F(1, 2), F(-1, 2)), (F(1, 2), F(1, 2)),
        (),
    ))
    negative = MeetResult(
        True, vec(F(-1, 3), F(-1, 2), F(1, 2), F(1, 3)), (F(-1, 3), F(1, 2)),
        (),
    )
    with pytest.raises(CertificateError, match="negative"):
        _verify_point(inv, gens, negative)
    outside = MeetResult(
        True, vec(F(1, 2), F(-1, 3), F(1, 3), F(-1, 2)), (F(1, 2), F(1, 3)),
        (),
    )
    with pytest.raises(CertificateError, match="outside the subspace"):
        _verify_point(inv, gens, outside)
    zero = MeetResult(True, vzero(4), (F(0), F(0)), ())
    with pytest.raises(CertificateError, match="zero"):
        _verify_point(inv, gens, zero)
    # a point that is not the combination of its coefficients, though
    # they are honest: (9,9,9,9) lies outside t^{-sigma}, and (1/3)
    # (1,-1,1,-1) inside it, but the coefficients give (1/2)(1,-1,1,-1)
    for point in (vec(9, 9, 9, 9), vec(F(1, 3), F(-1, 3), F(1, 3), F(-1, 3))):
        for coefficients in ((F(1), F(1)), (F(1, 2), F(1, 2))):
            forged = MeetResult(True, point, coefficients, ())
            with pytest.raises(CertificateError,
                               match="not the combination"):
                _verify_point(inv, gens, forged)


def test_stored_pair_is_validated_once(monkeypatch):
    calls = Counter()

    def counting(validate):
        def counted(pair):
            calls[pair.pair_id] += 1
            return validate(pair)
        return counted

    for name in ("validate_involution", "validate_embedding"):
        monkeypatch.setattr(involution, name,
                            counting(getattr(involution, name)))
    cat = load_catalog()
    assert calls == Counter()

    pair = cat.pair("(su(2,2),sp(2,R))")
    restricted_roots(pair)
    q = _q(pair, vec(3, -1, -1, -1))
    for question in QUESTIONS:
        answer_question(Query(pair, q), question)
    assert calls == Counter({pair.pair_id: 1})


def test_involution_verdicts_build_no_projection_matrix(monkeypatch):
    # sigma restricts every weight, tests every certified point and gives
    # rho its restriction to the torus of g' as (I + sigma^T)/2
    built = []
    projection_matrix = root_core.projection_matrix

    def counted(rows, dim):
        built.append(len(rows))
        return projection_matrix(rows, dim)

    for module in (root_core, involution):
        monkeypatch.setattr(module, "projection_matrix", counted)
    pair = load_catalog().pair("(su(2,2),sp(2,R))")
    q = _q(pair, vec(3, -1, -1, -1))
    for question in ("deco", "admissible", "transitive"):
        answer_question(Query(pair, q), question)
    assert built == []
    assert answer_question(Query(pair, q), "rho").answer
    assert built == []


@pytest.mark.parametrize(
    "pair_id", ["(su(2,2),sp(2,R))", "(so(4,3),g2(R))", "theta:su(2,2)"]
)
def test_classify_builds_the_pair_view_once(monkeypatch, capsys, pair_id):
    calls = Counter()

    def counting(build):
        def counted(pair):
            calls[pair.pair_id] += 1
            return build(pair)
        return counted

    for name in ("involution_view", "embedding_view"):
        monkeypatch.setattr(involution, name,
                            counting(getattr(involution, name)))
    assert cli.main(["classify", "--pair", pair_id]) == 0
    capsys.readouterr()
    assert calls[pair_id] == 1


@pytest.mark.parametrize(
    "pair_id", ["(su(2,2),sp(2,R))", "(so(4,3),g2(R))", "theta:su(2,2)"]
)
def test_classify_checks_the_base_root_system_once(monkeypatch, capsys,
                                                   pair_id):
    # every row reads the simple roots of its q; the root system of the
    # base behind them is checked once per datum, not once per row
    checked = Counter()
    check = root_core.RootSystem

    def counted(weights):
        weights = tuple(weights)
        checked[frozenset(weights)] += 1
        return check(weights)

    monkeypatch.setattr(root_core, "RootSystem", counted)
    assert cli.main(["classify", "--pair", pair_id]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    base = load_catalog().pair(pair_id).base
    roots = frozenset(w for _, w, _ in base.weight_entries() if any(w))
    assert len(rows) > 1
    assert checked[roots] == 1


def test_rho_on_an_embedding_builds_one_projection_matrix(monkeypatch):
    # embedding_view groups the weights with the projection onto t' and
    # hands the same matrix to the view, where rho reads it
    built = []
    projection_matrix = root_core.projection_matrix

    def counted(rows, dim):
        built.append(len(rows))
        return projection_matrix(rows, dim)

    for module in (root_core, involution):
        monkeypatch.setattr(module, "projection_matrix", counted)
    pair = load_catalog().pair("(so(4,3),g2(R))")
    answer_question(_row(pair, vec(1, 0, 0)), "rho")
    assert built == [len(pair.tprime_rows)] == [2]


def test_a_cell_member_outside_the_base_is_refused():
    # a bare view built by library code may name any vector as a member
    base = build_root_datum("so(4,3)")
    view = EmbeddingView(
        base=base,
        restriction=(vec(1, 0, 0), vzero(3), vzero(3)),
        fixed_zero_dim=1,
        cells=(WeightCell(PART_NONCOMPACT, (vec(5, 0, 0),), vec(5, 0, 0)),),
        dim_gprime=2,
        pair_id="synthetic",
    )
    q = build_parabolic(base, vec(1, 0, 0))
    for count in (lambda: member_signs(view, q),
                  lambda: transitive_check(Query(view, q)),
                  lambda: rho_compat_check(Query(view, q))):
        with pytest.raises(InvolutionError,
                           match="member 5,0,0 is not a weight of so"):
            count()


# ---------------------------------------------------------------------------
# synthetic views: decider paths that no catalogued pair reaches

_D = vec(1, 0, 0, -1)
_HALF_D = vec(F(1, 2), 0, 0, F(-1, 2))


def _synthetic_view(cells):
    return EmbeddingView(
        base=build_root_datum("su(2,2)"),
        # the projection onto the line through _D
        restriction=(_HALF_D, vzero(4), vzero(4), vneg(_HALF_D)),
        fixed_zero_dim=1,
        cells=tuple(cells),
        dim_gprime=1 + len(cells),
        pair_id="synthetic",
    )


def _base_cells():
    # restrictions are the orthogonal projections onto the line through _D
    return [
        WeightCell(PART_NONCOMPACT, (vec(1, 0, -1, 0),), _HALF_D),
        WeightCell(PART_NONCOMPACT, (vec(-1, 0, 1, 0),), vneg(_HALF_D)),
        WeightCell(PART_NONCOMPACT, (vec(0, 1, 0, -1),), _HALF_D),
        WeightCell(PART_NONCOMPACT, (vec(0, -1, 0, 1),), vneg(_HALF_D)),
        WeightCell(PART_NONCOMPACT, (vec(1, 0, 0, -1),), _D),
        WeightCell(PART_NONCOMPACT, (vec(-1, 0, 0, 1),), vneg(_D)),
        WeightCell(PART_NONCOMPACT, (vec(0, 1, -1, 0),), vzero(4)),
        WeightCell(PART_NONCOMPACT, (vec(0, -1, 1, 0),), vzero(4)),
        WeightCell(PART_COMPACT, (vec(1, -1, 0, 0),), _HALF_D),
    ]


def test_synthetic_view_with_rho_mismatch():
    # the unpaired compact cell keeps the orbit open but tips the induced
    # half sum away from the restricted one
    view = _synthetic_view(_base_cells())
    q = build_parabolic(view.base, vec(1, 1, -1, -1))

    trans = transitive_check(Query(view, q))
    assert trans.answer is True
    assert trans.witness["dim_gprime"] == 10
    assert trans.witness["dim_gprime_cap_q"] == 6
    assert trans.witness["dim_gprime_cap_levi"] == 2

    v = rho_compat_check(Query(view, q))
    assert v.answer is False
    assert v.witness["rho_u_restricted"] == ["1", "0", "0", "-1"]
    assert v.witness["rho_u_prime"] == ["5/4", "0", "0", "-5/4"]
    assert v.notes == ("u' carries 4 restricted weights",)


def test_synthetic_view_with_ambiguous_induced_parabolic():
    # restoring the negated compact cell puts that restricted line
    # partially inside q on both sides, so no induced nilradical exists
    cells = _base_cells() + [
        WeightCell(PART_COMPACT, (vec(-1, 1, 0, 0),), vneg(_HALF_D)),
    ]
    view = _synthetic_view(cells)
    q = build_parabolic(view.base, vec(1, 1, -1, -1))

    assert transitive_check(Query(view, q)).answer is True
    with pytest.raises(UnsupportedQuery, match="ambiguous"):
        rho_compat_check(Query(view, q))
