from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from branchdec import catalog
from branchdec.catalog import (
    CatalogError,
    UnknownIdError,
    default_catalog_dir,
    index_files,
    load_catalog,
    seal,
    write_meta,
    _embedding_from_json,
    _involution_from_json,
)
from branchdec.cli import main
from branchdec.decider import QUESTIONS, Query, answer_question
from branchdec.involution import (
    EmbeddingRecord,
    InvolutionData,
    InvolutionError,
    ensure_valid,
    restricted_roots,
    validate_involution,
)
from branchdec.parabolic import (
    UnsupportedQuery,
    build_parabolic,
    enumerate_parabolics,
)
from branchdec.root_core import (
    RootDatum,
    WeightMultiset,
    as_fraction,
    build_root_datum,
    replace,
    vec,
    vec_from,
    vhalf,
    vscale,
    vsub,
)

REPO = Path(__file__).resolve().parents[1]
DATA_DIR = REPO / "src" / "branchdec" / "data"


def _copy(tmp_path: Path) -> Path:
    root = tmp_path / "cat"
    shutil.copytree(DATA_DIR, root)
    return root


def _checksum(root: Path) -> str:
    """The seal of the record files under root, as the loader reads them."""
    return seal(index_files(root))


def _reseal(root: Path) -> None:
    write_meta(root)


def _edit(path: Path, mutate) -> None:
    rec = json.loads(path.read_text())
    mutate(rec)
    path.write_text(json.dumps(rec, indent=2, sort_keys=True))


def _verify_fails(capsys, root: Path, pattern: str, *flags: str) -> None:
    """verify refuses the catalog with a message matching ``pattern``."""
    capsys.readouterr()
    assert main(["verify", "--catalog", str(root), *flags]) == 1
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("catalog-integrity: FAIL")
    assert re.search(pattern, first)


# ---------------------------------------------------------------------------
# loading the shipped catalog


def test_load_shipped_catalog():
    cat = load_catalog()
    assert cat.version == "1"
    assert cat.checksum == _checksum(cat.root)
    assert len(cat.algebra_ids()) == 13
    assert len(cat.pair_ids()) == 8
    assert cat.algebra_ids() == sorted(cat.algebra_ids())
    for aid in cat.algebra_ids():
        datum = cat.algebra(aid)
        assert isinstance(datum, RootDatum)
        assert datum.name == aid


def test_unknown_ids_raise():
    cat = load_catalog()
    with pytest.raises(UnknownIdError, match="unknown algebra id"):
        cat.algebra("e8")
    with pytest.raises(UnknownIdError, match="unknown pair id"):
        cat.pair("(e8,e7)")
    with pytest.raises(UnknownIdError):
        cat.pair("theta:e8")
    # UnknownIdError is a CatalogError, so one except arm handles both
    assert issubclass(UnknownIdError, CatalogError)


def test_synthesized_theta_and_swap_pairs():
    cat = load_catalog()
    theta = cat.pair("theta:su(2,2)")
    assert isinstance(theta, InvolutionData)
    assert theta.base == cat.algebra("su(2,2)")
    ensure_valid(theta)

    swap = cat.pair("swap:su(1,1)^2")
    assert isinstance(swap, InvolutionData)
    assert swap.dim_gprime == 3
    ensure_valid(swap)

    with pytest.raises(UnknownIdError, match="not a doubled sum"):
        cat.pair("swap:su(2,2)")
    with pytest.raises(UnknownIdError, match="not a doubled sum"):
        cat.pair("swap:su(1,1)")


def test_stored_pairs_kinds():
    cat = load_catalog()
    pair = cat.pair("(su(2,2),sp(2,R))")
    assert isinstance(pair, InvolutionData)
    emb = cat.pair("(so(4,3),g2(R))")
    assert isinstance(emb, EmbeddingRecord)
    assert emb.base == cat.algebra("so(4,3)")


# ---------------------------------------------------------------------------
# serialization round trips


def test_involution_json_round_trip():
    tool = _make_catalog_module()
    cat = load_catalog()
    for pid in cat.pair_ids():
        pair = cat.pair(pid)
        if isinstance(pair, InvolutionData):
            rec = tool.involution_to_json(pair, pair.base.name)
            assert _involution_from_json(rec, pair.base) == pair
        else:
            rec = tool.embedding_to_json(pair, pair.base.name)
            assert _embedding_from_json(rec, pair.base) == pair


# ---------------------------------------------------------------------------
# the restricted positive systems of the stored involution pairs

_HALF = vec("1/2", "-1/2", "1/2", "-1/2")
RESTRICTED_POSITIVE = {
    "(su(2,2),sp(2,R))": [(_HALF, 2)],
    "(su(2,2),sp(1,1))": [],
    "(su(4),sp(2))": [(_HALF, 4)],
    "(sl(4,C),sp(2,C))": [(_HALF, 4)],
    "(so(2,2),so(2,1))": [],
    "(so(4),so(3))": [(vec(0, 1), 2)],
    "(so(5,C),so(3,2))": [(vec(0, 1), 1), (vec(1, -1), 1), (vec(1, 0), 1),
                          (vec(1, 1), 1)],
}


def _restricted_positive_mismatches(cat) -> list[str]:
    return [
        pid for pid, expected in RESTRICTED_POSITIVE.items()
        if restricted_roots(cat.pair(pid)).positive
        != WeightMultiset.of(expected)
    ]


def test_restricted_positive_systems_of_the_stored_pairs_are_pinned(tmp_path):
    cat = load_catalog()
    assert sorted(RESTRICTED_POSITIVE) == [
        pid for pid in cat.pair_ids()
        if isinstance(cat.pair(pid), InvolutionData)
    ]
    assert _restricted_positive_mismatches(cat) == []
    # the table tells the two sigmas of su(2,2) apart: sp(2,R)'s record
    # with the sigma and eps of sp(1,1) is valid, and its restricted roots
    # are not sp(2,R)'s
    root = _copy(tmp_path)
    other = json.loads((root / "pairs" / "_su_2_2__sp_1_1__.json").read_text())
    _edit(root / "pairs" / "_su_2_2__sp_2_R__.json",
          lambda rec: rec.update(matrix=other["matrix"], eps=other["eps"]))
    _reseal(root)
    swapped = load_catalog(root)
    swapped.check_all()
    assert _restricted_positive_mismatches(swapped) == ["(su(2,2),sp(2,R))"]


# ---------------------------------------------------------------------------
# integral entries decode to int


def _fraction_catalog(monkeypatch):
    """The shipped catalog decoded with every entry a Fraction, as the
    decoder did before integral literals became int."""
    with monkeypatch.context() as patch:
        patch.setattr(catalog, "vec_from",
                      lambda entries: tuple(as_fraction(e) for e in entries))
        cat = load_catalog()
        cat.check_all()
    return cat


def _verdicts(pair) -> list[str]:
    out = []
    for q in enumerate_parabolics(pair.base, dominant_only=True):
        for question in QUESTIONS:
            try:
                v = answer_question(Query(pair, q), question)
            except UnsupportedQuery as exc:
                out.append(f"unsupported: {exc}")
                continue
            out.append(json.dumps(v.to_json_dict()) + repr(v.notes))
    return out


def test_int_decode_matches_the_fraction_decode(monkeypatch):
    fractions = _fraction_catalog(monkeypatch)
    ints = load_catalog()
    for pid in ints.pair_ids():
        new, old = ints.pair(pid), fractions.pair(pid)
        assert new == old, pid
        assert new.report == old.report == (), pid
        assert new.view == old.view, pid
        assert _verdicts(new) == _verdicts(old), pid
        if isinstance(new, EmbeddingRecord):
            assert all(type(x) is int for r in new.tprime_rows for x in r)
            continue
        # the int decode really holds ints, where the old one held none
        for pair, kind in ((new, int), (old, Fraction)):
            assert all(type(x) is kind for r in pair.matrix for x in r), pid
        assert all(type(x) is int
                   for v in new.sigma_images.values() for x in v), pid
        assert new.sigma_images == old.sigma_images, pid
        assert restricted_roots(new) == restricted_roots(old), pid
        assert new.dim_t_sigma == old.dim_t_sigma, pid
        assert new.t_minus_sigma_normals == old.t_minus_sigma_normals, pid


def _decoded(decode, entries):
    try:
        out = decode(entries)
    except Exception as exc:
        return type(exc), str(exc)
    return out, [type(x) for x in out]


LITERAL_VECTORS = [
    ["3", "-2", " 7 ", "+4", "4/2", "1/2", "-0", "007"], ["3", "3", "1/2"],
    [1, 0, -1], [True], [1.0], [None], ["1.5"], ["1e3"], ["1/0"], [""],
    [" "], ["\u0663"], ["0x10"], ["1", [1]], [[1], "x"], [{"a": 1}],
    ["x", [1]], "12", 5, None, {"1": 2}, [Fraction(6, 3)], [],
]


def test_a_record_decodes_its_literals_exactly_as_vec_from():
    # one table serves every vector of a record: each vector decodes (or
    # fails) as vec_from decodes it, the first time a literal is met and
    # every time after
    literals = catalog._Literals()
    for _ in range(2):
        for entries in LITERAL_VECTORS:
            assert _decoded(literals.vector, entries) == _decoded(
                vec_from, entries), entries
    assert set(map(type, literals)) == {str}


def test_non_integral_sigma_still_decodes_and_passes_the_matrix_checks():
    # the reflection of g2(R) in its compact long root (1,1,-2) is an
    # orthogonal involution of t with entries 2/3 and -1/3
    base = build_root_datum("g2(R)")
    rec = {
        "id": "g2-long-reflection", "label": "", "base": "g2(R)",
        "matrix": [["2/3", "-1/3", "2/3"], ["-1/3", "2/3", "2/3"],
                   ["2/3", "2/3", "-1/3"]],
        "eps": [], "zero_weight_fixed_dim": 0, "dim_gprime": 0,
        "table_rows": [{"X": ["1", "1", "-2"], "levi": ""}],
    }
    inv = _involution_from_json(rec, base)
    assert all(type(x) is Fraction for r in inv.matrix for x in r)
    assert inv.table_rows[0].x == (1, 1, -2)
    assert type(inv.table_rows[0].x[0]) is int
    assert not {
        "matrix-involutive", "matrix-orthogonal", "matrix-preserves-torus",
        "permutes-compact-weights", "permutes-noncompact-weights",
    } & set(validate_involution(inv))
    # the root it reflects restricts to itself, and halving keeps the
    # Fraction entries exact
    for w, _ in base.compact:
        half = vscale(Fraction(1, 2), vsub(w, inv.sigma_weight(w)))
        assert vhalf(vsub(w, inv.sigma_weight(w))) == half
    assert inv.sigma_weight((1, 1, -2)) == (-1, -1, 2)
    assert {w for w, _ in inv.restricted.roots} == {(1, 1, -2), (-1, -1, 2)}


# ---------------------------------------------------------------------------
# integrity checking


def test_checksum_covers_names_and_bytes(tmp_path):
    root = _copy(tmp_path)
    base = _checksum(root)
    assert base == _checksum(root)

    victim = root / "pairs" / "_su_2_2__sp_2_R__.json"
    renamed = victim.with_name("renamed.json")
    victim.rename(renamed)
    assert _checksum(root) != base
    renamed.rename(victim)
    assert _checksum(root) == base

    victim.write_text(victim.read_text() + "\n")
    assert _checksum(root) != base


def catalog_index(root: Path) -> list[dict]:
    """The index of the record files as sorted Path.glob lists them: the
    listing the seal was defined on, kept as the oracle for the
    loader's."""
    index = []
    for folder, keys in (("algebras", ("id",)),
                         ("pairs", ("id", "kind", "base"))):
        for path in sorted((root / folder).glob("*.json")):
            raw = path.read_bytes()
            rec = json.loads(raw)
            index.append({
                "path": f"{folder}/{path.name}",
                "sha256": hashlib.sha256(raw).hexdigest(),
                **{key: rec[key] for key in keys if key in rec},
            })
    return index


def test_catalog_files_listing():
    index = index_files(DATA_DIR)
    folders = Counter(entry["path"].split("/")[0] for entry in index)
    assert folders == {"algebras": 13, "pairs": 8}
    assert all(entry["path"].endswith(".json") for entry in index)
    # the shipped meta.json seals the files as they are
    meta = json.loads((DATA_DIR / "meta.json").read_text())
    assert meta["files"] == index
    assert meta["checksum"] == seal(index)


def test_loader_lists_and_seals_the_files_path_glob_lists(tmp_path):
    oracle = catalog_index(DATA_DIR)
    assert index_files(DATA_DIR) == oracle
    assert load_catalog(DATA_DIR).checksum == seal(oracle)

    # a .json dotfile is listed, a non-JSON file is not, and a missing
    # folder holds no file
    root = _copy(tmp_path)
    shutil.rmtree(root / "algebras")
    (root / "pairs" / ".hidden.json").write_text("{}")
    (root / "pairs" / "notes.txt").write_text("not a record")
    (root / "pairs" / "upper.JSON").write_text("{}")
    index = index_files(root)
    assert index == catalog_index(root)
    assert index[0]["path"] == "pairs/.hidden.json" and len(index) == 8 + 1
    assert _checksum(root) == seal(catalog_index(root))
    # force indexes the dotfile, as it does every listed file
    with pytest.raises(CatalogError, match=r"\.hidden\.json: missing field"):
        load_catalog(root, force=True)


def test_edit_without_reseal_is_refused(tmp_path):
    root = _copy(tmp_path)
    _edit(
        root / "pairs" / "_su_2_2__sp_2_R__.json",
        lambda rec: rec.update(dim_gprime=11),
    )
    # the load reads no record; the edited one is refused when it is read
    cat = load_catalog(root)
    for _ in range(2):
        with pytest.raises(CatalogError, match="checksum mismatch"):
            cat.pair("(su(2,2),sp(2,R))")
    with pytest.raises(CatalogError, match="checksum mismatch"):
        cat.check_all()
    # force skips the checksum and nothing else: the broken pair fails its
    # validation on access, so no question reaches it
    cat = load_catalog(root, force=True)
    with pytest.raises(
        CatalogError,
        match="_su_2_2__sp_2_R__.json: validation failed: "
              "fixed-dimension-bookkeeping",
    ):
        cat.pair("(su(2,2),sp(2,R))")
    # the same record built by library code reaches the verdicts, and
    # deco, admissible, transitive and rho refuse it
    pair = replace(load_catalog().pair("(su(2,2),sp(2,R))"),
                               dim_gprime=11)
    q = build_parabolic(pair.base, vec(3, -1, -1, -1))
    for question in ("deco", "admissible", "transitive", "rho"):
        with pytest.raises(InvolutionError,
                           match="fixed-dimension-bookkeeping"):
            answer_question(Query(pair, q), question)


def test_resealed_edit_fails_validation(tmp_path, capsys):
    root = _copy(tmp_path)
    _edit(
        root / "pairs" / "_su_2_2__sp_2_R__.json",
        lambda rec: rec.update(dim_gprime=11),
    )
    _reseal(root)
    cat = load_catalog(root)
    with pytest.raises(
        CatalogError, match="fixed-dimension-bookkeeping"
    ):
        cat.pair("(su(2,2),sp(2,R))")
    _verify_fails(capsys, root, "fixed-dimension-bookkeeping")
    # force admits an unsealed catalog, not a record that fails validation
    with pytest.raises(
        CatalogError, match="fixed-dimension-bookkeeping"
    ):
        load_catalog(root, force=True).pair("(su(2,2),sp(2,R))")
    _verify_fails(capsys, root, "fixed-dimension-bookkeeping", "--force")


@pytest.mark.parametrize("x", [["1", "1", "1", "1"], ["3", "-1", "-1"]])
def test_resealed_table_row_off_the_torus_fails_validation(
    tmp_path, capsys, x
):
    root = _copy(tmp_path)
    _edit(
        root / "pairs" / "_su_2_2__sp_2_R__.json",
        lambda rec: rec["table_rows"][0].update(X=x),
    )
    _reseal(root)
    message = "_su_2_2__sp_2_R__.json: validation failed: table-rows-in-torus"
    _verify_fails(capsys, root, re.escape(message))
    assert main(["catalog", "--catalog", str(root)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    # a command on another pair never builds the broken one
    argv = ["check", "--pair", "(so(4),so(3))", "--X", "1,1",
            "--question", "deco"]
    assert main(argv) == 0
    pristine = capsys.readouterr().out
    assert main(argv + ["--catalog", str(root)]) == 0
    assert capsys.readouterr().out == pristine


def test_resealed_unknown_or_missing_builder_is_refused(tmp_path, capsys):
    root = _copy(tmp_path)
    victim = root / "algebras" / "su_2_2_.json"
    _edit(victim, lambda rec: rec.update(builder="su(2,2"))
    _reseal(root)
    with pytest.raises(CatalogError, match="su_2_2_.json: malformed field"):
        load_catalog(root).algebra("su(2,2)")
    _verify_fails(capsys, root, "su_2_2_.json: malformed field")

    _edit(victim, lambda rec: rec.pop("builder"))
    _reseal(root)
    with pytest.raises(CatalogError, match="missing field 'builder'"):
        load_catalog(root).algebra("su(2,2)")
    _verify_fails(capsys, root, "su_2_2_.json: missing field 'builder'")


def test_resealed_builder_above_the_rank_bound_is_refused_at_once(
    tmp_path, capsys
):
    root = _copy(tmp_path)
    _edit(root / "algebras" / "su_4_.json",
          lambda rec: rec.update(builder="su(2000)"))
    _reseal(root)
    start = time.perf_counter()
    with pytest.raises(CatalogError, match="su_4_.json: malformed field"):
        load_catalog(root).algebra("su(4)")
    assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    _catalog_fails(capsys, root, "su_4_.json: malformed field: su(2000): "
                   "rank 1999 is above the bound")
    assert time.perf_counter() - start < 0.1


def test_a_spaced_doubled_builder_keeps_its_swap_pair(tmp_path, capsys):
    argv = ["pair", "--pair", "swap:su(1,1)^2"]
    assert main(argv) == 0
    pristine = capsys.readouterr().out
    root = _copy(tmp_path)
    _edit(root / "algebras" / "su_1_1__2.json",
          lambda rec: rec.update(builder=" su(1,1) + su(1,1)"))
    _reseal(root)
    assert main(argv + ["--catalog", str(root)]) == 0
    assert capsys.readouterr().out == pristine


def _other_pair_still_answers(capsys, root: Path) -> None:
    """A command on a pair whose record is intact answers on the catalog
    at root as it does on the shipped one."""
    argv = ["check", "--pair", "(so(4),so(3))", "--X", "1,1",
            "--question", "deco"]
    capsys.readouterr()
    assert main(argv) == 0
    pristine = capsys.readouterr().out
    assert main(argv + ["--catalog", str(root)]) == 0
    assert capsys.readouterr().out == pristine


@pytest.mark.parametrize(
    ("folder", "name", "edit", "access", "key"),
    [
        # a misspelled optional field was dropped: the table rows went
        # with it, and verify ran two checks fewer and passed
        ("pairs", "_su_2_2__sp_2_R__.json",
         lambda rec: rec.update(table_row=rec.pop("table_rows")),
         lambda cat: cat.pair("(su(2,2),sp(2,R))"), "table_row"),
        ("pairs", "_so_4_3__g2_R__.json",
         lambda rec: rec.update(tprime_row=[]),
         lambda cat: cat.pair("(so(4,3),g2(R))"), "tprime_row"),
        ("algebras", "su_2_2_.json",
         lambda rec: rec.update(name="su(2,2)"),
         lambda cat: cat.algebra("su(2,2)"), "name"),
    ],
    ids=["table_row", "embedding", "algebra"],
)
def test_a_field_the_loader_does_not_read_is_refused(
    tmp_path, capsys, folder, name, edit, access, key
):
    root = _copy(tmp_path)
    _edit(root / folder / name, edit)
    _reseal(root)
    message = f"{name}: unknown field '{key}'"
    cat = load_catalog(root)
    with pytest.raises(CatalogError, match=re.escape(message)):
        access(cat)
    _catalog_fails(capsys, root, message)
    _other_pair_still_answers(capsys, root)


def test_a_record_that_still_declares_restricted_roots_is_refused(
    tmp_path, capsys
):
    # the old schema stored a hand-typed copy of the restricted positive
    # system; the loader no longer reads it, so it is refused, not skipped
    root = _copy(tmp_path)
    _edit(
        root / "pairs" / "_sl_4_C__sp_2_C__.json",
        lambda rec: rec.update(declared_restricted_positive=[
            {"mult": 4, "weight": ["1/2", "-1/2", "1/2", "-1/2"]}
        ]),
    )
    _reseal(root)
    message = ("_sl_4_C__sp_2_C__.json: unknown field "
               "'declared_restricted_positive'")
    for cat in (load_catalog(root), load_catalog(root, force=True)):
        with pytest.raises(CatalogError, match=re.escape(message)):
            cat.pair("(sl(4,C),sp(2,C))")
    _catalog_fails(capsys, root, message)
    _other_pair_still_answers(capsys, root)


def test_structural_errors(tmp_path):
    with pytest.raises(CatalogError, match="does not exist"):
        load_catalog(tmp_path / "nope")

    root = _copy(tmp_path)
    (root / "meta.json").unlink()
    with pytest.raises(CatalogError, match="missing meta.json"):
        load_catalog(root)


def test_a_catalog_path_that_is_a_file_is_not_a_directory(tmp_path, capsys):
    path = tmp_path / "README.md"
    path.write_text("not a catalog")
    message = f"catalog directory {path} is not a directory"
    with pytest.raises(CatalogError, match=re.escape(message)):
        load_catalog(path)
    for flags in ([], ["--force"]):
        assert main(["catalog", "--catalog", str(path), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def _catalog_fails(capsys, root: Path, message: str) -> None:
    """catalog exits 1 with ``message`` on stderr, and verify fails its
    integrity check with it."""
    capsys.readouterr()
    assert main(["catalog", "--catalog", str(root)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    _verify_fails(capsys, root, re.escape(message))


def test_unreadable_record_file_is_a_catalog_error(tmp_path, capsys):
    root = _copy(tmp_path)
    (root / "pairs" / "zz.json").mkdir()
    with pytest.raises(CatalogError, match="zz.json: cannot read"):
        load_catalog(root, force=True)
    _catalog_fails(capsys, root, "zz.json: cannot read: Is a directory")


def _cli_in_subprocess(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in its own interpreter, killed after 60 s, so a command
    that blocks fails the test instead of hanging the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(DATA_DIR.parents[1]), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "branchdec.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize(
    "entry", ["pairs/zz.json", "algebras/zz.json", "meta.json"]
)
def test_a_catalog_entry_that_is_not_a_regular_file_is_refused(
    tmp_path, entry
):
    # a FIFO has no writer here, so a blocking open would wait forever;
    # every load of it runs in a subprocess
    root = _copy(tmp_path)
    path = root / entry
    path.unlink(missing_ok=True)
    os.mkfifo(path)
    message = f"{path.name}: cannot read: not a regular file"
    proc = _cli_in_subprocess("catalog", "--catalog", str(root))
    assert proc.returncode == 1
    assert proc.stdout == "" and message in proc.stderr
    proc = _cli_in_subprocess("verify", "--catalog", str(root))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        f"catalog-integrity: FAIL ({message})",
        "verify: 1 check, 1 failed",
    ]


@pytest.mark.parametrize("meta", ["[]", '"x"'])
def test_meta_that_is_not_an_object_is_a_catalog_error(tmp_path, capsys, meta):
    root = _copy(tmp_path)
    (root / "meta.json").write_text(meta)
    with pytest.raises(CatalogError, match="meta.json: not a JSON object"):
        load_catalog(root, force=True)
    _catalog_fails(capsys, root, "meta.json: not a JSON object")


def _seal_by_hand(root: Path, victim: Path, raw: bytes, **fields) -> None:
    """Write raw to the victim record and seal it by hand: its index
    entry takes the new sha256 and the given fields, as no run of
    index_files would write them."""
    index = index_files(root)
    path = f"{victim.parent.name}/{victim.name}"
    victim.write_bytes(raw)
    for entry in index:
        if entry["path"] == path:
            entry.update(sha256=hashlib.sha256(raw).hexdigest(), **fields)
    write_meta(root, index)


def _refused_unsealed_and_sealed_by_hand(
    tmp_path, capsys, raw: bytes, message: str
) -> None:
    root = _copy(tmp_path)
    victim = root / "pairs" / "_so_4__so_3__.json"
    original = victim.read_bytes()
    # the index cannot be built over a record that does not decode, so
    # neither a reseal nor force gets past it
    victim.write_bytes(raw)
    with pytest.raises(CatalogError, match=message):
        _reseal(root)
    with pytest.raises(CatalogError, match=message):
        load_catalog(root, force=True)
    # sealed by hand, it loads and is refused when it is read
    victim.write_bytes(original)
    _seal_by_hand(root, victim, raw)
    cat = load_catalog(root)
    with pytest.raises(CatalogError, match=message):
        cat.pair("(so(4),so(3))")
    _verify_fails(capsys, root, message)


@pytest.mark.parametrize(
    ("files", "message"),
    [([{"id": "su(2)"}], "meta.json: missing field 'path'"),
     ([1], "meta.json: malformed field"),
     (7, "meta.json: malformed field"),
     (None, "meta.json: malformed field")],
    ids=["no-path", "not-an-entry", "not-a-list", "null"],
)
def test_a_sealed_index_that_is_not_a_list_of_entries_is_refused(
    tmp_path, capsys, files, message
):
    root = _copy(tmp_path)
    meta = {"checksum": seal(files), "files": files, "version": "1"}
    (root / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(CatalogError, match=re.escape(message)):
        load_catalog(root)
    _catalog_fails(capsys, root, message)


def test_invalid_json_reported_with_filename(tmp_path, capsys):
    _refused_unsealed_and_sealed_by_hand(
        tmp_path, capsys, b"{not json", "_so_4__so_3__.json: invalid JSON"
    )


def test_record_that_is_not_utf8_is_invalid_json(tmp_path, capsys):
    _refused_unsealed_and_sealed_by_hand(
        tmp_path, capsys, b'{"id": "\xff"}',
        "_so_4__so_3__.json: invalid JSON"
    )


def test_a_record_that_is_not_a_json_object_is_refused(tmp_path, capsys):
    _refused_unsealed_and_sealed_by_hand(
        tmp_path, capsys, b'["id"]', "_so_4__so_3__.json: not a JSON object"
    )


def test_seal_is_checked_before_json_is_decoded(tmp_path):
    root = _copy(tmp_path)
    (root / "pairs" / "_so_4__so_3__.json").write_text("{not json")
    with pytest.raises(CatalogError, match="checksum mismatch"):
        load_catalog(root).pair("(so(4),so(3))")
    with pytest.raises(CatalogError, match="invalid JSON"):
        load_catalog(root, force=True)


def _count_reads(monkeypatch) -> Counter:
    """Count the reads of each catalog file, by its path under the
    catalog directory."""
    reads = Counter()

    def counted(path, _read=catalog._read):
        reads[Path(path).relative_to(DATA_DIR).as_posix()] += 1
        return _read(path)

    monkeypatch.setattr(catalog, "_read", counted)
    return reads


@pytest.mark.parametrize(
    ("argv", "records"),
    [
        ([], []),
        (["check", "--pair", "(su(2,2),sp(2,R))", "--X", "3,-1,-1,-1",
          "--question", "deco"],
         ["algebras/su_2_2_.json", "pairs/_su_2_2__sp_2_R__.json"]),
        (["check", "--pair", "(so(4,3),g2(R))", "--X", "0,0,1",
          "--question", "rho"],
         ["algebras/so_4_3_.json", "pairs/_so_4_3__g2_R__.json"]),
        (["check", "--pair", "theta:su(2,2)", "--X", "3,-1,-1,-1",
          "--question", "deco"],
         ["algebras/su_2_2_.json"]),
        (["catalog"], None),
        (["catalog", "--force"], None),
        (["verify"], None),
    ],
    ids=["load", "check-involution", "check-embedding", "check-theta",
         "catalog", "catalog-force", "verify"],
)
def test_a_command_reads_each_file_it_uses_once(
    monkeypatch, capsys, argv, records
):
    reads = _count_reads(monkeypatch)
    if argv:
        assert main([*argv, "--catalog", str(DATA_DIR)]) == 0
    else:
        load_catalog(DATA_DIR)
    if records is None:
        records = [entry["path"] for entry in catalog_index(DATA_DIR)]
        assert len(records) == 21
    # --force builds the index from the files and then hashes, decodes
    # and validates the bytes it read, so it too reads each file once
    assert reads == Counter(["meta.json", *records])


def test_a_byte_edit_fails_every_command_that_reads_the_file(
    tmp_path, capsys
):
    root = _copy(tmp_path)
    victim = root / "pairs" / "_su_2_2__sp_2_R__.json"
    victim.write_bytes(victim.read_bytes() + b"\n")
    message = "error: catalog checksum mismatch: files were edited"
    for argv in (
        ["check", "--pair", "(su(2,2),sp(2,R))", "--X", "3,-1,-1,-1",
         "--question", "deco"],
        ["pair", "--pair", "(su(2,2),sp(2,R))"],
        ["classify", "--pair", "(su(2,2),sp(2,R))"],
        ["catalog"],
    ):
        assert main([*argv, "--catalog", str(root)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message), argv
    _verify_fails(capsys, root, "checksum mismatch")
    # a command that does not read the file answers as on the shipped
    # catalog, and force lets the edit through
    _other_pair_still_answers(capsys, root)
    assert main(["pair", "--pair", "(su(2,2),sp(2,R))", "--catalog",
                 str(root), "--force"]) == 0


@pytest.mark.parametrize("change", ["added", "removed", "renamed"])
def test_a_file_set_change_without_reseal_is_refused_at_load(
    tmp_path, capsys, change
):
    root = _copy(tmp_path)
    victim = root / "pairs" / "_so_4__so_3__.json"
    if change == "added":
        (root / "algebras" / "zz.json").write_text(
            json.dumps({"builder": "su(2)", "id": "zz"})
        )
    elif change == "removed":
        victim.unlink()
    else:
        victim.rename(victim.with_name("zz.json"))
    with pytest.raises(CatalogError, match="checksum mismatch"):
        load_catalog(root)
    for command in ("check", "catalog"):
        argv = [command, "--catalog", str(root)]
        if command == "check":
            argv += ["--pair", "(su(2,2),sp(2,R))", "--X", "3,-1,-1,-1",
                     "--question", "deco"]
        assert main(argv) == 1
        assert "checksum mismatch" in capsys.readouterr().err
    _verify_fails(capsys, root, "checksum mismatch")
    # a reseal admits the new file set
    _reseal(root)
    load_catalog(root).check_all()


@pytest.mark.parametrize(
    ("victim", "key", "other", "access"),
    [
        ("pairs/_so_4__so_3__.json", "id", "(so(4),so(3)')",
         lambda cat: cat.pair("(so(4),so(3)')")),
        ("pairs/_so_4__so_3__.json", "base", "so(2,2)",
         lambda cat: cat.pair("(so(4),so(3))")),
        ("pairs/_so_4_3__g2_R__.json", "kind", "involution",
         lambda cat: cat.pair("(so(4,3),g2(R))")),
        ("algebras/su_2_.json", "id", "su(2)'",
         lambda cat: cat.algebra("su(2)'")),
    ],
    ids=["pair-id", "pair-base", "pair-kind", "algebra-id"],
)
def test_a_record_that_disagrees_with_its_index_entry_is_refused(
    tmp_path, capsys, victim, key, other, access
):
    # the index entry names another id, base or kind than the record it
    # seals, and passes every check the load makes on the index alone
    root = _copy(tmp_path)
    path = root / victim
    held = json.loads(path.read_text())[key]
    _seal_by_hand(root, path, path.read_bytes(), **{key: other})
    cat = load_catalog(root)
    message = f"{path.name}: {key} {held!r} is not the {other!r}"
    for _ in range(2):
        with pytest.raises(CatalogError, match=re.escape(message)):
            access(cat)
    _verify_fails(capsys, root, re.escape(message))


def test_unknown_pair_kind(tmp_path):
    root = _copy(tmp_path)
    _edit(
        root / "pairs" / "_so_4__so_3__.json",
        lambda rec: rec.update(kind="twist"),
    )
    _reseal(root)
    with pytest.raises(CatalogError, match="unknown pair kind 'twist'"):
        load_catalog(root)


_STRING = "malformed field: expected a string"


@pytest.mark.parametrize(
    ("folder", "name", "edit", "access", "message"),
    [
        ("pairs", "_so_4__so_3__.json",
         lambda rec: rec.update(zero_weight_fixed_dim="x"),
         lambda cat: cat.pair("(so(4),so(3))"), "malformed field"),
        ("algebras", "su_2_2_.json",
         lambda rec: rec.update(builder=["su(2,2)"]),
         lambda cat: cat.algebra("su(2,2)"), "malformed field"),
        # JSON integer fields are not cast: 10.9 would load as 10, true
        # as 1, and a true entry of a vector as 1, each a valid record
        ("pairs", "_su_2_2__sp_2_R__.json",
         lambda rec: rec.update(dim_gprime=10.9),
         lambda cat: cat.pair("(su(2,2),sp(2,R))"), "malformed field"),
        ("pairs", "_su_2_2__sp_2_R__.json",
         lambda rec: rec["eps"][0].update(sign=True),
         lambda cat: cat.pair("(su(2,2),sp(2,R))"), "malformed field"),
        ("pairs", "_su_2_2__sp_2_R__.json",
         lambda rec: rec["eps"][0]["weight"].__setitem__(0, True),
         lambda cat: cat.pair("(su(2,2),sp(2,R))"), "malformed field"),
        # nor are string fields: ["x", 1] would load as "['x', 1]" and 7
        # as '7'; a mistyped id is refused at load, before any access
        ("pairs", "_su_2_2__sp_2_R__.json",
         lambda rec: rec.update(label=["x", 1]),
         lambda cat: cat.pair("(su(2,2),sp(2,R))"), _STRING),
        ("pairs", "_su_2_2__sp_2_R__.json",
         lambda rec: rec["table_rows"][0].update(levi=7),
         lambda cat: cat.pair("(su(2,2),sp(2,R))"), _STRING),
        ("pairs", "_su_2_2__sp_2_R__.json",
         lambda rec: rec["eps"][0].update(part=1),
         lambda cat: cat.pair("(su(2,2),sp(2,R))"), _STRING),
        ("algebras", "su_2_2_.json",
         lambda rec: rec.update(builder=7),
         lambda cat: cat.algebra("su(2,2)"), _STRING),
        ("pairs", "_so_4__so_3__.json",
         lambda rec: rec.update(id=7),
         None, _STRING),
    ],
    ids=["pair", "algebra", "float", "bool", "bool-in-vector", "label",
         "levi", "part", "builder", "id"],
)
def test_malformed_field_is_a_catalog_error(
    tmp_path, capsys, folder, name, edit, access, message
):
    root = _copy(tmp_path)
    _edit(root / folder / name, edit)
    if access is None:
        with pytest.raises(CatalogError, match=f"{name}: {message}"):
            load_catalog(root, force=True)
    else:
        cat = load_catalog(root, force=True)
        with pytest.raises(CatalogError, match=f"{name}: {message}"):
            access(cat)
    _verify_fails(capsys, root, f"{name}: {message}", "--force")
    assert main(["catalog", "--catalog", str(root), "--force"]) == 1


def test_pair_with_missing_base(tmp_path):
    root = _copy(tmp_path)
    _edit(
        root / "pairs" / "_so_4__so_3__.json",
        lambda rec: rec.update(base="e8"),
    )
    _reseal(root)
    with pytest.raises(CatalogError, match="not in the catalog"):
        load_catalog(root)


def test_duplicate_ids(tmp_path):
    root = _copy(tmp_path)
    src = root / "algebras" / "su_2_2_.json"
    shutil.copy(src, root / "algebras" / "zz_copy.json")
    _reseal(root)
    with pytest.raises(CatalogError, match="duplicate algebra id"):
        load_catalog(root)

    root2 = _copy(tmp_path / "second")
    src2 = root2 / "pairs" / "_so_4__so_3__.json"
    shutil.copy(src2, root2 / "pairs" / "zz_copy.json")
    _reseal(root2)
    with pytest.raises(CatalogError, match="duplicate pair id"):
        load_catalog(root2)


def test_env_var_overrides_default_dir(tmp_path, monkeypatch):
    root = _copy(tmp_path)
    monkeypatch.setenv("BRANCHDEC_CATALOG", str(root))
    assert default_catalog_dir() == root
    cat = load_catalog()
    assert cat.root == root

    monkeypatch.delenv("BRANCHDEC_CATALOG")
    assert default_catalog_dir() == DATA_DIR


# ---------------------------------------------------------------------------
# records build on first access


def test_load_builds_no_record_and_a_broken_one_keeps_failing(
    tmp_path, capsys
):
    root = _copy(tmp_path)
    _edit(
        root / "pairs" / "_su_2_2__sp_2_R__.json",
        lambda rec: rec.update(dim_gprime=11),
    )
    _reseal(root)
    cat = load_catalog(root)
    assert cat.pair_ids() == load_catalog().pair_ids()
    # the other pair on the same base builds, and is kept
    other = cat.pair("(su(2,2),sp(1,1))")
    assert cat.pair("(su(2,2),sp(1,1))") is other
    assert cat.algebra("su(2,2)") is other.base
    for _ in range(2):
        with pytest.raises(CatalogError, match="fixed-dimension-bookkeeping"):
            cat.pair("(su(2,2),sp(2,R))")
    with pytest.raises(CatalogError, match="fixed-dimension-bookkeeping"):
        cat.check_all()
    load_catalog().check_all()


# ---------------------------------------------------------------------------
# the generation tool


def _make_catalog_module():
    spec = importlib.util.spec_from_file_location(
        "make_catalog", REPO / "tools" / "make_catalog.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_catalog_reproduces_the_shipped_data(tmp_path, capsys):
    out = tmp_path / "data"
    assert _make_catalog_module().main(["make_catalog.py", str(out)]) == 0
    written = sorted(p.relative_to(out) for p in out.rglob("*.json"))
    shipped = sorted(p.relative_to(DATA_DIR) for p in DATA_DIR.rglob("*.json"))
    assert written == shipped
    for rel in shipped:
        assert (out / rel).read_bytes() == (DATA_DIR / rel).read_bytes(), rel


def test_make_catalog_does_not_seal_a_broken_catalog(
    tmp_path, capsys, monkeypatch
):
    tool = _make_catalog_module()
    build_pairs = tool.build_pairs

    def off_torus_row(p):
        row = replace(p.table_rows[0], x=vec(1, 1, 1, 1))
        return replace(p, table_rows=(row,))

    for breaks, name, check in (
        (lambda p: replace(p, dim_gprime=11), "dim",
         "fixed-dimension-bookkeeping"),
        (off_torus_row, "row", "table-rows-in-torus"),
    ):
        def broken_pairs():
            return [
                breaks(p) if p.pair_id == "(su(2,2),sp(2,R))" else p
                for p in build_pairs()
            ]

        monkeypatch.setattr(tool, "build_pairs", broken_pairs)
        out = tmp_path / name
        assert tool.main(["make_catalog.py", str(out)]) == 1
        assert check in capsys.readouterr().err
        assert not (out / "meta.json").exists()
