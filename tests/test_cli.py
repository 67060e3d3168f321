from __future__ import annotations

import ast
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from linalg_oracle import eigenbasis

from branchdec import catalog, cli, involution
from branchdec.catalog import load_catalog, write_meta
from branchdec.cli import (
    EXIT_CLOSED_STDOUT,
    EXIT_OK,
    EXIT_UNKNOWN_ID,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    main,
)
from branchdec.decider import QUESTIONS
from branchdec.parabolic import enumerate_parabolics
from branchdec.root_core import vector_strings

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "branchdec" / "data"


def _tampered_catalog(tmp_path: Path) -> Path:
    root = tmp_path / "cat"
    shutil.copytree(DATA_DIR, root)
    victim = root / "pairs" / "_su_2_2__sp_2_R__.json"
    victim.write_text(victim.read_text() + "\n")
    return root


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_ok_even_for_negative_answers(capsys):
    code = main(
        ["check", "--pair", "swap:su(1,1)^2", "--X", "1,-1",
         "--question", "deco", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert json.loads(out)["answer"] is False


def test_exit_code_unknown_id(capsys):
    assert main(["pair", "--pair", "(e8,e7)"]) == EXIT_UNKNOWN_ID
    err = capsys.readouterr().err
    assert "unknown pair id" in err

    assert (
        main(["check", "--pair", "(e8,e7)", "--X", "1", "--question", "deco"])
        == EXIT_UNKNOWN_ID
    )


def test_exit_code_unsupported(capsys):
    code = main(
        ["check", "--pair", "(so(4,3),g2(R))", "--X", "0,0,1",
         "--question", "deco"]
    )
    err = capsys.readouterr().err
    assert code == EXIT_UNSUPPORTED
    assert err.startswith("unsupported:")
    assert "embedding record" in err


def test_exit_code_usage_errors(capsys):
    # argparse problems and operational errors both land on 1
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["pair"]) == EXIT_USAGE
    assert (
        main(["check", "--pair", "(su(2,2),sp(2,R))", "--X", "1,2",
              "--question", "deco"])
        == EXIT_USAGE
    )
    capsys.readouterr()

    code = main(["parabolic", "--algebra", "su(2,2)"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "parabolic needs --X (or --enumerate)" in err


@pytest.mark.parametrize("command", [
    ["verify"],
    ["parabolic", "--algebra", "su(2,2)", "--enumerate"],
    ["classify", "--pair", "(su(2,2),sp(2,R))"],
])
def test_max_rank_is_not_an_option(capsys, command):
    # the enumeration bound is the constant DEFAULT_MAX_RANK, not an option
    assert main([*command, "--max-rank", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --max-rank 1" in captured.err


def test_verify_takes_no_format(capsys):
    # the report is text only, so a --format it would ignore is refused
    for fmt in ("json", "text"):
        assert main(["verify", "--format", fmt]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --format {fmt}" in captured.err


def test_exit_code_bad_question_value(capsys):
    code = main(
        ["check", "--pair", "(su(2,2),sp(2,R))", "--X", "3,-1,-1,-1",
         "--question", "decide"]
    )
    assert code == EXIT_USAGE


def test_one_parser_serves_every_command(capsys):
    # the parser is built once per process; commands and usage errors
    # in a row print and exit as each would with a parser of its own
    commands = [
        ["check", "--pair", "(su(2,2),sp(2,R))", "--X=-1,3,-1,-1",
         "--question", "virtsym"],
        ["parabolic", "--algebra", "su(2,2)", "--X", "3,1,-1,-3"],
        ["check", "--pair", "(su(2,2),sp(2,R))", "--X", "3,-1,-1,-1",
         "--question", "decide"],
        ["classify", "--pair", "(so(2,2),so(2,1))", "--format", "json"],
        ["pair"],
        ["check", "--pair", "(su(2,2),sp(2,R))", "--X", "3,-1,-1,-1",
         "--question", "symtype", "--format", "json"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in commands:
        cli.build_arg_parser.cache_clear()
        fresh.append(run(argv))
    assert cli.build_arg_parser() is cli.build_arg_parser()
    shared = [run(argv) for argv in commands + commands]
    assert shared == fresh + fresh
    assert [code for code, _, _ in fresh] == [
        EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_USAGE, EXIT_OK]


def test_negative_leading_x_is_a_value(capsys):
    # argparse reads "-1,..." as an unknown flag unless told otherwise
    for x in ("-1,3,-1,-1", "-1/2,3/2,-1/2,-1/2"):
        code = main(
            ["check", "--pair", "(su(2,2),sp(2,R))", "--X", x,
             "--question", "deco", "--format", "json"]
        )
        assert code == EXIT_OK, capsys.readouterr().err
        payload = json.loads(capsys.readouterr().out)
        assert payload["inputs"]["x"] == x.split(",")


def test_x_takes_only_integer_and_fraction_literals(capsys):
    # an exponent is refused before Fraction can expand its power of ten;
    # a decimal point is refused too, and argparse reads "-0.5,..." as a flag
    for flag in ("--X=1e1000000,0,0,-1e1000000", "--X=0.5,-0.5,0,0"):
        code = main(["check", "--pair", "(su(2,2),sp(2,R))", flag,
                     "--question", "deco"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "bad rational literal" in captured.err
        assert captured.out == ""
    code = main(["check", "--pair", "(su(2,2),sp(2,R))",
                 "--X", "-0.5,0.5,0,0", "--question", "deco"])
    assert code == EXIT_USAGE
    assert "expected one argument" in capsys.readouterr().err


def test_tampered_catalog_is_refused(tmp_path, capsys):
    root = _tampered_catalog(tmp_path)
    code = main(["catalog", "--catalog", str(root)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "checksum mismatch" in err

    assert main(["catalog", "--catalog", str(root), "--force"]) == EXIT_OK


@pytest.mark.parametrize("command", ["catalog", "verify", "pair"])
def test_an_empty_catalog_path_is_refused(capsys, monkeypatch, command):
    # an empty --catalog names no directory; it used to load the packaged
    # data as if the flag were absent
    argv = [command, "--catalog", ""]
    if command == "pair":
        argv += ["--pair", "(su(2,2),sp(2,R))"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument --catalog: empty path\n"
    # an empty BRANCHDEC_CATALOG still means unset
    monkeypatch.setenv("BRANCHDEC_CATALOG", "")
    assert main(argv[:1] + argv[3:]) == EXIT_OK


# ---------------------------------------------------------------------------
# payloads


def test_catalog_listing(capsys):
    assert main(["catalog"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "su(2,2)" in out
    assert "(so(4,3),g2(R))" in out
    assert "derived pairs: theta:<algebra>, swap:<doubled algebra>" in out


def test_catalog_json_listing(capsys):
    assert main(["catalog", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["algebras"]) == 13
    assert len(payload["pairs"]) == 8


def test_pair_payload_involution(capsys):
    assert main(["pair", "--pair", "(su(2,2),sp(2,R))", "--format",
                 "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "involution"
    assert payload["dim_gprime"] == 10
    assert payload["dim_t_sigma"] == 2
    assert payload["dim_t_minus_sigma"] == 1
    assert len(payload["matrix"]) == 4


_SPLIT_TORUS_NOTE = (
    "the split torus part is zero; restriction to the fixed subgroup is "
    "automatically admissible"
)


def test_t_minus_sigma_dimension_on_every_involution_pair(capsys):
    # the pair payload's dim t^-sigma and deco's note that t^-sigma is
    # zero both agree with the oracle's basis of the -1 eigenspace, on
    # every stored involution pair and one pair of each derived family
    cat = load_catalog()
    seen = []
    for pid in (*cat.pair_ids(), "theta:so(4,3)", "theta:su(2,2)",
                "swap:su(1,1)^2"):
        pair = cat.pair(pid)
        if not isinstance(pair, involution.InvolutionData):
            continue
        dim = len(eigenbasis(pair, -1))
        seen.append((pid, dim))
        assert main(["pair", "--pair", pid, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim_t_minus_sigma"] == dim, pid
        for q in enumerate_parabolics(pair.base, dominant_only=True):
            x = ",".join(vector_strings(q.x))
            assert main(["check", "--pair", pid, f"--X={x}", "--question",
                         "deco", "--format", "json"]) == EXIT_OK
            notes = json.loads(capsys.readouterr().out)["notes"]
            assert (_SPLIT_TORUS_NOTE in notes) == (dim == 0), (pid, x)
    # both sides of the note are reached
    assert len(seen) == 10
    assert {dim == 0 for _, dim in seen} == {True, False}


def test_pair_payload_embedding(capsys):
    assert main(["pair", "--pair", "(so(4,3),g2(R))", "--format",
                 "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "embedding"
    assert payload["dim_gprime"] == 14
    assert len(payload["tprime_rows"]) == 2


def test_check_text_format(capsys):
    assert main(
        ["check", "--pair", "swap:su(1,1)^2", "--X", "1,-1",
         "--question", "deco", "--format", "text"]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "deco: false"
    assert "  note: " in out


def test_check_json_witness(capsys):
    assert main(
        ["check", "--pair", "(so(5,C),so(3,2))", "--X", "2,1",
         "--question", "deco", "--format", "json"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["answer"] is False
    assert payload["witness"]["point"] == ["0", "2"]


def test_parabolic_single(capsys):
    assert main(
        ["parabolic", "--algebra", "su(2,2)", "--X", "3,-1,-1,-1",
         "--format", "json"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_u"] == 3
    assert payload["rho_u"] == ["3/2", "-1/2", "-1/2", "-1/2"]


def test_parabolic_enumerate_counts(capsys):
    assert main(["parabolic", "--algebra", "su(2,2)",
                 "--enumerate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "75 parabolic classes for su(2,2)"

    assert main(["parabolic", "--algebra", "su(2,2)", "--enumerate",
                 "--dominant"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "26 parabolic classes for su(2,2)"


def test_parabolic_refuses_x_with_enumerate(capsys):
    code = main(["parabolic", "--algebra", "su(2,2)", "--enumerate",
                 "--X", "3,-1,-1,-1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "--X or --enumerate, not both" in captured.err


def test_parabolic_refuses_dominant_without_enumerate(capsys):
    code = main(["parabolic", "--algebra", "su(2,2)", "--dominant",
                 "--X", "3,-1,-1,-1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "--dominant needs --enumerate" in captured.err


def test_classify_golden_table(capsys):
    assert main(["classify", "--pair", "swap:su(1,1)^2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (
        "X\tdim_levi\tdim_u\tdeco\tadmissible\ttransitive\trho\t"
        "symtype\tvirtsym\n"
        "1,1\t2\t2\ttrue\ttrue\tfalse\tunsupported\ttrue\ttrue\n"
        "1,0\t4\t1\ttrue\ttrue\ttrue\ttrue\ttrue\ttrue\n"
        "1,-1\t2\t2\tfalse\tfalse\tfalse\tunsupported\ttrue\ttrue\n"
        "0,1\t4\t1\ttrue\ttrue\ttrue\ttrue\ttrue\ttrue\n"
        "0,0\t6\t0\ttrue\ttrue\ttrue\ttrue\ttrue\ttrue\n"
        "0,-1\t4\t1\ttrue\ttrue\ttrue\ttrue\ttrue\ttrue\n"
        "-1,1\t2\t2\tfalse\tfalse\tfalse\tunsupported\ttrue\ttrue\n"
        "-1,0\t4\t1\ttrue\ttrue\ttrue\ttrue\ttrue\ttrue\n"
        "-1,-1\t2\t2\ttrue\ttrue\tfalse\tunsupported\ttrue\ttrue\n"
    )


def test_classify_rejects_embedding_cells_gracefully(capsys):
    # embedding pairs have no momentum data, so those cells read
    # "unsupported" instead of aborting the sweep
    assert main(["classify", "--pair", "(so(4,3),g2(R))"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) > 10
    body = lines[1:]
    assert all(line.split("\t")[3] == "unsupported" for line in body)
    transitive_cells = {line.split("\t")[5] for line in body}
    assert transitive_cells == {"true", "false"}


# ---------------------------------------------------------------------------
# determinism


def test_check_output_is_byte_deterministic(capsys):
    argv = ["check", "--pair", "(su(2,2),sp(2,R))", "--X", "3,-1,-1,-1",
            "--question", "transitive", "--format", "json"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    # key order is part of the wire format
    assert list(json.loads(first)) == [
        "question", "answer", "equivalents", "witness", "inputs",
        "criterion", "notes",
    ]


def test_verify_passes_and_is_deterministic(capsys):
    assert main(["verify"]) == EXIT_OK
    first = capsys.readouterr()
    assert main(["verify"]) == EXIT_OK
    second = capsys.readouterr()

    assert first.out == second.out
    lines = first.out.splitlines()
    assert lines[0] == "catalog-integrity: PASS"
    assert lines[-1].startswith("verify: ")
    assert lines[-1].endswith("checks, all passed")
    assert all(line.endswith(": PASS") for line in lines[:-1])
    # timings go to stderr so they cannot perturb the report
    assert "ms" in first.err


def test_verify_fails_on_tampered_catalog(tmp_path, capsys):
    root = _tampered_catalog(tmp_path)
    code = main(["verify", "--catalog", str(root)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[0].startswith("catalog-integrity: FAIL")
    assert out.splitlines()[-1] == "verify: 1 check, 1 failed"


def _edited_sp2r_record(tmp_path: Path, edit) -> Path:
    root = tmp_path / "cat"
    shutil.copytree(DATA_DIR, root)
    victim = root / "pairs" / "_su_2_2__sp_2_R__.json"
    rec = json.loads(victim.read_text())
    edit(rec)
    victim.write_text(json.dumps(rec))
    return root


def _pair_without_matrix(tmp_path: Path) -> Path:
    return _edited_sp2r_record(tmp_path, lambda rec: rec.pop("matrix"))


def _pair_with_int_matrix(tmp_path: Path) -> Path:
    return _edited_sp2r_record(tmp_path, lambda rec: rec.update(matrix=5))


def test_malformed_pair_record_is_refused_not_a_traceback(tmp_path, capsys):
    root = _pair_without_matrix(tmp_path)
    code = main(["catalog", "--catalog", str(root), "--force"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "missing field 'matrix'" in captured.err
    assert captured.out == ""


def test_verify_reports_malformed_pair_record(tmp_path, capsys):
    root = _pair_without_matrix(tmp_path)
    code = main(["verify", "--catalog", str(root), "--force"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0].startswith("catalog-integrity: FAIL")
    assert "missing field 'matrix'" in lines[0]


def test_non_list_pair_field_is_refused_not_a_traceback(tmp_path, capsys):
    root = _pair_with_int_matrix(tmp_path)
    code = main(["catalog", "--catalog", str(root), "--force"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "_su_2_2__sp_2_R__.json: malformed field" in captured.err
    assert captured.out == ""


def test_verify_reports_non_list_pair_field(tmp_path, capsys):
    root = _pair_with_int_matrix(tmp_path)
    code = main(["verify", "--catalog", str(root), "--force"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0].startswith("catalog-integrity: FAIL")
    assert "_su_2_2__sp_2_R__.json: malformed field" in lines[0]
    assert lines[-1] == "verify: 1 check, 1 failed"


def _resealed_sp2r_with_dim_11(tmp_path: Path) -> Path:
    root = _edited_sp2r_record(
        tmp_path, lambda rec: rec.update(dim_gprime=11)
    )
    write_meta(root)
    return root


def test_a_broken_pair_refuses_only_the_commands_that_touch_it(
    tmp_path, capsys
):
    root = _resealed_sp2r_with_dim_11(tmp_path)
    untouched = [
        ["check", "--pair", "(so(4,3),g2(R))", "--X", "0,0,1",
         "--question", "transitive", "--format", "json"],
        ["pair", "--pair", "(su(2,2),sp(1,1))"],
        ["parabolic", "--algebra", "su(2,2)", "--X", "3,-1,-1,-1"],
        ["classify", "--pair", "(so(4),so(3))"],
    ]
    for argv in untouched:
        assert main(argv) == EXIT_OK
        pristine = capsys.readouterr().out
        assert main(argv + ["--catalog", str(root)]) == EXIT_OK
        assert capsys.readouterr().out == pristine, argv

    for argv in (
        ["check", "--pair", "(su(2,2),sp(2,R))", "--X", "3,-1,-1,-1",
         "--question", "transitive"],
        ["pair", "--pair", "(su(2,2),sp(2,R))"],
    ):
        assert main(argv + ["--catalog", str(root)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fixed-dimension-bookkeeping" in captured.err

    assert main(["verify", "--catalog", str(root)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("catalog-integrity: FAIL")
    assert "fixed-dimension-bookkeeping" in out[0]
    assert main(["catalog", "--catalog", str(root)]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def _resealed_sp2r_with_row_off_the_torus(tmp_path: Path) -> Path:
    def off_torus(rec):
        rec["table_rows"][0]["X"] = ["1", "1", "1", "1"]

    root = _edited_sp2r_record(tmp_path, off_torus)
    write_meta(root)
    return root


@pytest.mark.parametrize(("make_root", "error"), [
    (_resealed_sp2r_with_dim_11, "fixed-dimension-bookkeeping"),
    (_resealed_sp2r_with_row_off_the_torus, "table-rows-in-torus"),
], ids=["dim", "row"])
def test_verify_force_reports_a_broken_pair_and_still_ends_with_its_summary(
    tmp_path, capsys, make_root, error
):
    # --force admits an unsealed catalog and nothing more: the broken pair
    # fails the catalog check, with or without it, so no check of that
    # pair yields an answer, and the summary line still ends the report
    root = make_root(tmp_path)
    for flags in ([], ["--force"]):
        assert main(["verify", "--catalog", str(root), *flags]) == 1
        captured = capsys.readouterr()
        assert "error" not in captured.err
        assert captured.out.splitlines() == [
            f"catalog-integrity: FAIL (_su_2_2__sp_2_R__.json: "
            f"validation failed: {error})",
            "verify: 1 check, 1 failed",
        ]


@pytest.mark.parametrize(
    ("argv", "validations", "rebuilds"),
    [
        (["check", "--pair", "(su(2,2),sp(2,R))", "--X", "3,-1,-1,-1",
          "--question", "deco"], 1, 1),
        (["check", "--pair", "(so(4,3),g2(R))", "--X", "0,0,1",
          "--question", "rho"], 1, 1),
        (["parabolic", "--algebra", "su(2,2)", "--X", "3,-1,-1,-1"], 0, 1),
        (["catalog"], 8, 13),
    ],
    ids=["check-involution", "check-embedding", "parabolic", "catalog"],
)
def test_a_command_builds_only_the_records_it_reads(
    monkeypatch, capsys, argv, validations, rebuilds
):
    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)

    counting(involution, "validate_involution")
    counting(involution, "validate_embedding")
    counting(catalog, "build_root_datum")
    load_catalog()
    assert calls == Counter()

    assert main(argv) == EXIT_OK
    assert calls["validate_involution"] + calls["validate_embedding"] == (
        validations
    )
    assert calls["build_root_datum"] == rebuilds


# sha256 of the full `parabolic --enumerate --format json` stdout, captured
# when enumeration became a Weyl-group walk; the defining elements X are
# the canonical points w . (sum of fundamental coweights) scaled to coprime
# integers, so a change in the walk or in that scaling shows here
@pytest.mark.parametrize(
    ("algebra", "dominant", "faces", "digest"),
    [
        ("sp(2,R)", False, 17,
         "e168b6d176a847e59944175d7eef8fe15e36708dab376a77b5eac7592ad4eb3f"),
        ("sp(2,R)", True, 10,
         "fb9b63f1524354d3e0130f9cf175c05d11a3bbe038fcff82ea64f50191bf49cd"),
        ("su(2,2)", False, 75,
         "b2332e4daa457182e02adfee17f301560814f30a018b0dfb4ee982c74e084014"),
        ("su(2,2)", True, 26,
         "2cb7b01a97aea52d9ff81763958a82594e46d020a1a2bc1374892fb2a6a4f5de"),
    ],
    # the digest stays out of the test id, so a re-pin renames no test
    ids=["sp(2,R)-False-17", "sp(2,R)-True-10", "su(2,2)-False-75",
         "su(2,2)-True-26"],
)
def test_enumerated_x_values_are_pinned(
    capsys, algebra, dominant, faces, digest
):
    argv = ["parabolic", "--algebra", algebra, "--enumerate",
            "--format", "json"]
    assert main(argv + ["--dominant"] * dominant) == EXIT_OK
    out = capsys.readouterr().out
    assert len(json.loads(out)) == faces
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "branchdec.cli", "catalog"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "su(2,2)" in proc.stdout


def test_a_cold_check_imports_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since pytest itself imports both; together
    # they were about a third of a cold check's import time
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from branchdec import cli\n"
        "rc = cli.main(['check', '--pair', '(su(2,2),sp(2,R))',\n"
        "              '--X=3,-1,-1,-1', '--question', 'deco',\n"
        "              '--format', 'json'])\n"
        "print(rc, *sorted({'dataclasses', 'inspect'} & set(sys.modules)),\n"
        "      file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(DATA_DIR.parents[1])],
        capture_output=True,
        text=True,
    )
    assert json.loads(proc.stdout)["question"] == "deco"
    assert proc.stderr == f"{EXIT_OK}\n"


# full stdout of two deco verdicts, one per witness kind: the point
# g - sigma g of the first generator g that y = X + sigma X fails, and
# y itself where it separates
_DECO_MEETS_JSON = """\
{
  "question": "deco",
  "answer": false,
  "equivalents": [
    "deco-some-weakly-fair",
    "deco-all-weakly-fair",
    "admissible-some-weakly-fair",
    "admissible-all-weakly-fair",
    "associated-variety-containment"
  ],
  "witness": {
    "kind": "intersection-point",
    "point": [
      "1",
      "-1",
      "1",
      "-1"
    ],
    "cone_coefficients": [
      "0",
      "0",
      "1",
      "1"
    ]
  },
  "inputs": {
    "pair": "(su(2,2),sp(2,R))",
    "base": "su(2,2)",
    "x": [
      "1/2",
      "-3/2",
      "3/2",
      "-1/2"
    ]
  },
  "criterion": "the closed cone spanned by the noncompact weights of u meets the -1 eigenspace of the involution on the torus only at 0",
  "notes": [
    "answer is uniform over nonzero modules attached to q with parameter in the weakly fair range; no specific parameter enters the test"
  ]
}
"""

_DECO_MISSES_JSON = """\
{
  "question": "deco",
  "answer": true,
  "equivalents": [
    "deco-some-weakly-fair",
    "deco-all-weakly-fair",
    "admissible-some-weakly-fair",
    "admissible-all-weakly-fair",
    "associated-variety-containment"
  ],
  "witness": {
    "kind": "separating-functional",
    "functional": [
      "-4",
      "-4",
      "4",
      "4"
    ]
  },
  "inputs": {
    "pair": "(su(2,2),sp(2,R))",
    "base": "su(2,2)",
    "x": [
      "-1/2",
      "-3/2",
      "3/2",
      "1/2"
    ]
  },
  "criterion": "the closed cone spanned by the noncompact weights of u meets the -1 eigenspace of the involution on the torus only at 0",
  "notes": [
    "answer is uniform over nonzero modules attached to q with parameter in the weakly fair range; no specific parameter enters the test"
  ]
}
"""


# rho and transitive on the one embedding, whose restriction is the
# projection onto t', and rho on an involution pair whose restriction
# (I + sigma^T)/2 has entries 1/2
_G2_RHO_001_JSON = """\
{
  "question": "rho",
  "answer": true,
  "equivalents": [],
  "witness": {
    "kind": "rho-vectors",
    "rho_u_restricted": [
      "-5/6",
      "-5/6",
      "5/3"
    ],
    "rho_u_prime": [
      "-5/6",
      "-5/6",
      "5/3"
    ]
  },
  "inputs": {
    "pair": "(so(4,3),g2(R))",
    "base": "so(4,3)",
    "x": [
      "0",
      "0",
      "1"
    ]
  },
  "criterion": "rho of u, restricted to the subalgebra torus, equals rho of the induced nilradical u'",
  "notes": [
    "u' carries 5 restricted weights"
  ]
}
"""

_G2_RHO_100_JSON = """\
{
  "question": "rho",
  "answer": true,
  "equivalents": [],
  "witness": {
    "kind": "rho-vectors",
    "rho_u_restricted": [
      "5/3",
      "-5/6",
      "-5/6"
    ],
    "rho_u_prime": [
      "5/3",
      "-5/6",
      "-5/6"
    ]
  },
  "inputs": {
    "pair": "(so(4,3),g2(R))",
    "base": "so(4,3)",
    "x": [
      "1",
      "0",
      "0"
    ]
  },
  "criterion": "rho of u, restricted to the subalgebra torus, equals rho of the induced nilradical u'",
  "notes": [
    "u' carries 5 restricted weights"
  ]
}
"""

_G2_TRANSITIVE_100_JSON = """\
{
  "question": "transitive",
  "answer": true,
  "equivalents": [],
  "witness": {
    "kind": "dimension-count",
    "dim_gprime": 14,
    "dim_gprime_cap_q": 9,
    "dim_gprime_cap_levi": 4,
    "dim_g": 21,
    "dim_q": 16,
    "dim_u": 5
  },
  "inputs": {
    "pair": "(so(4,3),g2(R))",
    "base": "so(4,3)",
    "x": [
      "1",
      "0",
      "0"
    ]
  },
  "criterion": "dim g' - dim(g' cap l) equals 2 dim u, so the subgroup orbit of the base point in the flag manifold is open",
  "notes": [
    "orbit dimension 10, flag manifold dimension 10",
    "span identity dim g' - dim(g' cap q) == dim g - dim q: true",
    "induced parabolic dimension: 9"
  ]
}
"""

_SO21_RHO_11_JSON = """\
{
  "question": "rho",
  "answer": true,
  "equivalents": [],
  "witness": {
    "kind": "rho-vectors",
    "rho_u_restricted": [
      "1/2",
      "0"
    ],
    "rho_u_prime": [
      "1/2",
      "0"
    ]
  },
  "inputs": {
    "pair": "(so(2,2),so(2,1))",
    "base": "so(2,2)",
    "x": [
      "1",
      "1"
    ]
  },
  "criterion": "rho of u, restricted to the subalgebra torus, equals rho of the induced nilradical u'",
  "notes": [
    "u' carries 1 restricted weights"
  ]
}
"""

_PINNED_WITNESSES = [
    ("(su(2,2),sp(2,R))", "deco", "1/2,-3/2,3/2,-1/2", _DECO_MEETS_JSON),
    ("(su(2,2),sp(2,R))", "deco", "-1/2,-3/2,3/2,1/2", _DECO_MISSES_JSON),
    ("(so(4,3),g2(R))", "rho", "0,0,1", _G2_RHO_001_JSON),
    ("(so(4,3),g2(R))", "rho", "1,0,0", _G2_RHO_100_JSON),
    ("(so(4,3),g2(R))", "transitive", "1,0,0", _G2_TRANSITIVE_100_JSON),
    ("(so(2,2),so(2,1))", "rho", "1,1", _SO21_RHO_11_JSON),
]


@pytest.mark.parametrize(
    ("pair", "question", "x", "expected"),
    # each case is named by its X and its bytes, as the deco cases were
    [pytest.param(*case, id=f"{case[2]}-{case[3]}")
     for case in _PINNED_WITNESSES],
)
def test_check_json_witness_bytes_are_pinned(capsys, pair, question, x,
                                             expected):
    assert main(
        ["check", "--pair", pair, f"--X={x}",
         "--question", question, "--format", "json"]
    ) == EXIT_OK
    assert capsys.readouterr().out == expected


# admissible's chamber LP on its two kinds of answer: the point it finds,
# and the final basis when it finds none
_ADMISSIBLE_MEETS_JSON = """\
{
  "question": "admissible",
  "answer": false,
  "equivalents": [],
  "witness": {
    "kind": "intersection-point",
    "point": [
      "1/4",
      "-1/4",
      "1/4",
      "-1/4"
    ],
    "cone_coefficients": [
      "1/2",
      "1/4",
      "1/4",
      "0"
    ]
  },
  "inputs": {
    "pair": "(su(2,2),sp(2,R))",
    "base": "su(2,2)",
    "x": [
      "3",
      "-1",
      "1",
      "-3"
    ]
  },
  "criterion": "the closed cone spanned by the noncompact weights of u meets the dominant chamber of the restricted root system only at 0",
  "notes": [
    "answer is uniform over nonzero modules attached to q with parameter in the weakly fair range; no specific parameter enters the test",
    "chamber test intersects: true",
    "full subspace test intersects: true",
    "inconclusive by this test alone; the bounding cone may overshoot the true asymptotic support",
    "decisive for symmetric pairs via the subspace test, which reports discrete decomposability = false"
  ]
}
"""

_ADMISSIBLE_MISSES_JSON = """\
{
  "question": "admissible",
  "answer": true,
  "equivalents": [],
  "witness": {
    "kind": "infeasibility-basis",
    "basis": [
      5,
      6,
      1,
      8,
      9
    ]
  },
  "inputs": {
    "pair": "(su(2,2),sp(2,R))",
    "base": "su(2,2)",
    "x": [
      "1",
      "-1",
      "-3",
      "3"
    ]
  },
  "criterion": "the closed cone spanned by the noncompact weights of u meets the dominant chamber of the restricted root system only at 0",
  "notes": [
    "answer is uniform over nonzero modules attached to q with parameter in the weakly fair range; no specific parameter enters the test",
    "chamber test intersects: false",
    "full subspace test intersects: true"
  ]
}
"""


@pytest.mark.parametrize(
    ("x", "expected"),
    [("3,-1,1,-3", _ADMISSIBLE_MEETS_JSON),
     ("1,-1,-3,3", _ADMISSIBLE_MISSES_JSON)],
)
def test_check_json_lp_witness_bytes_are_pinned(capsys, x, expected):
    assert main(
        ["check", "--pair", "(su(2,2),sp(2,R))", f"--X={x}",
         "--question", "admissible", "--format", "json"]
    ) == EXIT_OK
    assert capsys.readouterr().out == expected


def _source_env() -> dict[str, str]:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(DATA_DIR.parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def test_verify_runs_under_python_O():
    # python -O strips assert statements; every certificate check must
    # still run and pass
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "branchdec.cli", "verify"],
        capture_output=True,
        text=True,
        env=_source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("all passed")
    # at a deco-false X the meet point is replayed, and admissible runs
    # its chamber LP and replays that point too
    for question in ("deco", "admissible"):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "branchdec.cli", "check",
             "--pair", "(su(2,2),sp(2,R))", "--X=1/2,-3/2,3/2,-1/2",
             "--question", question, "--format", "json"],
            capture_output=True,
            text=True,
            env=_source_env(),
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["answer"] is False, question
        assert payload["witness"]["kind"] == "intersection-point", question


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["classify", "--pair", "(su(2,2),sp(2,R))", "--format", "json"],
])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # stdout is a pipe whose read end is closed before the command
    # starts, so its first write, or the flush at the end, fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "branchdec.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_source_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_CLOSED_STDOUT == 141, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_no_check_is_stripped_by_python_O():
    # python -O drops assert statements, and a bare RuntimeError escapes
    # the CLI as a traceback; checks raise the package's own errors
    package = DATA_DIR.parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                    offenders.append(f"{path.name}:{node.lineno} RuntimeError")
    assert offenders == []


# ---------------------------------------------------------------------------
# seeded refusal sweep: whatever a record or argv holds, a command ends in
# an exit code, never a traceback

# reseed, or raise the case counts, only to add cases, never to drop a
# failing one
_SWEEP_SEED = 20261020
_SWEEP_RECORD_CASES = 120
_SWEEP_ARGV_CASES = 120
_DELETE = object()
_SWEEP_VALUES = (_DELETE, None, True, 10**30, 2.5, "1/0", [], {}, "su(2000)")
# each command's flags, and the values the sweep gives a flag: valid ones
# and malformed ones; verify reads no flag value, and runs in the record
# cases
_SWEEP_FLAGS = {
    "catalog": ("--format", "--force"),
    "pair": ("--pair", "--format", "--force"),
    "parabolic": ("--algebra", "--X", "--enumerate", "--dominant", "--format"),
    "check": ("--pair", "--X", "--question", "--format"),
    "classify": ("--pair", "--format"),
}
_SWEEP_FLAG_VALUES = {
    "--pair": ("(su(2,2),sp(2,R))", "(so(4,3),g2(R))", "(sl(4,C),sp(2,C))",
               "swap:su(1,1)^2", "theta:su(2,2)", "theta:", "swap:su(2,2)",
               "theta:su(2000)", "(e8,e7)"),
    "--algebra": ("su(2,2)", "g2(R)", "su(1,1)^2", "so(5,C)", "su(2000)",
                  "e8"),
    "--X": ("1,-1,0,0", "1/2,-3/2,3/2,-1/2", "1,-1", "-1/2,0", "1,0,0",
            "1,1,1,1", "1/0", "1e3", "nan", "\uff11", "9" * 5000, ""),
    "--question": (*QUESTIONS, "nope"),
    "--format": ("json", "text", "xml"),
}
_SWEEP_JUNK = ("", "1", "-1", "--max-rank", "--X", "nope")


def _sweep_argv(rng):
    """One command with each of its flags present or not, a flag's value
    drawn from its own pool or from the junk, and at times a stray word."""
    command = rng.choice(sorted(_SWEEP_FLAGS))
    argv = [command]
    for flag in _SWEEP_FLAGS[command]:
        if rng.random() < 0.7:
            argv.append(flag)
            if flag in _SWEEP_FLAG_VALUES:
                pool = (_SWEEP_FLAG_VALUES[flag] if rng.random() < 0.9
                        else _SWEEP_JUNK)
                argv.append(rng.choice(pool))
    if rng.random() < 0.1:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(_SWEEP_JUNK))
    return argv


def _sweep_target(rng, rec):
    """A field of a JSON record picked by a random walk from its top: its
    container and its key or index."""
    container = rec
    while True:
        key = (rng.choice(sorted(container)) if isinstance(container, dict)
               else rng.randrange(len(container)))
        value = container[key]
        if not isinstance(value, (dict, list)) or not value or rng.random() < 0.5:
            return container, key
        container = value


def _sweep_record_case(rng, files):
    """argv for one command on a catalog with one field of one record
    mutated, and the file's mutated text."""
    rel = rng.choice(sorted(files))
    rec = json.loads(files[rel])
    record_id = rec["id"]
    container, key = _sweep_target(rng, rec)
    value = rng.choice(_SWEEP_VALUES)
    if value is _DELETE:
        del container[key]
    else:
        container[key] = value
    if rel.startswith("algebras"):
        commands = [["parabolic", "--algebra", record_id, "--enumerate",
                     "--dominant"]]
    else:
        commands = [["pair", "--pair", record_id],
                    ["classify", "--pair", record_id, "--format", "json"]]
    argv = rng.choice([["catalog"], ["verify"], *commands])
    return rel, json.dumps(rec), argv


def test_a_seeded_refusal_sweep_ends_every_command_in_an_exit_code(
    tmp_path, capsys
):
    rng = random.Random(_SWEEP_SEED)
    root = tmp_path / "cat"
    shutil.copytree(DATA_DIR, root)
    files = {str(p.relative_to(root)): p.read_text()
             for p in sorted(root.glob("*/*.json"))}
    meta = (root / "meta.json").read_text()
    cases = []
    for _ in range(_SWEEP_RECORD_CASES):
        rel, text, argv = _sweep_record_case(rng, files)
        cases.append((rel, text, argv + ["--catalog", str(root)]))
    for _ in range(_SWEEP_ARGV_CASES):
        cases.append((None, None, _sweep_argv(rng)))

    start = time.perf_counter()
    escaped = []
    for rel, text, argv in cases:
        if rel is not None:
            (root / rel).write_text(text)
            write_meta(root)
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            code = repr(exc)
        capsys.readouterr()
        if code not in (EXIT_OK, EXIT_USAGE, EXIT_UNKNOWN_ID, EXIT_UNSUPPORTED):
            escaped.append((rel, text, argv, code))
        if rel is not None:
            (root / rel).write_text(files[rel])
            (root / "meta.json").write_text(meta)
    assert escaped == []
    assert time.perf_counter() - start < 2.0
