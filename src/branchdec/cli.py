"""Command line interface.

Exit codes: 0 for a completed run (boolean answers are payload, never
process status), 1 for malformed input, broken catalog data or a
certificate that fails its own check, 2 for an unknown algebra or pair id,
3 for questions the data cannot support or enumeration beyond the rank
bound, 141 when the reader of stdout closed it before the output was
written (the shell's code for a process killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from pathlib import Path

from .catalog import (
    CatalogBundle,
    CatalogError,
    UnknownIdError,
    load_catalog,
    table_rows_to_json,
)
from .cone_kernel import PointednessError
from .decider import (
    QUESTIONS,
    CertificateError,
    Query,
    answer_question,
    discretely_decomposable,
    rho_compat_check,
    transitive_check,
)
from .involution import (
    InvolutionData,
    InvolutionError,
    build_theta_involution,
)
from .parabolic import (
    UnsupportedQuery,
    build_parabolic,
    enumerate_parabolics,
    is_symmetric_type,
    is_virtually_symmetric_type,
)
from .root_core import (
    DatumError,
    format_vector,
    parse_vector,
    vector_strings,
    vneg,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNKNOWN_ID = 2
EXIT_UNSUPPORTED = 3
EXIT_CLOSED_STDOUT = 141

# malformed input, broken catalog data or a certificate that fails its
# own check: exit 1, and a failed check in verify
_DATA_ERRORS = (CatalogError, CertificateError, DatumError, InvolutionError,
                PointednessError, ValueError)


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes any "-..." that is not a plain negative number for
        # a flag; read a comma separated list of the rationals as_fraction
        # accepts, such as "-1,3,-1,-1" or "-1/2,0", as a value too
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?(,[+-]?\d+(/\d+)?)*$", re.ASCII
        )

    # argparse exits with its own code on bad flags; route through ours
    def error(self, message):
        raise _ArgumentError(message)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2)


def _catalog_dir(text: str) -> Path:
    """A --catalog value; an empty one names no directory."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return Path(text)


def _load(ns) -> CatalogBundle:
    return load_catalog(ns.catalog, force=ns.force)


# ---------------------------------------------------------------------------
# subcommands


def cmd_catalog(ns) -> int:
    cat = _load(ns)
    cat.check_all()
    if ns.format == "json":
        payload = {
            "version": cat.version,
            "checksum": cat.checksum,
            "algebras": cat.algebra_ids(),
            "pairs": cat.pair_ids(),
        }
        print(_dump_json(payload))
        return EXIT_OK
    print(f"catalog version {cat.version}")
    print(f"checksum {cat.checksum}")
    print("algebras:")
    for a in cat.algebra_ids():
        d = cat.algebra(a)
        print(f"  {a}  dim {d.dim_g}  rank {d.dim_t}")
    print("pairs:")
    for p in cat.pair_ids():
        pair = cat.pair(p)
        print(f"  {p}  dim' {pair.dim_gprime}")
    print("derived pairs: theta:<algebra>, swap:<doubled algebra>")
    return EXIT_OK


def _pair_payload(pair) -> dict:
    if isinstance(pair, InvolutionData):
        return {
            "id": pair.pair_id,
            "kind": "involution",
            "base": pair.base.name,
            "label": pair.label,
            "matrix": [vector_strings(row) for row in pair.matrix],
            "eps_entries": len(pair.eps),
            "zero_weight_fixed_dim": pair.zero_weight_fixed_dim,
            "dim_gprime": pair.dim_gprime,
            "dim_t_sigma": pair.dim_t_sigma,
            "dim_t_minus_sigma": pair.base.dim_t - pair.dim_t_sigma,
            "table_rows": table_rows_to_json(pair.table_rows),
        }
    # otherwise an EmbeddingRecord
    return {
        "id": pair.pair_id,
        "kind": "embedding",
        "base": pair.base.name,
        "label": pair.label,
        "tprime_rows": [vector_strings(row) for row in pair.tprime_rows],
        "extra_zero_dim": pair.extra_zero_dim,
        "dim_gprime": pair.dim_gprime,
        "table_rows": table_rows_to_json(pair.table_rows),
    }


def cmd_pair(ns) -> int:
    cat = _load(ns)
    pair = cat.pair(ns.pair)
    payload = _pair_payload(pair)
    if ns.format == "json":
        print(_dump_json(payload))
        return EXIT_OK
    print(f"{payload['id']}  ({payload['kind']})")
    print(f"  label: {payload['label']}")
    print(f"  base: {payload['base']}")
    print(f"  dim g': {payload['dim_gprime']}")
    if payload["kind"] == "involution":
        print("  matrix rows:")
        for row in payload["matrix"]:
            print("    " + " ".join(row))
        print(f"  sign entries: {payload['eps_entries']}")
        print(f"  dim t^sigma: {payload['dim_t_sigma']}"
              f"  dim t^-sigma: {payload['dim_t_minus_sigma']}")
    else:
        print("  subalgebra torus rows:")
        for row in payload["tprime_rows"]:
            print("    " + " ".join(row))
    for row in payload["table_rows"]:
        print(f"  table row: X={','.join(row['X'])}  levi {row['levi']}")
    return EXIT_OK


def cmd_parabolic(ns) -> int:
    if ns.enumerate and ns.x is not None:
        raise DatumError("parabolic takes --X or --enumerate, not both")
    if ns.dominant and not ns.enumerate:
        raise DatumError("parabolic --dominant needs --enumerate")
    cat = _load(ns)
    base = cat.algebra(ns.algebra)
    if ns.enumerate:
        qs = enumerate_parabolics(base, dominant_only=ns.dominant)
        if ns.format == "json":
            print(_dump_json([q.describe() for q in qs]))
            return EXIT_OK
        print(f"{len(qs)} parabolic classes for {base.name}")
        for q in qs:
            d = q.describe()
            print(f"  X={','.join(d['X'])}  dim l {d['dim_levi']}"
                  f"  dim u {d['dim_u']}  S {d['S']}")
        return EXIT_OK
    if ns.x is None:
        raise DatumError("parabolic needs --X (or --enumerate)")
    q = build_parabolic(base, parse_vector(ns.x, expect_dim=base.ambient_dim))
    d = q.describe()
    d["symmetric_type"] = is_symmetric_type(q)
    d["virtually_symmetric_type"] = is_virtually_symmetric_type(q)
    if ns.format == "json":
        print(_dump_json(d))
        return EXIT_OK
    print(f"parabolic of {base.name} at X={','.join(d['X'])}")
    for key in ("dim_levi", "dim_u", "u_compact", "u_noncompact", "S"):
        print(f"  {key}: {d[key]}")
    print(f"  rho_u: {','.join(d['rho_u'])}")
    print(f"  symmetric type: {d['symmetric_type']}")
    print(f"  virtually symmetric: {d['virtually_symmetric_type']}")
    return EXIT_OK


def cmd_check(ns) -> int:
    cat = _load(ns)
    pair = cat.pair(ns.pair)
    x = parse_vector(ns.x, expect_dim=pair.base.ambient_dim)
    q = build_parabolic(pair.base, x)
    verdict = answer_question(Query(pair, q), ns.question)
    payload = verdict.to_json_dict()
    if ns.format == "text":
        print(f"{verdict.question}: {str(verdict.answer).lower()}")
        for note in verdict.notes:
            print(f"  note: {note}")
    else:
        print(_dump_json(payload))
    return EXIT_OK


def _classify_cell(row: Query, question: str) -> str:
    try:
        verdict = answer_question(row, question)
    except UnsupportedQuery:
        return "unsupported"
    return str(verdict.answer).lower()


def cmd_classify(ns) -> int:
    cat = _load(ns)
    pair = cat.pair(ns.pair)
    qs = enumerate_parabolics(pair.base, dominant_only=True)
    rows = []
    for q in qs:
        # one Query per row: its questions share the meet, the member
        # signs and the transitive verdict
        row = Query(pair, q)
        cells = {c: _classify_cell(row, c) for c in QUESTIONS}
        rows.append({
            "X": format_vector(q.x),
            "dim_levi": q.dim_levi,
            "dim_u": q.dim_u,
            **cells,
        })
    if ns.format == "json":
        print(_dump_json({"pair": ns.pair, "rows": rows}))
        return EXIT_OK
    header = ["X", "dim_levi", "dim_u", *QUESTIONS]
    print("\t".join(header))
    for row in rows:
        print("\t".join(str(row[h]) for h in header))
    return EXIT_OK


def _table_row_check(pair, x) -> tuple[bool, str]:
    # rho reads the transitive verdict of the same Query
    row = Query(pair, build_parabolic(pair.base, x))
    t = transitive_check(row)
    r = rho_compat_check(row)
    return t.answer and r.answer, ""


def _theta_sweep_check(theta, qs) -> tuple[bool, str]:
    bad = sum(not discretely_decomposable(Query(theta, q)).answer
              for q in qs)
    return bad == 0, "" if bad == 0 else f"{bad} failures"


def _verify_checks(cat: CatalogBundle):
    """Yield (name, check) pairs in a fixed order; check() returns
    (passed, detail) and may raise."""
    for pid in cat.pair_ids():
        pair = cat.pair(pid)
        for row in pair.table_rows:
            for x in (row.x, vneg(row.x)):
                yield (
                    f"table-row {pid} levi {row.levi} X={format_vector(x)}",
                    functools.partial(_table_row_check, pair, x),
                )
    for aid in cat.algebra_ids():
        base = cat.algebra(aid)
        if base.dim_t > 3:
            continue
        theta = build_theta_involution(base)
        qs = enumerate_parabolics(base)
        yield (
            f"theta-sweep {aid} ({len(qs)} parabolics)",
            functools.partial(_theta_sweep_check, theta, qs),
        )


def cmd_verify(ns) -> int:
    """Each check prints one line; a check that raises fails with the
    error as its detail, and the summary line always ends the report."""
    try:
        cat = _load(ns)
        cat.check_all()
    except CatalogError as exc:
        print(f"catalog-integrity: FAIL ({exc})")
        print("verify: 1 check, 1 failed")
        return 1
    print("catalog-integrity: PASS")
    total, failed = 1, 0
    # time the lazy production of each check too, not just its run
    t0 = time.monotonic()
    for name, check in _verify_checks(cat):
        try:
            ok, detail = check()
        except (UnsupportedQuery, *_DATA_ERRORS) as exc:
            ok, detail = False, str(exc)
        elapsed = (time.monotonic() - t0) * 1000
        total += 1
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{name}: {tag}{suffix}")
        if not ok:
            failed += 1
        print(f"  [{name}] {elapsed:.1f} ms", file=sys.stderr)
        t0 = time.monotonic()
    if failed:
        print(f"verify: {total} checks, {failed} failed")
        return 1
    print(f"verify: {total} checks, all passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


@functools.cache
def build_arg_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every command reuses it."""
    parser = _Parser(prog="branchdec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, formats: bool = True) -> None:
        p.add_argument("--catalog", type=_catalog_dir, default=None,
                       help="catalog directory (default: packaged data or "
                            "BRANCHDEC_CATALOG)")
        p.add_argument("--force", action="store_true",
                       help="load the catalog even if its checksum does not "
                            "match")
        if formats:
            p.add_argument("--format", choices=("json", "text"),
                           default="text")

    p = sub.add_parser("catalog", help="list catalog contents")
    common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("pair", help="show one pair record")
    common(p)
    p.add_argument("--pair", required=True)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("parabolic", help="inspect or enumerate parabolics")
    common(p)
    p.add_argument("--algebra", required=True)
    p.add_argument("--X", dest="x", default=None,
                   help="defining element, comma separated rationals")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--dominant", action="store_true")
    p.set_defaults(func=cmd_parabolic)

    p = sub.add_parser("check", help="answer one question for one parabolic")
    common(p)
    p.add_argument("--pair", required=True)
    p.add_argument("--X", dest="x", required=True)
    p.add_argument("--question", required=True, choices=QUESTIONS)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify",
                       help="all questions for all dominant parabolics")
    common(p)
    p.add_argument("--pair", required=True)
    p.set_defaults(func=cmd_classify)

    # the report is text only, so verify takes no --format
    p = sub.add_parser("verify", help="run the catalog verification report")
    common(p, formats=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        ns = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = ns.func(ns)
        sys.stdout.flush()  # a closed stdout shows here at the latest
        return code
    except BrokenPipeError:
        # stdout now writes to devnull, so the flush at exit is quiet
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except UnknownIdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_ID
    except UnsupportedQuery as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
