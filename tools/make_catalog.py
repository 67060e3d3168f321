"""Regenerate the shipped catalog files.

Run from the repository root:

    python tools/make_catalog.py [output-dir]

Writes algebras/, pairs/ and meta.json, whose index lists each record
file's path, sha256 and id (and a pair's kind and base) and whose
checksum is the sha256 of that index.  The default output directory is
the package data directory, so a plain run refreshes what ships.  Every
record is built and validated before meta.json seals the files; if one
fails, the run exits 1 without writing meta.json.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from branchdec.catalog import (
    CATALOG_VERSION,
    CatalogError,
    index_catalog,
    index_files,
    seal,
    table_rows_to_json,
    write_meta,
)
from branchdec.involution import EmbeddingRecord, InvolutionData, TableRow
from branchdec.root_core import build_root_datum, vector_strings

ALGEBRAS = [
    ("su(1,1)", "su(1,1)"),
    ("su(2)", "su(2)"),
    ("su(1,1)^2", "su(1,1)+su(1,1)"),
    ("su(2,2)", "su(2,2)"),
    ("su(4)", "su(4)"),
    ("sp(2,R)", "sp(2,R)"),
    ("so(2,2)", "so(2,2)"),
    ("so(4)", "so(4)"),
    ("so(4,3)", "so(4,3)"),
    ("so(5,C)", "so(5,C)"),
    ("sl(2,C)", "sl(2,C)"),
    ("sl(4,C)", "sl(4,C)"),
    ("g2(R)", "g2(R)"),
]


def V(*xs):
    return tuple(Fraction(x) for x in xs)


def M(*rows):
    return tuple(V(*r) for r in rows)


def build_pairs() -> list[InvolutionData | EmbeddingRecord]:
    su22 = build_root_datum("su(2,2)")
    su4 = build_root_datum("su(4)")
    sl4c = build_root_datum("sl(4,C)")
    so22 = build_root_datum("so(2,2)")
    so4 = build_root_datum("so(4)")
    so5c = build_root_datum("so(5,C)")
    so43 = build_root_datum("so(4,3)")

    # block swap composed with a global sign; fixes the split symplectic form
    m_swap_neg = M((0, 0, -1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, -1, 0, 0))
    # adjacent transpositions with a sign; fixes the quaternionic form
    m_adj_neg = M((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0))

    pairs: list[InvolutionData | EmbeddingRecord] = []
    pairs.append(
        InvolutionData(
            base=su22,
            matrix=m_swap_neg,
            eps=tuple(
                ("p", w, 1)
                for w in (
                    V(1, 0, -1, 0),
                    V(-1, 0, 1, 0),
                    V(0, 1, 0, -1),
                    V(0, -1, 0, 1),
                )
            ),
            zero_weight_fixed_dim=0,
            dim_gprime=10,
            label="sp(2,R) in su(2,2)",
            pair_id="(su(2,2),sp(2,R))",
            table_rows=(TableRow(V(3, -1, -1, -1), "u(1,2)"),),
        )
    )
    pairs.append(
        InvolutionData(
            base=su22,
            matrix=m_adj_neg,
            eps=tuple(
                ("k", w, 1)
                for w in (
                    V(1, -1, 0, 0),
                    V(-1, 1, 0, 0),
                    V(0, 0, 1, -1),
                    V(0, 0, -1, 1),
                )
            ),
            zero_weight_fixed_dim=0,
            dim_gprime=10,
            label="sp(1,1) in su(2,2)",
            pair_id="(su(2,2),sp(1,1))",
            table_rows=(TableRow(V(3, -1, -1, -1), "u(1,2)"),),
        )
    )
    pairs.append(
        InvolutionData(
            base=su4,
            matrix=m_swap_neg,
            eps=tuple(
                ("k", w, 1)
                for w in (
                    V(1, 0, -1, 0),
                    V(-1, 0, 1, 0),
                    V(0, 1, 0, -1),
                    V(0, -1, 0, 1),
                )
            ),
            zero_weight_fixed_dim=0,
            dim_gprime=10,
            label="sp(2) in su(4)",
            pair_id="(su(4),sp(2))",
            table_rows=(TableRow(V(3, -1, -1, -1), "u(3)"),),
        )
    )
    pairs.append(
        InvolutionData(
            base=sl4c,
            matrix=m_swap_neg,
            eps=tuple(
                (part, w, 1)
                for part in ("k", "p")
                for w in (
                    V(1, 0, -1, 0),
                    V(-1, 0, 1, 0),
                    V(0, 1, 0, -1),
                    V(0, -1, 0, 1),
                )
            ),
            zero_weight_fixed_dim=2,
            dim_gprime=20,
            label="sp(2,C) in sl(4,C)",
            pair_id="(sl(4,C),sp(2,C))",
            table_rows=(TableRow(V(3, -1, -1, -1), "gl(3,C)"),),
        )
    )
    pairs.append(
        InvolutionData(
            base=so22,
            matrix=M((1, 0), (0, -1)),
            eps=(),
            zero_weight_fixed_dim=0,
            dim_gprime=3,
            label="so(2,1) in so(2,2)",
            pair_id="(so(2,2),so(2,1))",
            table_rows=(TableRow(V(1, 1), "u(1,1)"),),
        )
    )
    pairs.append(
        InvolutionData(
            base=so4,
            matrix=M((1, 0), (0, -1)),
            eps=(),
            zero_weight_fixed_dim=0,
            dim_gprime=3,
            label="so(3) in so(4)",
            pair_id="(so(4),so(3))",
            table_rows=(TableRow(V(1, 1), "u(2)"),),
        )
    )
    pairs.append(
        InvolutionData(
            base=so5c,
            matrix=M((-1, 0), (0, -1)),
            eps=(),
            zero_weight_fixed_dim=2,
            dim_gprime=10,
            label="so(3,2) in so(5,C)",
            pair_id="(so(5,C),so(3,2))",
            table_rows=(),
        )
    )
    pairs.append(
        EmbeddingRecord(
            base=so43,
            tprime_rows=(V(1, -1, 0), V(1, 1, -2)),
            extra_zero_dim=0,
            dim_gprime=14,
            label="g2(R) in so(4,3)",
            pair_id="(so(4,3),g2(R))",
            table_rows=(
                TableRow(V(0, 0, 1), "so(4,1)+so(2)"),
                TableRow(V(1, 0, 0), "so(2)+so(2,3)"),
            ),
        )
    )
    return pairs


# ---------------------------------------------------------------------------
# the record encoders the loader in branchdec.catalog decodes


def _ser_rows(rows) -> list[list[str]]:
    return [vector_strings(r) for r in rows]


def algebra_to_json(algebra_id: str, builder: str) -> dict:
    return {"id": algebra_id, "builder": builder}


def involution_to_json(inv: InvolutionData, base_id: str) -> dict:
    return {
        "id": inv.pair_id,
        "kind": "involution",
        "base": base_id,
        "label": inv.label,
        "matrix": _ser_rows(inv.matrix),
        "eps": [
            {"part": p, "weight": vector_strings(w), "sign": s}
            for p, w, s in inv.eps
        ],
        "zero_weight_fixed_dim": inv.zero_weight_fixed_dim,
        "dim_gprime": inv.dim_gprime,
        "table_rows": table_rows_to_json(inv.table_rows),
    }


def embedding_to_json(rec: EmbeddingRecord, base_id: str) -> dict:
    return {
        "id": rec.pair_id,
        "kind": "embedding",
        "base": base_id,
        "label": rec.label,
        "tprime_rows": _ser_rows(rec.tprime_rows),
        "extra_zero_dim": rec.extra_zero_dim,
        "dim_gprime": rec.dim_gprime,
        "table_rows": table_rows_to_json(rec.table_rows),
    }


def file_name(some_id: str) -> str:
    keep = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    out = []
    for ch in some_id:
        out.append(ch if ch in keep else "_")
    return "".join(out) + ".json"


def dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        root = Path(argv[1])
    else:
        root = Path(__file__).resolve().parent.parent / "src/branchdec/data"
    (root / "algebras").mkdir(parents=True, exist_ok=True)
    (root / "pairs").mkdir(parents=True, exist_ok=True)

    for algebra_id, builder in ALGEBRAS:
        dump(root / "algebras" / file_name(algebra_id),
             algebra_to_json(algebra_id, builder))

    for pair in build_pairs():
        # every base is built by the builder of the same name as its id
        base_id = pair.base.name
        if isinstance(pair, InvolutionData):
            payload = involution_to_json(pair, base_id)
        else:
            payload = embedding_to_json(pair, base_id)
        dump(root / "pairs" / file_name(pair.pair_id), payload)

    try:
        index = index_files(root)
        index_catalog(root, index, CATALOG_VERSION, seal(index)).check_all()
    except CatalogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_meta(root, index)
    print(f"wrote catalog to {root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
