"""Catalog files: algebras, pairs, integrity metadata.

Each algebra file stores both a builder expression and the expanded
datum; the loader rebuilds from the expression and refuses silently
edited files.  Pair files hold involution or embedding records keyed to
a base algebra.  theta: and swap: pairs are synthesised on demand rather
than stored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .involution import (
    EmbeddingRecord,
    InvolutionData,
    TableRow,
    build_swap_involution,
    build_theta_involution,
    restricted_roots,
    # unused here; the benchmark tracer checks that this module binds it
    validate_involution,
)
from .root_core import (
    RootDatum,
    Vec,
    WeightMultiset,
    build_root_datum,
    vec_from,
)

CATALOG_VERSION = "1"
ENV_CATALOG = "BRANCHDEC_CATALOG"


class CatalogError(RuntimeError):
    """Integrity or validation failure while loading catalog files."""


class UnknownIdError(CatalogError):
    """Requested algebra or pair id does not exist."""


def default_catalog_dir() -> Path:
    env = os.environ.get(ENV_CATALOG)
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "data"


# ---------------------------------------------------------------------------
# serialization shared by the loader and the generation tool


def _ser_vec(v: Vec) -> list[str]:
    return [str(c) for c in v]


def _ser_rows(rows) -> list[list[str]]:
    return [_ser_vec(r) for r in rows]


def _table_rows_to_json(rows: tuple[TableRow, ...]) -> list[dict]:
    return [{"X": _ser_vec(r.x), "levi": r.levi} for r in rows]


def _table_rows_from_json(items) -> tuple[TableRow, ...]:
    return tuple(TableRow(vec_from(it["X"]), str(it["levi"])) for it in items)


def algebra_to_json(algebra_id: str, builder: str) -> dict:
    datum = build_root_datum(builder)
    datum = dataclasses.replace(datum, name=algebra_id)
    return {"id": algebra_id, "builder": builder, "datum": datum.to_dict()}


def involution_to_json(inv: InvolutionData, base_id: str) -> dict:
    out = {
        "id": inv.pair_id,
        "kind": "involution",
        "base": base_id,
        "label": inv.label,
        "matrix": _ser_rows(inv.matrix),
        "eps": [
            {"part": p, "weight": _ser_vec(w), "sign": s}
            for p, w, s in inv.eps
        ],
        "zero_weight_fixed_dim": inv.zero_weight_fixed_dim,
        "dim_gprime": inv.dim_gprime,
        "table_rows": _table_rows_to_json(inv.table_rows),
    }
    if inv.declared_restricted_positive is not None:
        out["declared_restricted_positive"] = [
            {"weight": _ser_vec(w), "mult": m}
            for w, m in inv.declared_restricted_positive
        ]
    else:
        out["declared_restricted_positive"] = None
    return out


def embedding_to_json(rec: EmbeddingRecord, base_id: str) -> dict:
    return {
        "id": rec.pair_id,
        "kind": "embedding",
        "base": base_id,
        "label": rec.label,
        "tprime_rows": _ser_rows(rec.tprime_rows),
        "extra_zero_dim": rec.extra_zero_dim,
        "dim_gprime": rec.dim_gprime,
        "table_rows": _table_rows_to_json(rec.table_rows),
    }


def _involution_from_json(rec: dict, base: RootDatum) -> InvolutionData:
    declared = rec.get("declared_restricted_positive")
    return InvolutionData(
        base=base,
        matrix=tuple(vec_from(r) for r in rec["matrix"]),
        eps=tuple(
            (str(e["part"]), vec_from(e["weight"]), int(e["sign"]))
            for e in rec["eps"]
        ),
        zero_weight_fixed_dim=int(rec["zero_weight_fixed_dim"]),
        dim_gprime=int(rec["dim_gprime"]),
        label=str(rec["label"]),
        pair_id=str(rec["id"]),
        table_rows=_table_rows_from_json(rec.get("table_rows", [])),
        declared_restricted_positive=(
            None
            if declared is None
            else tuple(
                (vec_from(e["weight"]), int(e["mult"])) for e in declared
            )
        ),
    )


def _embedding_from_json(rec: dict, base: RootDatum) -> EmbeddingRecord:
    return EmbeddingRecord(
        base=base,
        tprime_rows=tuple(vec_from(r) for r in rec["tprime_rows"]),
        extra_zero_dim=int(rec["extra_zero_dim"]),
        dim_gprime=int(rec["dim_gprime"]),
        label=str(rec["label"]),
        pair_id=str(rec["id"]),
        table_rows=_table_rows_from_json(rec.get("table_rows", [])),
    )


# ---------------------------------------------------------------------------
# integrity


def catalog_files(root: Path) -> list[Path]:
    files = sorted((root / "algebras").glob("*.json"))
    files += sorted((root / "pairs").glob("*.json"))
    return files


def compute_checksum(root: Path) -> str:
    h = hashlib.sha256()
    for path in catalog_files(root):
        h.update(path.name.encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# bundle


@dataclass(frozen=True)
class CatalogBundle:
    root: Path
    version: str
    checksum: str
    algebras: Mapping[str, RootDatum]
    builders: Mapping[str, str]
    stored_pairs: Mapping[str, InvolutionData | EmbeddingRecord]

    def algebra_ids(self) -> list[str]:
        return sorted(self.algebras)

    def pair_ids(self) -> list[str]:
        return sorted(self.stored_pairs)

    def algebra(self, algebra_id: str) -> RootDatum:
        try:
            return self.algebras[algebra_id]
        except KeyError:
            raise UnknownIdError(f"unknown algebra id {algebra_id!r}") from None

    def pair(self, pair_id: str) -> InvolutionData | EmbeddingRecord:
        if pair_id in self.stored_pairs:
            return self.stored_pairs[pair_id]
        if pair_id.startswith("theta:"):
            return build_theta_involution(self.algebra(pair_id[6:]))
        if pair_id.startswith("swap:"):
            return self._swap_pair(pair_id[5:])
        raise UnknownIdError(f"unknown pair id {pair_id!r}")

    def _swap_pair(self, algebra_id: str) -> InvolutionData:
        base = self.algebra(algebra_id)
        builder = self.builders[algebra_id]
        parts = builder.split("+")
        n = len(parts)
        if n < 2 or n % 2 != 0 or parts[: n // 2] != parts[n // 2 :]:
            raise UnknownIdError(
                f"algebra {algebra_id!r} is not a doubled sum; no swap pair"
            )
        half = build_root_datum("+".join(parts[: n // 2]))
        return build_swap_involution(base, half)


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CatalogError(f"{path.name}: invalid JSON: {exc}") from exc


def load_catalog(root: Path | None = None, force: bool = False) -> CatalogBundle:
    root = Path(root) if root is not None else default_catalog_dir()
    if not root.is_dir():
        raise CatalogError(f"catalog directory {root} does not exist")

    meta_path = root / "meta.json"
    if not meta_path.is_file():
        raise CatalogError(f"{root}: missing meta.json")
    meta = _load_json(meta_path)
    version = str(meta.get("version", ""))
    declared_checksum = str(meta.get("checksum", ""))
    actual = compute_checksum(root)
    if actual != declared_checksum and not force:
        raise CatalogError(
            "catalog checksum mismatch: files were edited without "
            "regenerating meta.json (use force to load anyway)"
        )

    algebras: dict[str, RootDatum] = {}
    builders: dict[str, str] = {}
    for path in sorted((root / "algebras").glob("*.json")):
        rec = _load_json(path)
        try:
            algebra_id = str(rec["id"])
            builder = str(rec["builder"])
            stored = RootDatum.from_dict(rec["datum"])
        except KeyError as exc:
            raise CatalogError(f"{path.name}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CatalogError(f"{path.name}: malformed field: {exc}") from exc
        rebuilt = dataclasses.replace(
            build_root_datum(builder), name=algebra_id
        )
        if stored != rebuilt and not force:
            raise CatalogError(
                f"{path.name}: stored datum disagrees with builder "
                f"{builder!r}"
            )
        if algebra_id in algebras:
            raise CatalogError(f"duplicate algebra id {algebra_id!r}")
        algebras[algebra_id] = stored
        builders[algebra_id] = builder

    pairs: dict[str, InvolutionData | EmbeddingRecord] = {}
    for path in sorted((root / "pairs").glob("*.json")):
        rec = _load_json(path)
        try:
            pair_id = str(rec["id"])
            kind = str(rec["kind"])
            base_id = str(rec["base"])
            if base_id not in algebras:
                raise CatalogError(
                    f"{path.name}: base algebra {base_id!r} is not in the "
                    "catalog"
                )
            base = algebras[base_id]
            if kind == "involution":
                pair = _involution_from_json(rec, base)
            elif kind == "embedding":
                pair = _embedding_from_json(rec, base)
            else:
                raise CatalogError(f"{path.name}: unknown pair kind {kind!r}")
        except KeyError as exc:
            raise CatalogError(f"{path.name}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CatalogError(f"{path.name}: malformed field: {exc}") from exc
        if not pair.report.ok:
            if not force:
                names = ", ".join(c.name for c in pair.report.failed())
                raise CatalogError(f"{path.name}: validation failed: {names}")
        elif (
            kind == "involution"
            and pair.declared_restricted_positive is not None
        ):
            computed = restricted_roots(pair).positive
            declared = WeightMultiset.of(pair.declared_restricted_positive)
            if computed != declared and not force:
                raise CatalogError(
                    f"{path.name}: computed restricted positive system "
                    "disagrees with the declared one"
                )
        if pair_id in pairs:
            raise CatalogError(f"duplicate pair id {pair_id!r}")
        pairs[pair_id] = pair

    return CatalogBundle(
        root=root,
        version=version,
        checksum=actual,
        algebras=MappingProxyType(algebras),
        builders=MappingProxyType(builders),
        stored_pairs=MappingProxyType(pairs),
    )
