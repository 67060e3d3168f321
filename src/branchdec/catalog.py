"""Catalog files: algebras, pairs, integrity metadata.

Each algebra file holds an id and a builder expression such as
"su(2,2)"; the datum is built from the expression and validated.  Pair
files hold involution or embedding records keyed to a base algebra, and
nothing that follows from them, such as the restricted roots.  theta:
and swap: pairs are synthesised on demand rather than stored.

A load lists algebras/ and pairs/ once each, reads meta.json and every
record file with one read sized by fstat, hashes the names and bytes of
the record files into the sha256 seal, checks it against meta.json, and
only then decodes every file as JSON and keys each record by id: about
a quarter of a millisecond for the shipped 21 files, half of it in the
reads and most of the rest in ``json.loads``.  Each record is built and
validated on its first access, which refuses a key its decoder does not
read, such as a misspelled optional field.
A pair's vectors decode with ``vec_from``: an integral literal becomes an
int and any other a Fraction, so a stored integer sigma is validated and
restricts weights with integer products.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .involution import (
    EmbeddingRecord,
    InvolutionData,
    TableRow,
    build_swap_involution,
    build_theta_involution,
    # unused here; the benchmark tracer checks that this module binds it
    validate_involution,
)
from .root_core import (
    RootDatum,
    build_root_datum,
    sum_parts,
    vec_from,
    vector_strings,
)

CATALOG_VERSION = "1"
ENV_CATALOG = "BRANCHDEC_CATALOG"


class CatalogError(RuntimeError):
    """Integrity or validation failure while loading catalog files."""


class UnknownIdError(CatalogError):
    """Requested algebra or pair id does not exist."""


_DATA_DIR = Path(__file__).resolve().parent / "data"


def default_catalog_dir() -> Path:
    env = os.environ.get(ENV_CATALOG)
    return Path(env) if env else _DATA_DIR


# ---------------------------------------------------------------------------
# record fields


def table_rows_to_json(rows: tuple[TableRow, ...]) -> list[dict]:
    return [{"X": vector_strings(r.x), "levi": r.levi} for r in rows]


def _table_rows_from_json(items) -> tuple[TableRow, ...]:
    return tuple(TableRow(vec_from(it["X"]), _string(it["levi"]))
                 for it in items)


def _integer(x) -> int:
    """A JSON integer field; a float or a boolean is refused, not cast."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _string(x) -> str:
    """A JSON string field; any other value is refused, not cast."""
    if type(x) is not str:
        raise TypeError(f"expected a string, got {x!r}")
    return x


def _involution_from_json(rec: dict, base: RootDatum) -> InvolutionData:
    return InvolutionData(
        base=base,
        matrix=tuple(vec_from(r) for r in rec["matrix"]),
        eps=tuple(
            (_string(e["part"]), vec_from(e["weight"]), _integer(e["sign"]))
            for e in rec["eps"]
        ),
        zero_weight_fixed_dim=_integer(rec["zero_weight_fixed_dim"]),
        dim_gprime=_integer(rec["dim_gprime"]),
        label=_string(rec["label"]),
        pair_id=_string(rec["id"]),
        table_rows=_table_rows_from_json(rec.get("table_rows", [])),
    )


def _embedding_from_json(rec: dict, base: RootDatum) -> EmbeddingRecord:
    return EmbeddingRecord(
        base=base,
        tprime_rows=tuple(vec_from(r) for r in rec["tprime_rows"]),
        extra_zero_dim=_integer(rec["extra_zero_dim"]),
        dim_gprime=_integer(rec["dim_gprime"]),
        label=_string(rec["label"]),
        pair_id=_string(rec["id"]),
        table_rows=_table_rows_from_json(rec.get("table_rows", [])),
    )


# the top-level keys each decoder reads, and so the only keys a record of
# its kind may hold
_ALGEBRA_FIELDS = {"id", "builder"}
_PAIR_FIELDS = {"id", "kind", "base", "label", "dim_gprime", "table_rows"}
_PAIR_KINDS = {
    "involution": (_PAIR_FIELDS | {"matrix", "eps", "zero_weight_fixed_dim"},
                   _involution_from_json),
    "embedding": (_PAIR_FIELDS | {"tprime_rows", "extra_zero_dim"},
                  _embedding_from_json),
}


def _refuse_unknown_fields(name: str, rec: dict, fields: set) -> None:
    unknown = rec.keys() - fields
    if unknown:
        raise CatalogError(f"{name}: unknown field {min(unknown)!r}")


# ---------------------------------------------------------------------------
# integrity


def _read(path: str) -> bytes:
    """The bytes of one file, in one read sized by fstat.

    The open does not block, so a FIFO or a device is refused as not a
    regular file instead of waited on; a directory fails in the read."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        info = os.fstat(fd)
        if not (stat.S_ISREG(info.st_mode) or stat.S_ISDIR(info.st_mode)):
            raise OSError(errno.EINVAL, "not a regular file")
        return os.read(fd, info.st_size)
    finally:
        os.close(fd)


def _read_folder(folder: str) -> list[tuple[str, bytes]]:
    """(name, bytes) of every ``*.json`` entry of the folder, sorted by
    name, dotfiles included: the files ``sorted(Path.glob("*.json"))``
    lists.  A missing folder holds none."""
    try:
        names = sorted(n for n in os.listdir(folder) if n.endswith(".json"))
    except (FileNotFoundError, NotADirectoryError):
        return []
    except OSError as exc:
        raise CatalogError(f"{folder}: cannot list: {exc.strerror}") from exc
    files = []
    for name in names:
        try:
            files.append((name, _read(os.path.join(folder, name))))
        except OSError as exc:
            raise CatalogError(f"{name}: cannot read: {exc.strerror}") from exc
    return files


def read_catalog_files(
    root: Path,
) -> tuple[list[tuple[str, bytes]], list[tuple[str, bytes]]]:
    """(name, bytes) of every algebra file and of every pair file, each
    read once; the seal covers the algebra files, then the pair files."""
    return (_read_folder(os.path.join(root, "algebras")),
            _read_folder(os.path.join(root, "pairs")))


def seal(files: list[tuple[str, bytes]]) -> str:
    """The checksum of the (name, bytes) of the record files, in the
    order read_catalog_files reads them."""
    h = hashlib.sha256()
    for name, raw in files:
        h.update(name.encode())
        h.update(b"\0")
        h.update(raw)
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# bundle


class RecordFile(NamedTuple):
    """One decoded catalog file; ``name`` prefixes every error about it."""

    name: str
    data: dict


@contextmanager
def _field_errors(name: str):
    """Report a missing or mistyped field as a CatalogError naming the file."""
    try:
        yield
    except KeyError as exc:
        raise CatalogError(f"{name}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CatalogError(f"{name}: malformed field: {exc}") from exc


@dataclass(frozen=True)
class CatalogBundle:
    """The decoded catalog files, keyed by id.

    A record is checked for unknown fields, built and validated on its
    first access, and kept on the bundle.  A record that fails is not
    kept, so every access raises its CatalogError again.  ``check_all``
    builds every record.
    """

    root: Path
    version: str
    checksum: str
    algebra_files: Mapping[str, RecordFile]
    stored_pairs: Mapping[str, RecordFile]
    _algebras: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    _pairs: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def algebra_ids(self) -> list[str]:
        return sorted(self.algebra_files)

    def pair_ids(self) -> list[str]:
        return sorted(self.stored_pairs)

    def algebra(self, algebra_id: str) -> RootDatum:
        if algebra_id not in self._algebras:
            self._algebras[algebra_id] = self._build_algebra(algebra_id)
        return self._algebras[algebra_id]

    def pair(self, pair_id: str) -> InvolutionData | EmbeddingRecord:
        if pair_id in self.stored_pairs:
            if pair_id not in self._pairs:
                self._pairs[pair_id] = self._build_pair(pair_id)
            return self._pairs[pair_id]
        if pair_id.startswith("theta:"):
            return build_theta_involution(self.algebra(pair_id[6:]))
        if pair_id.startswith("swap:"):
            return self._swap_pair(pair_id[5:])
        raise UnknownIdError(f"unknown pair id {pair_id!r}")

    def check_all(self) -> None:
        """Build every record in file order; raise the first failure."""
        for algebra_id in self.algebra_files:
            self.algebra(algebra_id)
        for pair_id in self.stored_pairs:
            self.pair(pair_id)

    def _build_algebra(self, algebra_id: str) -> RootDatum:
        try:
            name, rec = self.algebra_files[algebra_id]
        except KeyError:
            raise UnknownIdError(f"unknown algebra id {algebra_id!r}") from None
        _refuse_unknown_fields(name, rec, _ALGEBRA_FIELDS)
        with _field_errors(name):
            datum = dataclasses.replace(
                build_root_datum(_string(rec["builder"])), name=algebra_id
            )
            datum.validate()
        return datum

    def _build_pair(self, pair_id: str) -> InvolutionData | EmbeddingRecord:
        name, rec = self.stored_pairs[pair_id]
        base = self.algebra(rec["base"])
        fields, decode = _PAIR_KINDS[rec["kind"]]
        _refuse_unknown_fields(name, rec, fields)
        with _field_errors(name):
            pair = decode(rec, base)
        if pair.report:
            names = ", ".join(pair.report)
            raise CatalogError(f"{name}: validation failed: {names}")
        return pair

    def _swap_pair(self, algebra_id: str) -> InvolutionData:
        base = self.algebra(algebra_id)
        parts = sum_parts(self.algebra_files[algebra_id].data["builder"])
        n = len(parts)
        if n < 2 or n % 2 != 0 or parts[: n // 2] != parts[n // 2 :]:
            raise UnknownIdError(
                f"algebra {algebra_id!r} is not a doubled sum; no swap pair"
            )
        half = build_root_datum("+".join(parts[: n // 2]))
        return build_swap_involution(base, half)


def _decode_json(name: str, raw: bytes):
    try:
        return json.loads(raw)
    # a JSONDecodeError, or a UnicodeDecodeError for bytes that are not
    # UTF-8
    except ValueError as exc:
        raise CatalogError(f"{name}: invalid JSON: {exc}") from exc


def _read_meta(root: Path) -> dict:
    try:
        raw = _read(os.path.join(root, "meta.json"))
    except (FileNotFoundError, NotADirectoryError):
        if not root.is_dir():
            raise CatalogError(
                f"catalog directory {root} does not exist"
            ) from None
        raise CatalogError(f"{root}: missing meta.json") from None
    except OSError as exc:
        raise CatalogError(f"meta.json: cannot read: {exc.strerror}") from exc
    meta = _decode_json("meta.json", raw)
    if not isinstance(meta, dict):
        raise CatalogError("meta.json: not a JSON object")
    return meta


def load_catalog(root: Path | None = None, force: bool = False) -> CatalogBundle:
    """Check the seal and index the catalog files; records build lazily.

    With ``force`` a checksum mismatch is let through, and nothing else:
    a record still raises its CatalogError on access.
    """
    root = Path(root) if root is not None else default_catalog_dir()
    meta = _read_meta(root)
    algebras, pairs = read_catalog_files(root)
    actual = seal(algebras + pairs)
    if actual != str(meta.get("checksum", "")) and not force:
        raise CatalogError(
            "catalog checksum mismatch: files were edited without "
            "regenerating meta.json (use force to load anyway)"
        )
    return index_catalog(
        root, algebras, pairs, str(meta.get("version", "")), actual
    )


def index_catalog(
    root: Path,
    algebra_files: list[tuple[str, bytes]],
    pair_files: list[tuple[str, bytes]],
    version: str,
    checksum: str,
) -> CatalogBundle:
    """Decode the record files read by read_catalog_files and key each by
    id, building no record.

    Invalid JSON, a missing or mistyped id, kind or base, an unknown
    pair kind, a base that is not catalogued and a duplicate id are
    refused here; everything else waits for the record's first access.
    """
    algebras: dict[str, RecordFile] = {}
    pairs: dict[str, RecordFile] = {}
    for name, raw in algebra_files:
        with _field_errors(name):
            rec = _decode_json(name, raw)
            algebra_id = _string(rec["id"])
            if algebra_id in algebras:
                raise CatalogError(f"duplicate algebra id {algebra_id!r}")
            algebras[algebra_id] = RecordFile(name, rec)
    for name, raw in pair_files:
        with _field_errors(name):
            rec = _decode_json(name, raw)
            pair_id = _string(rec["id"])
            kind = _string(rec["kind"])
            base_id = _string(rec["base"])
            if base_id not in algebras:
                raise CatalogError(
                    f"{name}: base algebra {base_id!r} is not in the catalog"
                )
            if kind not in _PAIR_KINDS:
                raise CatalogError(f"{name}: unknown pair kind {kind!r}")
            if pair_id in pairs:
                raise CatalogError(f"duplicate pair id {pair_id!r}")
            pairs[pair_id] = RecordFile(name, rec)

    return CatalogBundle(
        root=root,
        version=version,
        checksum=checksum,
        algebra_files=MappingProxyType(algebras),
        stored_pairs=MappingProxyType(pairs),
    )
