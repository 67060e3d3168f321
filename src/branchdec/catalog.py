"""Catalog files: algebras, pairs, integrity metadata.

Each algebra file holds an id and a builder expression such as
"su(2,2)"; the datum is built from the expression and validated.  Pair
files hold involution or embedding records keyed to a base algebra, and
nothing that follows from them, such as the restricted roots.  theta:
and swap: pairs are synthesised on demand rather than stored.

meta.json seals an index of the record files: for each its path, its
sha256 and its id, and for a pair its kind and base; the checksum is
the sha256 of that index.  A load reads meta.json alone, checks the
index against its checksum and against a listing of algebras/ and
pairs/, and keys the entries by id, so a command reads only the record
files it uses.  Each record's file is read on its first access and
checked against its sha256 before it is decoded, then built and
validated, which refuses a key its decoder does not read, such as a
misspelled optional field.  A load with force builds the index from
the files and keeps the bytes it read, so each file is still read once.

A pair's vectors decode with ``vec_from``: an integral literal becomes an
int and any other a Fraction, so a stored integer sigma is validated and
restricts weights with integer products.  One record's decode keeps a
table of the string literals it has met, so it parses each once.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import stat
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

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
    replace,
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


def _table_rows_from_json(items, vector) -> tuple[TableRow, ...]:
    return tuple(TableRow(vector(it["X"]), _string(it["levi"]))
                 for it in items)


class _Literals(dict):
    """The string literals of one record's decode, each mapped to the
    value vec_from gives it, filled as they are met.

    ``vector`` decodes a vector through the table, so each literal is
    parsed once per record, and accepted or refused exactly as vec_from
    would: a literal that is not a string is decoded each time and not
    kept, and an unhashable entry, or entries that are not a sequence,
    go to vec_from whole for its error."""

    __slots__ = ()

    def __missing__(self, literal):
        value = vec_from((literal,))[0]
        if type(literal) is str:
            self[literal] = value
        return value

    def vector(self, entries):
        try:
            return tuple(map(self.__getitem__, entries))
        except TypeError:
            return vec_from(entries)


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
    vector = _Literals().vector
    return InvolutionData(
        base=base,
        matrix=tuple(vector(r) for r in rec["matrix"]),
        eps=tuple(
            (_string(e["part"]), vector(e["weight"]), _integer(e["sign"]))
            for e in rec["eps"]
        ),
        zero_weight_fixed_dim=_integer(rec["zero_weight_fixed_dim"]),
        dim_gprime=_integer(rec["dim_gprime"]),
        label=_string(rec["label"]),
        pair_id=_string(rec["id"]),
        table_rows=_table_rows_from_json(rec.get("table_rows", []), vector),
    )


def _embedding_from_json(rec: dict, base: RootDatum) -> EmbeddingRecord:
    vector = _Literals().vector
    return EmbeddingRecord(
        base=base,
        tprime_rows=tuple(vector(r) for r in rec["tprime_rows"]),
        extra_zero_dim=_integer(rec["extra_zero_dim"]),
        dim_gprime=_integer(rec["dim_gprime"]),
        label=_string(rec["label"]),
        pair_id=_string(rec["id"]),
        table_rows=_table_rows_from_json(rec.get("table_rows", []), vector),
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

# the record folders, in the order the index lists them, and the fields
# the index copies from a record of each
_INDEXED = {"algebras": ("id",), "pairs": ("id", "kind", "base")}

_MISMATCH = (
    "catalog checksum mismatch: files were edited without "
    "regenerating meta.json (use force to load anyway)"
)


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


def _read_record(root: Path, path: str) -> bytes:
    """The bytes of the record file at ``path``, relative to root."""
    try:
        return _read(os.path.join(root, path))
    except OSError as exc:
        raise CatalogError(
            f"{_file_name(path)}: cannot read: {exc.strerror}"
        ) from exc


def _file_name(path: str) -> str:
    """The name that prefixes every error about the file at ``path``."""
    return path.rpartition("/")[2]


def _listing(root: Path) -> list[str]:
    """The path of every ``*.json`` entry of algebras/ and then of pairs/,
    each folder sorted by name, dotfiles included: the files
    ``sorted(Path.glob("*.json"))`` lists.  A missing folder holds none."""
    paths = []
    for folder in _INDEXED:
        try:
            names = os.listdir(os.path.join(root, folder))
        except (FileNotFoundError, NotADirectoryError):
            continue
        except OSError as exc:
            raise CatalogError(
                f"{folder}: cannot list: {exc.strerror}"
            ) from exc
        paths += sorted(f"{folder}/{n}" for n in names if n.endswith(".json"))
    return paths


def _decode_object(name: str, raw: bytes) -> dict:
    try:
        obj = json.loads(raw)
    # a JSONDecodeError, or a UnicodeDecodeError for bytes that are not
    # UTF-8
    except ValueError as exc:
        raise CatalogError(f"{name}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CatalogError(f"{name}: not a JSON object")
    return obj


def index_files(root: Path) -> list[dict]:
    """The index of the record files under root, as meta.json seals it.

    Reads, hashes and decodes every listed file once.  Each entry holds
    the file's path, its sha256 and the record's id, and for a pair its
    kind and base, copied as the record holds them: the load checks
    their types, and a field the record lacks is left out, so the load
    reports it missing.  Invalid JSON is refused here."""
    return _read_index(root)[0]


def _read_index(root: Path) -> tuple[list[dict], dict[str, bytes]]:
    """``index_files(root)``, and the bytes it hashed, by path."""
    index = []
    files = {}
    for path in _listing(root):
        raw = files[path] = _read_record(root, path)
        rec = _decode_object(_file_name(path), raw)
        entry = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
        for key in _INDEXED[path.partition("/")[0]]:
            if key in rec:
                entry[key] = rec[key]
        index.append(entry)
    return index, files


def seal(index) -> str:
    """The checksum of an index: the sha256 of its canonical JSON."""
    text = json.dumps(index, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def write_meta(root: Path, index: list[dict] | None = None) -> None:
    """Write the meta.json that seals the record files under root: the
    version, the index (``index_files(root)`` unless one is given) and
    its checksum.  Nothing is validated; tools/make_catalog.py builds
    every record first."""
    if index is None:
        index = index_files(root)
    meta = {"checksum": seal(index), "files": index,
            "version": CATALOG_VERSION}
    Path(root, "meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )


# ---------------------------------------------------------------------------
# bundle


class _field_errors:
    """Report a missing or mistyped field as a CatalogError naming the file.

    A class, not a generator context manager: the load enters one per
    index entry, and this enters in a third of the time."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, KeyError):
            raise CatalogError(f"{self.name}: missing field {exc}") from exc
        if isinstance(exc, (TypeError, ValueError)):
            raise CatalogError(
                f"{self.name}: malformed field: {exc}"
            ) from exc


class CatalogBundle:
    """The catalog index, keyed by id; records are read on demand.

    A record's file is read on its first access and checked against the
    sha256 its index entry holds, then decoded, checked against the
    entry's id (and a pair's kind and base) and for unknown fields,
    built, validated and kept on the bundle.  A record that fails is
    not kept, so every access raises its CatalogError again.
    ``check_all`` builds every record.
    """

    def __init__(
        self,
        root: Path,
        version: str,
        checksum: str,
        algebra_files: Mapping[str, dict],
        stored_pairs: Mapping[str, dict],
        indexed_bytes: Mapping[str, bytes],
    ):
        self.root = root
        self.version = version
        self.checksum = checksum
        # the index entry of each algebra file and of each pair file, by id
        self.algebra_files = algebra_files
        self.stored_pairs = stored_pairs
        # the bytes each record file held when the index was built from
        # the files (under force), by path, so that no file is read twice
        self.indexed_bytes = indexed_bytes
        # id -> (builder, datum)
        self._algebras: dict[str, tuple[str, RootDatum]] = {}
        self._pairs: dict[str, InvolutionData | EmbeddingRecord] = {}

    def algebra_ids(self) -> list[str]:
        return sorted(self.algebra_files)

    def pair_ids(self) -> list[str]:
        return sorted(self.stored_pairs)

    def algebra(self, algebra_id: str) -> RootDatum:
        if algebra_id not in self._algebras:
            self._algebras[algebra_id] = self._build_algebra(algebra_id)
        return self._algebras[algebra_id][1]

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

    def _record(self, entry: dict, fields: set) -> tuple[str, dict]:
        """The file name and the decoded record of an index entry."""
        path = entry["path"]
        name = _file_name(path)
        raw = self.indexed_bytes.get(path)
        if raw is None:
            raw = _read_record(self.root, path)
        if hashlib.sha256(raw).hexdigest() != entry.get("sha256"):
            raise CatalogError(_MISMATCH)
        rec = _decode_object(name, raw)
        with _field_errors(name):
            for key in _INDEXED[path.partition("/")[0]]:
                if rec[key] != entry[key]:
                    raise CatalogError(
                        f"{name}: {key} {rec[key]!r} is not the "
                        f"{entry[key]!r} meta.json lists"
                    )
        _refuse_unknown_fields(name, rec, fields)
        return name, rec

    def _build_algebra(self, algebra_id: str) -> tuple[str, RootDatum]:
        try:
            entry = self.algebra_files[algebra_id]
        except KeyError:
            raise UnknownIdError(f"unknown algebra id {algebra_id!r}") from None
        name, rec = self._record(entry, _ALGEBRA_FIELDS)
        with _field_errors(name):
            builder = _string(rec["builder"])
            datum = replace(build_root_datum(builder), name=algebra_id)
            datum.validate()
        return builder, datum

    def _build_pair(self, pair_id: str) -> InvolutionData | EmbeddingRecord:
        entry = self.stored_pairs[pair_id]
        fields, decode = _PAIR_KINDS[entry["kind"]]
        name, rec = self._record(entry, fields)
        base = self.algebra(entry["base"])
        with _field_errors(name):
            pair = decode(rec, base)
        if pair.report:
            names = ", ".join(pair.report)
            raise CatalogError(f"{name}: validation failed: {names}")
        return pair

    def _swap_pair(self, algebra_id: str) -> InvolutionData:
        base = self.algebra(algebra_id)
        parts = sum_parts(self._algebras[algebra_id][0])
        n = len(parts)
        if n < 2 or n % 2 != 0 or parts[: n // 2] != parts[n // 2 :]:
            raise UnknownIdError(
                f"algebra {algebra_id!r} is not a doubled sum; no swap pair"
            )
        half = build_root_datum("+".join(parts[: n // 2]))
        return build_swap_involution(base, half)


def _read_meta(root: Path) -> dict:
    try:
        raw = _read(os.path.join(root, "meta.json"))
    except (FileNotFoundError, NotADirectoryError):
        if not root.exists():
            raise CatalogError(
                f"catalog directory {root} does not exist"
            ) from None
        if not root.is_dir():
            raise CatalogError(
                f"catalog directory {root} is not a directory"
            ) from None
        raise CatalogError(f"{root}: missing meta.json") from None
    except OSError as exc:
        raise CatalogError(f"meta.json: cannot read: {exc.strerror}") from exc
    return _decode_object("meta.json", raw)


def load_catalog(root: Path | None = None, force: bool = False) -> CatalogBundle:
    """Check the seal and index the catalog files; records read lazily.

    Reads meta.json and no record file.  Its index must hash to its
    checksum and list exactly the files in algebras/ and pairs/, so a
    file added, removed or renamed without a reseal is refused here; an
    edited one is refused when it is read.  With ``force`` the index is
    built from the files on disk instead, by ``index_files``, so a
    checksum mismatch is let through, and nothing else: a record still
    raises its CatalogError on access.
    """
    root = Path(root) if root is not None else default_catalog_dir()
    meta = _read_meta(root)
    version = str(meta.get("version", ""))
    if force:
        index, files = _read_index(root)
        return index_catalog(root, index, version, seal(index), files)
    index = meta.get("files")
    checksum = str(meta.get("checksum", ""))
    if seal(index) != checksum:
        raise CatalogError(_MISMATCH)
    with _field_errors("meta.json"):
        indexed = [entry["path"] for entry in index]
    listed = _listing(root)
    if indexed != listed:
        # an added file that cannot be read says why
        for path in sorted(set(listed) - set(indexed)):
            _read_record(root, path)
        raise CatalogError(_MISMATCH)
    return index_catalog(root, index, version, checksum)


def index_catalog(
    root: Path, index: list[dict], version: str, checksum: str,
    indexed_bytes: Mapping[str, bytes] | None = None,
) -> CatalogBundle:
    """Key the entries of an index by id, reading no record file.

    A missing or mistyped id, kind or base, an unknown pair kind, a base
    that is not catalogued and a duplicate id are refused here;
    everything else waits for the record's first access, which hashes
    and decodes the bytes ``indexed_bytes`` holds for its file, if any,
    instead of reading the file again.
    """
    algebras: dict[str, dict] = {}
    pairs: dict[str, dict] = {}
    for entry in index:
        folder, _, name = entry["path"].partition("/")
        with _field_errors(name):
            record_id = _string(entry["id"])
            if folder == "algebras":
                if record_id in algebras:
                    raise CatalogError(f"duplicate algebra id {record_id!r}")
                algebras[record_id] = entry
                continue
            kind = _string(entry["kind"])
            base_id = _string(entry["base"])
            if base_id not in algebras:
                raise CatalogError(
                    f"{name}: base algebra {base_id!r} is not in the catalog"
                )
            if kind not in _PAIR_KINDS:
                raise CatalogError(f"{name}: unknown pair kind {kind!r}")
            if record_id in pairs:
                raise CatalogError(f"duplicate pair id {record_id!r}")
            pairs[record_id] = entry

    return CatalogBundle(
        root=root,
        version=version,
        checksum=checksum,
        algebra_files=MappingProxyType(algebras),
        stored_pairs=MappingProxyType(pairs),
        indexed_bytes=MappingProxyType(indexed_bytes or {}),
    )
