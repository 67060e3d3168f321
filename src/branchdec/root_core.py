"""Exact vectors, small dense linear algebra, and root data.

Weights are integer vectors: a RootDatum bundles the torus description
together with the compact and noncompact weight multisets of a real
reductive Lie algebra, all as tuples of int, and ``RootDatum.validate``
refuses any other.  Values that are really rational (coweights,
projections, LP points, a defining element as given) are tuples of
Fraction, and ``vhalf`` keeps the even entries of a halved vector int;
ints and Fractions mix freely in the kernels, and an int prints, hashes
and compares as the Fraction of the same value.

The kernels compute over Python integers and build a Fraction only for the
values they return.  ``dot`` (and ``mat_apply`` through it) returns an int
when both rows are int; ``vdot`` always returns a Fraction, summing
numerators over a running common denominator, which is the cheaper of the
two on Fraction rows.  One fraction-free Gauss-Jordan routine,
``_echelon``, backs ``rref``, ``rank``, ``nullspace``, ``solve_linear``,
``in_span``, ``dual_rows`` and ``projection_matrix``;
``clear_denominators`` and ``primitive_ints`` turn rational rows into
coprime integer rows for it, for ``RootSystem``, for a parabolic's X and
for the simplex tableau in ``cone_kernel``.  ``dual_rows`` returns a dual
basis as integer rows, each over one positive denominator, and
``projection_matrix`` builds a Fraction only for each entry it returns.

A ``RootSystem`` remembers each positive system it is asked about, keyed
by which roots are positive: its simple roots and its fundamental
coweights as ``dual_rows``.  The indecomposability scan and the Gram
elimination run once per chamber, and the memo lives as long as the
datum that holds the root system.

The families share one layer.  Three generators (e_i - e_j, +-e_a +- e_b
and +-s e_a) give the root lists of types A, B, C, D and G2, and
``_split`` makes a real form of one list by marking each root compact or
noncompact: su(p,q) and sp(p,q) keep a root in k when its coordinates lie
in one block, sp(n,R) when it is some e_i - e_j, g2(R) when it lies in a
fixed su(2)+su(2), and a compact form keeps every root.  so(p,q) is the
one family built otherwise, as a tensor product (see ``_so_datum``), and
a complex algebra puts each root in k and in p.  ``build_root_datum``
reads the rank of every '+' part from its parsed integers and refuses a
total above ``MAX_FAMILY_RANK`` before any weight is built.

The runtime's records, here and in the other modules, are classes under
``record``: frozen, equal by their fields, and copied with changes by
``replace``.  It stands in for ``dataclasses``, whose import (with
``inspect``) and per-class code generation took about a third of a cold
command's import time.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm
from operator import attrgetter, mul, sub
from typing import Callable, Iterable, Iterator, Sequence

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]
# rational rows n / d, each an integer row n over one denominator d > 0
IntRows = tuple[tuple[IntVec, int], ...]

PART_COMPACT = "k"
PART_NONCOMPACT = "p"


class DatumError(ValueError):
    """Raised when root data are malformed or a family string is unknown."""


class CertificateError(RuntimeError):
    """A certificate failed its own substitution check.

    Raised instead of asserting, so the check also runs under python -O;
    it means the solver or the pair data is internally inconsistent.
    """


# ---------------------------------------------------------------------------
# scalars and vectors


# the literals the program writes, 'p' or 'p/q' in decimal digits; no
# decimal point and no exponent, whose power of ten Fraction would expand
_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)
_INTEGER = re.compile(r"[+-]?\d+", re.ASCII)


def as_fraction(x) -> Fraction:
    """Coerce int, Fraction, or a 'p' or 'p/q' string to Fraction; a bool
    is not read as 0 or 1."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x.strip()):
            raise DatumError(f"bad rational literal {x!r}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DatumError(f"bad rational literal {x!r}") from exc
    raise DatumError(f"cannot interpret {x!r} as a rational number")


def vec(*entries) -> Vec:
    return tuple(as_fraction(e) for e in entries)


def as_rational(x) -> int | Fraction:
    """as_fraction, but an integral value comes back as int."""
    if isinstance(x, str) and _INTEGER.fullmatch(x.strip()):
        return int(x)
    f = as_fraction(x)
    return f.numerator if f.denominator == 1 else f


def vec_from(entries: Iterable) -> Vec:
    """The entries as exact rationals: int where integral, else Fraction."""
    return tuple(as_rational(e) for e in entries)


def vzero(n: int) -> IntVec:
    return (0,) * n


def identity(n: int) -> tuple[IntVec, ...]:
    """The rows of the n x n identity matrix."""
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: Vec) -> Vec:
    return tuple([-x for x in a])


def vscale(c, a: Vec) -> Vec:
    c = as_fraction(c)
    return tuple(c * x for x in a)


def vhalf(a: Vec) -> Vec:
    """a / 2; an even int entry stays an int, and only an odd one becomes a
    Fraction."""
    return tuple(x // 2 if x % 2 == 0 else Fraction(x, 2) for x in a)


def dot(a: Vec, b: Vec) -> int | Fraction:
    """The dot product: an int when both rows are int, else a Fraction."""
    if len(a) != len(b):
        raise ValueError(f"dot of rows of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def vdot(a: Vec, b: Vec) -> Fraction:
    """The dot product; int and Fraction entries mix freely."""
    # integer numerators over a running common denominator, so the only
    # Fraction built is the result
    num, den = 0, 1
    for x, y in zip(a, b, strict=True):
        xn, xd = x.as_integer_ratio()
        yn, yd = y.as_integer_ratio()
        d = xd * yd
        if d == den:
            num += xn * yn
        else:
            g = gcd(den, d)
            num = num * (d // g) + xn * yn * (den // g)
            den = den // g * d
    return Fraction(num, den)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def lex_positive(a: Vec) -> bool:
    """True if the first nonzero coordinate is positive (zero vector: False)."""
    for x in a:
        if x != 0:
            return x > 0
    return False


def clear_denominators(row: Iterable) -> tuple[list[int], int]:
    """The integers n_i and the least d > 0 with row_i = n_i / d."""
    ratios = [x.as_integer_ratio() for x in row]
    scale = lcm(*(d for _, d in ratios))
    if scale == 1:
        return [n for n, _ in ratios], 1
    return [n * (scale // d) for n, d in ratios], scale


def cleared_combination(
    coefficients: Sequence[int | Fraction], vectors: Sequence[Vec], dim: int
) -> tuple[Vec, int]:
    """(D * sum(c_i v_i), D) for D the least common denominator of the
    c_i: the combination with the integer coefficients D c_i, so integer
    vectors give an integer vector, and no Fraction is built."""
    nums, den = clear_denominators(coefficients)
    total = [0] * dim
    for n, v in zip(nums, vectors, strict=True):
        if n:
            for i, x in enumerate(v):
                total[i] += n * x
    return tuple(total), den


def primitive_ints(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries; a zero row is kept."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def parse_vector(text: str, expect_dim: int | None = None) -> Vec:
    """Parse a comma separated list of rationals, e.g. '3,-1,-1,-1' or '1/2,0'."""
    parts = [p for p in text.split(",")]
    if parts == [""]:
        raise DatumError("empty vector literal")
    v = tuple(as_fraction(p) for p in parts)
    if expect_dim is not None and len(v) != expect_dim:
        raise DatumError(f"expected {expect_dim} coordinates, got {len(v)}")
    return v


def vector_strings(a: Iterable) -> list[str]:
    """The entries as the literals parse_vector reads, e.g. ['1/2', '-1']."""
    return [str(x) for x in a]


def format_vector(a: Vec) -> str:
    return ",".join(vector_strings(a))


# ---------------------------------------------------------------------------
# exact linear algebra (rows are vectors, systems are small)


def _echelon(rows: Sequence[Vec]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination: the nonzero rows, as
    integers, and their pivot columns.

    Each row is cleared of denominators, eliminated with pv*row_i - f*row_r
    and divided by the gcd of its entries, so every stored row is a
    nonzero multiple of the row that rational elimination would hold, with
    coprime entries: the zero tests, and so the pivots, are the same, and
    row i divided by its pivot entry is row i of the reduced row echelon
    form.
    """
    mat = [primitive_ints(clear_denominators(r)[0]) for r in rows]
    if not mat:
        return [], []
    pivots: list[int] = []
    r = 0
    for c in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pr = mat[r]
        pv = pr[c]
        for i in range(len(mat)):
            f = mat[i][c]
            if f and i != r:
                mat[i] = primitive_ints(
                    [pv * x - f * y for x, y in zip(mat[i], pr)]
                )
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rref(rows: Sequence[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    mat, pivots = _echelon(rows)
    return [
        tuple(Fraction(x, row[c]) for x in row) for row, c in zip(mat, pivots)
    ], pivots


def rank(rows: Sequence[Vec]) -> int:
    return len(_echelon(rows)[1])


def nullspace(rows: Sequence[Vec]) -> list[Vec]:
    """Basis of {x : row . x = 0 for every row}."""
    if not rows:
        raise DatumError("nullspace needs at least one row to fix the dimension")
    ncols = len(rows[0])
    reduced, pivots = _echelon(rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis: list[Vec] = []
    for fc in free_cols:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            x[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(x))
    return basis


def subspace_normals(rows: Sequence[Vec], dim: int) -> tuple[Vec, ...]:
    """The normals a point of span(rows) is tested against: a basis of
    {x in Q^dim : row . x = 0 for every row}, with integral entries as
    int; the identity rows when no row is nonzero."""
    rows = [r for r in rows if not is_zero_vec(r)]
    if not rows:
        return identity(dim)
    return tuple(vec_from(nrm) for nrm in nullspace(rows))


def solve_linear(rows: Sequence[Vec], rhs: Sequence) -> Vec | None:
    """One solution x of row_i . x = rhs_i for all i, or None if inconsistent."""
    rhs = [as_fraction(b) for b in rhs]
    if len(rows) != len(rhs):
        raise DatumError("solve_linear: shape mismatch")
    if not rows:
        raise DatumError("solve_linear needs at least one row")
    ncols = len(rows[0])
    aug = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
    reduced, pivots = _echelon(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(reduced, pivots):
        x[pc] = Fraction(row[ncols], row[pc])
    return tuple(x)


def in_span(v: Vec, rows: Sequence[Vec]) -> bool:
    base = [r for r in rows if not is_zero_vec(r)]
    return rank(base + [v]) == rank(base) if base else is_zero_vec(v)


def dual_rows(basis: Sequence[Vec]) -> IntRows:
    """The vectors c_i in the span of independent rows b_j with
    c_i . b_j = 1 if i == j and 0 otherwise, as integer rows: (n_i, d_i)
    with c_i = n_i / d_i, d_i > 0 and no factor common to d_i and every
    entry of n_i.

    They are the rows of G^-1 B for the Gram matrix G = B B^T, read off
    one elimination of [G | I]: row i, divided by its pivot, holds the
    coefficients of c_i.  B is the integer rows n_j with b_j = n_j / d_j,
    and c_i is d_i times the dual vector of n_i.
    """
    if not basis:
        return ()
    k = len(basis)
    cleared = [clear_denominators(b) for b in basis]
    ints = [n for n, _ in cleared]
    gram = [
        [sum(map(mul, a, b)) for b in ints] + [int(i == j) for j in range(k)]
        for i, a in enumerate(ints)
    ]
    reduced, pivots = _echelon(gram)
    if pivots != list(range(k)):
        raise CertificateError("Gram matrix of independent rows is singular")
    columns = list(zip(*ints))
    out = []
    for i, (row, (_, d)) in enumerate(zip(reduced, cleared)):
        num = [d * sum(map(mul, row[k:], col)) for col in columns]
        g = gcd(row[i], *num)
        if row[i] < 0:
            g = -g
        out.append((tuple(x // g for x in num), row[i] // g))
    return tuple(out)


def projection_matrix(rows: Sequence[Vec], dim: int) -> tuple[Vec, ...]:
    """The dim x dim matrix of the orthogonal projection onto span(rows).

    Built once from an integer echelon basis B of the span and its dual
    basis C as B^T C; apply it with mat_apply.  Zero and dependent rows
    are allowed, and no rows give the zero matrix.
    """
    basis = _echelon(rows)[0]
    dual = dual_rows(basis)
    # entry (i, j) is sum_k B_k[i] n_k[j] / d_k: integer terms over the
    # common denominator D, each scaled by D / d_k
    den = lcm(*(d for _, d in dual))
    scaled = [[den // d * x for x in n] for n, d in dual]
    return tuple(
        tuple(
            Fraction(sum(b[i] * c[j] for b, c in zip(basis, scaled)), den)
            for j in range(dim)
        )
        for i in range(dim)
    )


def mat_apply(rows: Sequence[Vec], x: Vec) -> Vec:
    """The matrix with the given rows applied to x; int rows and an int x
    give an int vector."""
    return tuple(dot(r, x) for r in rows)


def project_onto_span(v: Vec, rows: Sequence[Vec]) -> Vec:
    """Orthogonal projection of v onto the span of the given rows."""
    return mat_apply(projection_matrix(rows, len(v)), v)


# ---------------------------------------------------------------------------
# records


def record(cls=None, *, uncompared: tuple[str, ...] = ()):
    """Make ``cls`` a frozen record of its annotated fields, in order.

    The annotations are read by name only, never evaluated.  A field
    with a class-level value takes it as its default.  ``__init__``
    stores each field in the instance dict and then runs the class's
    ``__post_init__``, if it has one; records compare equal, and hash
    alike, when they are of one class and their fields outside
    ``uncompared`` are equal; assigning or deleting any attribute
    raises AttributeError.  The instance dict stays, so a
    cached_property still keeps its value on the record.
    """
    if cls is None:
        return lambda c: record(c, uncompared=uncompared)
    fields = tuple(cls.__annotations__)
    key = attrgetter(*[f for f in fields if f not in uncompared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{cls.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls._fields = fields
    cls.__init__ = _record_init(cls, fields)
    for method in (__eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


def _record_init(cls, fields: tuple[str, ...]):
    """A record's ``__init__``, compiled for its own field names.

    It costs what a hand-written one does, about half what a frozen
    dataclass's does; one loop over the fields, shared by every
    record, would be slower than either on the records of one to three
    fields, which are built most."""
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    params = "".join(
        f", {f}=_defaults[{f!r}]" if f in defaults else f", {f}"
        for f in fields
    )
    lines = [f"def __init__(self{params}):", "    d = self.__dict__"]
    lines += [f"    d[{f!r}] = {f}" for f in fields]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace = {"_defaults": defaults}
    exec("\n".join(lines), namespace)
    return namespace["__init__"]


def replace(rec, **changes):
    """A new record of rec's class with ``changes`` to its fields, and
    so with no cached value; TypeError names a field it lacks."""
    fields = type(rec)._fields
    for name in changes:
        if name not in fields:
            raise TypeError(
                f"{type(rec).__name__} has no field {name!r} to replace"
            )
    return type(rec)(*[changes.get(f, getattr(rec, f)) for f in fields])


# ---------------------------------------------------------------------------
# weight multisets


def _canonical_entries(entries: Iterable[tuple[Vec, int]]) -> tuple[tuple[Vec, int], ...]:
    merged: dict[Vec, int] = {}
    for w, m in entries:
        if m < 0:
            raise DatumError("negative multiplicity")
        if m == 0:
            continue
        merged[w] = merged.get(w, 0) + m
    return tuple(sorted(merged.items()))


@record
class WeightMultiset:
    """Finite multiset of rational weight vectors."""

    entries: tuple[tuple[Vec, int], ...]

    @staticmethod
    def of(entries: Iterable[tuple[Vec, int]]) -> "WeightMultiset":
        return WeightMultiset(_canonical_entries(entries))

    @staticmethod
    def from_vectors(vectors: Iterable[Vec]) -> "WeightMultiset":
        return WeightMultiset.of((v, 1) for v in vectors)

    def __iter__(self) -> Iterator[tuple[Vec, int]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def total(self) -> int:
        return sum(m for _, m in self.entries)

    @cached_property
    def _index(self) -> dict[Vec, int]:
        return dict(self.entries)

    def mult(self, w: Vec) -> int:
        return self._index.get(w, 0)

    def support(self) -> tuple[Vec, ...]:
        return tuple(w for w, _ in self.entries)

    def nonzero(self) -> "WeightMultiset":
        return WeightMultiset(tuple((w, m) for w, m in self.entries if not is_zero_vec(w)))

    def zero_mult(self) -> int:
        return sum(m for w, m in self.entries if is_zero_vec(w))


# ---------------------------------------------------------------------------
# root data


@record
class RootDatum:
    """Weights of ad(t) on a real reductive Lie algebra g = k + p.

    Coordinates live in an ambient Q^n; the torus t is the subspace cut out
    by t_constraints.  Weights and constraints are integer vectors.  Weight
    vectors are stored orthogonal to the constraints so that the pairing
    weight(X) is the plain dot product.  The compact part never contains
    zero weights; zero weights of p are kept explicitly since they decide
    whether t is a full Cartan subalgebra.
    """

    name: str
    ambient_dim: int
    t_constraints: tuple[IntVec, ...]
    compact: WeightMultiset
    noncompact: WeightMultiset
    dim_g: int

    @cached_property
    def dim_t(self) -> int:
        return self.ambient_dim - rank(list(self.t_constraints))

    @cached_property
    def root_system(self) -> RootSystem:
        """The reduced roots of the nonzero weights, checked once."""
        return RootSystem(
            w for _, w, _ in self.weight_entries() if not is_zero_vec(w)
        )

    @property
    def dim_k(self) -> int:
        return self.dim_t + self.compact.total()

    def weight_entries(self) -> Iterator[tuple[str, IntVec, int]]:
        for w, m in self.compact:
            yield PART_COMPACT, w, m
        for w, m in self.noncompact:
            yield PART_NONCOMPACT, w, m

    def in_torus(self, x: Vec) -> bool:
        return len(x) == self.ambient_dim and not any(
            sum(map(mul, c, x)) for c in self.t_constraints
        )

    def validate(self) -> None:
        """Raise DatumError unless the datum is well formed.

        Weights and constraints must be integral: the parabolic and
        enumeration code pair them with integer rows.  Each part is
        walked once: a weight of the wrong length, not integral or not
        orthogonal to the constraints raises as it is met, and the zero
        weights, negation closure and size of the part are kept for the
        checks that follow both walks.
        """
        n = self.ambient_dim
        cons = self.t_constraints
        for c in cons:
            if len(c) != n:
                raise DatumError(f"{self.name}: constraint row of wrong length")
            if not _is_integral(c):
                raise DatumError(
                    f"{self.name}: torus constraint {format_vector(c)} is "
                    "not integral"
                )
        closed = []
        zeros = total = 0
        for part, weights in (
            (PART_COMPACT, self.compact), (PART_NONCOMPACT, self.noncompact)
        ):
            # every entry an int is the common case, tested in one sweep
            ints = {type(x) for w, _ in weights for x in w} <= {int}
            mult = weights.mult
            negated = True
            for w, m in weights:
                if len(w) != n:
                    raise DatumError(
                        f"{self.name}: weight of wrong length in part {part}"
                    )
                if not (ints or _is_integral(w)):
                    raise DatumError(
                        f"{self.name}: weight {format_vector(w)} in part "
                        f"{part} is not integral"
                    )
                for c in cons:
                    if sum(map(mul, c, w)) != 0:
                        raise DatumError(
                            f"{self.name}: weight {format_vector(w)} not "
                            "orthogonal to the torus constraints"
                        )
                if part == PART_COMPACT and not any(w):
                    zeros += m
                if mult(vneg(w)) != m:
                    negated = False
                total += m
            closed.append(negated)
        if zeros != 0:
            raise DatumError(f"{self.name}: zero weight in the compact part")
        if not closed[0]:
            raise DatumError(f"{self.name}: compact part not closed under negation")
        if not closed[1]:
            raise DatumError(f"{self.name}: noncompact part not closed under negation")
        expect = self.dim_t + total
        if expect != self.dim_g:
            raise DatumError(
                f"{self.name}: dim bookkeeping {expect} != declared {self.dim_g}"
            )


def _is_integral(v: Vec) -> bool:
    return all(x.as_integer_ratio()[1] == 1 for x in v)


# ---------------------------------------------------------------------------
# root systems


class RootSystem:
    """The reduced part of a finite set of nonzero weights, checked once.

    The shortest weight on each ray forms the reduced part, kept as integer
    rows: the weights times one common denominator.  It must be a root
    system: the simple reflections of its lexicographic base permute it
    with integral Cartan numbers, and there are as many simple roots as its
    rank; otherwise DatumError.  One base decides it for all: the simple
    reflections then permute the positive roots but one, so every root is
    conjugate to a simple one and its reflection permutes the roots too.
    """

    def __init__(self, weights: Iterable[Vec]):
        weights = list(weights)
        n = len(weights[0]) if weights else 0
        flat = clear_denominators(itertools.chain.from_iterable(weights))[0]
        rows = {tuple(flat[k * n:(k + 1) * n]): w
                for k, w in enumerate(weights)}
        norm = {r: sum(map(mul, r, r)) for r in rows}
        rays: dict[IntVec, list[IntVec]] = {}
        for r in rows:
            rays.setdefault(tuple(primitive_ints(r)), []).append(r)
        roots = {min(rs, key=norm.get) for rs in rays.values()}
        # the roots as integer rows, each with the weight it stands for
        self._weight = {r: rows[r] for r in roots}
        # a positive system is keyed by one flag per root, in the order of
        # _weight; each one asked about keeps its simple roots, as the
        # given weights, and its coweights, as dual_rows
        self._lex_key = tuple(map(lex_positive, self._weight))
        self._systems: dict[
            tuple[bool, ...], tuple[tuple[Vec, ...], IntRows]
        ] = {}
        lex = self._indecomposable(self._lex_key)
        for a in lex:
            for r in roots:
                cartan, rest = divmod(2 * sum(map(mul, r, a)), norm[a])
                if rest or tuple(s - cartan * t for s, t in zip(r, a)) not in roots:
                    raise DatumError(
                        f"weights are not a root system: reflecting "
                        f"{format_vector(rows[r])} in {format_vector(rows[a])}"
                    )
        # the positives are sums of simple roots, so the roots span what the
        # simple roots and the roots whose negative is missing span
        lone = [r for r in roots if tuple(-t for t in r) not in roots]
        if len(lex) != (k := rank(lex + lone)):
            raise DatumError(
                f"weights are not a root system: {len(lex)} simple "
                f"roots for rank {k}"
            )

    def _indecomposable(self, key: tuple[bool, ...]) -> list[IntVec]:
        """The indecomposable members of the positive system with that key,
        sorted."""
        positive = {r for r, p in zip(self._weight, key) if p}
        return sorted(a for a in positive if not any(
            tuple(map(sub, a, b)) in positive for b in positive))

    def coweight_rows(
        self, x: Vec | None = None
    ) -> tuple[tuple[Vec, ...], IntRows]:
        """Simple roots of the positive system that x orders first, as the
        given weights, and the fundamental coweights as dual_rows: integer
        rows, each over one positive denominator.

        The positive system is the roots that pair > 0 with x, or to 0 and
        are lexicographically positive; only the signs of x count, so the
        parabolic passes its integer row.  Its simple roots and coweights
        are worked out the first time it is asked about and then
        remembered, one entry per chamber.
        """
        if x is None:
            key = self._lex_key
        else:
            key = tuple(
                (s := sum(map(mul, x, r))) > 0 or s == 0 and lex
                for r, lex in zip(self._weight, self._lex_key)
            )
        system = self._systems.get(key)
        if system is None:
            roots = tuple(self._weight[a] for a in self._indecomposable(key))
            system = self._systems[key] = (roots, dual_rows(roots))
        return system


# ---------------------------------------------------------------------------
# families

# the largest rank build_root_datum accepts, summed over the '+' parts of
# an expression; read from the parsed integers before any weight is built
MAX_FAMILY_RANK = 32


def _differences(coords: Sequence[int], ambient: int) -> list[IntVec]:
    """e_i - e_j for i != j in coords."""
    roots = []
    for i, j in itertools.permutations(coords, 2):
        w = [0] * ambient
        w[i] = 1
        w[j] = -1
        roots.append(tuple(w))
    return roots


def _signed_pairs(coords: Sequence[int], ambient: int) -> list[IntVec]:
    """+-e_a +- e_b for a < b in coords."""
    roots = []
    for a, b in itertools.combinations(coords, 2):
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            w = [0] * ambient
            w[a] = sa
            w[b] = sb
            roots.append(tuple(w))
    return roots


def _signed_units(coords: Sequence[int], ambient: int, s: int) -> list[IntVec]:
    """+-s e_a for a in coords."""
    roots = []
    for a in coords:
        for t in (s, -s):
            w = [0] * ambient
            w[a] = t
            roots.append(tuple(w))
    return roots


# G2's long roots +-(2 e_i - e_j - e_k), {i, j, k} = {0, 1, 2}
_G2_LONG = ((2, -1, -1), (-2, 1, 1), (-1, 2, -1), (1, -2, 1),
            (-1, -1, 2), (1, 1, -2))


def _complex_root_list(family: str, r: int) -> tuple[int, tuple[IntVec, ...], list[IntVec]]:
    """(ambient_dim, constraints, roots) for the split Cartan type."""
    if family == "A":
        n = r + 1
        return n, ((1,) * n,), _differences(range(n), n)
    if family == "G":
        # the short roots are A2's
        return 3, ((1, 1, 1),), _differences(range(3), 3) + list(_G2_LONG)
    roots = _signed_pairs(range(r), r)
    if family == "B":
        roots += _signed_units(range(r), r, 1)
    elif family == "C":
        roots += _signed_units(range(r), r, 2)
    elif family != "D":
        raise DatumError(f"unknown Cartan family {family!r}")
    return r, (), roots


def _split(
    name: str,
    ambient: int,
    constraints: tuple[IntVec, ...],
    roots: Iterable[IntVec],
    compact: Callable[[IntVec], bool],
    dim_g: int,
) -> RootDatum:
    """The real form whose compact Cartan t carries the given roots: each
    root in k where compact holds, else in p."""
    k: list[IntVec] = []
    p: list[IntVec] = []
    for w in roots:
        (k if compact(w) else p).append(w)
    return RootDatum(
        name,
        ambient,
        constraints,
        WeightMultiset.from_vectors(k),
        WeightMultiset.from_vectors(p),
        dim_g,
    )


def _in_one_block(p: int) -> Callable[[IntVec], bool]:
    """Whether a root's coordinates lie all among the first p, or all
    after them: the roots of s(u(p)+u(q)) and of sp(p)+sp(q)."""
    return lambda w: any(w[:p]) != any(w[p:])


# g2(R)'s maximal compact su(2)+su(2): one short and one long root pair,
# mutually orthogonal
_G2_COMPACT = frozenset({(1, -1, 0), (-1, 1, 0), (-1, -1, 2), (1, 1, -2)})


def _so_datum(name: str, p: int, q: int) -> RootDatum:
    """so(p,q): k = so(p)+so(q), and p the tensor product of their vector
    representations.  When p and q are both odd, t is not a Cartan
    subalgebra and +-e_a is a weight of k and of p, so this is no split."""
    m, l = p // 2, q // 2
    ambient = m + l
    comp: list[IntVec] = []
    vector: list[list[IntVec]] = []
    for coords, size in ((range(m), p), (range(m, ambient), q)):
        units = _signed_units(coords, ambient, 1)
        odd = size % 2 == 1
        comp += _signed_pairs(coords, ambient) + (units if odd else [])
        vector.append(units + ([vzero(ambient)] if odd else []))
    noncomp = [vadd(wa, wb) for wa in vector[0] for wb in vector[1]]
    n = p + q
    return RootDatum(
        name,
        ambient,
        (),
        WeightMultiset.from_vectors(comp),
        WeightMultiset.from_vectors(noncomp),
        n * (n - 1) // 2,
    )


def _complex_datum(name: str, family: str, r: int) -> RootDatum:
    """A complex simple algebra viewed as a real algebra, k its compact form.

    t is the compact Cartan; each root appears once in k and once in p, and
    p picks up a zero weight of multiplicity dim t.
    """
    ambient, cons, roots = _complex_root_list(family, r)
    dim_t = ambient - len(cons)
    noncomp = [(w, 1) for w in roots] + [(vzero(ambient), dim_t)]
    return RootDatum(
        name,
        ambient,
        cons,
        WeightMultiset.from_vectors(roots),
        WeightMultiset.of(noncomp),
        2 * (dim_t + len(roots)),
    )


def direct_sum(a: RootDatum, b: RootDatum, name: str | None = None) -> RootDatum:
    """Concatenate coordinates; weights of each factor are padded with zeros."""

    def pad_left(w: IntVec) -> IntVec:
        return w + vzero(b.ambient_dim)

    def pad_right(w: IntVec) -> IntVec:
        return vzero(a.ambient_dim) + w

    cons = tuple(pad_left(c) for c in a.t_constraints) + tuple(
        pad_right(c) for c in b.t_constraints
    )
    comp = WeightMultiset.of(
        [(pad_left(w), m) for w, m in a.compact]
        + [(pad_right(w), m) for w, m in b.compact]
    )
    noncomp = WeightMultiset.of(
        [(pad_left(w), m) for w, m in a.noncompact]
        + [(pad_right(w), m) for w, m in b.noncompact]
    )
    return RootDatum(
        name or f"{a.name}+{b.name}",
        a.ambient_dim + b.ambient_dim,
        cons,
        comp,
        noncomp,
        a.dim_g + b.dim_g,
    )


_CLASSICAL = re.compile(r"(su|so|sp)\((\d+)(?:,(\d+))?\)")
_COMPLEX = re.compile(r"(sl|so|sp)\((\d+),C\)")
_SPLIT_SP = re.compile(r"sp\((\d+),R\)")
# the least p + q of su(p,q), so(p,q), sp(p,q), and the least n of sl(n,C),
# so(n,C), sp(n,C)
_LEAST = {"su": 2, "so": 3, "sp": 1}
_LEAST_COMPLEX = {"sl": 2, "so": 5, "sp": 1}


def _family(text: str) -> tuple[int, Callable[[], RootDatum]]:
    """The rank of one family string, and a function that builds its
    datum; DatumError, before any weight is built, if it names none."""
    if m := _CLASSICAL.fullmatch(text):
        fam, p, q = m[1], int(m[2]), int(m[3] or 0)
        name = f"{fam}({p})" if q == 0 else f"{fam}({p},{q})"
        n = p + q
        if n < _LEAST[fam]:
            raise DatumError(f"{name}: need p+q >= {_LEAST[fam]}")
        if fam == "so":
            return n // 2, lambda: _so_datum(name, p, q)
        if fam == "sp":
            return n, lambda: _split(
                name, *_complex_root_list("C", n), _in_one_block(p),
                n * (2 * n + 1))
        if n == 2:
            # one coordinate t = diag(t, -t); the single root pairs as 2t
            return 1, lambda: _split(
                name, 1, (), [(2,), (-2,)], lambda w: q == 0, 3)
        return n - 1, lambda: _split(
            name, *_complex_root_list("A", n - 1), _in_one_block(p),
            n * n - 1)
    if m := _COMPLEX.fullmatch(text):
        fam, n = m[1], int(m[2])
        if n < _LEAST_COMPLEX[fam]:
            raise DatumError(f"{text}: need n >= {_LEAST_COMPLEX[fam]}")
        family, r = {"sl": ("A", n - 1), "so": ("DB"[n % 2], n // 2),
                     "sp": ("C", n)}[fam]
        return r, lambda: _complex_datum(text, family, r)
    if m := _SPLIT_SP.fullmatch(text):
        n = int(m[1])
        if n < 1:
            raise DatumError("sp(n,R): need n >= 1")
        # maximal compact u(n): the roots e_i - e_j, which vanish on its
        # centre (1, ..., 1)
        return n, lambda: _split(
            f"sp({n},R)", *_complex_root_list("C", n), lambda w: sum(w) == 0,
            2 * n * n + n)
    if text == "g2(R)":
        return 2, lambda: _split(
            text, *_complex_root_list("G", 2), _G2_COMPACT.__contains__, 14)
    if text == "g2":
        return 2, lambda: _split(
            text, *_complex_root_list("G", 2), lambda w: True, 14)
    if text == "g2(C)":
        return 2, lambda: _complex_datum(text, "G", 2)
    raise DatumError(f"unknown algebra family {text!r}")


def sum_parts(name: str) -> list[str]:
    """The '+'-joined parts of a family string, each stripped."""
    return [part.strip() for part in name.split("+")]


def build_root_datum(name: str) -> RootDatum:
    """Build the root datum for a family string.

    Supported: su(p,q), so(p,q), sp(n,R), sp(p,q), compact forms su(n),
    so(n), sp(n), g2, split g2(R), complex algebras sl(n,C), so(n,C),
    sp(n,C), g2(C), and '+'-joined direct sums of any of these, each part
    stripped as ``sum_parts`` does.  Every form but so(p,q) and the complex
    ones is a ``_split`` of one complex root list.  The rank, summed over
    the parts, is at most MAX_FAMILY_RANK; a larger one is refused with
    DatumError before any weight is built.
    """
    families = [_family(part) for part in sum_parts(name)]
    total = sum(r for r, _ in families)
    if total > MAX_FAMILY_RANK:
        raise DatumError(
            f"{name.strip()}: rank {total} is above the bound {MAX_FAMILY_RANK}"
        )
    return reduce(direct_sum, (build() for _, build in families))
