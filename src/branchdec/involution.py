"""Involutions, symmetric-pair data, restricted roots, and embeddings.

An InvolutionData models sigma with G' = G^sigma through its rational
matrix on the torus plus catalog-supplied signs on the sigma-fixed weight
lines.  A separate EmbeddingRecord covers the one catalogued reductive
subalgebra that is not symmetric.  Both reduce to the same weight-cell
view, which is what the dimension and rho bookkeeping consumes.

A record's validation is the tuple of the names of the checks it fails,
() when it passes.  An involution's validation applies sigma once to
each base weight, filling the sigma_images that later readers look up,
and walks each part of the base once; an embedding's reads the grouping
of its view.  Once validation has made sigma an orthogonal
involution of t, a weight w restricts to t^{sigma} and t^{-sigma} as
(w + sigma w)/2 and (w - sigma w)/2, so an involution's view restricts
by (I + sigma^T)/2 and needs no projection matrix; only the torus rows
of an embedding are projected onto.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

from .parabolic import ThetaStableParabolic
from .root_core import (
    PART_COMPACT,
    PART_NONCOMPACT,
    RootDatum,
    Vec,
    WeightMultiset,
    clear_denominators,
    dot,
    format_vector,
    identity,
    is_zero_vec,
    lex_positive,
    mat_apply,
    nullspace,
    projection_matrix,
    rank,
    record,
    subspace_normals,
    vadd,
    vdot,
    vhalf,
    vneg,
    vsub,
    vzero,
)


class InvolutionError(ValueError):
    """Malformed or invalid involution/embedding data."""


@record
class TableRow:
    """A catalogued defining element with its human-readable Levi label."""

    x: Vec
    levi: str


def _mat_transpose(rows: Sequence[Vec]) -> tuple[Vec, ...]:
    n = len(rows)
    return tuple(tuple(rows[i][j] for i in range(n)) for j in range(n))


def _image_map(mt: Sequence[Vec]) -> Callable[[Vec], Vec]:
    """w -> mt w, with the values mat_apply gives.

    When every row of mt is int with at most one nonzero entry (a signed
    permutation, as every catalogued sigma is), each entry of the image
    is one product c * w[i], read from the row's term (i, c)."""
    terms = [[(i, c) for i, c in enumerate(row) if c] for row in mt]
    if all(len(t) <= 1 for t in terms) and (
        {type(c) for row in mt for c in row} <= {int}
    ):
        single = [t[0] if t else (0, 0) for t in terms]
        return lambda w: tuple([c * w[i] for i, c in single])
    return lambda w: mat_apply(mt, w)


@record
class InvolutionData:
    """sigma on t-coordinates plus sign data on sigma-fixed weight lines.

    eps entries are keyed by (part, weight) and give the sign of sigma on
    the corresponding one-dimensional weight space; they are catalog data,
    validated through the dimension identity for g^sigma.
    """

    base: RootDatum
    matrix: tuple[Vec, ...]
    eps: tuple[tuple[str, Vec, int], ...]
    zero_weight_fixed_dim: int
    dim_gprime: int
    label: str
    pair_id: str
    table_rows: tuple[TableRow, ...] = ()

    # Everything below derived from the fields is computed on first use
    # and kept on the record.  The record is frozen, so nothing can go
    # stale; root_core.replace builds a new record with empty caches.

    @cached_property
    def report(self) -> tuple[str, ...]:
        """The names of the checks validate_involution fails."""
        return validate_involution(self)

    @cached_property
    def sigma_transpose(self) -> tuple[Vec, ...]:
        return _mat_transpose(self.matrix)

    @cached_property
    def sigma_of(self) -> Callable[[Vec], Vec]:
        """sigma on weights, w -> sigma^T w; it takes row k of a matrix
        A to row k of A sigma."""
        return _image_map(self.sigma_transpose)

    @cached_property
    def sigma_images(self) -> dict[Vec, Vec]:
        """sigma_weight of every weight of the base datum, each applied
        once; validation fills it, and every later reader looks up."""
        sigma = self.sigma_of
        weights = self.base.compact.support() + self.base.noncompact.support()
        return {w: sigma(w) for w in dict.fromkeys(weights)}

    @cached_property
    def eps_signs(self) -> dict[tuple[str, Vec], int]:
        """The eps entries by (part, weight); the first entry of a key wins."""
        signs: dict[tuple[str, Vec], int] = {}
        for p, v, s in self.eps:
            signs.setdefault((p, v), s)
        return signs

    @cached_property
    def dim_t_sigma(self) -> int:
        return self.base.ambient_dim - rank(self._eigenrows(1))

    @cached_property
    def t_minus_sigma_normals(self) -> tuple[Vec, ...]:
        """The normals of t^{-sigma} that the cone kernel tests a point
        against, built once for the record rather than once per meet."""
        return subspace_normals(
            nullspace(self._eigenrows(-1)), self.base.ambient_dim)

    @cached_property
    def view(self) -> EmbeddingView:
        return involution_view(self)

    @cached_property
    def restricted(self) -> RestrictedRootSystem:
        """The restricted roots, unvalidated; restricted_roots validates."""
        return _restricted_root_system(self)

    def sigma_weight(self, w: Vec) -> Vec:
        # weights transform by the transpose: (sigma.w)(X) = w(sigma X)
        image = self.sigma_images.get(w)
        return self.sigma_of(w) if image is None else image

    def _eigenrows(self, sign: int) -> list[Vec]:
        """Rows whose common kernel is the sign eigenspace of sigma on t."""
        eye = identity(self.base.ambient_dim)
        rows = [
            tuple([x - sign * y for x, y in zip(r, e)])
            for r, e in zip(self.matrix, eye)
        ]
        rows.extend(self.base.t_constraints)
        return rows


def validate_involution(inv: InvolutionData) -> tuple[str, ...]:
    """The names of the structural checks the record fails, in a fixed
    order; () when it passes.  Never raises.

    sigma is applied once per weight, to fill ``sigma_images``; then one
    pass over each part of the base gathers what the weight checks read:
    whether sigma permutes the part, the fixed nonzero weights and their
    multiplicities, the pairs {w, sigma w}, the fixed weights with sign
    +1, the zero weights of p and the compact fixed weights."""
    base = inv.base
    n = base.ambient_dim
    m = inv.matrix
    if not (len(m) == n and all(len(r) == n for r in m)):
        return ("matrix-shape",)

    eye = identity(n)
    mt = inv.sigma_transpose
    cons = base.t_constraints
    images = inv.sigma_images
    signs = inv.eps_signs
    permutes = []
    fixed = set()
    simple = True
    pairs = plus = zeros = 0
    tminus = True
    for part, weights in (
        (PART_COMPACT, base.compact), (PART_NONCOMPACT, base.noncompact)
    ):
        mult = weights.mult
        closed = True
        for w, mm in weights:
            if not any(w):
                # sigma fixes 0; a compact zero weight needs sign +1
                if part == PART_COMPACT:
                    tminus = tminus and signs.get((part, w)) == 1
                else:
                    zeros += mm
                continue
            sw = images[w]
            if mult(sw) != mm:
                closed = False
            if sw != w:
                pairs += mm
                continue
            fixed.add((part, w))
            simple = simple and mm == 1
            if signs.get((part, w)) == 1:
                plus += mm
            elif part == PART_COMPACT:
                tminus = False
        permutes.append(closed)

    # sigma sigma, row by row; an orthogonal involution is symmetric, and
    # when sigma^T = sigma the one product serves both checks
    sigma = inv.sigma_of
    square = tuple(map(sigma, m))
    images_of_cons = tuple(map(sigma, cons))
    checks = {
        "matrix-involutive": square == eye,
        "matrix-orthogonal": (
            square if mt == m else tuple(map(sigma, mt))
        ) == eye,
        # sigma^T c lies in the span of the constraints for every
        # constraint c exactly when adding the images keeps the rank, which
        # is n - dim t: one elimination for all rows, and none when there
        # are no rows or each image is a constraint or its negative
        "matrix-preserves-torus": (
            set(images_of_cons) <= {*cons, *map(vneg, cons)}
            or rank([*cons, *images_of_cons]) == n - base.dim_t
        ),
        "permutes-compact-weights": permutes[0],
        "permutes-noncompact-weights": permutes[1],
        # one sign in {+1,-1} per fixed weight line, each of multiplicity 1
        "eps-covers-fixed-weights": (
            fixed == signs.keys()
            and all(s in (1, -1) for _, _, s in inv.eps)
            and simple
        ),
        "eps-negation-symmetric": all(
            signs.get((p, vneg(w))) == s for p, w, s in inv.eps
        ),
        "zero-weight-fixed-dim-range": 0 <= inv.zero_weight_fixed_dim <= zeros,
        # dim g^sigma = dim t^sigma + the fixed zero weights of p + one
        # line per pair {w, sigma w} + the fixed weights with sign +1
        "fixed-dimension-bookkeeping": (
            inv.dim_t_sigma + inv.zero_weight_fixed_dim + pairs // 2 + plus
            == inv.dim_gprime
        ),
        # necessary condition for t^{-sigma} maximal abelian in
        # k^{-sigma}: a compact root vanishing on t^{-sigma} must have
        # sign +1; it restricts there to (w - sigma w)/2, so it vanishes
        # iff sigma-fixed
        "tminus-maximality-necessary": tminus,
        "table-rows-in-torus": all(
            base.in_torus(row.x) for row in inv.table_rows
        ),
    }
    return tuple(name for name, passed in checks.items() if not passed)


def ensure_valid(pair: InvolutionData | EmbeddingRecord) -> None:
    """Raise InvolutionError unless the record passes its validation."""
    if pair.report:
        names = ", ".join(pair.report)
        raise InvolutionError(f"{pair.pair_id}: failed checks: {names}")


# ---------------------------------------------------------------------------
# builders


def build_theta_involution(base: RootDatum) -> InvolutionData:
    """sigma = theta, G' = K; every weight is fixed with sign by its part."""
    eps = []
    for part, w, _ in base.weight_entries():
        if is_zero_vec(w):
            continue
        eps.append((part, w, 1 if part == PART_COMPACT else -1))
    return InvolutionData(
        base,
        identity(base.ambient_dim),
        tuple(eps),
        0,
        base.dim_k,
        f"theta on {base.name}",
        f"theta:{base.name}",
    )


def build_swap_involution(base: RootDatum, half: RootDatum) -> InvolutionData:
    """Factor swap on g + g, G' the diagonal copy."""
    h = half.ambient_dim
    if base.ambient_dim != 2 * h:
        raise InvolutionError("base is not a doubled copy of the half datum")
    for part_tag, whole, part_half in (
        ("compact", base.compact, half.compact),
        ("noncompact", base.noncompact, half.noncompact),
    ):
        rebuilt = WeightMultiset.of(
            [(w + vzero(h), mm) for w, mm in part_half]
            + [(vzero(h) + w, mm) for w, mm in part_half]
        )
        if rebuilt.nonzero() != whole.nonzero():
            raise InvolutionError(
                f"{part_tag} weights are not two blocks of the half datum"
            )
    rows = []
    for i in range(2 * h):
        r = [0] * (2 * h)
        r[(i + h) % (2 * h)] = 1
        rows.append(tuple(r))
    return InvolutionData(
        base,
        tuple(rows),
        (),
        half.noncompact.zero_mult(),
        half.dim_g,
        f"factor swap on {base.name}",
        f"swap:{base.name}",
    )


# ---------------------------------------------------------------------------
# restricted roots and the momentum chamber


@record
class RestrictedRootSystem:
    roots: WeightMultiset
    positive: WeightMultiset


def restricted_roots(inv: InvolutionData) -> RestrictedRootSystem:
    """Nonzero restrictions of Delta(k,t) to t^{-sigma}, read from the
    record once it has passed its validation."""
    ensure_valid(inv)
    return inv.restricted


def _restricted_root_system(inv: InvolutionData) -> RestrictedRootSystem:
    """Each root w restricts to (w - sigma w)/2: w lies in t, which
    sigma splits orthogonally into t^sigma and t^{-sigma}.  The integer
    difference is halved, so a Fraction is built only for an odd entry.
    Positivity is lexicographic in ambient coordinates, which is generic
    for any finite root collection and fixed across runs."""
    acc: list[tuple[Vec, int]] = []
    for w, m in inv.base.compact:
        r = vhalf(vsub(w, inv.sigma_weight(w)))
        if not is_zero_vec(r):
            acc.append((r, m))
    roots = WeightMultiset.of(acc)
    positive = WeightMultiset.of(
        (w, m) for w, m in roots if lex_positive(w)
    )
    return RestrictedRootSystem(roots, positive)


def momentum_chamber(inv: InvolutionData) -> tuple[Vec, ...]:
    """The walls of the dominant chamber of the restricted root system,
    read from the record once it has passed its validation.

    The chamber is {p in t^{-sigma} : beta . p >= 0 for every positive
    restricted root beta}, so its walls are the positive restricted
    roots.
    """
    ensure_valid(inv)
    return inv.restricted.positive.support()


# ---------------------------------------------------------------------------
# weight cells: common view for involutions and plain embeddings


@record
class WeightCell:
    """Supports of one line of the subalgebra inside the weight spaces.

    The subalgebra meets the span of the listed (part, weight) lines in a
    one-dimensional space; it lies inside a parabolic exactly when every
    member weight does.
    """

    part: str
    members: tuple[Vec, ...]
    restricted: Vec


@record
class EmbeddingView:
    """The weight cells of a subalgebra and ``restriction``, the matrix
    taking a vector of t to its restriction to the subalgebra torus."""

    base: RootDatum
    restriction: tuple[Vec, ...]
    fixed_zero_dim: int
    cells: tuple[WeightCell, ...]
    dim_gprime: int
    pair_id: str

    @cached_property
    def restriction_rows(self) -> tuple[tuple[list[int], int], ...]:
        """Each row of ``restriction`` as (integers n_j, least d > 0) with
        row_j = n_j / d: restricting an integer vector is then an integer
        product and one division per entry."""
        return tuple(clear_denominators(row) for row in self.restriction)


def involution_view(inv: InvolutionData) -> EmbeddingView:
    """One cell per line of g^sigma: a sigma-fixed weight with sign +1,
    or a pair {w, sigma w}, restricted to t^sigma as (w + sigma w)/2.
    The restriction is (I + sigma^T)/2, built with no elimination."""
    restriction = tuple(
        vhalf(vadd(e, row))
        for e, row in zip(identity(inv.base.ambient_dim), inv.sigma_transpose)
    )
    images = inv.sigma_images
    signs = inv.eps_signs
    cells: list[WeightCell] = []
    for part, w, m in inv.base.weight_entries():
        if not any(w):
            continue
        sw = images[w]
        if sw == w:
            if signs.get((part, w)) == 1:
                cells.extend([WeightCell(part, (w,), w)] * m)
        elif w < sw:
            restr = vhalf(vadd(w, sw))
            cells.extend([WeightCell(part, (w, sw), restr)] * m)
    return EmbeddingView(
        inv.base,
        restriction,
        inv.dim_t_sigma + inv.zero_weight_fixed_dim,
        tuple(cells),
        inv.dim_gprime,
        inv.pair_id,
    )


@record
class EmbeddingRecord:
    """A reductive subalgebra given by its torus and weight matching only.

    Used for catalogued non-symmetric embeddings.  Weights with equal
    nonzero restriction to the small torus are grouped into cells; the
    declared dimension pins the grouping down (each cell carries exactly
    one line of the subalgebra).
    """

    base: RootDatum
    tprime_rows: tuple[Vec, ...]
    extra_zero_dim: int
    dim_gprime: int
    label: str
    pair_id: str
    table_rows: tuple[TableRow, ...] = ()

    # derived data is cached as on InvolutionData

    @cached_property
    def report(self) -> tuple[str, ...]:
        """The names of the checks validate_embedding fails."""
        return validate_embedding(self)

    @cached_property
    def view(self) -> EmbeddingView:
        return embedding_view(self)


def validate_embedding(rec: EmbeddingRecord) -> tuple[str, ...]:
    """The names of the checks the record fails, in a fixed order; ()
    when it passes.  Never raises."""
    n = rec.base.ambient_dim
    rows = rec.tprime_rows
    if not all(len(r) == n for r in rows):
        return ("tprime-shape",)
    view = rec.view
    checks = {
        "tprime-independent": rank(list(rows)) == len(rows),
        "tprime-in-torus": all(rec.base.in_torus(r) for r in rows),
        # a weight vanishes on t' iff it is orthogonal to every row; the
        # view's cells group exactly the weights that do not, so none
        # vanishes iff they hold every nonzero weight
        "no-weight-vanishes-on-tprime": (
            sum(len(cell.members) for cell in view.cells)
            == sum(any(w) for _, w, _ in rec.base.weight_entries())
        ),
        "cell-count-bookkeeping": (
            view.fixed_zero_dim + len(view.cells) == rec.dim_gprime
        ),
        "table-rows-in-torus": all(
            rec.base.in_torus(row.x) for row in rec.table_rows
        ),
    }
    return tuple(name for name, passed in checks.items() if not passed)


def embedding_view(rec: EmbeddingRecord) -> EmbeddingView:
    """Weights with equal dot products with every t' row have equal
    projections onto t', so the weights are grouped by those integer dot
    products and each cell is projected once, by vdot, which builds one
    Fraction per entry of the rational projection; a weight whose
    products all vanish restricts to 0 and is in no cell."""
    projection = projection_matrix(rec.tprime_rows, rec.base.ambient_dim)
    groups: dict[tuple[str, tuple], list[Vec]] = {}
    for part, w, _ in rec.base.weight_entries():
        products = tuple(dot(w, r) for r in rec.tprime_rows)
        if any(products):
            groups.setdefault((part, products), []).append(w)
    cells = sorted(
        (
            WeightCell(part, tuple(sorted(members)),
                       tuple(vdot(row, members[0]) for row in projection))
            for (part, _), members in groups.items()
        ),
        key=lambda cell: (cell.part, cell.restricted),
    )
    return EmbeddingView(
        rec.base,
        projection,
        len(rec.tprime_rows) + rec.extra_zero_dim,
        tuple(cells),
        rec.dim_gprime,
        rec.pair_id,
    )


def as_embedding_view(
    pair: InvolutionData | EmbeddingRecord | EmbeddingView,
) -> EmbeddingView:
    if isinstance(pair, EmbeddingView):
        return pair
    if isinstance(pair, (InvolutionData, EmbeddingRecord)):
        return pair.view
    raise InvolutionError(f"cannot view {type(pair).__name__} as an embedding")


def cap_dims(
    view: EmbeddingView, signs: Sequence[Sequence[int]]
) -> tuple[int, int]:
    """(dim g' cap q, dim g' cap l) from member_signs(view, q).

    The subalgebra torus and fixed zero-weight part always sit inside the
    Levi; each cell lies in q exactly when all of its member weights lie
    in Delta(q), and in the Levi when all of them lie in Delta(l).  The
    Levi part is the isotropy algebra of the subgroup at the base point of
    the flag manifold attached to q, so dim_gprime minus it is the
    dimension of the subgroup orbit there.
    """
    return (
        view.fixed_zero_dim + sum(all(s >= 0 for s in c) for c in signs),
        view.fixed_zero_dim + sum(not any(c) for c in signs),
    )


def member_signs(
    view: EmbeddingView, q: ThetaStableParabolic
) -> list[list[int]]:
    """The signs under q of the member weights, cell by cell.

    Raises InvolutionError when the view and q live over different data
    or a cell member is not a weight of the base.
    """
    if view.base != q.base:
        raise InvolutionError("parabolic and pair live over different data")
    signs = q.weight_signs
    try:
        return [[signs[w] for w in cell.members] for cell in view.cells]
    except KeyError as exc:
        raise InvolutionError(
            f"{view.pair_id}: cell member {format_vector(exc.args[0])} is "
            f"not a weight of {view.base.name}"
        ) from None
