"""Verdicts for restriction questions, composed from the other modules.

Each operation returns a Verdict: a boolean answer, the list of condition
labels known to share that answer, a re-checkable rational certificate,
and a one-line statement of the criterion that was evaluated.  Boolean
answers are data; operational failures raise.

Every question about a pair and a parabolic q is asked of a Query,
which holds the work the questions share: a classify row asks all six
of one Query, and a verify table-row check asks transitivity and rho of
one, so each validates the pair, tests the cone against t^{-sigma},
reads the member signs and counts for transitivity once.

The cone of the noncompact u-weights G meets t^{-sigma} away from 0
exactly when y = X + sigma X fails to pair strictly positively with
some g in G, so ``deco`` runs no LP: one integer sign test per
generator decides it.  When y . g > 0 on G, y is fixed by sigma, so it
vanishes on t^{-sigma} and separates it from the cone.  When y . g <= 0,
-sigma g pairs positively with X, so it is in G too, and g - sigma g is
a nonzero meet point.  Only ``admissible``'s chamber test on a row
where y does not separate runs the LP, and it alone reads t^{-sigma},
through the normals cached on the pair; ``deco``'s note that t^{-sigma}
is zero compares dim t^sigma with dim t, which validation has already
computed.  Meet points are replayed by substitution on integers, the
point times the common denominator of its cone coefficients.

``rho`` runs on integers too: the pair's view keeps each cell's
restriction as its integer products with the view's restriction rows,
so the restricted lines are keyed and summed on those products, and
twice the induced rho is compared with the same rows applied to the
integer 2 rho(u).  A Fraction is built only for the two vectors its
witness prints.  Each verdict's inputs take X's strings from the
parabolic, which formats them once.
"""

from __future__ import annotations

from fractions import Fraction

from .cone_kernel import Cone, MeetResult, PointednessError, cones_meet
from .involution import (
    EmbeddingView,
    InvolutionData,
    InvolutionError,
    as_embedding_view,
    cap_dims,
    ensure_valid,
    member_signs,
    momentum_chamber,
)
from .parabolic import (
    ThetaStableParabolic,
    UnsupportedQuery,
    is_symmetric_type,
    is_virtually_symmetric_type,
)
from .root_core import (
    PART_NONCOMPACT,
    CertificateError,
    IntVec,
    Vec,
    cached_property,
    cleared_combination,
    dot,
    is_zero_vec,
    lex_positive,
    mat_apply,
    record,
    vadd,
    vector_strings,
    vneg,
)

QUESTIONS = ("deco", "admissible", "transitive", "rho", "symtype", "virtsym")

# condition labels sharing the deco answer, for any parameter in the
# weakly fair range
DECO_EQUIVALENTS = (
    "deco-some-weakly-fair",
    "deco-all-weakly-fair",
    "admissible-some-weakly-fair",
    "admissible-all-weakly-fair",
    "associated-variety-containment",
)


_SCOPE_NOTE = (
    "answer is uniform over nonzero modules attached to q with parameter "
    "in the weakly fair range; no specific parameter enters the test"
)


@record
class Verdict:
    question: str
    answer: bool
    equivalents: tuple[str, ...]
    witness: dict | None
    inputs: dict
    criterion: str
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "question": self.question,
            "answer": self.answer,
            "equivalents": list(self.equivalents),
            "witness": self.witness,
            "inputs": self.inputs,
            "criterion": self.criterion,
            "notes": list(self.notes),
        }


def _inputs(row: Query) -> dict:
    return {
        "pair": row.pair.pair_id,
        "base": row.q.base.name,
        "x": list(row.q.x_strings),
    }


class Query:
    """The questions about one (pair, q), with the work they share.

    Each piece is computed on first use and kept for the life of the
    object: the validated involution, the noncompact weights of u, the
    functional y = X + sigma X with the checked meet point it leaves,
    the pair's weight-cell view with the member signs under q, and the
    transitive verdict.
    ``involution`` and ``view`` validate the pair on first use.  A
    Query lives as long as the row or the command that asks it.
    """

    def __init__(self, pair, q: ThetaStableParabolic):
        self.pair = pair
        self.q = q

    @cached_property
    def involution(self) -> InvolutionData:
        inv = self.pair
        if not isinstance(inv, InvolutionData):
            raise UnsupportedQuery(
                "momentum-level tests need symmetric-pair data; this pair "
                "only carries an embedding record"
            )
        if inv.base != self.q.base:
            raise InvolutionError(
                "parabolic and pair live over different data")
        ensure_valid(inv)
        return inv

    @cached_property
    def generators(self) -> list[Vec]:
        """The noncompact weights of u."""
        return [w for part, w, _ in self.q.u_weights()
                if part == PART_NONCOMPACT]

    @cached_property
    def functional(self) -> Vec:
        """y = X + sigma X on the integer row of X.  sigma is orthogonal
        and involutive, so symmetric, and y . g = X . (g + sigma g)."""
        row = self.q.row
        return vadd(row, mat_apply(self.involution.matrix, row))

    @cached_property
    def meet(self) -> MeetResult | None:
        """None when the functional separates the cone from t^{-sigma};
        otherwise a checked nonzero point where they meet."""
        inv = self.involution
        gens = self.generators
        row = self.q.row
        for g in gens:
            if dot(g, row) <= 0:
                raise PointednessError(
                    "the row of X does not pair strictly positively with "
                    "every noncompact weight of u"
                )
        y = self.functional
        bad = next((g for g in gens if dot(y, g) <= 0), None)
        if bad is None:
            # y . p > 0 on every nonzero cone point and y . p = 0 on
            # t^{-sigma} once sigma y = y
            if mat_apply(inv.matrix, y) != y:
                raise CertificateError(
                    "separating functional is not fixed by sigma")
            return None
        # X . (-sigma g) >= X . g > 0, so -sigma g is a weight of u when
        # sigma permutes the noncompact weights
        index = {g: i for i, g in enumerate(gens)}
        partner = vneg(inv.sigma_weight(bad))
        if partner not in index:
            raise CertificateError(
                "-sigma g is not a noncompact weight of u for a generator "
                "g that the functional fails to separate"
            )
        coefficients = [0] * len(gens)
        coefficients[index[bad]] += 1
        coefficients[index[partner]] += 1
        result = MeetResult(
            True, vadd(bad, partner), tuple(coefficients), ())
        _verify_point(inv, gens, result)
        return result

    @cached_property
    def view(self) -> EmbeddingView:
        if not isinstance(self.pair, EmbeddingView):
            # a bare view carries no record to validate
            ensure_valid(self.pair)
        return as_embedding_view(self.pair)

    @cached_property
    def signs(self) -> list[list[int]]:
        return member_signs(self.view, self.q)

    @cached_property
    def transitive(self) -> Verdict:
        """The orbit count behind transitive_check, which rho reads."""
        q = self.q
        view = self.view
        cap_q, cap_l = cap_dims(view, self.signs)
        dim_q = q.dim_q
        orbit = view.dim_gprime - cap_l
        manifold = 2 * q.dim_u
        answer = orbit == manifold
        span_identity = (view.dim_gprime - cap_q) == (q.base.dim_g - dim_q)
        if answer and not span_identity:
            # openness implies the span identity
            raise CertificateError(
                "open orbit without the span identity: the cell data is "
                "internally inconsistent"
            )
        notes = [
            f"orbit dimension {orbit}, flag manifold dimension {manifold}",
            "span identity dim g' - dim(g' cap q) == dim g - dim q: "
            f"{str(span_identity).lower()}",
        ]
        if answer:
            notes.append(f"induced parabolic dimension: {cap_q}")
        return Verdict(
            question="transitive",
            answer=answer,
            equivalents=(),
            witness={
                "kind": "dimension-count",
                "dim_gprime": view.dim_gprime,
                "dim_gprime_cap_q": cap_q,
                "dim_gprime_cap_levi": cap_l,
                "dim_g": q.base.dim_g,
                "dim_q": dim_q,
                "dim_u": q.dim_u,
            },
            inputs=_inputs(self),
            criterion=(
                "dim g' - dim(g' cap l) equals 2 dim u, so the subgroup orbit "
                "of the base point in the flag manifold is open"
            ),
            notes=tuple(notes),
        )


def _verify_point(
    inv: InvolutionData, gens: list[Vec], result: MeetResult
) -> None:
    # substitution check: the claimed point really is the conic
    # combination of its coefficients and really lies in t^{-sigma}.  As
    # a sum of weights it lies in t, so that means sigma p = -p.  The
    # checks run on D p, for D the common denominator of the
    # coefficients, which has the same signs and zeros and, for integer
    # weights, integer entries.
    if result.point is None or result.coefficients is None:
        raise CertificateError("intersection claimed without a point")
    for c in result.coefficients:
        if c < 0:
            raise CertificateError(f"negative cone coefficient {c}")
    total, den = cleared_combination(
        result.coefficients, gens, len(result.point)
    )
    # the entry n / d of p is the combination's D p entry t / D exactly
    # when t d = D n
    for t, p in zip(total, result.point, strict=True):
        n, d = p.as_integer_ratio()
        if t * d != den * n:
            raise CertificateError(
                "intersection point is not the combination of its "
                "coefficients"
            )
    if inv.sigma_weight(total) != vneg(total):
        raise CertificateError("intersection point is outside the subspace")
    if is_zero_vec(total):
        raise CertificateError("intersection point is zero")


def _meet_witness(result: MeetResult) -> dict:
    if result.meets:
        return {
            "kind": "intersection-point",
            "point": vector_strings(result.point),
            "cone_coefficients": vector_strings(result.coefficients),
        }
    return {"kind": "infeasibility-basis", "basis": list(result.basis)}


def _functional_witness(row: Query) -> dict:
    return {
        "kind": "separating-functional",
        "functional": vector_strings(row.functional),
    }


def discretely_decomposable(row: Query) -> Verdict:
    """Does the asymptotic cone of u cap p miss the split part of the torus?

    True means the restriction to the fixed-point subgroup splits discretely,
    with admissible multiplicities, for every weakly fair parameter.
    """
    inv = row.involution
    meet = row.meet
    notes = [_SCOPE_NOTE]
    if not row.generators:
        notes.append("u contains no noncompact weights; the cone is zero")
    if inv.dim_t_sigma == inv.base.dim_t:
        notes.append(
            "the split torus part is zero; restriction to the fixed "
            "subgroup is automatically admissible"
        )
    return Verdict(
        question="deco",
        answer=meet is None,
        equivalents=DECO_EQUIVALENTS,
        witness=(_functional_witness(row) if meet is None
                 else _meet_witness(meet)),
        inputs=_inputs(row),
        criterion=(
            "the closed cone spanned by the noncompact weights of u meets "
            "the -1 eigenspace of the involution on the torus only at 0"
        ),
        notes=tuple(notes),
    )


def admissible_sufficient(row: Query) -> Verdict:
    """Sufficient test: the cone of u cap p misses the momentum chamber.

    True guarantees admissible restriction (finite multiplicities and a
    Hilbert-sum decomposition).  False is inconclusive by this test alone,
    since the cone only bounds the true asymptotic support from above; for
    symmetric pairs the subspace test is decisive and is cross-referenced;
    the row's meet gives that subspace test.  The chamber lies in
    t^{-sigma}, so where the row's functional separates the cone from
    t^{-sigma} it separates the chamber too, and no LP runs.
    """
    inv = row.involution
    subspace_meets = row.meet is not None
    if subspace_meets:
        walls = momentum_chamber(inv)
        cone = Cone.from_generators(row.generators, row.q.base.ambient_dim)
        result = cones_meet(cone, inv.t_minus_sigma_normals, walls, row.q.row)
        if result.meets:
            _verify_point(inv, row.generators, result)
        chamber_meets = result.meets
        witness = _meet_witness(result)
    else:
        chamber_meets = False
        witness = _functional_witness(row)
    notes = [
        _SCOPE_NOTE,
        f"chamber test intersects: {str(chamber_meets).lower()}",
        f"full subspace test intersects: {str(subspace_meets).lower()}",
    ]
    if chamber_meets:
        notes.append(
            "inconclusive by this test alone; the bounding cone may "
            "overshoot the true asymptotic support"
        )
        notes.append(
            "decisive for symmetric pairs via the subspace test, which "
            "reports discrete decomposability = false"
        )
    return Verdict(
        question="admissible",
        answer=not chamber_meets,
        equivalents=(),
        witness=witness,
        inputs=_inputs(row),
        criterion=(
            "the closed cone spanned by the noncompact weights of u meets "
            "the dominant chamber of the restricted root system only at 0"
        ),
        notes=tuple(notes),
    )


def transitive_check(row: Query) -> Verdict:
    """Is the subgroup orbit of the base point open in the flag manifold?

    The isotropy algebra there is g' cap l, so the orbit dimension is
    dim g' - dim(g' cap l), to be compared with the manifold dimension
    2 dim u.  Openness forces the span identity g' + q = g, reported
    alongside; for the catalogued families openness upgrades to a
    transitive action, which is what lets induced modules restrict.
    The row keeps the verdict for rho.
    """
    return row.transitive


def _induced_rho(
    view: EmbeddingView, signs: list[list[int]]
) -> tuple[IntVec, int]:
    """Twice the half sum of restricted weights over the nilradical of
    the induced parabolic q' = g' cap q, as integer products with the
    view's restriction rows, with the u'-cell count; ``signs`` is
    member_signs(view, q).

    Cells fully inside Delta(q) carry q'; among those, a restricted-weight
    line belongs to the induced Levi when both signs are fully present,
    and to u' when only one sign is.  Partial two-sided lines leave q'
    ill-defined at this level of data and are reported as unsupported.
    Each row keeps one denominator for every cell, so lines are keyed,
    and their signs read, on the cells' products.
    """
    per_line: dict[IntVec, list[int]] = {}
    # counts per canonical line: [plus_total, plus_in_q, minus_total, minus_in_q]
    for cell, cell_signs in zip(view.cells, signs):
        beta = cell.products
        if not any(beta):
            continue  # centralises the small torus: always induced-Levi
        pos = lex_positive(beta)
        key = beta if pos else vneg(beta)
        rec = per_line.setdefault(key, [0, 0, 0, 0])
        off = 0 if pos else 2
        rec[off] += 1
        if all(s >= 0 for s in cell_signs):
            rec[off + 1] += 1
    total = [0] * len(view.restriction)
    count = 0
    for key, (plus_total, plus_q, minus_total, minus_q) in per_line.items():
        if plus_q == 0 and minus_q == 0:
            continue
        if plus_q == plus_total and minus_q == minus_total:
            continue  # full line: induced Levi, cancels in the half sum
        if minus_q == 0:
            c = plus_q
        elif plus_q == 0:
            c = -minus_q
        else:
            raise UnsupportedQuery(
                "induced parabolic is ambiguous: a restricted weight line "
                "is only partially inside q on both sides"
            )
        total = [t + c * x for t, x in zip(total, key)]
        count += abs(c)
    return tuple(total), count


def rho_compat_check(row: Query) -> Verdict:
    """Does rho of u restrict to rho of the induced u'?

    Requires the transitivity identity, so the induced parabolic
    q' = g' cap q is defined and its nilradical has a half sum to compare.
    Both sides are compared as twice their restrictions, in integer
    products with the view's restriction rows: the integer 2 rho(u)
    against the sum over u'.  A Fraction is built only for the two
    vectors of the witness.  The row shares the transitive verdict and
    the member signs.
    """
    if not row.transitive.answer:  # validates the pair first
        raise UnsupportedQuery(
            "rho comparison needs the transitivity identity; it fails here"
        )
    view = row.view
    two_rho_prime, uprime_cells = _induced_rho(view, row.signs)
    two_rho = row.q.two_rho_u
    two_rho_restricted = tuple(
        [dot(nums, two_rho) for nums, _ in view.restriction])

    def halved(products: IntVec) -> list[str]:
        return vector_strings(
            Fraction(x, 2 * den)
            for x, (_, den) in zip(products, view.restriction)
        )

    return Verdict(
        question="rho",
        answer=two_rho_restricted == two_rho_prime,
        equivalents=(),
        witness={
            "kind": "rho-vectors",
            "rho_u_restricted": halved(two_rho_restricted),
            "rho_u_prime": halved(two_rho_prime),
        },
        inputs=_inputs(row),
        criterion=(
            "rho of u, restricted to the subalgebra torus, equals rho of "
            "the induced nilradical u'"
        ),
        notes=(f"u' carries {uprime_cells} restricted weights",),
    )


def symmetric_type_verdict(q: ThetaStableParabolic) -> Verdict:
    answer = is_symmetric_type(q)
    return Verdict(
        question="symtype",
        answer=answer,
        equivalents=(),
        witness=None,
        inputs={"base": q.base.name, "x": list(q.x_strings)},
        criterion=(
            "some torus element pairs to 0 on the Levi weights and to 1 "
            "on the nilradical weights, so the Levi is a symmetric-pair "
            "fixed algebra"
        ),
        notes=("multiplicity-one restriction statements attach to this "
               "shape of Levi",),
    )


def virtually_symmetric_verdict(q: ThetaStableParabolic) -> Verdict:
    answer = is_virtually_symmetric_type(q)
    return Verdict(
        question="virtsym",
        answer=answer,
        equivalents=(),
        witness=None,
        inputs={"base": q.base.name, "x": list(q.x_strings)},
        criterion=(
            "some enlargement of q obtained by absorbing compact walls "
            "into the Levi has symmetric type"
        ),
        notes=(),
    )


def answer_question(row: Query, question: str) -> Verdict:
    """Dispatch by question keyword; the CLI entry point.  The verdict
    functions are looked up by their module names at each call, so a
    wrapper bound in their place sees every dispatch."""
    if question == "deco":
        return discretely_decomposable(row)
    if question == "admissible":
        return admissible_sufficient(row)
    if question == "transitive":
        return transitive_check(row)
    if question == "rho":
        return rho_compat_check(row)
    if question == "symtype":
        return symmetric_type_verdict(row.q)
    if question == "virtsym":
        return virtually_symmetric_verdict(row.q)
    raise ValueError(f"unknown question {question!r}")
