"""Theta-stable parabolic subalgebras q = l + u.

A parabolic is induced by an element X of the torus: weights pairing
positively with X span u, weights pairing to zero stay in the Levi part l
(together with the torus and any zero weights of p).  Construction,
enumeration over arrangement faces, parameter-range predicates and the
symmetric-type predicates all live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .cone_kernel import feasible_point
from .root_core import (
    DatumError,
    PART_COMPACT,
    PART_NONCOMPACT,
    RootDatum,
    Vec,
    WeightMultiset,
    is_zero_vec,
    lex_positive,
    orthogonal_complement,
    primitive_direction,
    solve_linear,
    vadd,
    vdot,
    vneg,
    vscale,
    vsub,
    vzero,
)

DEFAULT_MAX_RANK = 7


class UnsupportedQuery(Exception):
    """A question the model deliberately refuses to answer.

    Raised instead of guessing: non-equal-rank parameter ranges, rank
    bounds, and pair records that do not support a given check all land
    here.  The CLI maps this to its own exit code.
    """


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True, eq=False)
class ThetaStableParabolic:
    """q = l + u determined by X; identity is the weight partition, not X."""

    base: RootDatum
    x: Vec
    levi_compact: WeightMultiset
    levi_noncompact: WeightMultiset
    u_compact: WeightMultiset
    u_noncompact: WeightMultiset
    signature: tuple[int, ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThetaStableParabolic):
            return NotImplemented
        return self.base == other.base and self.signature == other.signature

    def __hash__(self) -> int:
        return hash((self.base, self.signature))

    def in_q(self, w: Vec) -> bool:
        return vdot(w, self.x) >= 0

    def in_u(self, w: Vec) -> bool:
        return vdot(w, self.x) > 0

    def in_levi(self, w: Vec) -> bool:
        return vdot(w, self.x) == 0

    @property
    def rho_u(self) -> Vec:
        out = vzero(self.base.ambient_dim)
        for ws in (self.u_compact, self.u_noncompact):
            for w, m in ws:
                out = vadd(out, vscale(m, w))
        return vscale(Fraction(1, 2), out)

    @property
    def S(self) -> int:
        return self.u_compact.total()

    @property
    def dim_u(self) -> int:
        return self.u_compact.total() + self.u_noncompact.total()

    @property
    def dim_levi(self) -> int:
        return (
            self.base.dim_t
            + self.levi_compact.total()
            + self.levi_noncompact.total()
        )

    @property
    def dim_q(self) -> int:
        return self.dim_levi + self.dim_u

    @property
    def is_full_algebra(self) -> bool:
        return self.dim_u == 0

    def levi_weights(self) -> Iterator[tuple[str, Vec, int]]:
        for w, m in self.levi_compact:
            yield PART_COMPACT, w, m
        for w, m in self.levi_noncompact:
            yield PART_NONCOMPACT, w, m

    def u_weights(self) -> Iterator[tuple[str, Vec, int]]:
        for w, m in self.u_compact:
            yield PART_COMPACT, w, m
        for w, m in self.u_noncompact:
            yield PART_NONCOMPACT, w, m

    def describe(self) -> dict:
        return {
            "X": [str(c) for c in self.x],
            "dim_levi": self.dim_levi,
            "dim_u": self.dim_u,
            "u_compact": self.u_compact.total(),
            "u_noncompact": self.u_noncompact.total(),
            "S": self.S,
            "rho_u": [str(c) for c in self.rho_u],
        }


def build_parabolic(base: RootDatum, x: Vec) -> ThetaStableParabolic:
    """Partition the weights of the base datum by their sign against x."""
    if len(x) != base.ambient_dim:
        raise DatumError(
            f"defining element has {len(x)} coordinates, expected "
            f"{base.ambient_dim}"
        )
    if not base.in_torus(x):
        raise DatumError("defining element violates the torus constraints")
    levi = {PART_COMPACT: [], PART_NONCOMPACT: []}
    upper = {PART_COMPACT: [], PART_NONCOMPACT: []}
    signature = []
    for part, w, m in base.weight_entries():
        s = _sign(vdot(w, x))
        signature.append(s)
        if s == 0:
            levi[part].append((w, m))
        elif s > 0:
            upper[part].append((w, m))
    return ThetaStableParabolic(
        base,
        x,
        WeightMultiset.of(levi[PART_COMPACT]),
        WeightMultiset.of(levi[PART_NONCOMPACT]),
        WeightMultiset.of(upper[PART_COMPACT]),
        WeightMultiset.of(upper[PART_NONCOMPACT]),
        tuple(signature),
    )


# ---------------------------------------------------------------------------
# enumeration over arrangement faces


def enumerate_parabolics(
    base: RootDatum,
    dominant_only: bool = False,
    max_rank: int = DEFAULT_MAX_RANK,
) -> list[ThetaStableParabolic]:
    """One parabolic per face of the arrangement {w . X = 0}.

    With dominant_only the defining element is confined to the closed
    dominant chamber of the lexicographic positive system of Delta(k,t),
    which picks K-conjugacy representatives.  Output order is the
    canonical signature order, so runs are reproducible.
    """
    if base.dim_t > max_rank:
        raise UnsupportedQuery(
            f"rank {base.dim_t} exceeds the enumeration bound {max_rank}"
        )
    tbasis = orthogonal_complement(base.t_constraints, base.ambient_dim)

    def restrict(w: Vec) -> Vec:
        return tuple(vdot(w, b) for b in tbasis)

    normals: list[Vec] = []
    seen = set()
    for _, w, _ in base.weight_entries():
        if is_zero_vec(w):
            continue
        n = primitive_direction(restrict(w))
        if n not in seen:
            seen.add(n)
            normals.append(n)
    normals.sort()

    # sign s of n . y as a constraint on y; strictness is encoded as
    # |n . y| >= 1, which is harmless up to scaling
    sign_constraints = [
        {
            -1: (vneg(n), True, Fraction(1)),
            0: (n, False, Fraction(0)),
            1: (n, True, Fraction(1)),
        }
        for n in normals
    ]
    dominance = [
        (restrict(w), True, Fraction(0))
        for w, _ in base.compact
        if dominant_only and lex_positive(w)
    ]

    # incremental sign-vector extension; each kept prefix carries a witness
    frontier: list[tuple[tuple[int, ...], Vec]] = [
        ((), vzero(len(tbasis)))
    ]
    for n in normals:
        nxt: list[tuple[tuple[int, ...], Vec]] = []
        for signs, y in frontier:
            inherited = _sign(vdot(n, y))
            for s in (-1, 0, 1):
                if s == inherited:
                    nxt.append((signs + (s,), y))
                    continue
                constraints = [
                    sign_constraints[i][t] for i, t in enumerate(signs + (s,))
                ]
                y2, _ = feasible_point(constraints + dominance, 0)
                if y2 is not None:
                    nxt.append((signs + (s,), y2))
        frontier = nxt

    out = []
    for _, y in frontier:
        x = vzero(base.ambient_dim)
        for c, b in zip(y, tbasis):
            x = vadd(x, vscale(c, b))
        out.append(build_parabolic(base, x))
    out.sort(key=lambda q: q.signature)
    return out


# ---------------------------------------------------------------------------
# parameter ranges


@dataclass(frozen=True)
class OrbitParameter:
    """Character parameter for l, as a torus functional.

    Two bookkeeping conventions coexist: 'orbit' carries the infinitesimal
    character of the underlying coadjoint orbit, 'aq' the module parameter;
    they differ by rho(u).
    """

    coords: Vec
    convention: str

    def __post_init__(self) -> None:
        if self.convention not in ("orbit", "aq"):
            raise DatumError(f"unknown parameter convention {self.convention!r}")

    def as_orbit(self, q: ThetaStableParabolic) -> Vec:
        if self.convention == "orbit":
            return self.coords
        return vadd(self.coords, q.rho_u)

    def as_aq(self, q: ThetaStableParabolic) -> Vec:
        if self.convention == "aq":
            return self.coords
        return vsub(self.coords, q.rho_u)


def _check_parameter(q: ThetaStableParabolic, lam: Vec) -> None:
    if len(lam) != q.base.ambient_dim:
        raise DatumError("parameter has the wrong dimension")
    for c in q.base.t_constraints:
        if vdot(c, lam) != 0:
            raise DatumError("parameter not orthogonal to the torus constraints")
    for _, w, _ in q.levi_weights():
        if not is_zero_vec(w) and vdot(lam, w) != 0:
            raise DatumError("parameter must vanish on the Levi roots")


def _rho_levi(q: ThetaStableParabolic) -> Vec:
    # half sum of the lexicographically positive Levi roots; the good-range
    # answer is independent of this choice for parameters killing Delta(l)
    out = vzero(q.base.ambient_dim)
    for _, w, m in q.levi_weights():
        if lex_positive(w):
            out = vadd(out, vscale(m, w))
    return vscale(Fraction(1, 2), out)


def good_range(q: ThetaStableParabolic, lam: OrbitParameter) -> bool:
    """Strict positivity of <lambda + rho_l, alpha> on Delta(u).

    Only defined when t is a full Cartan subalgebra of g (equal rank);
    otherwise the condition lives on a bigger Cartan that this model does
    not carry, and we refuse rather than guess.
    """
    if not q.base.equal_rank:
        raise UnsupportedQuery(
            "good range needs an equal-rank base; the fundamental Cartan "
            "is larger than t here"
        )
    lam_orbit = lam.as_orbit(q)
    _check_parameter(q, lam_orbit)
    shifted = vadd(lam_orbit, _rho_levi(q))
    return all(
        vdot(shifted, w) > 0 for _, w, _ in q.u_weights()
    )


def weakly_fair(q: ThetaStableParabolic, lam: OrbitParameter) -> bool:
    """Weak positivity of <lambda_aq + rho(u), alpha> on Delta(u)."""
    if not q.base.equal_rank:
        raise UnsupportedQuery(
            "weakly fair range needs an equal-rank base"
        )
    lam_aq = lam.as_aq(q)
    _check_parameter(q, lam_aq)
    shifted = vadd(lam_aq, q.rho_u)
    return all(
        vdot(shifted, w) >= 0 for _, w, _ in q.u_weights()
    )


# ---------------------------------------------------------------------------
# symmetric type


def _symmetric_system_solvable(
    q: ThetaStableParabolic, zeroed: frozenset[Vec]
) -> bool:
    """Does some X' in t pair to 0 on the nonzero Levi weights and on the
    compact u-weights whose direction is in zeroed, and to 1 on the rest
    of Delta(u)?
    """
    rows: list[Vec] = []
    rhs: list[Fraction] = []
    for _, w, _ in q.levi_weights():
        if not is_zero_vec(w):
            rows.append(w)
            rhs.append(Fraction(0))
    for part, w, _ in q.u_weights():
        absorbed = part == PART_COMPACT and primitive_direction(w) in zeroed
        rows.append(w)
        rhs.append(Fraction(0 if absorbed else 1))
    for c in q.base.t_constraints:
        rows.append(c)
        rhs.append(Fraction(0))
    if not rows:
        return True
    return solve_linear(rows, rhs) is not None


def is_symmetric_type(q: ThetaStableParabolic) -> bool:
    """Does some X' pair to 0 on Delta(l) and to 1 on all of Delta(u)?

    If so, the period-two inner automorphism attached to X' has fixed
    algebra l, so l arises from a symmetric pair.
    """
    return _symmetric_system_solvable(q, frozenset())


def is_virtually_symmetric_type(q: ThetaStableParabolic) -> bool:
    """Can q be enlarged to a symmetric-type parabolic by moving only
    compact weights into the Levi part?

    Tries each set of compact directions of u, smallest sets first, and
    asks for an X' in t pairing to 0 on the nonzero Levi weights and the
    compact u-weights along those directions, and to 1 on the other
    u-weights.  Such an X' induces that coarsening itself: the weights are
    closed under negation, so every remaining weight is the negative of
    one already fixed and pairs to -1 or 0 as the coarsening needs, and
    the coarser Levi is the fixed algebra of the involution attached to
    X'.  One exact linear solve therefore settles each set.
    """
    directions = sorted({primitive_direction(w) for w, _ in q.u_compact})
    return any(
        _symmetric_system_solvable(q, frozenset(zeroed))
        for r in range(len(directions) + 1)
        for zeroed in itertools.combinations(directions, r)
    )
