"""Theta-stable parabolic subalgebras q = l + u.

A parabolic is induced by an element X of the torus: weights pairing
positively with X span u, weights pairing to zero stay in the Levi part l
(together with the torus and any zero weights of p).  Construction,
enumeration over arrangement faces and the symmetric-type predicates all
live here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import mul

from .root_core import (
    DatumError,
    PART_COMPACT,
    IntVec,
    RootDatum,
    Vec,
    cached_property,
    clear_denominators,
    lex_positive,
    primitive_ints,
    record,
    vector_strings,
    vhalf,
)

DEFAULT_MAX_RANK = 7
# the most faces one enumeration may list: su(4,3) has 47,293 and runs,
# su(4,4) has 545,835 and is refused part way through its walk
MAX_FACES = 100_000


class UnsupportedQuery(Exception):
    """A question the model deliberately refuses to answer.

    Raised instead of guessing: enumeration bounds and pair records that do
    not support a given check land here.  The CLI maps this to its own exit
    code.
    """


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _dot(a: IntVec, b: IntVec) -> int:
    return sum(map(mul, a, b))


def _ratio(n: int, d: int) -> int | Fraction:
    """n / d for d > 0: an int when d divides n, else a Fraction."""
    quotient, rest = divmod(n, d)
    return Fraction(n, d) if rest else quotient


@record(uncompared=("x", "row"))
class ThetaStableParabolic:
    """q = l + u determined by X; identity is the weight partition, not X.

    x is X as given, the vector that is printed; row is its primitive
    integer row, off which every sign of X is read.  The partition is the
    signature: the sign of w . row for each entry w of
    base.weight_entries(), in that order.  Sign +1 puts w in u, 0 in the
    Levi part l.
    """

    base: RootDatum
    x: Vec
    signature: tuple[int, ...]
    row: IntVec

    @cached_property
    def weight_signs(self) -> dict[IntVec, int]:
        """The signature by weight: w lies in u at +1, in l at 0 and in
        the opposite nilradical at -1, so in q exactly when >= 0."""
        entries = self.base.weight_entries()
        return {w: s for (_, w, _), s in zip(entries, self.signature)}

    @property
    def two_rho_u(self) -> Vec:
        """2 rho(u), the sum of the u-weights with multiplicity: integer
        weights give an integer vector."""
        total = [0] * self.base.ambient_dim
        for _, w, m in self.u_weights():
            for i, x in enumerate(w):
                total[i] += m * x
        return tuple(total)

    @property
    def rho_u(self) -> Vec:
        return vhalf(self.two_rho_u)

    @property
    def S(self) -> int:
        return sum(m for part, _, m in self.u_weights() if part == PART_COMPACT)

    @cached_property
    def dim_u(self) -> int:
        return sum(m for _, _, m in self.u_weights())

    @cached_property
    def dim_levi(self) -> int:
        return self.base.dim_t + sum(
            m
            for (_, _, m), s in zip(self.base.weight_entries(), self.signature)
            if s == 0
        )

    @property
    def dim_q(self) -> int:
        return self.dim_levi + self.dim_u

    @cached_property
    def _u_weights(self) -> tuple[tuple[str, IntVec, int], ...]:
        return tuple([
            entry
            for entry, s in zip(self.base.weight_entries(), self.signature)
            if s > 0
        ])

    def u_weights(self) -> tuple[tuple[str, IntVec, int], ...]:
        """(part, w, m) for the weights of u, compact ones first, each part
        in the canonical order of the base datum; the tuple is built once
        per parabolic."""
        return self._u_weights

    @cached_property
    def x_strings(self) -> tuple[str, ...]:
        """X as given, as the literals parse_vector reads; formatted once
        for every verdict and row that prints it."""
        return tuple(vector_strings(self.x))

    @cached_property
    def free_coefficients(self) -> tuple[tuple[str, Vec], ...]:
        """(part, c) per u-weight w: c_i = coweight_i . w for each free
        simple root i of q, a simple root of the positive system that X
        orders first (coweight_rows with row) that lies in u.

        Each c_i is the integer n_i . w over the coweight's denominator
        d_i: an int when d_i divides it, else a Fraction (a weight that is
        a non-integral multiple of its reduced root)."""
        simple, coweights = self.base.root_system.coweight_rows(self.row)
        signs = self.weight_signs
        free = [c for a, c in zip(simple, coweights) if signs[a] > 0]
        return tuple(
            (part, tuple(_ratio(_dot(n, w), d) for n, d in free))
            for part, w, _ in self.u_weights()
        )

    def describe(self) -> dict:
        return {
            "X": list(self.x_strings),
            "dim_levi": self.dim_levi,
            "dim_u": self.dim_u,
            "u_compact": self.S,
            "u_noncompact": self.dim_u - self.S,
            "S": self.S,
            "rho_u": vector_strings(self.rho_u),
        }


def build_parabolic(base: RootDatum, x: Vec) -> ThetaStableParabolic:
    """Partition the weights of the base datum by their sign against x.

    x is kept as given; the signs are read against its primitive integer
    row, the parabolic's row (the one place where X is cleared of
    denominators)."""
    if len(x) != base.ambient_dim:
        raise DatumError(
            f"defining element has {len(x)} coordinates, expected "
            f"{base.ambient_dim}"
        )
    row = tuple(primitive_ints(clear_denominators(x)[0]))
    if not base.in_torus(row):
        raise DatumError("defining element violates the torus constraints")
    signature = tuple(_sign(_dot(w, row)) for _, w, _ in base.weight_entries())
    return ThetaStableParabolic(base, x, signature, row)


# ---------------------------------------------------------------------------
# enumeration over arrangement faces


def enumerate_parabolics(
    base: RootDatum, dominant_only: bool = False
) -> list[ThetaStableParabolic]:
    """One parabolic per face of the arrangement {w . X = 0}.

    The faces are the Weyl-group images w.F_J of the standard faces, F_J
    spanned by the fundamental coweights outside the set J of simple
    roots.  Each face is built once, from its minimal chamber: the coset
    wW_J has one element w with w.alpha_j > 0 for every j in J, and every
    element gives the same face, as W_J fixes the coweights outside J.
    With dominant_only the walk stays in the chambers inside the dominant
    chamber of the lexicographic positive system of Delta(k,t), which
    picks K-conjugacy representatives; the minimal chamber of a face in
    its closure lies inside too.  Output order is the canonical signature
    order, so runs are reproducible.

    The walk moves no vector: W acts on the distinct weight vectors V,
    integer rows over one scale, closed under the simple reflections s_i
    (a datum's weights need not be W-stable as a set: a multiple of one
    root may lack its conjugates), and a chamber w.C is the pair (w, w^-1)
    of index permutations of V.  Once per call the enumerator lists V,
    the permutation of V under each s_i and, for each set J, the sign of
    every v in V at the standard point x_J, the sum of the coweights
    outside J, and the coefficients of x_J on the simple roots (its dot
    products with the coweights, up to one positive scale).  Crossing wall
    i reaches w.s_i: w is composed with s_i, and w^-1, kept only at the
    weight entries, is mapped through s_i.  The wall w.alpha_j is positive
    when it pairs > 0 with x_0, the x_J of the empty set and the point of
    the start chamber: the signs of x_0 are read at w.alpha_j, and the
    K-dominance test reads them at w^-1 of the compact entries.  W acts by
    isometries, so w.F_J pairs with a weight v as F_J pairs with w^-1 v:
    the signature of w.F_J is the signs of x_J read at w^-1.  Its X is
    w.x_J, the combination of the roots w.alpha_k with the coefficients
    of x_J, scaled to coprime integers: one int tuple, both x and row.

    A datum of rank above DEFAULT_MAX_RANK is refused before the walk, and
    so, with DatumError, is one with a simple root outside the torus: the
    faces' X are integer combinations of the simple roots and span them,
    so some X leaves the torus exactly when a simple root does.  The walk
    is refused with UnsupportedQuery as soon as the chambers it has
    reached give more than MAX_FACES faces.
    """
    if base.dim_t > DEFAULT_MAX_RANK:
        raise UnsupportedQuery(
            f"rank {base.dim_t} exceeds the enumeration bound "
            f"{DEFAULT_MAX_RANK}"
        )
    n = base.ambient_dim
    simple, coweights = base.root_system.coweight_rows()
    if not all(map(base.in_torus, simple)):
        raise DatumError("defining element violates the torus constraints")
    entries = [w for _, w, _ in base.weight_entries()]
    position = {w: k for k, w in enumerate(dict.fromkeys(entries))}
    alphas = [position[a] for a in simple]
    k_positive = [e for e, (w, _) in enumerate(base.compact)
                  if dominant_only and lex_positive(w)]

    # V, and mirrors[i][k] the index in V of s_i applied to V[k]; V grows
    # while it is read, until the simple reflections close it
    flat = clear_denominators(itertools.chain.from_iterable(position))[0]
    vectors = [tuple(flat[k:k + n]) for k in range(0, len(flat), n)]
    index = {v: k for k, v in enumerate(vectors)}
    roots = [vectors[k] for k in alphas]
    mirrors = [[] for _ in roots]
    for v in vectors:
        for mirror, a in zip(mirrors, roots):
            k = _ratio(2 * _dot(v, a), _dot(a, a))
            image = tuple(s - k * t for s, t in zip(v, a))
            if image not in index:
                index[image] = len(vectors)
                vectors.append(image)
            mirror.append(index[image])
    # standard[J] the signs of V at x_J and coefficients[J] those of
    # x_J on the simple roots, the set J as a bit mask; the coweights are
    # taken over their common denominator
    den = lcm(*(d for _, d in coweights))
    rays = [[den // d * v for v in c] for c, d in coweights]
    standard, coefficients = [], []
    for mask in range(1 << len(rays)):
        x = [0] * n
        for i, r in enumerate(rays):
            if not mask >> i & 1:
                x = [s + t for s, t in zip(x, r)]
        standard.append([_sign(_dot(v, x)) for v in vectors])
        coefficients.append([_dot(x, r) for r in rays])

    # a chamber w.C is keyed by w^-1 at the weight entries and holds w and
    # the indices j of its positive walls w.alpha_j; the faces built from
    # the chamber are the subsets of its positive walls.  start is the
    # signs of V at x_0, the point of the start chamber
    start = standard[0]
    identity = tuple(position[w] for w in entries)
    chambers = {identity: (range(len(vectors)), range(len(alphas)))}
    faces = 1 << len(alphas)
    todo = [identity]
    while todo:
        inverse = todo.pop()
        w = chambers[inverse][0]
        for mirror in mirrors:
            key = tuple(map(mirror.__getitem__, inverse))
            if key in chambers or any(start[key[e]] <= 0 for e in k_positive):
                continue
            w_next = tuple(map(w.__getitem__, mirror))
            positive = [j for j, a in enumerate(alphas)
                        if start[w_next[a]] > 0]
            faces += 1 << len(positive)
            if faces > MAX_FACES:
                raise UnsupportedQuery(
                    f"{base.name} has more than {MAX_FACES} faces, the "
                    "enumeration bound"
                )
            chambers[key] = (w_next, positive)
            todo.append(key)

    out = []
    for inverse, (w, positive) in chambers.items():
        # coordinate i of each root w.alpha_k, in the order of alphas
        columns = [[vectors[w[a]][i] for a in alphas] for i in range(n)]
        for r in range(len(positive) + 1):
            for on_walls in itertools.combinations(positive, r):
                mask = sum(1 << i for i in on_walls)
                c = coefficients[mask]
                x = tuple(primitive_ints([_dot(c, col) for col in columns]))
                signs = standard[mask]
                out.append(ThetaStableParabolic(
                    base, x, tuple(map(signs.__getitem__, inverse)), x))
    out.sort(key=lambda q: q.signature)
    return out


# ---------------------------------------------------------------------------
# symmetric type


def is_symmetric_type(q: ThetaStableParabolic) -> bool:
    """Does some X' pair to 0 on Delta(l) and to 1 on all of Delta(u)?

    If so, the period-two inner automorphism attached to X' has fixed
    algebra l, so l arises from a symmetric pair.  Such an X' pairs >= 0
    with the simple roots of q, so it is the sum of the free coweights.
    """
    return all(sum(c) == 1 for _, c in q.free_coefficients)


def is_virtually_symmetric_type(q: ThetaStableParabolic) -> bool:
    """Can q be enlarged to a symmetric-type parabolic by moving only
    compact weights into the Levi part?

    That asks for an X' pairing to 0 on the Levi weights, 0 or 1 on the
    compact u-weights and 1 on the noncompact ones; X' induces the
    coarsening, whose Levi is the fixed algebra of its involution.  X'
    pairs >= 0 with the simple roots of q, so it is a sum of free
    coweights, at most one per simple factor as the highest root of a
    factor lies in u.  So each factor is tried with no free coweight and
    with each one alone: at most 2 * rank candidates, each checked once on
    the u-weights.
    """
    rows = q.free_coefficients
    free = range(len(rows[0][1]) if rows else 0)
    # by the highest root, the free roots sharing a u-weight with root i
    # are the free roots of the simple factor of i
    factors = {frozenset(j for _, c in rows if c[i] for j in free if c[j])
               for i in free}
    for factor in factors:
        members = [(p, c) for p, c in rows if any(c[j] for j in factor)]
        if not (all(p == PART_COMPACT for p, _ in members) or any(
            all(c[i] == 1 or c[i] == 0 and p == PART_COMPACT
                for p, c in members)
            for i in factor
        )):
            return False
    return True
