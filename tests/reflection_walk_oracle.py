"""Fraction reflection walk, the oracle for ``enumerate_parabolics``.

Test-only.  This is the chamber walk on ``Fraction`` vectors: every wall,
ray and chamber point is reflected as v - (2 v.a / a.a) a, and each
face's X is the sum of its rays scaled to coprime integers.  Its
signature is the sign of one dot product per weight entry, taken on
integers: X is a primitive integer point and the weights are integer
rows.  The runtime moves no vector: it walks by index permutations of
the weights, reads signatures through them, builds X from the images of
the simple roots, and must give the same (signature, X) list.  The
simple system and the walk's dot products are ``linalg_oracle``'s; from
``branchdec`` it imports only data types.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from linalg_oracle import lex_positive, simple_system, vdot

from branchdec.root_core import RootDatum, Vec


def _fractions(v) -> Vec:
    return tuple(Fraction(x) for x in v)


def reflect(v: Vec, root: Vec) -> Vec:
    c = 2 * vdot(v, root) / vdot(root, root)
    return tuple(x - c * y for x, y in zip(v, root))


def _primitive(v: Vec) -> Vec:
    scale = lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = gcd(*ints) or 1
    return tuple(Fraction(x // g) for x in ints)


def _sum(vectors, n: int) -> Vec:
    total = (Fraction(0),) * n
    for v in vectors:
        total = tuple(x + y for x, y in zip(total, v))
    return total


def faces(base: RootDatum, dominant_only: bool) -> list[tuple[tuple, Vec]]:
    """(signature, X) per face, in signature order."""
    n = base.ambient_dim
    weights = [w for _, w, _ in base.weight_entries()]
    simple, coweights = simple_system(
        [_fractions(w) for w in weights if any(w)])
    simple = tuple(_fractions(a) for a in simple)
    k_positive = [_fractions(w) for w, _ in base.compact
                  if dominant_only and lex_positive(w)]
    start = _sum(coweights, n)
    chambers = {start: (simple, coweights)}
    todo = [start]
    while todo:
        point = todo.pop()
        walls, rays = chambers[point]
        for wall in walls:
            key = reflect(point, wall)
            if key in chambers or any(vdot(w, key) <= 0 for w in k_positive):
                continue
            chambers[key] = (tuple(reflect(r, wall) for r in walls),
                             tuple(reflect(c, wall) for c in rays))
            todo.append(key)
    out = []
    for walls, rays in chambers.values():
        positive = [i for i, a in enumerate(walls) if vdot(a, start) > 0]
        for r in range(len(positive) + 1):
            for on_walls in itertools.combinations(positive, r):
                x = _primitive(_sum(
                    (c for i, c in enumerate(rays) if i not in on_walls), n))
                xi = [int(c) for c in x]
                signature = tuple(
                    (d > 0) - (d < 0)
                    for d in (sum(map(mul, w, xi)) for w in weights))
                out.append((signature, x))
    out.sort()
    return out
