"""Gram-solve projection oracle for ``branchdec.root_core.project_onto_span``.

Test-only.  It picks a greedy independent subset of the rows and solves
the Gram system for the coefficients of each projected vector, one solve
per call, so the tests can compare it with the runtime routine, which
builds one projection matrix from an rref basis and its dual basis.  Its
rank, solve and dot product are ``linalg_oracle``'s; from ``branchdec`` it
imports only the vector type and the error class.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from linalg_oracle import is_zero_vec, rank, solve_linear, vdot

from branchdec.root_core import CertificateError, Vec


def independent_rows(rows: Sequence[Vec]) -> list[Vec]:
    """Greedy maximal independent subset, preserving order."""
    picked: list[Vec] = []
    r = 0
    for row in rows:
        cand = picked + [row]
        if rank(cand) > r:
            picked = cand
            r += 1
    return picked


def gram_projection(v: Vec, rows: Sequence[Vec]) -> Vec:
    """Orthogonal projection of v onto the span of the given rows."""
    basis = independent_rows([r for r in rows if not is_zero_vec(r)])
    if not basis:
        return (Fraction(0),) * len(v)
    gram = [tuple(vdot(bi, bj) for bj in basis) for bi in basis]
    rhs = [vdot(bi, v) for bi in basis]
    coeffs = solve_linear(gram, rhs)
    if coeffs is None:
        raise CertificateError("Gram matrix of independent rows is singular")
    return tuple(
        sum((c * b[i] for c, b in zip(coeffs, basis)), Fraction(0))
        for i in range(len(v))
    )
