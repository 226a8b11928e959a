"""Torus gradings: weights, homogeneity, and scalar-normality certificates.

The rank-r grading attached to a presentation encodes a rational action of an
r-torus: homogeneous elements are exactly the eigenvectors, and a point
(a_1..a_r) of the torus acts on a weight-w eigenvector by prod a_t^{w_t}.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from operator import index
from typing import Iterator, Sequence

from .coeff import Coefficient
from .pbw import Element, Presentation, gen, multiply, order_key


def weight_of(p: Presentation, exponents: Sequence[int]) -> tuple[int, ...]:
    """Weight of a monomial: the exponent-weighted sum of generator weights."""
    exp = tuple(map(index, exponents))
    if len(exp) != p.ngens:
        raise ValueError("exponent width does not match presentation")
    w = [0] * p.rank
    for e, gw in zip(exp, p.weights):
        if e:
            for t in range(p.rank):
                w[t] += e * gw[t]
    return tuple(w)


def is_homogeneous(p: Presentation, a: Element) -> tuple[int, ...] | None:
    """The common weight of all terms, or None; the zero element gets weight 0."""
    if not a:
        return (0,) * p.rank
    weights = {weight_of(p, exp) for exp in a.terms}
    if len(weights) == 1:
        return next(iter(weights))
    return None


def commutation_products(p: Presentation, c: Element) -> Iterator[tuple[Element, Element]]:
    """(c*x_g, x_g*c) for each generator g in order, each pair computed when consumed."""
    for g in range(p.ngens):
        xg = gen(p, g)
        yield multiply(p, c, xg), multiply(p, xg, c)


@dataclass
class NormalityCertificate:
    """Witness that c q-commutes with every generator: c*g = mu_g*(g*c)."""

    element: Element
    mus: tuple[Coefficient, ...]

    def verify(self, p: Presentation) -> bool:
        """Exact re-check of every defining identity."""
        if len(self.mus) != p.ngens:
            return False
        return all(not left - right.scale(mu) for (left, right), mu
                   in zip(commutation_products(p, self.element), self.mus))


def scalar_normality_check(p: Presentation, c: Element) -> NormalityCertificate | None:
    """Detect scalar normality by comparing c*g with g*c for every generator.

    Returns a certificate, or None.  Each mu is accepted only after the exact
    identity c*g = mu*(g*c) holds, which is all that NormalityCertificate.verify
    rechecks.  When the two products are proportional but the ratio is not
    expressible as a single Laurent term, the case is reported as a warning and
    treated as absent.
    """
    if not c:
        raise ValueError("zero element")
    mus = []
    for left, right in commutation_products(p, c):
        if left.terms.keys() != right.terms.keys():
            return None
        mu = Coefficient.one(p.context)  # c*g = g*c = 0 holds for every mu
        if right:
            exp0 = max(right.terms, key=order_key)
            ca, cb = left.terms[exp0], right.terms[exp0]
            mu = ca.leading_term_ratio(cb)
        if mu is not None and left == right.scale(mu):
            mus.append(mu)
            continue
        if all(left.terms[m] * cb == right.terms[m] * ca for m in left.terms):
            warnings.warn("proportionality ratio is not a single Laurent term; "
                          "treating element as not scalar-normal", RuntimeWarning)
        return None
    return NormalityCertificate(c, tuple(mus))
