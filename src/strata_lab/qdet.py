"""Quantum determinants: construction, normality law, centrality criterion."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .coeff import Coefficient
from .grading import commutation_products
from .pbw import Element
from .zoo import AntisymmetricMatrixSpec, BadMatrix, quantum_matrices


def _check_size(n: int, p: AntisymmetricMatrixSpec) -> None:
    """The laws are about the n x n algebra of p: a smaller n reads a block of p."""
    if n != p.n:
        raise BadMatrix(f"parameter matrix must have size n = {n}")


def quantum_determinant(n: int, lam: Coefficient, p: AntisymmetricMatrixSpec) -> Element:
    """Signed permutation sum over the X_{1,pi(1)} ... X_{n,pi(n)} monomials,
    each with coefficient prod(-p_{pi(i), pi(j)}) over the inversions of pi.

    Row indices ascend, so every summand is already an ordered monomial of the
    row-major n x n quantum matrix presentation.
    """
    _check_size(n, p)
    terms = {}
    for perm in itertools.permutations(range(n)):
        c = Coefficient.one(p.context)
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    c = c * (-p.entry(perm[i], perm[j]))
        exp = [0] * (n * n)
        for row, col in enumerate(perm):
            exp[row * n + col] = 1
        terms[tuple(exp)] = c
    return Element(terms)


def _row_value(n: int, lam: Coefficient, p: AntisymmetricMatrixSpec, i: int) -> Coefficient:
    """v_i = lam^i prod_l p_il (1-based); mu_ij = v_j / v_i, as p_li = 1 / p_il."""
    c = lam ** i
    for l in range(1, n + 1):
        c = c * p.entry(i - 1, l - 1)
    return c


def det_commutation_scalar(n: int, lam: Coefficient, p: AntisymmetricMatrixSpec,
                           i: int, j: int) -> Coefficient:
    """The scalar mu = lam^(j-i) prod_l p_jl p_li with D * X_ij = mu * X_ij * D."""
    _check_size(n, p)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("indices out of range")
    return _row_value(n, lam, p, j) * _row_value(n, lam, p, i).invert_unit()


@dataclass
class NormalityIdentity:
    i: int
    j: int
    ok: bool


@dataclass
class DetNormalityReport:
    n: int
    identities: list[NormalityIdentity]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.identities)


def verify_det_normality(n: int, lam: Coefficient,
                         p: AntisymmetricMatrixSpec) -> DetNormalityReport:
    """Engine check that D * X_ij - mu_ij * X_ij * D vanishes for all i, j."""
    pres = quantum_matrices(n, n, lam, p)
    det = quantum_determinant(n, lam, p)
    identities = []
    # quantum_matrices orders the generators X_ij row-major
    for g, (left, right) in enumerate(commutation_products(pres, det)):
        i, j = divmod(g, n)
        mu = det_commutation_scalar(n, lam, p, i + 1, j + 1)
        identities.append(NormalityIdentity(i + 1, j + 1, not left - right.scale(mu)))
    return DetNormalityReport(n, identities)


def sl_condition(n: int, lam: Coefficient, p: AntisymmetricMatrixSpec) -> bool:
    """Centrality criterion: lam^i * prod_l p_il takes one common value."""
    return sl_common_value(n, lam, p) is not None


def sl_common_value(n: int, lam: Coefficient, p: AntisymmetricMatrixSpec) -> Coefficient | None:
    """The common value of the v_i over i, or None: D is central iff every v_j / v_i is 1."""
    _check_size(n, p)
    values = [_row_value(n, lam, p, i) for i in range(1, n + 1)]
    if all(v == values[0] for v in values[1:]):
        return values[0]
    return None
