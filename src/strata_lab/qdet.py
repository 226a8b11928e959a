"""Quantum determinants: construction, normality law, centrality criterion."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .coeff import Coefficient
from .pbw import Element, gen, multiply
from .zoo import AntisymmetricMatrixSpec, quantum_matrices


def inversions(perm: Sequence[int]) -> int:
    """Number of descents ell(pi) = #{i < j : pi(i) > pi(j)}."""
    vals = tuple(perm)
    if sorted(vals) != list(range(min(vals), min(vals) + len(vals))):
        raise ValueError("not a permutation")
    return sum(1 for i in range(len(vals)) for j in range(i + 1, len(vals))
               if vals[i] > vals[j])


@dataclass(frozen=True)
class PermTerm:
    """One permutation summand of the determinant with its sign-carrying unit."""

    perm: tuple[int, ...]          # 1-based images (pi(1), ..., pi(n))
    coefficient: Coefficient


def perm_terms(n: int, p: AntisymmetricMatrixSpec) -> list[PermTerm]:
    """Coefficient prod(-p_{pi(i), pi(j)}) over the inversions of each permutation."""
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        c = Coefficient.one(p.context)
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    c = c * (-p.entry(perm[i] - 1, perm[j] - 1))
        out.append(PermTerm(perm, c))
    return out


def quantum_determinant(n: int, lam: Coefficient, p: AntisymmetricMatrixSpec) -> Element:
    """Signed permutation sum over the X_{1,pi(1)} ... X_{n,pi(n)} monomials.

    Row indices ascend, so every summand is already an ordered monomial of the
    row-major n x n quantum matrix presentation.
    """
    terms = {}
    for t in perm_terms(n, p):
        exp = [0] * (n * n)
        for row, col in enumerate(t.perm, start=1):
            exp[(row - 1) * n + (col - 1)] += 1
        terms[tuple(exp)] = t.coefficient
    return Element(terms)


def det_commutation_scalar(n: int, lam: Coefficient, p: AntisymmetricMatrixSpec,
                           i: int, j: int) -> Coefficient:
    """The scalar mu with D * X_ij = mu * X_ij * D (1-based i, j)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("indices out of range")
    c = lam ** (j - i)
    for l in range(1, n + 1):
        c = c * p.entry(j - 1, l - 1) * p.entry(l - 1, i - 1)
    return c


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


def verify_det_normality(n: int, lam: Coefficient, p: AntisymmetricMatrixSpec,
                         scalar_override=None) -> DetNormalityReport:
    """Engine check that D * X_ij - mu_ij * X_ij * D vanishes for all i, j.

    scalar_override, when given, replaces the computed scalar (used by
    regression tests to confirm that wrong scalars are caught).
    """
    pres = quantum_matrices(n, n, lam, p)
    det = quantum_determinant(n, lam, p)
    identities = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            xij = gen(pres, f"X{i}{j}")
            mu = (scalar_override(i, j) if scalar_override is not None
                  else det_commutation_scalar(n, lam, p, i, j))
            diff = multiply(pres, det, xij) - multiply(pres, xij, det).scale(mu)
            identities.append(NormalityIdentity(i, j, not diff))
    return DetNormalityReport(n, identities)


def sl_condition(n: int, lam: Coefficient, p: AntisymmetricMatrixSpec) -> bool:
    """Centrality criterion: lam^i * prod_l p_il takes one common value."""
    return sl_common_value(n, lam, p) is not None


def sl_common_value(n: int, lam: Coefficient, p: AntisymmetricMatrixSpec) -> Coefficient | None:
    """The common value of lam^i * prod_l p_il over i, or None if they differ."""
    values = []
    for i in range(1, n + 1):
        c = lam ** i
        for l in range(1, n + 1):
            c = c * p.entry(i - 1, l - 1)
        values.append(c)
    if all(v == values[0] for v in values[1:]):
        return values[0]
    return None
