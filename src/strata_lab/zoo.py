"""Constructors for the supported algebra families.

Every constructor returns a validated Presentation whose defining rules are
weight-homogeneous for the attached torus grading.  Relation sets follow the
standard multiparameter conventions; symplectic and Euclidean spaces use the
Musson relation sets, whose coefficients stay inside the Laurent subring.
"""

from __future__ import annotations

import warnings

from .coeff import Coefficient, ParamContext
from .pbw import Element, Presentation, Rule


class ZooError(Exception):
    pass


class BadMatrix(ZooError):
    pass


class DegenerateLambda(ZooError):
    pass


class AntisymmetricMatrixSpec:
    """Multiplicatively antisymmetric matrix of unit-monomial coefficients.

    Diagonal entries are 1 and entry (j, i) is the inverse of entry (i, j)
    by construction, so antisymmetry is exact.
    """

    __slots__ = ("context", "n", "entries")

    def __init__(self, context: ParamContext, entries):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise BadMatrix("matrix must be square")
        one = Coefficient.one(context)
        for i in range(n):
            if rows[i][i] != one:
                raise BadMatrix("diagonal entries must be 1")
            for j in range(n):
                c = rows[i][j]
                if not isinstance(c, Coefficient) or c.context != context:
                    raise BadMatrix("entries must be coefficients over the shared context")
                if not c.is_unit():
                    raise BadMatrix(f"entry ({i + 1},{j + 1}) is not a unit monomial")
                if c * rows[j][i] != one:
                    raise BadMatrix(f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
                                    "are not mutually inverse")
        self.context = context
        self.n = n
        self.entries = rows

    def entry(self, i: int, j: int) -> Coefficient:
        """0-based entry."""
        return self.entries[i][j]

    @staticmethod
    def generic(n: int, prefix: str = "q", below_diagonal: bool = False,
                extra_symbols=()) -> "AntisymmetricMatrixSpec":
        """Fresh independent symbol for each generator pair.

        Symbols are named by the distinguished half: q_i_j with i < j for the
        upper convention, p_j_i with j > i for the lower one.
        """
        names = list(extra_symbols)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                names.append(f"{prefix}_{i}_{j}" if not below_diagonal
                             else f"{prefix}_{j}_{i}")
        ctx = ParamContext(names)
        one = Coefficient.one(ctx)
        rows = [[one] * n for _ in range(n)]
        k = len(tuple(extra_symbols))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                name = ctx.symbols[k]
                k += 1
                power = 1 if not below_diagonal else -1
                rows[i - 1][j - 1] = Coefficient.symbol(ctx, name, power)
                rows[j - 1][i - 1] = Coefficient.symbol(ctx, name, -power)
        return AntisymmetricMatrixSpec(ctx, rows)

    @staticmethod
    def from_upper(context: ParamContext, n: int, upper) -> "AntisymmetricMatrixSpec":
        """Build from above-diagonal entries, a map (i, j) -> Coefficient with 1-based i < j."""
        one = Coefficient.one(context)
        rows = [[one] * n for _ in range(n)]
        for (i, j), c in upper.items():
            if not 1 <= i < j <= n:
                raise BadMatrix(f"bad upper index pair ({i},{j})")
            rows[i - 1][j - 1] = c
            rows[j - 1][i - 1] = c.invert_unit()
        return AntisymmetricMatrixSpec(context, rows)

    @staticmethod
    def single(n: int, upper_exponent: int = 1) -> "AntisymmetricMatrixSpec":
        """One symbol q: entry (i, j) is q^upper_exponent above the diagonal."""
        ctx = ParamContext(["q"])
        upper = Coefficient.symbol(ctx, "q", upper_exponent)
        return AntisymmetricMatrixSpec.from_upper(
            ctx, n, {(i, j): upper for i in range(1, n + 1) for j in range(i + 1, n + 1)})


# -- quantum affine spaces and tori ------------------------------------------


def _affine_like(spec: AntisymmetricMatrixSpec, invertible: bool, name: str) -> Presentation:
    n = spec.n
    rules = {}
    for j in range(n):
        for i in range(j):
            # x_j x_i = q_{ji} x_i x_j with q_{ji} the below-diagonal entry
            rules[(j, i)] = Rule(spec.entry(j, i).as_unit())
    gens = [f"x{i + 1}" for i in range(n)]
    return Presentation(spec.context, gens, rules, invertible=invertible,
                        rank=n, name=name)


def quantum_affine(spec: AntisymmetricMatrixSpec) -> Presentation:
    """Polynomial generators x_i with x_i x_j = q_ij x_j x_i."""
    return _affine_like(spec, False, f"quantum_affine_{spec.n}")


def quantum_torus(spec: AntisymmetricMatrixSpec) -> Presentation:
    """Same commutation data as quantum_affine but all generators invertible."""
    return _affine_like(spec, True, f"quantum_torus_{spec.n}")


def quantum_affine_generic(n: int) -> Presentation:
    return quantum_affine(AntisymmetricMatrixSpec.generic(n))


def quantum_affine_single(n: int) -> Presentation:
    return quantum_affine(AntisymmetricMatrixSpec.single(n))


def quantum_torus_generic(n: int) -> Presentation:
    return quantum_torus(AntisymmetricMatrixSpec.generic(n))


def quantum_torus_single(n: int) -> Presentation:
    return quantum_torus(AntisymmetricMatrixSpec.single(n))


# -- quantum matrices ----------------------------------------------------------


def quantum_matrices(m: int, n: int, lam: Coefficient,
                     p: AntisymmetricMatrixSpec) -> Presentation:
    """m x n quantum matrices X_ij in row-major generator order.

    Descending products rewrite by the three relation cases; the only tails
    occur for strictly-south-east pairs.  Weights live in Z^m x Z^n, with
    X_ij of weight e_i + f_j.
    """
    if m < 0 or n < 0:
        raise BadMatrix("need a nonnegative number of rows and columns")
    if p.n != max(m, n):
        raise BadMatrix(f"parameter matrix must have size max(m, n) = {max(m, n)}")
    ctx = p.context
    if not isinstance(lam, Coefficient) or lam.context != ctx:
        raise BadMatrix("lambda must be a coefficient over the parameter context")
    if not lam:
        raise DegenerateLambda("lambda must be nonzero")
    if not lam.is_unit():
        raise BadMatrix("lambda must be a unit monomial")
    if lam == Coefficient.integer(ctx, -1):
        warnings.warn("lambda = -1 degenerates the graded dimension", RuntimeWarning)

    ngens = m * n
    gens = [f"X{i + 1}{j + 1}" for i in range(m) for j in range(n)]
    rules = {}
    for g2 in range(ngens):
        for g1 in range(g2):
            l, mm = divmod(g2, n)
            i, j = divmod(g1, n)
            if l > i and mm > j:
                swap = (p.entry(l, i) * p.entry(j, mm)).as_unit()
                texp = [0] * ngens
                texp[i * n + mm] += 1
                texp[l * n + j] += 1
                tail = Element({tuple(texp): (lam - 1) * p.entry(l, i)})
                rules[(g2, g1)] = Rule(swap, tail)
            elif l > i:
                swap = (lam * p.entry(l, i) * p.entry(j, mm)).as_unit()
                rules[(g2, g1)] = Rule(swap)
            else:
                # same row, mm > j
                rules[(g2, g1)] = Rule(p.entry(j, mm).as_unit())
    weights = []
    for i in range(m):
        for j in range(n):
            w = [0] * (m + n)
            w[i] = 1
            w[m + j] = 1
            weights.append(tuple(w))
    return Presentation(ctx, gens, rules, weights, rank=m + n,
                        name=f"quantum_matrices_{m}x{n}")


def generic_matrix_data(n: int) -> tuple[Coefficient, AntisymmetricMatrixSpec]:
    """Fresh context with symbols lam and p_j_i (j > i)."""
    p = AntisymmetricMatrixSpec.generic(n, prefix="p", below_diagonal=True,
                                        extra_symbols=("lam",))
    lam = Coefficient.symbol(p.context, "lam")
    return lam, p


def single_param_matrix_data(n: int) -> tuple[Coefficient, AntisymmetricMatrixSpec]:
    """Standard single-parameter data: below-diagonal entries q, lam = q^-2."""
    spec = AntisymmetricMatrixSpec.single(n, upper_exponent=-1)
    lam = Coefficient.symbol(spec.context, "q", -2)
    return lam, spec


def quantum_matrices_generic(m: int, n: int) -> Presentation:
    lam, p = generic_matrix_data(max(m, n))
    return quantum_matrices(m, n, lam, p)


def quantum_matrices_single(m: int, n: int) -> Presentation:
    lam, p = single_param_matrix_data(max(m, n))
    return quantum_matrices(m, n, lam, p)


# -- quantized Weyl algebras ---------------------------------------------------


def quantized_weyl(q_params, gamma: AntisymmetricMatrixSpec) -> Presentation:
    """Degree-n quantized Weyl algebra, generator order y1 < x1 < ... < yn < xn.

    q_params is the list of unit coefficients q_1..q_n and gamma the
    antisymmetric matrix of the y-y commutation scalars.
    """
    n = gamma.n
    ctx = gamma.context
    qs = list(q_params)
    if len(qs) != n:
        raise BadMatrix("need one q parameter per degree")
    for q in qs:
        if not isinstance(q, Coefficient) or q.context != ctx or not q.is_unit():
            raise BadMatrix("q parameters must be unit coefficients over the shared context")

    ngens = 2 * n
    gens = []
    for a in range(1, n + 1):
        gens.extend([f"y{a}", f"x{a}"])

    def y(a):  # 1-based
        return 2 * (a - 1)

    def x(a):
        return 2 * (a - 1) + 1

    one = Coefficient.one(ctx)
    rules = {}
    for a in range(1, n + 1):
        # the Weyl pair: x_a y_a = 1 + q_a y_a x_a + sum_{l<a} (q_l - 1) y_l x_l
        tail_terms = {(0,) * ngens: one}
        for l in range(1, a):
            texp = [0] * ngens
            texp[y(l)] = 1
            texp[x(l)] = 1
            tail_terms[tuple(texp)] = qs[l - 1] - 1
        rules[(x(a), y(a))] = Rule(qs[a - 1].as_unit(), Element(tail_terms))
        for b in range(1, a):
            # y_a y_b = gamma_ab y_b y_a
            rules[(y(a), y(b))] = Rule(gamma.entry(a - 1, b - 1).as_unit())
            # x_a x_b = q_b^-1 gamma_ab x_b x_a
            rules[(x(a), x(b))] = Rule(
                (qs[b - 1].invert_unit() * gamma.entry(a - 1, b - 1)).as_unit())
            # x_a y_b = q_b gamma_ba y_b x_a
            rules[(x(a), y(b))] = Rule((qs[b - 1] * gamma.entry(b - 1, a - 1)).as_unit())
            # y_a x_b = gamma_ba x_b y_a
            rules[(y(a), x(b))] = Rule(gamma.entry(b - 1, a - 1).as_unit())

    weights = []
    for a in range(1, n + 1):
        wy = [0] * n
        wy[a - 1] = -1
        wx = [0] * n
        wx[a - 1] = 1
        weights.extend([tuple(wy), tuple(wx)])
    return Presentation(ctx, gens, rules, weights, rank=n,
                        name=f"quantized_weyl_{n}")


def quantized_weyl_generic(n: int) -> Presentation:
    gamma = AntisymmetricMatrixSpec.generic(
        n, prefix="gam", extra_symbols=[f"q_{a}" for a in range(1, n + 1)])
    qs = [Coefficient.symbol(gamma.context, f"q_{a}") for a in range(1, n + 1)]
    return quantized_weyl(qs, gamma)


# -- quantum symplectic and Euclidean spaces -----------------------------------


def quantum_symplectic(n: int) -> Presentation:
    """Quantum symplectic 2n-space (Musson relations), generators x1..x_{2n}."""
    if n < 0:
        raise ZooError("need n >= 0")
    ctx = ParamContext(["q"])
    q = Coefficient.symbol(ctx, "q")
    ngens = 2 * n

    def prime(a):  # 1-based pairing
        return 2 * n + 1 - a

    rules = {}
    for b in range(2, ngens + 1):
        for a in range(1, b):
            if a + b == 2 * n + 1:
                # x_a x_{a'} = q^2 x_{a'} x_a + (q^2 - 1) sum_{l<a} q^{l-a} x_l x_{l'}
                tail_terms = {}
                for l in range(1, a):
                    texp = [0] * ngens
                    texp[l - 1] = 1
                    texp[prime(l) - 1] = 1
                    tail_terms[tuple(texp)] = (Coefficient.symbol(ctx, "q", -2) - 1) \
                        * Coefficient.symbol(ctx, "q", l - a)
                rules[(b - 1, a - 1)] = Rule(q.invert_unit().as_unit().power(2),
                                             Element(tail_terms))
            else:
                rules[(b - 1, a - 1)] = Rule(q.invert_unit().as_unit())
    weights = []
    for g in range(1, ngens + 1):
        w = [0] * n
        if g <= n:
            w[g - 1] = 1
        else:
            w[prime(g) - 1] = -1
        weights.append(tuple(w))
    gens = [f"x{g}" for g in range(1, ngens + 1)]
    return Presentation(ctx, gens, rules, weights, rank=n,
                        name=f"quantum_symplectic_{n}")


def quantum_euclidean(n: int) -> Presentation:
    """Quantum Euclidean n-space (Musson relations), generators x1..xn.

    Odd n needs a square root of q; the context then carries a symbol v with
    q = v^2 and all coefficients are written in v.
    """
    if n < 0:
        raise ZooError("need n >= 0")
    m = n // 2
    odd = n % 2 == 1
    if odd:
        ctx = ParamContext(["v"])
        qpow = lambda k: Coefficient.symbol(ctx, "v", 2 * k)
        half = lambda k2: Coefficient.symbol(ctx, "v", k2)  # v^{k2} = q^{k2/2}
    else:
        ctx = ParamContext(["q"])
        qpow = lambda k: Coefficient.symbol(ctx, "q", k)

    def prime(a):
        return n + 1 - a

    rules = {}
    for b in range(2, n + 1):
        for a in range(1, b):
            if a + b == n + 1:
                # x_a x_{a'} = x_{a'} x_a + (1 - q^2) sum_{l=a+1}^m q^{l-a-2} x_l x_{l'}
                #              (+ (1 - q) q^{m-a-1/2} x_{m+1}^2 for odd n)
                tail_terms = {}
                for l in range(a + 1, m + 1):
                    texp = [0] * n
                    texp[l - 1] = 1
                    texp[prime(l) - 1] = 1
                    tail_terms[tuple(texp)] = -(1 - qpow(2)) * qpow(l - a - 2)
                if odd:
                    texp = [0] * n
                    texp[m] = 2
                    tail_terms[tuple(texp)] = -(1 - qpow(1)) * half(2 * (m - a) - 1)
                rules[(b - 1, a - 1)] = Rule(qpow(0).as_unit(), Element(tail_terms))
            else:
                rules[(b - 1, a - 1)] = Rule(qpow(-1).as_unit())
    weights = []
    for g in range(1, n + 1):
        w = [0] * m
        if g <= m:
            w[g - 1] = 1
        elif odd and g == m + 1:
            pass
        else:
            w[prime(g) - 1] = -1
        weights.append(tuple(w))
    gens = [f"x{g}" for g in range(1, n + 1)]
    return Presentation(ctx, gens, rules, weights, rank=m,
                        name=f"quantum_euclidean_{n}")


# -- the family table --------------------------------------------------------


# Family name -> (size keywords, generic constructor, single-parameter
# constructor or None).  Each constructor takes the size keywords as its
# parameters; `use family(...)` in the DSL is checked against this table.
FAMILIES = {
    "quantum_affine": (("n",), quantum_affine_generic, quantum_affine_single),
    "quantum_torus": (("n",), quantum_torus_generic, quantum_torus_single),
    "quantum_matrices": (("m", "n"), quantum_matrices_generic, quantum_matrices_single),
    "quantized_weyl": (("n",), quantized_weyl_generic, None),
    "quantum_symplectic": (("n",), quantum_symplectic, None),
    "quantum_euclidean": (("n",), quantum_euclidean, None),
}
