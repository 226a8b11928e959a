"""Constructors for the supported algebra families.

Every constructor returns a validated Presentation whose defining rules are
weight-homogeneous for the attached torus grading.  Relation sets follow the
standard multiparameter conventions; symplectic and Euclidean spaces use the
Musson relation sets, whose coefficients stay inside the Laurent subring.
"""

from __future__ import annotations

from .coeff import Coefficient, ParamContext
from .pbw import Element, Presentation, Rule


class ZooError(Exception):
    pass


class BadMatrix(ZooError):
    pass


class AntisymmetricMatrixSpec:
    """Multiplicatively antisymmetric n x n matrix of unit-monomial coefficients.

    upper maps 1-based pairs (i, j), i < j, to unit Coefficients over context;
    an absent pair is 1.  The diagonal is 1 and entry (j, i) is the inverse of
    entry (i, j), so antisymmetry holds by construction.
    """

    __slots__ = ("context", "n", "entries")

    def __init__(self, context: ParamContext, n: int, upper):
        if n < 0:
            raise BadMatrix("need n >= 0")
        one = Coefficient.one(context)
        rows = [[one] * n for _ in range(n)]
        for (i, j), c in upper.items():
            if not 1 <= i < j <= n:
                raise BadMatrix(f"bad upper index pair ({i},{j})")
            if not (isinstance(c, Coefficient) and c.context == context and c.is_unit()):
                raise BadMatrix(f"entry ({i},{j}) = {c!r} is not a unit monomial "
                                "over the shared context")
            rows[i - 1][j - 1] = c
            rows[j - 1][i - 1] = c.invert_unit()
        self.context = context
        self.n = n
        self.entries = tuple(map(tuple, rows))

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
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        names = [f"{prefix}_{j}_{i}" if below_diagonal else f"{prefix}_{i}_{j}"
                 for i, j in pairs]
        ctx = ParamContext([*extra_symbols, *names])
        power = -1 if below_diagonal else 1
        return AntisymmetricMatrixSpec(
            ctx, n, {pair: Coefficient.symbol(ctx, name, power)
                     for pair, name in zip(pairs, names)})

    @staticmethod
    def single(n: int, upper_exponent: int = 1) -> "AntisymmetricMatrixSpec":
        """One symbol q: entry (i, j) is q^upper_exponent above the diagonal."""
        ctx = ParamContext(["q"])
        upper = Coefficient.symbol(ctx, "q", upper_exponent)
        return AntisymmetricMatrixSpec(
            ctx, n, {(i, j): upper for i in range(1, n + 1) for j in range(i + 1, n + 1)})


def _vector(length: int, *entries) -> tuple[int, ...]:
    """Integer vector of the given length, zero except at its (index, value) entries."""
    values = dict(entries)
    return tuple(values.get(k, 0) for k in range(length))


# -- quantum affine spaces and tori ------------------------------------------


def _affine_like(spec: AntisymmetricMatrixSpec, invertible: bool, name: str) -> Presentation:
    n = spec.n
    rules = {}
    for j in range(n):
        for i in range(j):
            # x_j x_i = q_{ji} x_i x_j with q_{ji} the below-diagonal entry
            rules[(j, i)] = Rule(spec.entry(j, i).as_unit())
    gens = [f"x{i + 1}" for i in range(n)]
    return Presentation(spec.context, gens, rules, invertible=invertible, name=name)


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
    if not (isinstance(lam, Coefficient) and lam.context == ctx and lam.is_unit()):
        raise BadMatrix("lambda must be a unit coefficient over the parameter context")

    ngens = m * n
    gens = [f"X{i + 1}{j + 1}" for i in range(m) for j in range(n)]
    rules = {}
    for g2 in range(ngens):
        for g1 in range(g2):
            l, mm = divmod(g2, n)
            i, j = divmod(g1, n)
            if l > i and mm > j:
                swap = (p.entry(l, i) * p.entry(j, mm)).as_unit()
                texp = _vector(ngens, (i * n + mm, 1), (l * n + j, 1))
                tail = Element({texp: (lam - 1) * p.entry(l, i)})
                rules[(g2, g1)] = Rule(swap, tail)
            elif l > i:
                swap = (lam * p.entry(l, i) * p.entry(j, mm)).as_unit()
                rules[(g2, g1)] = Rule(swap)
            else:
                # same row, mm > j
                rules[(g2, g1)] = Rule(p.entry(j, mm).as_unit())
    weights = [_vector(m + n, (i, 1), (m + j, 1)) for i in range(m) for j in range(n)]
    return Presentation(ctx, gens, rules, weights, name=f"quantum_matrices_{m}x{n}")


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
        tail_terms = {_vector(ngens): one}
        for l in range(1, a):
            tail_terms[_vector(ngens, (y(l), 1), (x(l), 1))] = qs[l - 1] - 1
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

    weights = [w for a in range(n) for w in (_vector(n, (a, -1)), _vector(n, (a, 1)))]
    return Presentation(ctx, gens, rules, weights, name=f"quantized_weyl_{n}")


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
                    texp = _vector(ngens, (l - 1, 1), (prime(l) - 1, 1))
                    tail_terms[texp] = (Coefficient.symbol(ctx, "q", -2) - 1) \
                        * Coefficient.symbol(ctx, "q", l - a)
                rules[(b - 1, a - 1)] = Rule(Coefficient.symbol(ctx, "q", -2).as_unit(),
                                             Element(tail_terms))
            else:
                rules[(b - 1, a - 1)] = Rule(Coefficient.symbol(ctx, "q", -1).as_unit())
    weights = [_vector(n, (g - 1, 1)) for g in range(1, n + 1)]
    weights += [_vector(n, (prime(g) - 1, -1)) for g in range(n + 1, ngens + 1)]
    gens = [f"x{g}" for g in range(1, ngens + 1)]
    return Presentation(ctx, gens, rules, weights, name=f"quantum_symplectic_{n}")


def quantum_euclidean(n: int) -> Presentation:
    """Quantum Euclidean n-space (Musson relations), generators x1..xn.

    Odd n needs a square root of q; the context then carries a symbol v with
    q = v^2 and all coefficients are written in v.
    """
    if n < 0:
        raise ZooError("need n >= 0")
    m = n // 2
    symbol, step = ("v", 2) if n % 2 else ("q", 1)  # q^k is symbol^(step*k)
    ctx = ParamContext([symbol])
    qpow = lambda k: Coefficient.symbol(ctx, symbol, step * k)

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
                    tail_terms[_vector(n, (l - 1, 1), (prime(l) - 1, 1))] = \
                        -(1 - qpow(2)) * qpow(l - a - 2)
                if n % 2:
                    tail_terms[_vector(n, (m, 2))] = -(1 - qpow(1)) * Coefficient.symbol(
                        ctx, "v", 2 * (m - a) - 1)  # q^(m-a-1/2)
                rules[(b - 1, a - 1)] = Rule(qpow(0).as_unit(), Element(tail_terms))
            else:
                rules[(b - 1, a - 1)] = Rule(qpow(-1).as_unit())
    weights = [_vector(m, (g - 1, 1)) for g in range(1, m + 1)]
    weights += [_vector(m)] * (n - 2 * m)  # the middle generator of odd n has weight 0
    weights += [_vector(m, (prime(g) - 1, -1)) for g in range(n - m + 1, n + 1)]
    gens = [f"x{g}" for g in range(1, n + 1)]
    return Presentation(ctx, gens, rules, weights, name=f"quantum_euclidean_{n}")


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
