"""Pinned normal forms of the sixteen reversed-generator words: each tailed
family of the benchmark's `rewrite` workload with its generators in reverse
order, each raised to the power 2 or 3.

    python tests/reversed_digests.py

checks the two slowest words, Weyl n = 3 cubed and 3x3 quantum matrices
cubed, at a budget of 10^15 (about 4 s and 8-11 s on 2 cores); Tier-1
checks the other fourteen (test_pbw.py).  The exit code is 0 when both match.

A digest is the sha256 of a canonical text of the normal form: one line per
monomial, in sorted order, with its exponents and its coefficient as
coeff.sum_text writes it.  Each digest was pinned when two strategies gave
the same normal form: the engine's leftmost reducer (pbw.normal_form) and
perfbench/oracle.Reducer, which folds the word into an ordered monomial one
generator at a time, rewriting rightmost-first.
"""

import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (family, power, budget, sha256); a budget of None is the default one
WORDS = [
    ("quantized_weyl(n=2)", 2, None,
     "03ee3cac9015f2eef63a87c7b2e055cbae51ee092450a93d855d21249dd51989"),
    ("quantized_weyl(n=2)", 3, None,
     "a71d3558689c3e1e39dad7ffe7604cc887b0defed674ed44012ae4b1a8774cb9"),
    ("quantized_weyl(n=3)", 2, None,
     "fac4d2bbd443170f5a6510ec06b7d34fa16769fe11465f39d1db02b33c9dca90"),
    ("quantized_weyl(n=3)", 3, 10 ** 15,
     "c2112b23b8117b9397660a6c722f55ea1a04337a537efa1cef165b0975a83340"),
    ("quantum_symplectic(n=2)", 2, None,
     "05bfbe7f5338cc0997d88f1977ef6c6401d6ab00afbdc8cd80de4753c19365ff"),
    ("quantum_symplectic(n=2)", 3, None,
     "0ac19abdf8fa8b9b1e30ffcdd9d8ae6a3b1f2d34df7d9c3601adaedf6a5784dc"),
    ("quantum_symplectic(n=3)", 2, None,
     "8d1826d1b22c3f6df78448f3bd62762bad5b08d61173ac20d90b1104091a3a06"),
    ("quantum_symplectic(n=3)", 3, None,
     "dec920fcdbd3cbbfed7f0c09292e222d4d703668882ac2e6cec8003f01d6eb13"),
    ("quantum_euclidean(n=4)", 2, None,
     "848100d94c22627e83b234b92a6fdc8f42ce15620d3a7e90f1224aa967e30a3d"),
    ("quantum_euclidean(n=4)", 3, None,
     "a14f3bd83fb897b0fd9084976f2882153ea752db7da87c288b99d10c90967c50"),
    ("quantum_euclidean(n=5)", 2, None,
     "23ded6dc13b70f0c3dd53f0eae827a0fad7590aafc37f8c1248d110582ed9a4b"),
    ("quantum_euclidean(n=5)", 3, None,
     "939988574dca2d08a08ba853e9a7bb1bf8d15647b524e8df2626a79ee5b26b63"),
    ("quantum_matrices(m=2, n=3)", 2, None,
     "5d50413a8f802259e45c18900bd8d77fb9ecb3fd661481cfcfb50800d33503ac"),
    ("quantum_matrices(m=2, n=3)", 3, None,
     "950bb81e53c6729d3872241ecc8c84fa21c288bb71ef128137b049ae87918935"),
    ("quantum_matrices(m=3, n=3)", 2, 10 ** 15,
     "613e6718fd293d5dbacb7c21d6c118168dd03799c8e0d7bd272973a02a662e0b"),
    ("quantum_matrices(m=3, n=3)", 3, 10 ** 15,
     "79847cd15bca2a7b1c28b56c1aaff442b6027c64665187dcff77f425b1ebf93e"),
]

# the words too slow for Tier-1, checked by running this file
SLOW = {("quantized_weyl(n=3)", 3), ("quantum_matrices(m=3, n=3)", 3)}


def reversed_word_digest(family: str, power: int, budget) -> str:
    """The digest of the normal form of the family's generators in reverse
    order, each raised to power."""
    from strata_lab import dsl, pbw
    from strata_lab.coeff import sum_text
    p = dsl.parse(f"use {family}\n")
    got = pbw.normal_form(p, [(i, power) for i in reversed(range(p.ngens))], fuel=budget)
    text = "\n".join(f"{' '.join(map(str, exps))}: {sum_text(c.terms, p.context.symbols)}"
                     for exps, c in sorted(got.terms.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    failed = 0
    for family, power, budget, want in WORDS:
        if (family, power) in SLOW:
            start = time.perf_counter()
            ok = reversed_word_digest(family, power, budget) == want
            failed += not ok
            print(f"{family} power {power}: {'ok' if ok else 'DIGEST MISMATCH'} "
                  f"({time.perf_counter() - start:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
