"""Exact symbolic toolkit for q-commutation algebras.

Presentations with ordered generators rewrite to unique normal forms; on top
of the engine sit torus gradings, quantum determinant laws, and the
stratification of quantum affine spaces into quantum tori with Laurent
polynomial centers.
"""

__version__ = "0.1.0"
