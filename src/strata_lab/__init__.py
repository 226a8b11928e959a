"""Exact symbolic toolkit for q-commutation algebras.

Presentations with ordered generators rewrite to unique normal forms; on top
of the engine sit torus gradings, quantum determinant laws, and the
stratification of quantum affine spaces into quantum tori with Laurent
polynomial centers.
"""

from .coeff import (Coefficient, CoeffError, ContextMismatch, NonUnitDivision,
                    ParamContext, SpecializationError, UnitMonomial)
from .pbw import (DEFAULT_FUEL, Element, EngineError, FuelExhausted,
                  NegativeExponent, OverlapReport, Presentation,
                  PresentationError, Rule, WordTooLong, diamond_check, gen,
                  hilbert_count, leading_term, monomial, multiply, normal_form)

__version__ = "0.1.0"
