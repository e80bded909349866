"""Biquandle coloring and virtual bracket invariants of virtual knotoids."""

__version__ = "0.1.0"

from .ring import (Modulus, RingElement, BracketPolynomial, inverse,
                   poly_add, poly_render, poly_parse,
                   ModulusMismatch, NotAUnit)
from .biquandle import (FiniteBiquandle, AxiomReport, alexander_biquandle,
                        parse_operation_matrix, render_operation_matrix,
                        verify_biquandle_axioms, sideways_inverse,
                        ShapeError, RangeError, NotABiquandle)
from .diagram import (KnotoidDiagram, Pass, Crossing, Presentation, Relation,
                      parse_diagram, render_diagram, writhe,
                      crossing_relations, product, insert_move,
                      DiagramSyntaxError, PairingError, SignError,
                      PositionError)
from .coloring import (enumerate_colorings, iter_colorings,
                       counting_invariant, counting_matrix, matrix_product)
from .bracket import (VirtualBracket, SymbolicBracket, SymbolicTerm, State,
                      parse_bracket, render_bracket, verify_bracket_axioms,
                      smooth_components, enumerate_states, state_components,
                      evaluate, Invariants, invariants, bracket_multiset,
                      bracket_polynomial, bracket_matrix,
                      fundamental_bracket, render_symbolic, evaluate_symbolic,
                      ColoringMismatch)
from .search import (SearchConfig, SearchResult, solve_pair, search_brackets,
                     brute_force_singleton)

__all__ = [name for name in dir() if not name.startswith("_")]
