"""Biquandle coloring and virtual bracket invariants of virtual knotoids."""

__version__ = "0.1.0"

from .ring import (Modulus, BracketPolynomial, poly_render, poly_parse,
                   NotAUnit)
from .biquandle import (FiniteBiquandle, AxiomReport, alexander_biquandle,
                        parse_operation_matrix, render_operation_matrix,
                        verify_biquandle_axioms, automorphism_orbits,
                        ShapeError, RangeError, NotABiquandle)
from .diagram import (KnotoidDiagram, Pass, Crossing, parse_diagram,
                      render_diagram, writhe, product, insert_move,
                      DiagramSyntaxError, PairingError, SignError,
                      PositionError)
from .coloring import (enumerate_colorings, iter_colorings,
                       counting_invariant, counting_matrix, matrix_product)
from .bracket import (VirtualBracket, SymbolicBracket, State,
                      parse_bracket, render_bracket, verify_bracket_axioms,
                      enumerate_states,
                      evaluate, Invariants, invariants,
                      bracket_polynomial, bracket_matrix,
                      fundamental_bracket, ColoringMismatch)
from .search import (SearchConfig, SearchResult, solve_pair, search_brackets,
                     brute_force_singleton)

__all__ = [name for name in dir() if not name.startswith("_")]
