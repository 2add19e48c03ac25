"""Knot diagram invariants from signed DT codes.

The package realizes signed Dowker-Thistlethwaite codes as planar
diagrams (``realize``), computes the Kauffman bracket, Jones polynomial
and Turaev genus of a diagram with exact integer arithmetic (``poly``,
the one module that owns the smoothing convention), manipulates
rational tangle words (``tangle``), and verifies a bundled census of
almost alternating knots end to end (``verify``).
"""

from __future__ import annotations

__version__ = "0.1.0"
