"""Matrix completion under linearly parameterized factorizations.

Four factorization families (free rectangular, symmetric PSD, subspace
constrained, skew-symmetric) share one regularized objective, one first-order
solver, and one set of landscape diagnostics built around balanced witnesses
and the curvature gap.

The package root exports nothing: programs import its submodules.
"""

__version__ = "0.1.0"
