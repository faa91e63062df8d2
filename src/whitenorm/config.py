"""Numeric tolerances used across the package.

The fields of the one frozen instance TOL are the package's shared
thresholds, read at the point of use; any other threshold is a constant
whose comment justifies it.  No root is accepted, told apart from another
or paired with its inverse on a threshold: its inclusion disc certifies
it, and its realness and whether it meets the unit circle are read off
that disc (see roots).  Every root off +-1 is simple, by an exact
squarefree test, and the trivial roots +-1 are split off exactly with
their orders.  Nor is a rank or a determinant judged on one: the
cohomology ranks and det P are identities in s and p/q (see cohomology).
A class's place on the eigenvalue variety has no threshold of its own: at
u = +-1, v = -1 its relator residual decides it, by exact identities (see
reps).  Nor has the faithful points' filling defect, a closed form of at
least 2 sqrt(2) q (see verify).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # representation residuals
    residual: float = 1e-8   # every residual but trace_mu1 and det
    trace: float = 1e-9      # |tr rho(mu1) -+ 2|
    det_one: float = 1e-10   # |det - 1| for constructed matrices


TOL = Tolerances()
