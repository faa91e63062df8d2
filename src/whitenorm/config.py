"""Numeric tolerances used across the package.

The fields of the one frozen instance TOL are the package's shared
thresholds, read at the point of use; any other threshold is a constant
whose comment justifies it.  No root is accepted, told apart from another
or paired with its inverse on a threshold: its inclusion disc certifies
it, and its realness and whether it meets the unit circle are read off
that disc (see roots).  Every root off +-1 is simple, by an exact
squarefree test, and the trivial roots +-1 are split off exactly with
their orders.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # representation residuals
    residual: float = 1e-8         # relator / filling / variety residuals
    trace: float = 1e-9            # |tr rho(mu1) -+ 2|
    det_one: float = 1e-10         # |det - 1| for constructed matrices
    t_match: float = 1e-7          # |s^p t^q - 1| selecting the t branch
    faithful_defect: float = 1e-3  # filling defect required at s = +-1
    # linear algebra
    rank_rel: float = 1e-8         # singular values below rank_rel*smax -> 0
    det_rel: float = 1e-8          # relative determinant agreement


TOL = Tolerances()
