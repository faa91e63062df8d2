"""Numeric tolerances used across the package.

The fields of the one frozen instance TOL are the package's fixed
thresholds; every check reads its threshold from TOL at the point of use.
A root's multiplicity, its realness, whether it is a trivial root +-1 and
whether it meets the unit circle take no threshold: they are read off its
certified inclusion disc (see roots).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # root finding
    root_residual: float = 1e-10   # backward error |f(s)| / sum |c_i||s|^i
    separation: float = 1e-6       # minimal distance between simple roots
    # representation residuals
    residual: float = 1e-8         # relator / filling / variety residuals
    trace: float = 1e-9            # |tr rho(mu1) -+ 2|
    det_one: float = 1e-10         # |det - 1| for constructed matrices
    t_match: float = 1e-7          # |s^p t^q - 1| selecting the t branch
    faithful_defect: float = 1e-3  # filling defect required at s = +-1
    # linear algebra
    rank_rel: float = 1e-8         # singular values below rank_rel*smax -> 0
    det_rel: float = 1e-8          # relative determinant agreement
    root_avoid: float = 1e-3       # min distance between disjoint root sets


TOL = Tolerances()
