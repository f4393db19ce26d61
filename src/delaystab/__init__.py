"""delaystab: stability regions of complex-gain delay systems.

The library locates the set of complex gains L for which a linear delay
system is asymptotically stable.  It traces the curves in the L plane on
which a characteristic root sits exactly on the imaginary axis, counts
unstable roots by a winding-number contour, propagates those counts across
the plane, and cross-validates the resulting geometry with direct
time-domain simulation of several networked systems.
"""

__version__ = "0.1.0"

from .charfun import (  # noqa: F401
    CharFun,
    build_charfun,
    radius_bound,
)
from .kernels import (  # noqa: F401
    DelayKernel,
    Dirac,
    Exponential,
    Gamma,
    KernelPoleError,
    Uniform,
    laplace,
    laplace_derivative,
)
from .regions import (  # noqa: F401
    Membership,
    NuMap,
    OnSccError,
    membership,
    nu_contour,
    nu_map,
    stability_region,
    trace_covering,
)
from .scc import (  # noqa: F401
    CrossingReport,
    SccBranch,
    crossing_at,
    self_intersection,
    trace,
)
