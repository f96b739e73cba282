"""Stochastic Taylor expansion regression.

Random sums of the form ``sum_j a_j * prod_r (x_r - x0_r)**n_{r,j}``, with
events (a, n) drawn from a Poisson point process whose mixture intensity is
built from (d+1)-variate normals, have closed-form means that generalize
Taylor polynomials to random coefficients and real-valued powers. This
package evaluates those means exactly, fits them to data by multi-start
nonlinear least squares with model-order selection, simulates the point
process for Monte Carlo envelopes, measures quadrature distances between
surfaces, and benchmarks the whole pipeline on a registry of test
functions. The ``stochtaylor`` command exposes the same workflow on files.
"""

from . import bench, errors, fit, metrics, model, rng, simulate
from .errors import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .fit import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .bench import *  # noqa: F401,F403

__version__ = "0.1.0"

# The package exports exactly the submodules' public names.
__all__ = [
    name
    for module in (model, rng, simulate, fit, metrics, bench, errors)
    for name in module.__all__
] + ["__version__"]
