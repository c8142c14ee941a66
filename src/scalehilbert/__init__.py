"""Finite truncations of scale Hilbert spaces.

Weighted sequence models, graded inner-product ladders, the circle
Sobolev example with its quadrature oracle, and the certificate
pipeline that turns a symmetric operator into its fractal weight
1 + gamma^2 and the isometry onto the weighted model.
"""

from .hessian import *  # noqa: F403
from .sobolev_circle import *  # noqa: F403
from .spaces import *  # noqa: F403
from .verify import *  # noqa: F403
from .weights import *  # noqa: F403

__version__ = "0.1.0"
