"""Risk-estimate driven choice of the regularization strength for
ill-posed linear inverse problems: spectral filtering with a quadratic
penalty, an l1-penalized variant solved by an operator-splitting method,
selection rules built on unbiased risk estimates and the measurement
discrepancy, and a simulation harness for their error distributions and
convergence behaviour.

The package exports the __all__ list of each of its modules.
"""

from ._version import __version__
from .accum import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .lasso import *  # noqa: F401,F403
from .problem import *  # noqa: F401,F403
from .rules import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .study import *  # noqa: F401,F403

__all__ = [name for name in dir() if not name.startswith("_")]
