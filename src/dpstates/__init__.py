"""Depolarized pure states: identification, distances, entanglement, protocols.

A depolarized pure state (DPS) is rho = (1-p) 1/D + p |psi><psi| with
-1/(D-1) <= p <= 1.  The package provides the coherence-vector algebra
that characterizes the family, closed-form fidelity and trace distance
between commuting members, Schmidt and partial-transpose analysis for
bipartite cuts, physical preparation protocols, and trace-moment
estimators.  Every closed form has an independent brute-force
counterpart; disagreement raises, it is never papered over.
"""

from . import bipartite, bloch, channels, errors, linalg, metrics, moments
from .bipartite import *  # noqa: F403
from .bloch import *  # noqa: F403
from .channels import *  # noqa: F403
from .errors import *  # noqa: F403
from .linalg import *  # noqa: F403
from .metrics import *  # noqa: F403
from .moments import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    bipartite.__all__ + bloch.__all__ + channels.__all__ + errors.__all__
    + linalg.__all__ + metrics.__all__ + moments.__all__
)
