"""Two-qubit gate classification and synthesis.

Classify any 4x4 unitary by its nonlocal content (canonical coordinates,
local invariants, entangling power, perfect-entangler status) and
compile arbitrary two-qubit gates into two applications of a special
perfect entangler C[phi] plus single-qubit layers.

The package exports exactly the names its modules list in their
``__all__``.
"""

from . import canonical, entangle, gates, invariants, linalg, spe, synth
from .linalg import *  # noqa: F403
from .invariants import *  # noqa: F403
from .canonical import *  # noqa: F403
from .entangle import *  # noqa: F403
from .spe import *  # noqa: F403
from .synth import *  # noqa: F403
from .gates import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *linalg.__all__,
    *invariants.__all__,
    *canonical.__all__,
    *entangle.__all__,
    *spe.__all__,
    *synth.__all__,
    *gates.__all__,
    "__version__",
]
