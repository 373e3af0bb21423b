"""numpy as an optional accelerator: found at import, loaded on first use.

numpy vectorises trace generation and backs the ``"numpy"`` cache backend
and the batch kernels.  It is never required, and most commands never touch
it: a resumed sweep or a store query reads stored results and simulates
nothing.  So importing the package only asks the import system whether
numpy is *installed* (:data:`HAVE_NUMPY`); the real ``import numpy``
happens inside the first function that needs it (:func:`import_numpy`).
A plain import inside a function is thread-safe: the import lock holds
every other thread until the module has finished initialising.
"""

from __future__ import annotations

import importlib.util
import sys


def _numpy_installed() -> bool:
    """True when numpy can be imported, decided without importing it.

    A ``None`` entry in ``sys.modules`` (the standard way to block an
    import) counts as absent.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"] is not None
    try:
        return importlib.util.find_spec("numpy") is not None
    except (ImportError, ValueError):
        return False


#: True when numpy is installed.  Decided once, at import, without loading
#: numpy; the trace-generator provenance stamped into every job key follows
#: from it (:data:`repro.workloads.synthetic.TRACE_GENERATOR_PROVENANCE`).
HAVE_NUMPY = _numpy_installed()


def import_numpy():
    """The numpy module, imported on the first call.

    Only called on paths gated by :data:`HAVE_NUMPY`.  When numpy was found
    at import but fails to load, this raises rather than let a caller fall
    back to the scalar code: this environment's job keys are already stamped
    with the ``"numpy"`` trace-generator provenance, and scalar streams filed
    under them would alias results of the other generator.
    """
    try:
        import numpy
    except ImportError as exc:
        raise RuntimeError(
            "numpy is installed but failed to import "
            f"({type(exc).__name__}: {exc}); this environment's trace "
            "generator provenance is 'numpy', so it cannot fall back to the "
            "scalar generator. Repair or uninstall numpy."
        ) from exc
    return numpy
