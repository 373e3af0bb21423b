"""Columnar batch-replay kernels for the run-ahead hit path.

PRs 2-4 made the trace columnar (struct-of-arrays cache state, staged
integer accesses, run-buffered protocol commits), but each private-hit
reference still paid one Python interpreter round trip through
:meth:`~repro.cpu.core.Core.step_fast`.  The kernels here close that loop:
the pending trace slice is staged into int64 columns with a sorted
per-block lookaside map (L1D way, private-L2 index, MESI writability,
probed once per distinct block), and a whole stretch of private-hit
references -- L1D-resident reads and M/E-line writes whose
instruction-fetch crossings hit the resident code lines -- is *scanned,
classified and retired in one call*, producing the same coalesced touch
lists and additive counter tallies the scalar loop would have appended
one reference at a time.  A scan that cannot retire anything still
reports the *frontier* (the issue time of the first reference another
core could observe), which the core publishes as a promise so the
driver can relax every other core's batching horizon past it.

Three modes, selected by the simulator's ``kernel`` argument (validated
against :data:`repro.config.parameters.KERNEL_MODES`):

``"off"``
    The scalar :meth:`~repro.cpu.core.Core.step_fast` loop, unchanged.
    The only mode available without numpy.
``"numpy"``
    :func:`repro.kernels.columnar.scan_columnar` -- the scan as numpy
    ufunc chains over pre-staged trace columns.
``"numba"``
    :func:`repro.kernels.jit.scan_loop` -- the same scan as one fused
    loop, compiled with ``numba.njit`` when numba is installed and run as
    plain Python when it is not (byte-identical either way; numba is an
    accelerator, never a semantic dependency).

Every mode produces byte-identical :class:`SimulationResult`s (pinned by
``tests/test_backend_equivalence.py`` and the hypothesis suites).
"""

from __future__ import annotations

from repro.config.parameters import KERNEL_MODES
from repro.utils.optional import HAVE_NUMPY


def resolve_kernel(kernel: str) -> str:
    """Validate a kernel mode against this environment.

    Raises ``ValueError`` for unknown modes and for array-backed modes
    when numpy is missing (both "numpy" and "numba" stage the trace into
    numpy buffers; without numpy only "off" exists).  A missing *numba*
    does not reject ``"numba"`` -- the jit module falls back to the pure
    Python version of the same loop.
    """
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel mode {kernel!r}; expected one of {KERNEL_MODES}"
        )
    if kernel != "off" and not HAVE_NUMPY:
        raise ValueError(
            f"kernel={kernel!r} stages runs into numpy buffers, but numpy "
            f"is not installed; use kernel='off'"
        )
    return kernel


def scanner_for(kernel: str):
    """The scan callable for a validated, non-"off" kernel mode."""
    if kernel == "numpy":
        from repro.kernels.columnar import scan_columnar

        return scan_columnar
    if kernel == "numba":
        from repro.kernels.jit import scan_loop

        return scan_loop
    raise ValueError(f"no scanner for kernel mode {kernel!r}")
