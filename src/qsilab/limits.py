"""Size caps shared across the package, and the error raised when one is hit.

Everything here is sized for a dense in-memory simulation budget of roughly
half a gigabyte of complex doubles.
"""

import os

#: Default budget for dense complex amplitude vectors (~256 MB of complex128).
DEFAULT_MAX_AMPS = 2**24

#: Input cap on n for the permutation and alternation tests' permanent
#: formula and exact rationals, and for ps_lower_bound's permanent. The group
#: tables and enumerations in permgroup (10! = 3,628,800 rows) stop here too.
SYM_ENUM_MAX_N = 10

#: Circuit simulation with an n!-dimensional control register (720 at n=6).
PERM_CIRCUIT_MAX_N = 6

#: Circuit simulation with an n-dimensional control register.
CIRCLE_CIRCUIT_MAX_N = 10

#: Gram-matrix closed form for the cyclic-shift test.
CIRCLE_FORMULA_MAX_N = 24

#: Exact randomized-circle soundness: an input bound on the Burnside sum,
#: whose binomials grow with n (about 10 ms at this n, 0.5 s at 10**5).
RCIR_EXACT_MAX_N = 10_000

#: Dense symmetric-subspace projector: the matrix has (dim**n)**2 entries,
#: so this keeps it within the same ~512 MB budget as the circuits.
PROJECTOR_MAX_DIM = 2**12


class CapExceededError(RuntimeError):
    """A requested computation exceeds the configured size caps."""


def max_amplitudes() -> int:
    """Dense-amplitude budget; override with the QSI_MAX_AMPS env var."""
    raw = os.environ.get("QSI_MAX_AMPS")
    return int(raw) if raw else DEFAULT_MAX_AMPS
