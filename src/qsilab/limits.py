"""Size caps shared across the package, and the error raised when one is hit.

Everything here is sized for a dense in-memory simulation budget of roughly
half a gigabyte of complex doubles. The identity-test circuits have no n cap
of their own: their |G| d^n amplitudes must fit the budget, and the FFT holds
a second copy. Near the default budget a circuit peaks at 425-461 MB of
process RSS (circle test at n=19, d=2; permutation test at n=8, d=2 and at
n=7, d=3; measured on a 2-core Xeon VM).
"""

import os

#: Default budget for dense complex amplitude vectors (~256 MB of complex128).
DEFAULT_MAX_AMPS = 2**24

#: Input cap on n for the permutation and alternation tests' permanent
#: formula and exact rationals, and for ps_lower_bound's permanent. The
#: permgroup tables and stabilizer counts (10! = 3,628,800 rows) stop here too.
SYM_ENUM_MAX_N = 10

#: Gram-matrix closed form for the cyclic-shift test.
CIRCLE_FORMULA_MAX_N = 24

#: Exact randomized-circle soundness: an input bound on the Burnside sum,
#: whose binomials grow with n (about 10 ms at this n, 0.5 s at 10**5).
RCIR_EXACT_MAX_N = 10_000


class CapExceededError(RuntimeError):
    """A requested computation exceeds the configured size caps."""


def max_amplitudes() -> int:
    """Dense-amplitude budget; override with the QSI_MAX_AMPS env var."""
    raw = os.environ.get("QSI_MAX_AMPS")
    return int(raw) if raw else DEFAULT_MAX_AMPS
