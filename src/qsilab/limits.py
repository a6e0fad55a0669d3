"""Size caps shared across the package, and the error raised when one is hit.

The identity-test circuits have no n cap of their own: the |G| d^n
amplitude additions of their EQUAL branch, one d^n array summed over the |G|
group elements, must fit the work budget. The budget bounds the work, not
the memory: near the default budget a `qsilab test --mode both` process
peaks at 39-69 MB of RSS (permutation test at n=8, d=2 and n=7, d=3; circle
test at n=19, d=2; 2-core Xeon VM).
"""

import os

#: Default budget on a circuit's |G| d^n work (amplitude additions), not memory.
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
    """Circuit work budget (|G| d^n); override with the QSI_MAX_AMPS env var."""
    raw = os.environ.get("QSI_MAX_AMPS")
    return int(raw) if raw else DEFAULT_MAX_AMPS
