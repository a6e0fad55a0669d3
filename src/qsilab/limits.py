"""Size caps shared across the package, and the error raised when one is hit.

The identity-test circuits have no n cap of their own: the register-permuted
copies of the d^n content that their EQUAL branch adds must fit the work
budget, counted as copies times d^n. Swap and circle add their n cyclic
shifts; the permutation test adds n(n+1)/2 - 1 copies, one transposition
coset per register, and the alternation test twice that. The budget bounds
the work, not the memory: near the default budget a `qsilab test --mode both`
process peaks at 38-66 MB of RSS (permutation and alternation tests at n=10,
d=3; circle test at n=19, d=2; 2-core Xeon VM).

The exact-rational caps keep every value printable: Python refuses to turn
an integer of more than 4300 digits into a string, and the CLI prints each
value as a fraction.
"""

import os

#: Default budget on a circuit's work, copies added times d^n, not memory.
DEFAULT_MAX_AMPS = 2**24

#: Input cap on n for the permutation and alternation tests: their circuit,
#: their permanent formula (which ps_lower_bound evaluates) and exact rationals.
SYM_ENUM_MAX_N = 10

#: The cyclic-shift test alone: its circuit, Gram formula and exact rationals.
CIRCLE_FORMULA_MAX_N = 24

#: Randomized circle, exact and Monte Carlo, its q and eq2 bounds, and the
#: two-block ratio 1/C(n, l): an input bound on their binomials, which grow with
#: n (the Burnside sum takes about 10 ms at this n, 0.5 s at 10**5;
#: eq2_bound(n, n/2) has a 3008-digit denominator, C(n, n/2) 3010 digits).
RCIR_EXACT_MAX_N = 10_000

#: Exact sequential random swap: an input bound on the rounds m. The value's
#: denominator 3 * 4^(m-1) has 4215 digits at this m; past m = 7143 it has
#: more than 4300 and no longer prints.
SRS_EXACT_MAX_M = 7_000

#: Sequential random swap's float path sum: 3 * 2^(m-1) rows of <= 27 amplitudes.
SRS_PATH_MAX_M = 12


class CapExceededError(RuntimeError):
    """A requested computation exceeds the configured size caps."""


def max_amplitudes() -> int:
    """Circuit work budget (copies added times d^n); override with QSI_MAX_AMPS.

    Raises ValueError unless QSI_MAX_AMPS, when set, is a positive integer.
    """
    raw = os.environ.get("QSI_MAX_AMPS")
    if not raw:
        return DEFAULT_MAX_AMPS
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"QSI_MAX_AMPS must be a positive integer, got {raw!r}")
    return int(raw)
