"""Desk-scale laboratory for quantum state identity testing.

Dense circuit simulation of the swap / circle / permutation / alternation
tests, exact combinatorial probability oracles, analytic bounds, and Monte
Carlo simulation of the two semi-classical protocols, all cross-checked
against each other.
"""

from .bounds import ps_lower_bound
from .instances import load_instance

__version__ = "0.1.0"
