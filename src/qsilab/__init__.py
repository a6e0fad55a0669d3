"""Desk-scale laboratory for quantum state identity testing.

Dense circuit simulation of the swap / circle / permutation / alternation
tests, exact combinatorial probability oracles, analytic bounds, and Monte
Carlo simulation of the two semi-classical protocols, all cross-checked
against each other.
"""

from .bounds import (
    GapReport,
    basel_asymptote,
    eq2_bound,
    inverse_square_tail_bracket,
    ps_lower_bound,
    q_bound_case,
    q_bound_check,
    q_value,
    two_block_soundness,
    two_sided_gap_check,
)
from .identity_tests import (
    TestKind,
    TestResult,
    equal_prob_formula,
    equal_prob_rational,
    run_circuit,
)
from .instances import (
    QsiInstance,
    Verdict,
    build_instance,
    haar_unitary,
    instance_from_json,
    load_instance,
    random_structured_instance,
    random_unstructured_instance,
    verify_promise,
)
from .limits import CapExceededError, max_amplitudes
from .permgroup import Partition
from .protocols import (
    McEstimate,
    SrsClosedForm,
    mc_run,
    promise_labels,
    rcir_batch,
    rcir_exact,
    rcir_exact_for_instance,
    srs_batch,
    srs_closed_form,
    srs_exact,
    wilson_interval,
)
from .qmath import PureState, basis_state

__version__ = "0.1.0"
