"""Desk-scale laboratory for quantum state identity testing.

Dense circuit simulation of the swap / circle / permutation / alternation
tests, exact combinatorial probability oracles, analytic bounds, and Monte
Carlo simulation of the two semi-classical protocols, all cross-checked
against each other.
"""

from .bounds import (
    BaselAsymptote,
    GapReport,
    RationalBound,
    basel_asymptote,
    eq2_bound,
    inverse_square_tail_bracket,
    ps_lower_bound,
    q_bound_case,
    q_bound_check,
    q_value,
    symmetric_projector,
    two_block_soundness,
    two_sided_gap_check,
)
from .identity_tests import (
    RepetitionSet,
    TestKind,
    TestResult,
    control_group,
    equal_prob_formula,
    equal_prob_rational,
    repetition_set,
    run_circuit,
)
from .instances import (
    Alignment,
    QsiInstance,
    Verdict,
    alignment_from_pattern,
    build_instance,
    haar_unitary,
    instance_from_alignment,
    instance_from_json,
    load_instance,
    partition_from_alignment,
    random_structured_instance,
    random_unstructured_instance,
    verify_promise,
)
from .limits import CapExceededError, max_amplitudes
from .permgroup import (
    Partition,
    Permutation,
    cycle_power,
    enumerate_alt,
    enumerate_sym,
    setwise_stabilizes,
    sign,
    stabilizer_count,
)
from .protocols import (
    McEstimate,
    SrsClosedForm,
    mc_run,
    rcir_batch,
    rcir_exact,
    rcir_exact_for_instance,
    srs_batch,
    srs_canonical_trace,
    srs_closed_form,
    srs_exact,
    wilson_interval,
)
from .qmath import (
    DensityMatrix,
    JointState,
    PureState,
    basis_state,
    inner,
    mixture,
    pure_density,
    tensor,
    trace_distance,
)

__version__ = "0.1.0"
