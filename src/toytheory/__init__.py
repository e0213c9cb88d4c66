"""Exact simulator for Spekkens' toy theory in prime dimensions.

Epistemic states over Z_p^{2n} (or exact rationals), symplectic dynamics,
the measurement update rule, agent inference, and desk-scale exhaustive
verification of the theory's no-go results for conditional preparation and
nested-observer paradoxes.
"""

from .algebra import (
    Coset, GF, PrimeField, QQ, RationalField, Subspace,
    coset_intersection, contains, make_coset, orthogonal_complement, rref,
    subspace_intersection, subspace_sum,
)
from .errors import (
    ContinuousNotEnumerable, DimensionMismatch, EnumerationCapExceeded,
    ImpossibleOutcome, InvariantViolation, NotIsotropic, NotPointMass,
    NotPrimeError, NotSymplectic, SearchSpaceExceeded, ToyTheoryError,
)
from .phase_space import (
    Observable, PhaseSpace, all_isotropic_subspaces, commutant_within,
    compose, discrete_space, is_isotropic, j_matrix, observable,
    p_observable, poisson_bracket, q_observable, rational_space,
)
from .states import (
    EpistemicState, GridDiagram, OnticSupport, all_valid_states, bell_pair,
    is_valid_support, knowledge_bits, make_state, marginal, maximally_mixed,
    mixture_support, ontic_support, render_grid, state_from_values,
    states_equal, tensor, tensor_all, toy_bit,
)
from .dynamics import (
    ConditionalPrepSpec, ConditionalSearchResult, MarginalClassification,
    SymplecticTransform, apply_to_ontic, apply_to_state,
    classify_conditional_marginals, cnot_gate, complete_symplectic,
    compose_transforms, find_conditional_transform, gate_library,
    identity_transform, invert_transform, make_transform,
    observable_copy_transform, position_copy_transform, qp_swap_gate,
    random_symplectic, shift_gate, sp_order, swap_gate, symplectic_group,
    transvection,
)
from .measurement import (
    Measurement, Outcome, branches, inference_conditions, infers, is_certain,
    make_measurement,
    outcome_for_label, outcome_from_valuation, outcome_probability, outcomes,
    sample_outcome, update_state,
)
from .oracle import (
    oracle_conditional, oracle_probability, oracle_smallest_update,
)
from .scenarios import (
    ConditionReport, FRCandidate, ScenarioReport, check_fr_conditions,
    fr_chain_initial, fr_chain_sequential, run_bell, run_forgetting,
    run_wigner_friend, search_fr_paradox,
)

__version__ = "0.1.0"
