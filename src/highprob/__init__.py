"""Exact-arithmetic toolkit for modal logics of high probability.

Model checking for knowledge (probability one) and belief (probability
above a rational threshold) in two semantics, neighborhood-property
verification, agreeing-measure synthesis by exact linear programming,
comparative-probability realizability, and Hilbert-style proof checking.
"""

from .core import (
    EventSet,
    Frame,
    NeighborhoodModel,
    ProbabilityModel,
    Rational,
    bayesian_update,
    conditional_probability,
    make_neighborhood_model,
    make_probability_model,
)
from .formula import (
    Formula,
    Threshold,
    parse_kb,
    parse_l,
    print_kb,
    print_l,
    scott_instance,
    segerberg_expand,
    translate,
)
from .semantics import (
    eval_kb_nbhd,
    eval_kb_prob,
    eval_l,
    eval_segerberg_direct,
    find_nbhd_countermodel,
    sample_prob_countermodel,
    valid_in_model,
)
from .neighborhood import (
    check_agreement,
    check_base_properties,
    check_conjectured,
    check_mid_threshold,
    derive_neighborhoods,
    verify_scott_witness,
)
from .synthesis import (
    ComparativeRelation,
    LinearConstraint,
    LPResult,
    check_definetti,
    lp_feasible,
    realize_comparative,
    synthesize_measure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
