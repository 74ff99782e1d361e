"""coxcheck: audit conditional belief structures for probability-isomorphism.

Exact-rational conditional belief tables over finite domains; extraction and
law-checking of the induced negation/combination functions; density probes;
theorem-level hypothesis audits; and an isomorphism decision procedure that
returns verified witnesses, re-checkable refutation certificates, or an
honest Unknown.
"""

from .conditions import (
    AuditReport,
    DensityProbe,
    TripleSearchResult,
    audit,
    bel_level_negation,
    chain_consistency,
    check_bounds,
    par5_family,
    par5_gap,
    par5_triples,
)
from .core import (
    BeliefDomainError,
    BeliefStructure,
    ChainQuadruple,
    Domain,
    EmptyConditionError,
    Event,
)
from .files import (
    ParseError,
    load_structure,
    parse_structure,
    save_structure,
    serialize_structure,
)
from .forms import (
    CombinationForm,
    ExtractionConflict,
    MultiplicativeRep,
    NegationForm,
    catalog_combination,
    catalog_negation,
    check_functional_equation,
    check_monotonicity,
    extract_combination,
    extract_negation,
    instance,
    multiplicative_rep,
)
from .generators import (
    DomainFamily,
    ExtendedStructure,
    MinSearchOutcome,
    affine_rescale,
    build_family,
    coin_extend,
    coin_family,
    gen_distorted,
    gen_probability,
    search_min_counterexample,
)
from .isomorphism import (
    DecisionParams,
    IsomorphismVerdict,
    ProbabilityWitness,
    RefutationCertificate,
    RescalingMap,
    decide,
    refutation_search,
    rescaling_from_witness,
    verify_witness,
)

__version__ = "0.1.0"
