"""Exact degrees of Quot scheme subvarieties, computed three independent
ways and cross-checked: saturated chain counting, a decrement recurrence,
and fixed-point sums over roots of z^n = +-1."""

from .chain_degree import (
    ChainEnumeration,
    degree_bruteforce,
    degree_chain,
    enumerate_chains,
)
from .indices import (
    CompositeIndex,
    InvalidIndexError,
    SchubertSymbol,
    bottom_index,
    composite_to_schubert,
    covers,
    dimension,
    leq_componentwise,
    leq_sequence,
    lower_covers,
    schubert_to_composite,
    symbol_dimension,
    validate_index,
)
from .recurrence_degree import (
    RecurrenceTable,
    quot_degree,
)
from .vafa import (
    CorrelatorSpec,
    DimensionMismatchError,
    LGRootSystem,
    NumericResult,
    ToleranceError,
    lg_roots,
    power_sum,
    powersum_determinant,
    vi_correlator,
    vi_degree,
)
from .verify import VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "ChainEnumeration",
    "CompositeIndex",
    "CorrelatorSpec",
    "DimensionMismatchError",
    "InvalidIndexError",
    "LGRootSystem",
    "NumericResult",
    "RecurrenceTable",
    "SchubertSymbol",
    "ToleranceError",
    "VerifyReport",
    "bottom_index",
    "composite_to_schubert",
    "covers",
    "degree_bruteforce",
    "degree_chain",
    "dimension",
    "enumerate_chains",
    "leq_componentwise",
    "leq_sequence",
    "lg_roots",
    "lower_covers",
    "power_sum",
    "powersum_determinant",
    "quot_degree",
    "run_verify",
    "schubert_to_composite",
    "symbol_dimension",
    "validate_index",
    "vi_correlator",
    "vi_degree",
    "__version__",
]
