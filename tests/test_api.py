import quotdeg

PUBLIC = [
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
    "__version__",
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
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(quotdeg.__all__) == PUBLIC
    for name in quotdeg.__all__:
        assert getattr(quotdeg, name) is not None
