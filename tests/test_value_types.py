"""The contract every value type keeps: fields, keyword construction, repr
text, immutability, and equality only within its own type."""

import copy
import pickle

import pytest

from quotdeg import (
    ChainEnumeration,
    CompositeIndex,
    CorrelatorSpec,
    InvalidIndexError,
    LGRootSystem,
    NumericResult,
    RecurrenceTable,
    SchubertSymbol,
    VerifyReport,
    enumerate_chains,
    powersum_determinant,
    quot_degree,
    symbol_dimension,
    validate_index,
    vi_correlator,
    vi_degree,
)
from quotdeg.indices import bottom_index
from quotdeg.vafa import lg_roots, power_sum
from quotdeg.verify import SuiteResult, valid_symbols, windowed_indices

INDEX = CompositeIndex(entries=(1, 2), n=5)

# (type, keyword arguments, repr text) for one instance of each value type
CASES = [
    (CompositeIndex, {"entries": (1, 2), "n": 5}, "CompositeIndex(entries=(1, 2), n=5)"),
    (SchubertSymbol, {"columns": (3, 4), "offset": 1}, "SchubertSymbol(columns=(3, 4), offset=1)"),
    (
        ChainEnumeration,
        {"chains": ((INDEX,),), "total": 1, "capped": False},
        "ChainEnumeration(chains=((CompositeIndex(entries=(1, 2), n=5),),), total=1, "
        "capped=False)",
    ),
    (
        NumericResult,
        {"value": 8, "raw": 8 + 0j, "residual": 0.0, "imag": 0.0, "precision": 53,
         "tolerance": 1e-06},
        "NumericResult(value=8, raw=(8+0j), residual=0.0, imag=0.0, precision=53, "
        "tolerance=1e-06)",
    ),
    (
        LGRootSystem,
        {"m": 1, "n": 2, "precision": 53, "powers": (1, 1j, -1, -1j)},
        "LGRootSystem(m=1, n=2, precision=53, powers=(1, 1j, -1, (-0-1j)))",
    ),
    (CorrelatorSpec, {"powers": (8, 0), "m": 2, "p": 2}, "CorrelatorSpec(powers=(8, 0), m=2, p=2, q=1)"),
    (
        VerifyReport,
        {"suites": [SuiteResult("pieri", 3, ["x"])]},
        "VerifyReport(suites=[SuiteResult(name='pieri', cases=3, failures=['x'])])",
    ),
    (SuiteResult, {"name": "pieri", "cases": 3, "failures": ["x"]},
     "SuiteResult(name='pieri', cases=3, failures=['x'])"),
]
HASHABLE = {CompositeIndex, SchubertSymbol, ChainEnumeration, NumericResult, LGRootSystem,
            CorrelatorSpec}


def test_value_type_contract():
    # every type is immutable; the two holding a list of suites or failures
    # are not hashable
    assert {cls for cls, _, _ in CASES} == HASHABLE | {VerifyReport, SuiteResult}
    for cls, kwargs, text in CASES:
        value = cls(**kwargs)
        assert repr(value) == text
        for name, field in kwargs.items():
            assert getattr(value, name) == field
        twin = cls(**kwargs)
        assert value == twin and not value != twin
        assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)
        for name, field in kwargs.items():
            with pytest.raises(AttributeError):
                setattr(value, name, field)
        if cls in HASHABLE:
            assert hash(value) == hash(twin)

    # int coercion on construction, as before
    assert CompositeIndex(["1", 2.0], "5") == INDEX
    assert SchubertSymbol([True, 2]).columns == (1, 2)
    q = CorrelatorSpec((8, 0), 2.0, 2).q
    assert type(q) is int and q == 1
    assert vi_degree((3, 4), 1, 2.0, 2).value == 8
    # equal only within a type: not to a plain tuple, not to another type
    assert INDEX != ((1, 2), 5) and not INDEX == ((1, 2), 5)
    assert ((1, 2), 5) != INDEX
    assert INDEX != SchubertSymbol((1, 2), 5) and SchubertSymbol((1, 2), 5) != INDEX
    assert INDEX != CompositeIndex((1, 3), 5)
    assert len({INDEX, CompositeIndex((1, 2), 5), SchubertSymbol((1, 2), 5)}) == 2
    # q is inferred, never passed
    with pytest.raises(TypeError):
        CorrelatorSpec((8, 0), 2, 2, q=1)


@pytest.mark.parametrize(
    "build,error,value",
    [
        (lambda: CompositeIndex((1.9, 3), 4), InvalidIndexError, "1.9"),
        (lambda: vi_degree((3, 4), 1.7, 2, 2), InvalidIndexError, "1.7"),
        (lambda: vi_correlator(CorrelatorSpec((8.9, 0), 2, 2)), ValueError, "8.9"),
        (lambda: RecurrenceTable(2, 4).degree((2.7, 3)), ValueError, "2.7"),
        (lambda: powersum_determinant((2.5, 1.5), 2, 4), ValueError, "2.5"),
        (lambda: power_sum(5, 2, 2.5), ValueError, "2.5"),
        (lambda: enumerate_chains(validate_index((4, 7), 4), cap=1.5), ValueError, "1.5"),
        (lambda: CorrelatorSpec((8, 0), 2.5, 2), ValueError, "2.5"),
        (lambda: vi_degree((3, 4), 1, 2.5, 2), ValueError, "2.5"),
        (lambda: RecurrenceTable(2, 4.5), ValueError, "4.5"),
        (lambda: quot_degree(2.5, 2, 1), ValueError, "2.5"),
        (lambda: lg_roots(2, 4.5), ValueError, "4.5"),
        (lambda: bottom_index(2.5, 4), InvalidIndexError, "2.5"),
        (lambda: powersum_determinant((2, 2), 2, 4.5), ValueError, "4.5"),
        (lambda: symbol_dimension(SchubertSymbol((2, 4), 1), 4.5), ValueError, "4.5"),
        (lambda: valid_symbols(2, 2, 7.5), ValueError, "7.5"),
        (lambda: windowed_indices(4, 2, 3.5), ValueError, "3.5"),
        (lambda: windowed_indices(4.5, 2, 3), ValueError, "4.5"),
    ],
    ids=[
        "CompositeIndex", "SchubertSymbol", "CorrelatorSpec", "RecurrenceTable", "parts",
        "power_sum", "cap", "CorrelatorSpec.m", "vi_degree.m", "RecurrenceTable.n",
        "quot_degree", "lg_roots", "bottom_index", "powersum_determinant.n", "symbol_dimension",
        "valid_symbols", "windowed_indices", "windowed_indices.n",
    ],
)
def test_non_integral_input_is_refused(build, error, value):
    # int() once truncated each of the first five to a wrong answer: (1, 3)
    # mod 4, a degree of 8, a correlator of 8, a recurrence value of 1, a
    # determinant of 0.  Of the others, power_sum once returned 2.5, the cap
    # listed 2 chains and symbol_dimension returned 7.5; the rest took the
    # value, or failed with a TypeError deep inside math.comb or range.
    # valid_symbols refuses when called, not when first iterated.
    with pytest.raises(error, match=f"^{value} is not an integer$"):
        build()
