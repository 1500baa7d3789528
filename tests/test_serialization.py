"""Wire-format parsing, canonical output, and bit-exact round trips."""

import collections
import json
import math

import pytest
from hypothesis import given, strategies as st

from fockcalc import (
    DuplicateKeyError,
    NegativeIndexError,
    NonFiniteResultError,
    SchemaError,
    SubsetIndex,
    ZERO,
    cov_identity,
    covariance_to_obj,
    decompose,
    decomposition_to_obj,
    functional_to_obj,
    make_functional,
    parse_document,
    random_functionals,
)
from fockcalc.serialization import to_json


def F(*pairs):
    return make_functional([(SubsetIndex(s), c) for s, c in pairs])


class TestParsing:
    def test_schema_example(self):
        phi = parse_document('{"terms":[{"set":[0,2],"coef":[3,0]}]}')
        assert phi == F(([0, 2], 3))

    def test_empty_terms_is_zero(self):
        assert parse_document('{"terms":[]}') == ZERO

    def test_unsorted_set_rejected(self):
        with pytest.raises(SchemaError):
            parse_document('{"terms":[{"set":[2,0],"coef":[1,0]}]}')

    def test_repeated_element_rejected(self):
        with pytest.raises(SchemaError):
            parse_document('{"terms":[{"set":[1,1],"coef":[1,0]}]}')

    def test_negative_index_rejected(self):
        with pytest.raises(NegativeIndexError):
            parse_document('{"terms":[{"set":[-1],"coef":[1,0]}]}')

    def test_duplicate_set_rejected(self):
        with pytest.raises(DuplicateKeyError):
            parse_document(
                '{"terms":[{"set":[1],"coef":[1,0]},{"set":[1],"coef":[2,0]}]}'
            )

    def test_bad_json_reports_position(self):
        with pytest.raises(SchemaError, match="line 1"):
            parse_document("{nope}")

    def test_field_diagnostics_name_the_term(self):
        with pytest.raises(SchemaError, match=r"terms\[1\]"):
            parse_document(
                '{"terms":[{"set":[0],"coef":[1,0]},{"set":[1],"coef":[1]}]}'
            )

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError):
            parse_document('{"terms":[],"extra":1}')
        with pytest.raises(SchemaError):
            parse_document('{"terms":[{"set":[],"coef":[1,0],"tag":"x"}]}')

    def test_booleans_are_not_numbers(self):
        with pytest.raises(SchemaError):
            parse_document('{"terms":[{"set":[0],"coef":[true,0]}]}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"terms":[{"set":[0],"coef":[NaN,0]}]}',
            '{"terms":[{"set":[0],"coef":[0,-Infinity]}]}',
            '{"terms":[{"set":[0],"coef":[1%s,0]}]}' % ("0" * 400),
        ],
    )
    def test_non_finite_numbers_rejected(self, text):
        with pytest.raises(SchemaError, match="finite"):
            parse_document(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"terms":[{"set":3,"coef":[1,0]}]}', "terms[0].set: expected a list of integers"),
            ('{"terms":[{"set":[0.5],"coef":[1,0]}]}',
             "terms[0].set[0]: expected an integer, got 0.5"),
            ('{"terms":[3]}', "terms[0]: expected an object"),
            ('{"terms":[{"set":[0]}]}', "terms[0]: needs both 'set' and 'coef'"),
            ("[]", "top level: expected an object"),
            ('{"terms":{}}', "top level: 'terms' must be a list"),
            ('{"terms":[],"envelope":{"C":2.5,"p":1.0}}', "top level: unknown keys ['envelope']"),
        ],
    )
    def test_schema_error_names_its_field(self, text, message):
        with pytest.raises(SchemaError) as info:
            parse_document(text)
        assert str(info.value) == message


class TestSerialization:
    def test_canonical_order_is_ascending_mask(self):
        phi = F(([2], 1), ([0, 1], 2), ([1], 3))
        obj = json.loads(to_json(functional_to_obj(phi)))
        assert [t["set"] for t in obj["terms"]] == [[1], [0, 1], [2]]

    def test_non_finite_coefficient_not_emitted(self):
        with pytest.raises(ValueError):
            to_json(functional_to_obj(F(([0], complex(float("inf"), 0.0)))))

    def test_round_trip_on_random_corpus(self):
        for phi in random_functionals(50, seed=60, support_max=10, max_terms=20):
            assert parse_document(to_json(functional_to_obj(phi))) == phi

    @given(
        st.dictionaries(
            st.sets(st.integers(0, 12), max_size=6).map(frozenset),
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=12,
        )
    )
    def test_round_trip_arbitrary_floats(self, raw):
        phi = make_functional(
            [(SubsetIndex(s), complex(re, im)) for s, (re, im) in raw.items()]
        )
        assert parse_document(to_json(functional_to_obj(phi))) == phi


class TestReportSerializers:
    def test_decomposition_shape(self):
        report = decompose(F(([], 2), ([0, 2], 3)))
        obj = decomposition_to_obj(report)
        assert obj["termination_index"] == 2
        assert list(obj["terms"]) == ["2"]
        assert obj["mean"]["terms"][0]["set"] == []
        rows = obj["residuals"]
        assert all(set(r) == {"n", "q", "residual"} for r in rows)
        assert [r["n"] for r in rows] == sorted(r["n"] for r in rows)
        json.dumps(obj)  # must be JSON-ready as is

    def test_residual_rows_in_n_then_q_order(self):
        phi = F(([], 2), ([0], 1), ([1, 3], 3j), ([4], -1))
        report = decompose(phi, (2.0, -0.0, 1.0, 0.0, 2.0))
        rows = [(r["n"], r["q"], r["residual"]) for r in decomposition_to_obj(report)["residuals"]]
        table = report.residual_norms
        assert rows == [(n, q, table[(n, q)]) for n, q in sorted(table)]
        assert [(n, q) for n, q, _ in rows[:3]] == [(0, -0.0), (0, 1.0), (0, 2.0)]
        assert math.copysign(1.0, rows[0][1]) == -1.0

    def test_covariance_shape(self):
        report = cov_identity(F(([0], 2j)), F(([0], 1)), 0.0)
        obj = covariance_to_obj(report)
        assert obj["lhs"] == [0.0, 2.0]
        assert obj["per_k"]["0"] == [0.0, 2.0]
        assert obj["gap"] == 0.0
        json.dumps(obj)


#: JSON-ready payloads: every leaf type the writer handles itself, with keys
#: that need escaping and floats from the whole finite range.
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
    | st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308])
    | st.text()
)
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


class TestToJson:
    @given(JSON_PAYLOADS, st.sampled_from([0, 1, 2, 4]))
    def test_equals_stdlib_indent(self, payload, indent):
        assert to_json(payload, indent=indent) == json.dumps(
            payload, indent=indent, allow_nan=False
        )

    @pytest.mark.parametrize("indent", [None, 0, 2])
    def test_escaped_and_empty_values(self, indent):
        payload = {
            "": [], "q\"uote\\": {}, "\u00e9\n\t": ["\x00", "\u2028", "\U0001f600"],
            "nested": [[[]], [{}], ({"a": (1, -0.0, 5e-324)},)], "big": 2**200,
            "flags": [True, False, None],
        }
        assert to_json(payload, indent=indent) == json.dumps(
            payload, indent=indent, allow_nan=False
        )

    @pytest.mark.parametrize("indent", [0, 2, 4])
    def test_other_types_go_to_the_stdlib(self, indent):
        class Real(float):
            def __repr__(self):
                return "Real()"

        payload = {
            "int_keys": {"s": 3, 1: [1.5, {2.5: None}]},
            "ordered": collections.OrderedDict([("b", [1, 2]), ("a", {})]),
            "sub": [Real(0.25), True],
            "deep": [{"x": {0: {"y": [1]}}}],
        }
        assert to_json(payload, indent=indent) == json.dumps(
            payload, indent=indent, allow_nan=False
        )

    def test_unserializable_value_raises_the_stdlib_error(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            to_json({"a": [object()]}, indent=2)

    @pytest.mark.parametrize("indent", [None, 0, 2])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_field_is_named(self, indent, bad):
        payload = {
            "lhs": [1.0, 2.0],
            "rows": [{"n": 0, "residual": 1.0}, {"n": 1, "residual": bad}],
        }
        with pytest.raises(NonFiniteResultError) as info:
            to_json(payload, indent=indent)
        assert str(info.value) == "output field rows[1].residual is not a finite number"
        with pytest.raises(NonFiniteResultError, match="^output field  is not"):
            to_json(bad, indent=indent)
