"""report.render_json against its reference, json.dumps(indent=2, sort_keys=True)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2h2 import model_zoo as mz
from h2h2 import report as rp


def reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def assert_same_text(payload):
    assert rp.render_json(payload) == reference(payload)


def assert_same_records_text(columns: dict):
    """render_json of a column payload against json.dumps of its records,
    alone and inside a dict."""
    records = rp.Records(columns)
    rows = list(records)
    assert len(records) == len(rows) and all(list(r) == list(columns) for r in rows)
    assert rp.render_json(records) == reference(rows)
    assert rp.render_json({"rows": records, "n": 1}) == reference({"rows": rows, "n": 1})


def assert_same_as_records(rows: list):
    """A list of dicts with the same keys, as it is (json's general layout)
    and as the ``Records`` of its columns (the columnar encoder)."""
    assert_same_text(rows)
    assert_same_records_text({key: [r[key] for r in rows] for key in rows[0]})


EDGE_SCALARS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e-300,
                0.1, 1.0 / 3.0, 2.0 ** 53, 1e16, 1e-5, True, False, None, 0, -7,
                2 ** 64, 10 ** 40, -(10 ** 30)]

STRINGS = ["", "a, b", ", ", ",", "}", "{", "]", "[", "line\nbreak", "\r\n", 'say "hi"',
           "back\\slash", "tab\t", "\x00\x1f\x7f", "é", "π ≈ 3.14", "😀", "%s %d %%", ": "]


@pytest.mark.parametrize("spec", [
    mz.ModelSpec("M_1m1", {"c": 0.5}),
    mz.ModelSpec("M_11", {"c": 0.25}),
    mz.ModelSpec("M_tau", {"tau": -2.0}),
    mz.ModelSpec("M_Gamma", {"kappa_gamma": 1.0}),
    mz.ModelSpec("M_kk", {"c": 0.5, "kappa": "tanh", "kappa_tilde": "one"}),
])
def test_verify_reports(spec):
    cfg = rp.SuiteConfig(model=spec, samples=16)
    assert_same_text(rp.report_payload(cfg, rp.run_verify_suite(cfg)))


@pytest.mark.parametrize("spec", [
    mz.ModelSpec("M_tau", {"tau": -1.5}),
    mz.ModelSpec("M_tau", {"tau": -2.0}),
    mz.ModelSpec("M_tau", {"tau": -5.0}),
    mz.ModelSpec("M_1m1", {"c": 0.5}),
    mz.ModelSpec("M_Gamma", {"kappa_gamma": 2.0}),
    mz.ModelSpec("M_kk", {"c": 0.5, "kappa": "tanh", "kappa_tilde": "one"}),
])
def test_parallel_payloads_at_the_benchmark_grid(spec):
    cfg = rp.SuiteConfig(model=spec, l_grid=(-2.0, 2.0, 0.002))
    rows = rp.parallel_rows(cfg)
    if spec.kind == "M_tau":
        assert any(r["H_mean"] is None for r in rows)      # focal rows hold nulls
    # the column payload is written as json writes its list of records
    assert rp.render_json({"config": cfg.as_dict(), "rows": rows}) == reference(
        {"config": cfg.as_dict(), "rows": list(rows)})


@pytest.mark.parametrize("value", EDGE_SCALARS, ids=repr)
def test_edge_scalars(value):
    assert_same_text(value)
    assert_same_text([value, value])
    assert_same_text({"x": value})
    # a column of records: alone, and mixed with the other scalar types
    assert_same_as_records([{"x": value, "y": 1.5}, {"x": value, "y": None}])
    assert_same_as_records([{"x": value, "y": v} for v in EDGE_SCALARS])


def test_edge_scalar_columns():
    assert_same_as_records([{"x": v, "s": str(v)} for v in EDGE_SCALARS])
    rows = [{"a": v, "b": -v} for v in EDGE_SCALARS if isinstance(v, float)]
    assert_same_text({"rows": rows})
    assert_same_as_records(rows)


def test_record_columns():
    floats = [v for v in EDGE_SCALARS if isinstance(v, float)]
    assert_same_records_text({"x": EDGE_SCALARS, "s": list(map(str, EDGE_SCALARS))})
    assert_same_records_text({"b": floats, "a": [-v for v in floats], "%": ["%s"] * len(floats)})
    assert_same_records_text({key: [1.5, None] for key in STRINGS})
    # columns that are not flat take json's general layout
    assert_same_records_text({"x": [[1.0, 2.0], {"y": None}], "z": [0, 1]})
    assert_same_records_text({2: ["key not a string"], 3.5: [None]})
    assert_same_records_text({})
    assert_same_records_text({"x": []})


@pytest.mark.parametrize("text", STRINGS, ids=repr)
def test_strings(text):
    assert_same_text(text)
    assert_same_text({text: text})
    # string columns, keys that need escaping, and "%" in keys and cells
    assert_same_as_records([{"name": text, "x": 1.0},
                            {"name": ", ".join([text, text]), "x": 2.0}])
    assert_same_as_records([{text: 1.0, "k": text}, {text: None, "k": "}"}])


def test_string_columns_with_separators():
    assert_same_text({"results": [{"name": s, "notes": s + ", " + s, "x": float(i)}
                                  for i, s in enumerate(STRINGS)]})


@pytest.mark.parametrize("payload", [
    [], {}, [[]], [{}], [{}, {}], {"a": []}, {"a": {}}, {"a": [{}]}, [[[]]], [[], {}],
    {"a": {"b": {"c": []}}}, {"a": {"b": {"c": {}}}}, [{"a": []}, {"a": []}],
    [{"a": {}}, {"a": {}}], [{"a": 1.0}, {}], [{}, {"a": 1.0}],
], ids=repr)
def test_empty_containers(payload):
    assert_same_text(payload)
    assert_same_text({"nested": [payload, {"deeper": payload}]})


@pytest.mark.parametrize("payload", [
    [{"a": 1}, {"b": 2}],                          # keys differ
    [{"a": 1, "b": 2}, {"a": 1, "c": 2}],          # same size, other keys
    [{"a": 1}, {"a": 1, "b": 2}],                  # one key more
    [{"a": [1, 2]}, {"a": [3]}],                   # container values
    [{"a": {"x": 1.5}}, {"a": {}}],
    [{"a": 1.0, "b": [None, {"c": "d"}]}, {"a": 2.0, "b": []}],
    [1, {"a": 1}], [{"a": 1}, 1], [{"a": 1}, [1]],
    [{1: "a"}, {1: "b"}],                          # non-string keys
    {1: "a", 2.5: "b", -3: "c"}, {None: 1}, {True: 1}, {False: [0]},
    ("a", 1.0, (2, 3)), [(1, 2), (3, 4)], {"t": ({"a": 1}, {"a": 2})},
    [{"x": np.float64(1.5)}, {"x": np.float64(-0.0)}],   # float subclasses
    [{"b": 2, "a": 1}, {"a": 3, "b": 4}],          # same keys, other insertion order
], ids=repr)
def test_irregular_lists(payload):
    assert_same_text(payload)


@pytest.mark.parametrize("payload", [
    {"a": object()}, [object()],
    [{"a": np.int64(1)}, {"a": np.int64(2)}],
    {(1, 2): "tuple key"},
])
def test_unserializable_raises_type_error(payload):
    with pytest.raises(TypeError):
        reference(payload)
    with pytest.raises(TypeError):
        rp.render_json(payload)


scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8))
keys = st.text(max_size=4)


@st.composite
def records(draw):
    names = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(min_value=1, max_value=6))
    return [{k: draw(scalars) for k in names} for _ in range(n)]


payloads = st.recursive(scalars | records(),
                        lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(keys, inner, max_size=4),
                        max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_random_payloads(payload):
    assert_same_text(payload)
