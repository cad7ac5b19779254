"""The JSON boundary: the indent-2 encoder, the file reader and the numpy reader of tensor files."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochner import ComplexTensor, EuclideanSpace, tensor_from_json, tensor_to_json
from bochner.tensors import _component_pairs, _dumps, _read_json, _write_json, save_tensor

from oracles import component_pairs_naive

# -0.0, subnormals, 1e16, integral floats, 2**53 and its neighbour, the largest float
FINITE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 2.0**-1074 * 12345, 1e16,
                 1e-7, 1e22, 100.0, -3.0, float(2**53), float(2**53 + 2), 1.7976931348623157e308]

finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(FINITE_FLOATS)
floats = finite_floats | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])
numbers = floats | st.integers(-2**70, 2**70)
scalars = numbers | st.booleans() | st.none() | st.text(max_size=8)
# the layouts the fast paths join in C, with and without entries they must refuse
float_lists = st.lists(finite_floats, max_size=8) | st.lists(floats, max_size=8)
pair_lists = (st.lists(st.lists(finite_floats, min_size=2, max_size=2), max_size=6)
              | st.lists(st.lists(numbers, min_size=2, max_size=2), max_size=6)
              | st.lists(st.lists(numbers, min_size=1, max_size=3), max_size=6))
documents = st.recursive(
    scalars | float_lists | pair_lists,
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(st.text(max_size=6), children, max_size=5)),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_dumps_is_json_dumps_indent_2_sorted(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    [], {}, [[]], {"a": {}}, [1.0, 2], [[1, 2.0], [3.0, 4]], [[1.0, 2.0], [3.0]],
    [[1.0, 2.0], (3.0, 4.0)], (1.0, 2.0), {1: 2.0, 3: [4.0]}, {"z": 1.0, "a": [math.nan]},
    [np.float64(1.5), 2.0], np.float64(-0.0), [True, 1.0], [None, 1.0], ["é中", "\U0001f600"],
    {"ké": [[-0.0, 5e-324], [1e16, 2.0**53]]},
])
def test_dumps_matches_json_dumps_on_unusual_values(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_dumps_refuses_what_json_refuses():
    # the one array the writer takes is an (N, 2) float64 component array
    arrays = [np.zeros(4), np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=complex),
              np.zeros((2, 3)), np.zeros((2, 2, 2)), np.zeros((2, 2), dtype=">f8"),
              np.zeros((2, 2)).view(np.matrix)]
    for doc in ([np.int64(3)], {"a": object()}, *({"components": a} for a in arrays),
                [np.zeros(2), math.nan]):
        with pytest.raises(TypeError):
            _dumps(doc)


@st.composite
def component_arrays(draw):
    rows = draw(st.lists(st.tuples(floats, floats), max_size=12))
    arr = np.array(rows, dtype=float).reshape(-1, 2)
    # a reversed view has negative strides
    return arr[::-1, ::-1] if draw(st.booleans()) else arr


@settings(max_examples=150, deadline=None)
@given(component_arrays(), st.sampled_from([None, 2, "x", [0.5, math.inf]]))
def test_dumps_writes_a_component_array_as_its_listed_rows(arr, other):
    # NaN and infinities fall back to json.dumps, which lists the array
    doc = {"components": arr, "other": other}
    assert _dumps(doc) == json.dumps({"components": arr.tolist(), "other": other},
                                     indent=2, sort_keys=True)


@pytest.mark.parametrize("text", [
    '[0.5, -1.25, 0.5, [0.5, -1.25, 0.5], {"a": 0.5, "b": [-1.25]}]',
    "[0.1, 0.10, 1e-1, 1E-1, 0.100, 0.1]",
    "[-0.0, 0.0, -0.0, 5e-324, 9007199254740993, 9007199254740993.0, 0.0, -0, 5e-324]",
    "[1e400, -1e400, 1e400, 1e-400, -1e-400]",
], ids=["repeated", "equal-values", "zeros-and-extremes", "overflow"])
def test_read_json_is_json_load_bit_for_bit(tmp_path, text):
    # repr tells int from float, -0.0 from 0.0, and every float bit pattern apart
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert repr(_read_json(path)) == repr(json.loads(text))


@settings(max_examples=100, deadline=None)
@given(documents)
def test_read_json_reads_what_json_load_reads(tmp_path_factory, doc):
    text = json.dumps(doc, indent=2)
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(text)
    assert repr(_read_json(path)) == repr(json.loads(text))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(floats | st.integers(-2**62, 2**62), min_size=2, max_size=2), min_size=1,
                max_size=20))
def test_component_reader_is_bit_identical_to_the_complex_loop(comps):
    ref = component_pairs_naive(comps)
    if np.isfinite(ref).all():
        assert _component_pairs(comps).tobytes() == ref.tobytes()
    else:
        with pytest.raises(ValueError, match="finite"):
            _component_pairs(comps)


def test_tensor_file_round_trip_is_bit_identical(rng):
    space = EuclideanSpace.complex_space(2)
    arr = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    arr.flat[:6] = [-0.0, 5e-324, 1e16, 2.0**53, complex(-0.0, -0.0), complex(1e-310, -1e300)]
    obj = json.loads(_dumps(tensor_to_json(ComplexTensor(space, arr))))
    back = tensor_from_json(obj)
    assert back.components.tobytes() == arr.tobytes()
    assert back.components.tobytes() == component_pairs_naive(obj["components"]).tobytes()


@pytest.mark.parametrize("comps", [
    [["a", "b"]], [[None, 1.0]], [1.0], [[1.0, "1.5"]], [[1.0, 2.0], [3.0]], [[1.0, 2.0, 3.0]],
    [[[1.0], [2.0]]], "ab", None, {"a": 1.0, "b": 2.0}, [], [[True, 0.0]], [[1.0, False]],
    [[math.nan, 0.0]], [[1.0, math.inf]], [[-math.inf, 0.0]],
])
def test_component_reader_rejects_anything_but_number_pairs(comps):
    with pytest.raises(ValueError, match=r"\[re, im\] number pairs"):
        _component_pairs(comps)


@pytest.mark.parametrize("convention,dim,match", [
    ("weird", 4, '"j_convention" must be'), (None, 4, '"j_convention" must be'),
    ("block", 3, 'j_convention "block" needs an even dim'),
])
def test_tensor_reader_rejects_an_unknown_j_convention(convention, dim, match):
    obj = {"dim": dim, "rank": 1, "j_convention": convention, "components": [[0.0, 0.0]] * dim}
    with pytest.raises(ValueError, match=match):
        tensor_from_json(obj)


@pytest.mark.parametrize("key,value", [("dim", None), ("dim", "4"), ("rank", 1.5), ("rank", True)])
def test_tensor_reader_needs_integer_dim_and_rank(key, value):
    obj = tensor_to_json(ComplexTensor.zero(EuclideanSpace.complex_space(2), 1))
    if value is None:
        del obj[key]
    else:
        obj[key] = value
    with pytest.raises(ValueError, match=f"integer '{key}'"):
        tensor_from_json(obj)


# the writer turns each distinct bit pattern into text once: long lists that
# repeat a few values, with 0.0 and -0.0 (equal as floats, apart as text) among them
REPEATED = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 0.1]


@pytest.mark.parametrize("size", [300, 701])
def test_dumps_of_long_lists_from_a_small_pool(size):
    gen = np.random.default_rng(size)
    values = [REPEATED[i] for i in gen.integers(len(REPEATED), size=size)]
    pairs = [[REPEATED[i], REPEATED[j]] for i, j in gen.integers(len(REPEATED), size=(size, 2))]
    assert {math.copysign(1.0, v) for v in values if v == 0.0} == {1.0, -1.0}
    for doc in (values, pairs, {"components": pairs, "eigenvalues": values}, [values, pairs]):
        assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_saved_curvature_files_are_json_dumps_text(tmp_path):
    from bochner import curvature as curv

    rng = np.random.default_rng(3)
    models = [curv.random_quaternion_kahler_curvature(EuclideanSpace.quaternionic_space(2), rng),
              curv.chsc_model(EuclideanSpace.complex_space(3), 4.0)]
    for rm in models:
        obj = curv.curvature_to_json(rm)
        assert obj["format"] == "operator" and "components" not in obj
        curv.save_curvature(rm, tmp_path / "rm.json")
        assert (tmp_path / "rm.json").read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_public_json_dicts_hold_plain_lists_and_match_the_saved_text(tmp_path):
    from bochner import curvature as curv
    from bochner import forms

    rng = np.random.default_rng(5)
    space = EuclideanSpace.complex_space(2)
    T = ComplexTensor.random(space, 2, rng)
    rm = curv.random_kahler_curvature(space, rng)
    phi = forms.random_pq_form(space, 1, 1, rng)
    path = tmp_path / "doc.json"
    for obj, save in [(tensor_to_json(T), lambda: save_tensor(T, path)),
                      (curv.curvature_to_json(rm), lambda: curv.save_curvature(rm, path)),
                      (forms.pqform_to_json(phi), lambda: _write_json(forms.pqform_to_json(phi), path))]:
        if obj.get("format") == "operator":
            values = obj["operator"]
            assert type(values) is list and values and set(map(type, values)) == {float}
        else:
            comps = obj["components"]
            assert type(comps) is list and comps
            assert all(type(row) is list and list(map(type, row)) == [float, float] for row in comps)
        save()
        assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"
