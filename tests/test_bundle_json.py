"""The streaming bundle JSON writer produces the bundle layout byte for
byte: the stdlib's indent=2, sort_keys text, with each list of scalars on
one line. It rejects what the stdlib rejects before it opens the file, and
holds much less than the file in memory."""

import enum
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import bundle_json_text
from skelhar.evaluation import write_json


def _reference_bytes(obj) -> bytes:
    return (bundle_json_text(obj) + "\n").encode("utf-8")


_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 1e300])
_TEXT = st.text() | st.sampled_from(["", "é", "日本", '"\\/\b\f\n\r\t', "\x00\x1f", " "])
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT


@st.composite
def _documents(draw):
    # `shared` is one list object placed at several depths, the way the SVM
    # model shares a training row between machines
    shared = draw(st.lists(_SCALARS, max_size=5))
    tree = draw(st.recursive(
        _SCALARS | st.just(shared),
        lambda children: (st.lists(children, max_size=4)
                          | st.lists(children, max_size=3).map(tuple)
                          | st.dictionaries(_TEXT, children, max_size=4)),
        max_leaves=25,
    ))
    return {"shared": shared, "deeper": [shared, {"again": shared}], "tree": tree,
            "empty": [[], {}, (), [[]], {"x": {}}]}


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "out.json"


class TestReferenceEquality:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_documents())
    def test_file_bytes_equal_the_reference(self, out, doc):
        for obj in (doc, doc["tree"]):
            write_json(obj, out)
            assert out.read_bytes() == _reference_bytes(obj)

    @settings(max_examples=150, deadline=None)
    @given(doc=_documents())
    def test_the_reference_holds_the_values_json_dumps_writes(self, doc):
        text = bundle_json_text(doc)
        assert (json.dumps(json.loads(text), indent=2, sort_keys=True)
                == json.dumps(doc, indent=2, sort_keys=True))

    def test_each_list_of_scalars_takes_one_line(self, out):
        obj = {"b": [[1, 2.5], (None, "x", True)], "a": {"c": [], "d": {}, "e": [[]]},
               "f": [{"g": 0.1}]}
        write_json(obj, out)
        assert out.read_text(encoding="utf-8") == "\n".join([
            '{',
            '  "a": {',
            '    "c": [],',
            '    "d": {},',
            '    "e": [',
            '      []',
            '    ]',
            '  },',
            '  "b": [',
            '    [1, 2.5],',
            '    [null, "x", true]',
            '  ],',
            '  "f": [',
            '    {',
            '      "g": 0.1',
            '    }',
            '  ]',
            '}',
            '',
        ])

    def test_float_and_int_subclasses_take_the_general_path(self, out):
        obj = {"row": [np.float64(-0.0), np.float64(0.1), 1.5, True],
               "value": np.float64(math.nan), "flag": False,
               "level": _Level.HIGH, "levels": [_Level.LOW, 3, [_Level.HIGH]]}
        write_json(obj, out)
        assert out.read_bytes() == _reference_bytes(obj)

    @pytest.mark.parametrize("obj", [
        {"a": [1, np.int64(2)]},
        {"a": {"b": np.int64(2)}},
        {"a": {1: 2.0}},
        {"a": [{None: 1}]},
    ])
    def test_unencodable_values_raise_before_the_file_is_opened(self, out, obj):
        with pytest.raises(TypeError):
            write_json(obj, out)
        assert not out.exists()

    def test_circular_reference_raises_before_the_file_is_opened(self, out):
        loop: list = [1.0]
        loop.append({"back": loop})
        with pytest.raises(ValueError, match="Circular"):
            write_json({"loop": loop}, out)
        assert not out.exists()


def test_a_shared_list_is_encoded_once_at_any_depth(out):
    shared = [0.1, -0.0, 2]
    obj = {"a": [shared] * 5, "b": [[shared, shared]], "c": shared}  # depths 2, 3 and 1
    encode = json.JSONEncoder.encode
    with mock.patch.object(json.JSONEncoder, "encode", autospec=True,
                           side_effect=encode) as spy:
        write_json(obj, out)
    assert [call.args[1] for call in spy.call_args_list
            if isinstance(call.args[1], list)] == [shared]
    assert out.read_bytes() == _reference_bytes(obj)


def test_unshared_rows_stream_in_a_fraction_of_the_file_size(tmp_path):
    rows = np.random.default_rng(0).normal(size=(4000, 81)).tolist()
    path = tmp_path / "rows.json"
    tracemalloc.start()
    try:
        write_json({"rows": rows}, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * path.stat().st_size
