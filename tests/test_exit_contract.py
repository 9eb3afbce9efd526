"""Fuzz test of the CLI's exit-code contract.

Every subcommand is called through cli.run with argv drawn from small values
and from values near and past each guard, and the --input subcommands with
valid documents that have one field replaced or deleted, arbitrary JSON
values and a few raw texts.  The contract: run raises nothing, the exit
code is 0, 1 or 2, and 1 comes only with a negative verdict in the payload.

Values just inside a guard whose admitted work takes a second or more
(symfun partitions 45, symfun schur of degree 32, cc-odp at g = 7, sweeps
to rank 40) are left to each guard's own test; the deadline below then
holds because the guards refuse everything larger.
"""

import contextlib
import copy
import io
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacycles import cli
from thetacycles.schottky import PpavInput, cc_odp

NEGATIVE_VERDICTS = (
    ("integral", False),
    ("feasible", False),
    ("verified", False),
    ("no_decomposition", True),
    ("error", "non-integral result"),
)

HUGE = [10**9, 10**12, 10**30]


def ints(*near):
    """Small integers, the given values near a guard, and huge ones."""
    return st.one_of(st.integers(-2, 6), st.sampled_from(list(near) + HUGE))


def coords(values, min_size=1, max_size=8):
    return st.lists(values, min_size=min_size, max_size=max_size).map(
        lambda xs: ",".join(map(str, xs)))


TYPES = ["A1", "A2", "A5", "B3", "C3", "D4", "D7", "E6", "E7", "E8", "F4", "G2", "A100",
         "A0", "B1", "C2", "D3", "E9", "H3", "A101", "A99999999", "X", "a5", ""]
RANKS = {"A1": 1, "A2": 2, "A5": 5, "B3": 3, "C3": 3, "D4": 4, "D7": 7, "E6": 6, "E7": 7,
         "E8": 8, "F4": 4, "G2": 2, "A100": 100}


@st.composite
def rep_weight(draw):
    name = draw(st.sampled_from(TYPES))
    if name in RANKS and draw(st.booleans()):
        rank = RANKS[name]
        if rank > 8:
            w = ",".join(["1"] + ["0"] * (rank - 1))
        else:
            w = draw(coords(st.integers(-2, 4), rank, rank))
    else:
        w = draw(st.one_of(coords(st.integers(-3, 9)), st.sampled_from(["", "a", "1,,2"])))
    return [name, w]


FLAGS = ["--sum-zero", "--torsion-dependent", "--not-symmetric", "--gauss-finite"]


def ppav_argv(command, genera):
    return st.tuples(
        st.sampled_from(genera), ints(59, 60, 359, 360),
        st.lists(st.sampled_from(FLAGS), unique=True),
    ).map(lambda t: [command, "--g", str(t[0]), "--k", str(t[1])] + t[2])


SMALL_DIM = st.one_of(st.integers(-2, 12), st.sampled_from([100_001] + HUGE))
SWEEP_RANK = st.one_of(st.integers(-2, 6), st.sampled_from([41] + HUGE))

ARGV = st.one_of(
    st.tuples(st.just("partitions"), ints(46)).map(lambda t: ["symfun", t[0], str(t[1])]),
    st.tuples(st.just("elementary"), ints(46, 200)).map(lambda t: ["symfun", t[0], str(t[1])]),
    st.one_of(coords(st.integers(-1, 5)), st.sampled_from(["33", "15,15,15", "45", "2,3", "a"]))
    .map(lambda a: ["symfun", "schur", a]),
    rep_weight().map(lambda tw: ["rep-dim"] + tw),
    rep_weight().map(lambda tw: ["rep-char"] + tw),
    st.tuples(st.sampled_from(["rep-classify", "wmf-tables"]), SWEEP_RANK, SMALL_DIM).map(
        lambda t: [t[0], "--max-rank", str(t[1]), "--max-dim", str(t[2])]),
    st.tuples(SMALL_DIM, SWEEP_RANK).map(
        lambda t: ["qm-search", "--dim", str(t[0]), "--max-rank", str(t[1])]),
    ppav_argv("theta-group", [-1, 0, 1, 2, 3, 4, 5, 6, 8, 100, 101] + HUGE),
    ppav_argv("cc-odp", [-1, 0, 1, 2, 3, 4, 5, 6, 8, 101] + HUGE),
    st.tuples(ints(59, 60), st.booleans()).map(
        lambda t: ["genus5", "--k", str(t[0])] + (["--gauss-finite"] if t[1] else [])),
    st.tuples(ints(100, 101), ints(20, 70), st.booleans(),
              st.sampled_from([None, "1/2", "0", "-3", "7/3", "x", "1/0"])).map(
        lambda t: ["fake-jacobian", "--g", str(t[0]), "--degree", str(t[1])]
        + (["--hyperelliptic"] if t[2] else []) + ([f"--cm1={t[3]}"] if t[3] else [])),
    st.tuples(st.one_of(coords(ints()), st.sampled_from(["", "a", "1,,2"])), ints()).map(
        lambda t: ["summand-bound", "--dims", t[0], "--dz", str(t[1])]),
    st.just(["fourfold-table"]),
    st.tuples(ints(10_000)).map(lambda t: ["s-sets", "--bound", str(t[0])]),
    st.sampled_from([[], ["nope"], ["--help"], ["rep-dim"], ["symfun", "schur"]]),
)

FORMAT = st.sampled_from([[], ["--format", "csv"], ["--format", "text"], ["--format", "x"]])


def _cycle():
    # through json, so that the mutations below meet lists, not tuples
    return json.loads(json.dumps(cc_odp(PpavInput(g=3, k=1, gauss_finite=True)).to_json()))


def _element():
    return {"group": {"rank": 1, "torsion": [2]}, "coeffs": [[[1, 0], 1], [[-1, 1], 2]]}


def _documents():
    cycle, element = _cycle(), _element()
    ops = [{"kind": "adams", "n": 3}, {"kind": "lambda", "k": 2}, {"kind": "sym", "k": 3},
           {"kind": "schur", "alpha": [2, 1]}, {"kind": "multiply", "other": element}]
    construction = {"kind": "sum", "children": [
        {"kind": "schur", "alpha": [1, 1], "child": {"kind": "var", "index": 0}},
        {"kind": "product", "children": [{"kind": "var", "index": 0}]}]}
    docs = [("lambda-eval", {"element": element, "op": op}) for op in ops]
    # an empty element, whose group size alone sets the work
    docs.append(("lambda-eval", {"element": {"group": {"rank": 1, "torsion": []}, "coeffs": []},
                                 "op": {"kind": "lambda", "k": 0}}))
    docs += [
        ("cycle-convolve", {"c1": cycle, "c2": cycle, "d_trunc": 1}),
        ("cycle-schur", {"cycle": cycle, "alpha": [1, 1], "d_trunc": 1}),
        ("simplicity", cycle),
        ("verify-ig", {"target": element, "construction": construction,
                       "candidates": [element], "e": 2}),
    ]
    return docs


DOCUMENTS = _documents()

# one field's replacement: values near and past the guards and of every type
NOISE = st.one_of(
    ints(32, 33, 45, 100, 101, 1000, 1001),
    st.sampled_from([None, True, False, "3", "", "1/2", 1.5, 2.0, -0.0, [], {}, [[]], [1, 2],
                     {"rank": 1}, [[[1, 0], 1]], [33], [15, 15, 15], [1] * 40]),
    st.text(max_size=4),
)

JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 300), st.text(max_size=3),
              st.floats(allow_nan=False, allow_infinity=False)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=8,
)

RAW = st.sampled_from(["", "{", "nul", "[" * 100_000 + "]" * 100_000, '{"g": NaN}'])


def _slots(node):
    """Every (container, key) pair inside a document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    container, key = draw(st.sampled_from(list(_slots(doc))))
    if draw(st.booleans()):
        container[key] = draw(NOISE)
    elif isinstance(container, dict):
        del container[key]
    else:
        container.pop(key)
    return doc


@st.composite
def input_case(draw):
    command, doc = draw(st.sampled_from(DOCUMENTS))
    text = draw(st.one_of(
        mutated(doc).map(json.dumps), JSON.map(json.dumps), RAW, st.just(json.dumps(doc))))
    extra = []
    if command == "simplicity":
        extra = ["--m-bound", str(draw(ints(1000, 1001))),
                 "--divisor", draw(st.sampled_from(["theta", "x"]))]
    return command, extra, text


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 1:
        payload = json.loads(out.getvalue())
        assert any(payload.get(k) == v for k, v in NEGATIVE_VERDICTS), (argv, payload)


CONTRACT = settings(max_examples=150, deadline=timedelta(seconds=2))


@CONTRACT
@given(ARGV, FORMAT)
def test_argv_keeps_the_exit_contract(argv, fmt):
    _check(fmt + argv)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "input.json"


@CONTRACT
@given(case=input_case(), fmt=FORMAT)
def test_input_documents_keep_the_exit_contract(input_path, case, fmt):
    command, extra, text = case
    input_path.write_text(text)
    _check(fmt + [command, "--input", str(input_path)] + extra)
