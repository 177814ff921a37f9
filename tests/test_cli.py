"""File loaders and the command-line front end, including exit codes."""

import ast
import contextlib
import copy
import importlib
import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hccourant
from hccourant.algebra import GUARD_MAX_DIM, GuardError, check_guard
from hccourant.courant import ESpace
from hccourant.cli import COMMANDS, build_parser, main
from hccourant.files import DATA_DIR, FileFormatError, load_algebra_ref


def run(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


def test_bundled_names_resolve():
    A = load_algebra_ref("v1_3")
    assert A.dim == 4
    with pytest.raises(FileFormatError):
        load_algebra_ref("no_such_thing")


def test_validate_bundled(capsys):
    code, out = run(["validate", "--algebra", "v1_2"], capsys)
    assert code == 0
    assert "dimension: 3" in out and "commutative: True" in out


def test_validate_rejects_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"name": "x", "dimension": 1, "basis": ["1"], '
                 '"unit": ["2"], "structure": [[0, 0, ["1"]]]}')
    code, out = run(["validate", "--algebra", str(p)], capsys)
    assert code == 2
    assert "error" in out


def test_non_rational_unit_exit_2_one_line_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"name": "x", "dimension": 1, "basis": ["1"], '
                 '"unit": ["x"], "structure": [[0, 0, ["1"]]]}')
    code, out = run(["validate", "--algebra", str(p), "--format", "json"],
                    capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["exit_code"] == 2
    assert "\n" not in doc["error"] and "'x'" in doc["error"]


def test_malformed_json_exit_2_with_position(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{\n  oops\n}")
    code, out = run(["validate", "--algebra", str(p)], capsys)
    assert code == 2
    assert "line" in out


def test_homology_subcommand(capsys):
    code, out = run(["homology", "--algebra", "qx2", "--degree", "1"], capsys)
    assert code == 0
    assert "dim: 1" in out


def test_guard_blocks_and_override(tmp_path, capsys):
    from hccourant.algebra import algebra_to_json, build_v1
    big = tmp_path / "v1_16.json"
    # dim 17 > default degree-1 guard
    big.write_text(json.dumps(algebra_to_json(build_v1(16))))
    code, out = run(["homology", "--algebra", str(big), "--degree", "1"],
                    capsys)
    assert code == 2
    assert "guard" in out
    code, _ = run(["homology", "--algebra", str(big), "--degree", "1",
                   "--guard", "17"], capsys)
    assert code == 0


def test_morita_target_guard_exit_2(capsys):
    """The target M_11(Q) has dimension 121, over the Morita-target bound
    of 100: refused before it is built."""
    code, out = run(["morita", "--algebra", "q", "--r", "11",
                     "--format", "json"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["exit_code"] == 2
    assert "121" in doc["error"] and "\n" not in doc["error"]


@pytest.mark.parametrize("guard", (None, "20"))
def test_omni_guard_refuses_before_v1_is_built(monkeypatch, capsys, guard):
    """V[1], n = 10^6, has a dense d^3 table: omni refuses it with the
    one-line error ESpace gives for its dimension, and never builds it."""
    from hccourant import algebra
    from hccourant.algebra import GuardError, check_guard

    def unguarded(n):
        raise AssertionError("build_v1 ran before the guard")

    monkeypatch.setattr(algebra, "build_v1", unguarded)
    extra = [] if guard is None else ["--guard", guard]
    code, out = run(["omni", "--dim", "1000000", "--format", "json", *extra],
                    capsys)
    assert code == 2
    with pytest.raises(GuardError) as refusal:
        check_guard(1000001, 1, None if guard is None else int(guard))
    assert json.loads(out)["error"] == str(refusal.value)
    assert "\n" not in str(refusal.value)


def test_espace_check_guard_is_the_espace_refusal():
    """``ESpace.check_guard(dim, max_dim)`` raises exactly the error
    ``ESpace`` raises, and passes wherever ``ESpace`` is built."""
    from hccourant.algebra import GuardError, build_v1
    from hccourant.courant import ESpace
    for n, max_dim in ((16, None), (3, 3), (3, 4), (2, None)):
        try:
            ESpace(build_v1(n), max_dim=max_dim)
            refusal = None
        except GuardError as exc:
            refusal = str(exc)
        try:
            ESpace.check_guard(n + 1, max_dim)
            assert refusal is None, (n, max_dim)
        except GuardError as exc:
            assert str(exc) == refusal, (n, max_dim)


def test_unsupported_degree_blocked(capsys):
    code, out = run(["homology", "--algebra", "qx2", "--degree", "5"],
                    capsys)
    assert code == 2


@pytest.mark.parametrize("algebra, degree", (("qx2", "40"),
                                              ("qx2", "99999999999"),
                                              ("q", "99999999999")))
def test_a_raised_guard_still_bounds_the_chain_space(algebra, degree, capsys):
    """``--guard`` raises the dimension bound only: a chain space past
    ``MAX_CHAIN_DIM`` coordinates, or tensor factors, is refused at once,
    its size named in one line, and no power of the dimension is formed."""
    start = time.perf_counter()
    code, out = run(["homology", "--algebra", algebra, "--degree", degree,
                     "--guard", "6", "--format", "json"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    error = json.loads(out)["error"]
    assert error.startswith(f"chain degree {degree} on dimension ")
    assert f"^{int(degree) + 1} coordinates" in error and "\n" not in error


def test_the_chain_space_bound_holds_under_any_guard():
    """E(A) refuses past ``MAX_CHAIN_DIM`` as homology does, here on its
    degree-2 chains at dimension 101; Morita's default target, dimension
    100 in degree 2, and 10^6 tensor factors on Q are the most admitted."""
    with pytest.raises(GuardError) as refusal:
        ESpace.check_guard(101, 1000)
    assert "101^3 coordinates" in str(refusal.value)
    check_guard(100, 2, 100)
    check_guard(1, 10 ** 6 - 1, 6)
    with pytest.raises(GuardError):
        check_guard(1, 10 ** 6, 6)


@pytest.mark.parametrize("degree", ("-1", "-2"))
def test_negative_homology_degree_exit_2(degree, capsys):
    """Refused as a degree before any guard or chain space is built."""
    code, out = run(["homology", "--algebra", "qx2", "--degree", degree,
                     "--guard", "100", "--format", "json"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert "negative" in error and "\n" not in error
    assert "Traceback" not in capsys.readouterr().err


def test_homology_past_the_default_guards_names_the_override(capsys):
    """H_4 needs the degree-5 boundaries, which have no default guard: the
    refusal says how to lift it, and --guard does."""
    code, out = run(["homology", "--algebra", "qx2", "--degree", "4",
                     "--format", "json"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert "--guard" in error and "\n" not in error
    code, _ = run(["homology", "--algebra", "qx2", "--degree", "4",
                   "--guard", "2"], capsys)
    assert code == 0


def test_omni_subcommand_reports_dims(capsys):
    code, out = run(["omni", "--dim", "2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "hccourant/2"
    assert doc["e_dim"] == 7
    assert doc["kernel_dim"] == 1


@pytest.mark.parametrize("entry", (
    [0, 1, ["0"]],               # coordinate list shorter than n
    [-1, 0, ["1", "0"]],         # negative index
    [0, 1, ["1", "0", "0"]],     # coordinate list longer than n
    [0.9, 1, ["1", "0"]],        # float index (int() would truncate it)
    [True, 0, ["-1", "0"]],      # boolean index (a bool is an int)
    ["1", 0, ["-1", "0"]],       # string index
))
def test_omni_malformed_mu_exit_2_one_line_error(tmp_path, capsys, entry):
    p = tmp_path / "mu.json"
    p.write_text(json.dumps({"entries": [entry]}))
    code, out = run(["omni", "--dim", "2", "--mu", str(p), "--format",
                     "json"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["exit_code"] == 2
    assert doc["error"] and "\n" not in doc["error"]


def test_omni_mu_float_and_bool_indices_rejected(tmp_path, capsys):
    # read as 0 and 1, these entries would make a skew table and exit 0
    p = tmp_path / "mu.json"
    p.write_text(json.dumps({"entries": [[0.9, 1, ["1", "0"]],
                                         [True, 0, ["-1", "0"]]]}))
    code, out = run(["omni", "--dim", "2", "--mu", str(p), "--format",
                     "json"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["exit_code"] == 2
    assert "0.9" in doc["error"] and "\n" not in doc["error"]


def test_omni_guard_reaches_the_space(capsys):
    # the guard refusal says "pass --guard", so omni must take the option
    code, out = run(["omni", "--dim", "2", "--guard", "2", "--format",
                     "json"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert "guard 2" in doc["error"] and "\n" not in doc["error"]


@pytest.mark.parametrize("args, entries, pair", (
    (["dirac-check", "--algebra", "v1_3", "--bracket"],
     [[1, 2, ["0", "0", "0", "1"]], [2, 1, ["0", "0", "0", "-1"]],
      [1, 2, ["0", "0", "0", "2"]]], "(1, 2)"),
    (["omni", "--dim", "2", "--mu"],
     [[0, 1, ["1", "0"]], [1, 0, ["-1", "0"]], [0, 1, ["0", "1"]]],
     "(0, 1)"),
))
def test_table_repeated_pair_exit_2(tmp_path, capsys, args, entries, pair):
    # a repeated (i, j) entry is refused, not silently overwritten
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"entries": entries}))
    code, out = run(args + [str(p), "--format", "json"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["exit_code"] == 2
    assert pair in doc["error"] and "\n" not in doc["error"]


def test_bracket_table_float_index_exit_2(tmp_path, capsys):
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"algebra": "v1_3", "entries": [
        [1.0, 2, ["0", "0", "0", "1"]], [2, 1, ["0", "0", "0", "-1"]]]}))
    code, out = run(["dirac-check", "--algebra", "v1_3", "--bracket", str(p),
                     "--format", "json"], capsys)
    assert code == 2
    assert "\n" not in json.loads(out)["error"]


@pytest.mark.parametrize("dimension, entry", (
    (1.0, [0, 0, ["1"]]),
    (True, [0, 0, ["1"]]),
    (1, [0.0, 0, ["1"]]),
    (1, [0, False, ["1"]]),
))
def test_algebra_non_integer_dimension_or_index_exit_2(tmp_path, capsys,
                                                       dimension, entry):
    p = tmp_path / "alg.json"
    p.write_text(json.dumps({"name": "x", "dimension": dimension,
                             "basis": ["1"], "unit": ["1"],
                             "structure": [entry]}))
    code, out = run(["validate", "--algebra", str(p), "--format", "json"],
                    capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["exit_code"] == 2
    assert doc["error"] and "\n" not in doc["error"]


def test_algebra_repeated_structure_pair_exit_2(tmp_path, capsys):
    # a repeated (i, j) entry is refused, not silently overwritten
    p = tmp_path / "alg.json"
    p.write_text(json.dumps({"name": "x", "dimension": 2,
                             "basis": ["1", "x"], "unit": ["1", "0"],
                             "structure": [[0, 0, ["1", "0"]],
                                           [0, 1, ["0", "1"]],
                                           [1, 0, ["0", "1"]],
                                           [0, 1, ["0", "2"]]]}))
    code = main(["validate", "--algebra", str(p), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    doc = json.loads(captured.out)
    assert doc["exit_code"] == 2
    assert "\n" not in doc["error"] and "(0, 1)" in doc["error"]
    assert "Traceback" not in captured.out + captured.err


def _bundled_doc(name):
    return json.loads(Path(DATA_DIR, f"{name}.json").read_text())


# a string where a list of rationals belongs would be read one entry per
# character: each of these files used to run as if it held the list
@pytest.mark.parametrize("argv, doc", (
    (["two-form", "--algebra", "v1_2", "--omega"], {"coords": "10000"}),
    (["dirac-check", "--algebra", "v1_2", "--submodule"],
     {"ambient": "epsilon", "vectors": ["100000"]}),
    (["poisson-graph", "--algebra", "v1_2", "--bracket"],
     {"entries": [[1, 2, "001"]]}),
    (["validate", "--algebra"], dict(_bundled_doc("qx2"), unit="10")),
    (["validate", "--algebra"],
     {"name": "x", "dimension": 1, "basis": ["1"], "unit": ["1"],
      "structure": [[0, 0, "1"]]}),
), ids=("two-form", "submodule", "bracket", "unit", "structure"))
def test_string_for_a_rational_list_exit_2(tmp_path, capsys, argv, doc):
    p = tmp_path / "file.json"
    p.write_text(json.dumps(doc))
    code, out = run(argv + [str(p), "--format", "json"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["exit_code"] == 2
    assert doc["error"] and "\n" not in doc["error"]


# (arguments, the file written after them or None, a word of the error)
REFUSED = {
    "omni-dim-0": (["omni", "--dim", "0"], None, "n >= 1"),
    "omni-dim-negative": (["omni", "--dim", "-1"], None, "n >= 1"),
    "dirac-check-neither": (["dirac-check", "--algebra", "v1_3"], None,
                            "exactly one"),
    "dirac-check-both": (["dirac-check", "--algebra", "v1_3", "--bracket",
                          "bracket_so3_v1_3", "--submodule", "x.json"], None,
                         "exactly one"),
    "algebra-dimension-0": (["validate", "--algebra"], {
        "name": "x", "dimension": 0, "basis": [], "unit": [],
        "structure": []}, "dimension must be >= 1"),
    "algebra-unit-length": (["validate", "--algebra"],
                            dict(_bundled_doc("qx2"), unit=["1"]),
                            "inconsistent dimensions"),
    "bracket-algebra-number": (["dirac-check", "--algebra", "v1_3",
                                "--bracket"], {"algebra": 5, "entries": []},
                               "'algebra' must be a name"),
    "bracket-no-entries": (["dirac-check", "--algebra", "v1_3", "--bracket"],
                           {"algebra": "v1_3"}, "missing 'entries'"),
    "bracket-entries-object": (["dirac-check", "--algebra", "v1_3",
                                "--bracket"], {"entries": {}},
                               "not a list of [i, j, coords] entries"),
    "bracket-no-such-name": (["dirac-check", "--algebra", "v1_3", "--bracket",
                              "bracket_no_such_v1_3"], None,
                             "no such bracket-table file or bundled name"),
    "submodule-no-ambient": (["dirac-check", "--algebra", "v1_2",
                              "--submodule"],
                             {"vectors": [[1, 0, 0, 0, 0, 0]]},
                             "need 'ambient' and 'vectors'"),
    "submodule-vector-length": (["dirac-check", "--algebra", "v1_2",
                                 "--submodule"],
                                {"ambient": "epsilon", "vectors": [[1, 0]]},
                                "does not match the ambient dimension 6"),
    "two-form-no-coords": (["two-form", "--algebra", "v1_2", "--omega"],
                           {"algebra": "v1_2"}, "need rational 'coords'"),
    "dirac-check-zero-quotient": (["dirac-check", "--algebra", "q",
                                   "--submodule"],
                                  {"ambient": "E", "vectors": []},
                                  "the quotient is zero"),
    "poisson-graph-noncommutative": (["poisson-graph", "--algebra", "m2q",
                                      "--bracket"], {"entries": []},
                                     "require a commutative algebra"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_input_exit_2_one_line_error(tmp_path, capsys, case):
    """An option out of range, a pair of options that exclude each other,
    a file with a field missing or of the wrong kind, and an input the
    mathematics refuses all exit 2 with a one-line error naming the fault."""
    argv, doc, words = REFUSED[case]
    if doc is not None:
        p = tmp_path / "file.json"
        p.write_text(json.dumps(doc))
        argv = argv + [str(p)]
    code, out = run(argv + ["--format", "json"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["exit_code"] == 2
    assert words in doc["error"] and "\n" not in doc["error"]


def _rational_list_files(value):
    """The five file kinds above, each with ``value`` as one of its
    rationals and otherwise well formed."""
    return (
        (["two-form", "--algebra", "v1_2", "--omega"],
         {"algebra": "v1_2", "coords": [value, 0, 0, 0, 0]}),
        (["dirac-check", "--algebra", "v1_2", "--submodule"],
         {"ambient": "epsilon", "vectors": [[value, 0, 0, 0, 0, 0]]}),
        (["poisson-graph", "--algebra", "v1_2", "--bracket"],
         {"entries": [[1, 2, [0, 0, value]]]}),
        (["validate", "--algebra"], dict(_bundled_doc("qx2"),
                                         unit=[value, 0])),
        (["validate", "--algebra"],
         {"name": "x", "dimension": 1, "basis": ["1"], "unit": ["1"],
          "structure": [[0, 0, [value]]]}))


# a JSON float or boolean where a rational belongs would be read by ``rat``
# as a binary fraction or as 0 or 1
@pytest.mark.parametrize("value, argv, doc", [
    (value, *case) for value in (0.5, True)
    for case in _rational_list_files(value)],
    ids=[f"{kind}-{value}" for value in ("float", "bool")
         for kind in ("two-form", "submodule", "bracket", "unit",
                      "structure")])
def test_float_or_bool_for_a_rational_exit_2(tmp_path, capsys, value, argv,
                                            doc):
    p = tmp_path / "file.json"
    p.write_text(json.dumps(doc))
    code, out = run(argv + [str(p), "--format", "json"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert "\n" not in error
    assert 'not an integer or a "p/q" string: ' + json.dumps(value) in error


@pytest.mark.parametrize("basis", ("1x", ["1", 2], {"1": "x"}, None),
                         ids=("string", "number", "object", "null"))
def test_basis_not_a_list_of_strings_exit_2(tmp_path, capsys, basis):
    p = tmp_path / "algebra.json"
    p.write_text(json.dumps(dict(_bundled_doc("qx2"), basis=basis)))
    code, out = run(["validate", "--algebra", str(p), "--format", "json"],
                    capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["exit_code"] == 2
    assert "basis must be a list of strings" in doc["error"]
    assert "\n" not in doc["error"]


@pytest.mark.parametrize("argv", (
    ["validate", "--algebra"],
    ["poisson-graph", "--bracket", "bracket_so3_v1_3", "--algebra"],
    ["morita", "--algebra"]), ids=("validate", "poisson-graph", "morita"))
def test_algebra_name_not_a_string_exit_2(tmp_path, capsys, argv):
    """A list-valued name used to be printed by ``morita`` and to crash
    ``poisson-graph``, whose caches hash the algebra."""
    p = tmp_path / "algebra.json"
    p.write_text(json.dumps(dict(_bundled_doc("v1_3"), name=["v1_3"])))
    code, out = run(argv + [str(p), "--format", "json"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert "name must be a string" in error and "\n" not in error


# a file that is not UTF-8, and one nested past the JSON decoder's recursion
# limit, used to escape ``main`` as a traceback with exit 1
UNREADABLE = {"not-utf8": b"\xff\xfe{}", "over-nested": b"[" * 200_000}

# each file option, on a run that reaches its loader
FILE_OPTIONS = {
    "algebra": ["validate", "--algebra"],
    "bracket": ["poisson-graph", "--algebra", "v1_3", "--bracket"],
    "submodule": ["dirac-check", "--algebra", "v1_2", "--submodule"],
    "omega": ["two-form", "--algebra", "v1_2", "--omega"],
    "mu": ["omni", "--dim", "2", "--mu"],
}


@pytest.mark.parametrize("option", FILE_OPTIONS)
@pytest.mark.parametrize("content", UNREADABLE)
def test_unreadable_input_file_exit_2(tmp_path, capsys, content, option):
    p = tmp_path / "file.json"
    p.write_bytes(UNREADABLE[content])
    code, out = run(FILE_OPTIONS[option] + [str(p), "--format", "json"],
                    capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error.startswith(f"{p}: unreadable: ") and "\n" not in error


def _paths(doc, path=()):
    """Every path to a value of a JSON document, the root's included."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for k, v in items:
        yield from _paths(v, path + (k,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return doc


# one well-formed document of each file kind, under its option
FUZZ_SEEDS = {
    "algebra": _bundled_doc("v1_2"),
    "bracket": _bundled_doc("bracket_so3_v1_3"),
    "submodule": {"ambient": "epsilon", "vectors": [[1, 0, 0, 0, 0, 0]]},
    "omega": {"algebra": "v1_2", "coords": ["1", "0", "0", "0", "0"]},
    "mu": {"entries": [[0, 1, [0, 1]], [1, 0, [0, -1]]]},
}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8)
    | st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-2, 9)),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8)

# (option, bytes to write) or (option, (path, the JSON value put there))
_fuzz_cases = st.sampled_from(sorted(FUZZ_SEEDS)).flatmap(
    lambda option: st.tuples(st.just(option), st.binary(max_size=40) | (
        st.tuples(st.sampled_from(list(_paths(FUZZ_SEEDS[option]))),
                  _json_values))))


@settings(max_examples=60, deadline=None)
@example(case=("algebra", (("unit", 0), "1e10000000")))
@example(case=("algebra", UNREADABLE["not-utf8"]))
@example(case=("algebra", UNREADABLE["over-nested"]))
@example(case=("algebra", (("name",), ["v1_2"])))
@given(case=_fuzz_cases)
def test_loader_fuzz_exits_0_1_or_2_with_a_one_line_error(
        tmp_path_factory, case):
    """A loader fed a drawn file, or a seed document with one value
    replaced, never lets an exception escape ``main``: the run exits 0, 1
    or 2, and exit 2 reports a one-line error."""
    option, payload = case
    tmp = tmp_path_factory.mktemp("fuzz")
    p, report = tmp / "file.json", tmp / "report.json"
    if isinstance(payload, bytes):
        p.write_bytes(payload)
    else:
        p.write_text(json.dumps(_replaced(FUZZ_SEEDS[option], *payload)))
    code = main(FILE_OPTIONS[option] + [str(p), "--format", "json",
                                        "--out", str(report)])
    doc = json.loads(report.read_text())
    assert code in (0, 1, 2) and doc["exit_code"] == code
    if code == 2:
        assert doc["error"] and "\n" not in doc["error"]


def test_every_package_error_derives_from_the_base():
    import importlib
    import pkgutil

    import hccourant
    from hccourant.exactlin import HccourantError
    errors = []
    for info in pkgutil.iter_modules(hccourant.__path__):
        mod = importlib.import_module(f"hccourant.{info.name}")
        errors += [obj for name, obj in vars(mod).items()
                   if name.endswith("Error") and isinstance(obj, type)
                   and obj.__module__ == mod.__name__]
    assert len(errors) >= 9
    assert all(issubclass(e, HccourantError) for e in errors), errors


# the one private name a module may import from another: the package's one
# division, which ``dirac`` shares with ``exactlin``
SHARED_PRIVATE = {"exactlin._over"}


def _private_reads(path: Path) -> list:
    """The private names ``path`` reads from another module: a
    ``from .x import _y``, or a ``_``-prefixed attribute read on anything
    but ``self`` or ``cls`` that the module does not define itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)):
            defined.add(node.attr)
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            reads += [(node.lineno, f"{node.module}.{a.name}")
                      for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and not node.attr.startswith("__")
              and not (isinstance(node.value, ast.Name)
                       and node.value.id in ("self", "cls"))
              and node.attr not in defined):
            reads.append((node.lineno, node.attr))
    return reads


def test_no_module_reads_another_modules_private_names():
    """Each module of the package reaches another only through its public
    names; ``SHARED_PRIVATE`` is the one exception."""
    src = Path(hccourant.__file__).parent
    found = {f"{path.name}:{line} {name}"
             for path in sorted(src.glob("*.py"))
             for line, name in _private_reads(path)
             if name not in SHARED_PRIVATE}
    assert not found, sorted(found)
    assert ("exactlin._over" in
            {name for _, name in _private_reads(src / "dirac.py")})


# package names that only the tests reach, each kept on purpose
KEPT_FOR_TESTS = {
    # the paper's Morita transport of a Dirac structure, kept for the
    # ``morita`` command to reach once it reads a submodule
    "transport_dirac",
    # the writer of the format ``algebra_from_json`` reads; the round-trip
    # test holds the two inverse
    "algebra_to_json",
}


def _definitions(tree: ast.Module):
    """Every module-level function and class, and every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body
                        if isinstance(n, ast.FunctionDef))


def _references(tree: ast.Module):
    """(line, word) for every name, attribute and word of a string in
    ``tree`` but its docstrings: a mention in prose is not a use."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            yield from ((node.lineno, w) for w in re.findall(r"\w+",
                                                             node.value))


def test_no_package_code_only_the_tests_reach():
    """Every function, class and method of the package is referenced from
    ``src/`` outside its own definition, from ``scripts/`` or from
    ``perfbench/`` (whose tracer names methods in strings), so nothing is
    kept in the package for the tests alone; ``__init__``'s export table is
    not a use, and dunder methods are called by Python itself."""
    root = Path(__file__).parents[1]
    src = root / "src" / "hccourant"
    modules = sorted(src.glob("*.py"))
    readers = ([p for p in modules if p.name != "__init__.py"]
               + sorted((root / "scripts").glob("*.py"))
               + sorted((root / "perfbench").rglob("*.py")))
    uses = {}
    for path in readers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, word in _references(tree):
            uses.setdefault(word, []).append((path, line))
    unreached = []
    for path in modules:
        for node in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            name, span = node.name, range(node.lineno, node.end_lineno + 1)
            if (name.startswith("__") and name.endswith("__")
                    or name in KEPT_FOR_TESTS):
                continue
            if all(p == path and line in span
                   for p, line in uses.get(name, ())):
                unreached.append(f"{path.name}:{node.lineno} {name}")
    assert not unreached, unreached


# module.function -> the reader that reads the cached value again
KEPT_CACHES = {
    "dirac._leibniz_laws": "every BracketTable and biderivation_space",
    "dirac._graph_map": "every poisson_graph over the space",
    "dirac._nonscalar_centre": "every is_dirac over the ambient",
    "dirac._algebroid_defects": "every lie_algebroid_check over the quotient",
}


CACHE_DECORATORS = ("functools.lru_cache", "functools.cache", "lru_cache",
                    "cache")


def _cache_decorated(tree: ast.Module):
    """The module-level functions decorated with ``functools.lru_cache``
    or ``functools.cache``, called (``lru_cache(maxsize=8)``) or not."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and any(
                ast.unparse(getattr(d, "func", d)) in CACHE_DECORATORS
                for d in node.decorator_list):
            yield node.name


def test_every_cache_has_a_named_reader():
    """A module-level cache stays only where something reads its value
    again: each one is named in ``KEPT_CACHES`` with that reader, and a
    value read once per build is built where it is read."""
    src = Path(__file__).parents[1] / "src" / "hccourant"
    found = {f"{path.stem}.{name}" for path in sorted(src.glob("*.py"))
             for name in _cache_decorated(ast.parse(
                 path.read_text(encoding="utf-8")))}
    assert found == set(KEPT_CACHES)


def _package_imports(path: Path):
    """(line, module, name) for every ``from hccourant... import name`` in
    ``path``, imports inside functions included; ``name`` is None for an
    ``import hccourant...``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and not node.level and \
                node.module.partition(".")[0] == "hccourant":
            yield from ((node.lineno, node.module, a.name)
                        for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.name, None) for a in node.names
                        if a.name.partition(".")[0] == "hccourant")


def test_script_and_benchmark_imports_resolve():
    """Every package name that ``scripts/*.py`` and ``perfbench/*.py``
    import exists, so a name removed from the package fails here and not
    only when a script runs."""
    root = Path(__file__).parents[1]
    imports = [(f"{path.name}:{line}", module, name)
               for path in sorted(root.glob("scripts/*.py"))
               + sorted(root.glob("perfbench/*.py"))
               for line, module, name in _package_imports(path)]
    assert len(imports) > 20
    for where, module, name in imports:
        mod = importlib.import_module(module)
        assert (name is None or hasattr(mod, name)
                or hasattr(mod, "__path__")  # a submodule of a package
                and importlib.util.find_spec(f"{module}.{name}")), \
            f"{where} {module}.{name}"


def test_traced_names_resolve_where_the_tracer_wraps_them():
    """Every name in the benchmark tracer's ``TRACED`` resolves in
    ``hccourant``: a plain name to a module-level function or class, and
    ``Class.method`` to a key of that class's own ``__dict__``, the entry
    the tracer replaces, so a traced method cannot move to a base class."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for modname, names in tracer.TRACED.values():
        scope = vars(importlib.import_module(modname))
        for name in names:
            owner, _, attr = name.rpartition(".")
            if owner:
                assert isinstance(scope.get(owner), type), name
                assert attr in vars(scope[owner]), name
            else:
                obj = scope.get(name)
                assert inspect.isfunction(obj) or isinstance(obj, type), name


def test_dirac_check_nonjacobi_exit_1_with_counterexample(capsys):
    code, out = run(["dirac-check", "--algebra", "v1_3",
                     "--bracket", "bracket_nonjacobi_v1_3",
                     "--format", "json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["dirac"] is False
    assert doc["counterexample"] is not None


def test_dirac_check_so3_exit_0(capsys):
    code, _ = run(["dirac-check", "--algebra", "v1_3",
                   "--bracket", "bracket_so3_v1_3"], capsys)
    assert code == 0


def test_dirac_check_submodule_file(tmp_path, capsys, epsilons):
    eps = epsilons["v1_3"]
    E = eps.espace
    rows = [[str(x) for x in eps.reduce(
        tuple(1 if k == i else 0 for k in range(E.dim)))]
        for i in range(E.h1co.dim)]
    p = tmp_path / "gl.json"
    p.write_text(json.dumps({"ambient": "epsilon", "vectors": rows}))
    code, out = run(["dirac-check", "--algebra", "v1_3",
                     "--submodule", str(p)], capsys)
    assert code == 0
    assert "dirac: True" in out


def test_dirac_check_submodule_in_e(tmp_path, capsys, epsilons):
    """The rows of ``test_dirac_check_submodule_file``, lifted to E(A), give
    the same verdict and the same basis through the projection."""
    eps = epsilons["v1_3"]
    E = eps.espace
    units = [tuple(1 if k == i else 0 for k in range(E.dim))
             for i in range(E.h1co.dim)]
    bases = []
    for ambient, rows in (
            ("epsilon", [eps.reduce(u) for u in units]),
            ("E", [eps.lift(eps.reduce(u)) for u in units])):
        p = tmp_path / f"{ambient}.json"
        p.write_text(json.dumps({"ambient": ambient, "vectors": [
            [str(x) for x in row] for row in rows]}))
        code, out = run(["dirac-check", "--algebra", "v1_3", "--submodule",
                         str(p), "--format", "json"], capsys)
        assert code == 0
        bases.append(json.loads(out)["submodule_basis"])
    assert bases[0] == bases[1]


@pytest.mark.parametrize("algebra", ("v1_2", "qx2"))
@pytest.mark.parametrize("kind", ("bracket", "omega"))
def test_file_over_another_algebra_exit_2(tmp_path, capsys, algebra, kind):
    """A bracket table or two-form file names its algebra; over any other
    ``--algebra`` it is refused, not read as a table of that algebra.  The
    error names the file as given: a bundled table's install path would
    make the report's bytes depend on the checkout."""
    if kind == "bracket":
        argv = ["dirac-check", "--bracket", "bracket_zero_v1_3"]
    else:
        p = tmp_path / "omega.json"
        p.write_text(json.dumps({"algebra": "v1_3", "coords": ["0"] * 5}))
        argv = ["two-form", "--omega", str(p)]
    code, out = run(argv + ["--algebra", algebra, "--format", "json"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert "'v1_3'" in error and "\n" not in error
    if kind == "bracket":
        assert error.startswith("bracket_zero_v1_3: ")


def test_submodule_bad_ambient(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"ambient": "nowhere", "vectors": []}))
    code, out = run(["dirac-check", "--algebra", "v1_3",
                     "--submodule", str(p)], capsys)
    assert code == 2


def test_poisson_graph_subcommand(capsys):
    code, out = run(["poisson-graph", "--algebra", "v1_3",
                     "--bracket", "bracket_so3_v1_3", "--format", "json"],
                    capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["is_poisson"] is True
    assert doc["poisson_iff_dirac"] is True
    assert doc["lie_algebroid"]["ok"] is True


def _so3_poisson_graph(capsys):
    code, out = run(["poisson-graph", "--algebra", "v1_3",
                     "--bracket", "bracket_so3_v1_3", "--format", "json"],
                    capsys)
    return code, json.loads(out)


def _with_fields(record, **change):
    """The record with the given fields changed."""
    return type(record)(**{**{n: getattr(record, n) for n in record._fields},
                           **change})


def test_poisson_graph_exits_1_when_poisson_and_dirac_disagree(monkeypatch,
                                                               capsys):
    """A Poisson table whose graph is reported not Dirac exits 1: the
    command once returned 0 for every Poisson table."""
    from hccourant import dirac
    is_dirac = dirac.is_dirac

    def flipped(L):
        v = is_dirac(L)
        return _with_fields(v, dirac=not v.dirac)

    monkeypatch.setattr(dirac, "is_dirac", flipped)
    code, doc = _so3_poisson_graph(capsys)
    assert doc["is_poisson"] is True and doc["poisson_iff_dirac"] is False
    assert code == doc["exit_code"] == 1


def test_poisson_graph_exits_1_on_a_failed_algebroid_report(monkeypatch,
                                                            capsys):
    """A Dirac Poisson graph whose Lie-algebroid report is not ok exits 1."""
    from hccourant import dirac
    check = dirac.lie_algebroid_check

    def failing(eps, L):
        return _with_fields(check(eps, L), jacobi=False)

    monkeypatch.setattr(dirac, "lie_algebroid_check", failing)
    code, doc = _so3_poisson_graph(capsys)
    assert doc["poisson_iff_dirac"] is True
    assert doc["lie_algebroid"]["ok"] is False
    assert code == doc["exit_code"] == 1


def test_two_form_search_records_outcome(capsys):
    code, out = run(["two-form", "--algebra", "v1_2", "--format", "json"],
                    capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "witness found"
    assert doc["witness"] == ["1", "0", "0", "0", "0"]
    assert doc["verdict"]["dirac"] is True


@pytest.mark.parametrize("coords, expected_code", (
    (["1"] + ["0"] * 13, 0),   # e_0: closed
    (["0"] * 3 + ["1"] + ["0"] * 10, 2),  # e_3: B(e_3) not in im b_4
))
def test_two_form_omega_file(tmp_path, capsys, coords, expected_code):
    p = tmp_path / "omega.json"
    p.write_text(json.dumps({"algebra": "v1_3", "coords": coords}))
    code, out = run(["two-form", "--algebra", "v1_3", "--omega", str(p),
                     "--format", "json"], capsys)
    assert code == expected_code
    doc = json.loads(out)
    if expected_code == 0:
        assert doc["verdict"]["dirac"] is True
    else:
        assert "not closed" in doc["error"] and "\n" not in doc["error"]


def test_two_form_passes_the_guard_to_h2_and_h3(tmp_path, monkeypatch,
                                                capsys):
    """H_2 and the boundaries im b_4 of v1_3 (dimension 4) read the
    degree-3 and degree-4 guards; with both lowered to 3, the witness search
    and an --omega file are refused by default and run under --guard 4."""
    monkeypatch.setitem(GUARD_MAX_DIM, 3, 3)
    monkeypatch.setitem(GUARD_MAX_DIM, 4, 3)
    p = tmp_path / "omega.json"
    p.write_text(json.dumps({"algebra": "v1_3",
                             "coords": ["1"] + ["0"] * 13}))
    for extra in ([], ["--omega", str(p)]):
        code, out = run(["two-form", "--algebra", "v1_3", *extra,
                         "--format", "json"], capsys)
        assert code == 2 and "guard" in json.loads(out)["error"]
        code, _ = run(["two-form", "--algebra", "v1_3", *extra,
                       "--guard", "4"], capsys)
        assert code == 0
    _assert_pinned("two_form_v1_3.json",
                   ["two-form", "--algebra", "v1_3", "--guard", "4"], 0,
                   capsys)


def test_morita_subcommand(capsys):
    code, out = run(["morita", "--algebra", "qx2", "--r", "2",
                     "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["opposite"]["ok"] is True


def test_missing_algebra_flag(capsys):
    code, out = run(["homology"], capsys)
    assert code == 2


# every subcommand run without an option it requires; ``suite`` requires
# none, and ``two-form`` searches for a witness when ``--omega`` is absent
MISSING_OPTION = [[name] for name in (
    "validate", "homology", "cohomology", "courant", "kernel", "epsilon",
    "dirac-check", "poisson-graph", "two-form", "morita", "omni")] + [
    ["dirac-check", "--algebra", "qx2"],
    ["poisson-graph", "--algebra", "qx2"]]


@pytest.mark.parametrize("argv", MISSING_OPTION, ids=" ".join)
def test_missing_required_option_exit_2_one_line_error(argv):
    """Run as a user runs it, in a fresh interpreter, so that an exception
    escaping ``main`` shows as a traceback on stderr."""
    src = str(Path(hccourant.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "hccourant.cli", *argv, "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["exit_code"] == 2
    assert doc["error"] and "\n" not in doc["error"]


# the package modules a subcommand loads; ``cli`` runs as ``__main__``
_BASE = {"algebra", "exactlin", "files", "cli"}
_COURANT = _BASE | {"hochschild", "courant"}
_DIRAC = _COURANT | {"dirac"}
COLD_START = {
    "validate --algebra q": _BASE,
    "homology --algebra qx2": _BASE | {"hochschild"},
    "cohomology --algebra qx2": _COURANT,
    "courant --algebra qx2": _COURANT,
    "kernel --algebra qx2": _COURANT,
    "epsilon --algebra qx2": _COURANT,
    "dirac-check --algebra v1_3 --bracket bracket_so3_v1_3": _DIRAC,
    "poisson-graph --algebra v1_3 --bracket bracket_zero_v1_3": _DIRAC,
    "two-form --algebra v1_3": _DIRAC,
    "morita --algebra q --r 2": _DIRAC | {"morita"},
    "omni --dim 2": _DIRAC | {"omni"},
    "suite --seed 42": _DIRAC | {"morita", "omni", "suite"},
}


@pytest.mark.parametrize("line", sorted(COLD_START))
def test_subcommand_cold_start_loads_only_its_layers(line):
    """In a fresh interpreter each subcommand imports only the modules it
    runs; ``-X importtime`` lists every module imported on stderr."""
    src = str(Path(hccourant.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hccourant.cli",
         *line.split(), "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 1)
    imported = {row.rpartition("|")[2].strip()
                for row in proc.stderr.splitlines()
                if row.startswith("import time:")}
    loaded = {name.split(".", 1)[1] for name in imported
              if name.startswith("hccourant.")} | {"cli"}
    assert loaded == COLD_START[line]


def test_no_module_loads_dataclasses_or_inspect():
    """The package's records build no code per class, so importing every
    module loads neither ``dataclasses`` nor the ``inspect`` it imports,
    which together cost a cold start tens of milliseconds."""
    src = str(Path(hccourant.__file__).parents[1])
    modules = ("cli files algebra exactlin hochschild courant dirac morita "
               "omni suite").split()
    code = ("import sys\n" + "".join(f"import hccourant.{m}\n"
                                       for m in modules)
            + "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# the subcommands that read --r, --dim, --degree or --guard, each with the
# other options of a run that takes under a second
OPTION_RUNS = {
    "homology": ["--algebra", "qx2"],
    "cohomology": ["--algebra", "qx2"],
    "courant": ["--algebra", "qx2"],
    "kernel": ["--algebra", "qx2"],
    "epsilon": ["--algebra", "qx2"],
    "dirac-check": ["--algebra", "v1_3", "--bracket", "bracket_so3_v1_3"],
    "poisson-graph": ["--algebra", "v1_3", "--bracket", "bracket_zero_v1_3"],
    "two-form": ["--algebra", "qx2"],
    "morita": ["--algebra", "qx2"],
    "omni": [],
}
# "\u0663" is the Arabic-Indic digit three, which int() reads as 3
_NOT_INTS = st.sampled_from(("", "x", "1.5", "1e3", "0x10", "1/2", "--r",
                             "\u0663", " 1_0"))


def _values(lo, hi, huge=True):
    """Option values: mostly integers in [lo, hi], else integers no guard
    admits (when ``huge``) and text that is no integer."""
    small = st.integers(lo, hi).map(str)
    return st.one_of(small, small, st.integers(10 ** 3, 10 ** 30).map(str)
                     if huge else small, _NOT_INTS)


@st.composite
def _option_runs(draw):
    """A subcommand line with drawn values for the options it reads.
    ``--guard`` never exceeds the smallest default guard, so it only ever
    refuses more; a degree past the default table is drawn only without
    ``--guard``, where it is refused, so no draw starts an unbounded
    computation."""
    sub = draw(st.sampled_from(sorted(OPTION_RUNS)))
    reads = COMMANDS[sub][1].split()
    argv = [sub, *OPTION_RUNS[sub]]
    guard = draw(st.none() | _values(-3, min(GUARD_MAX_DIM.values()),
                                     huge=False))
    if guard is not None:
        argv += ["--guard", guard]
    if "degree" in reads and draw(st.booleans()):
        argv += ["--degree", draw(_values(-3, max(GUARD_MAX_DIM) - 1,
                                          huge=guard is None))]
    if "r" in reads:
        argv += ["--r", draw(_values(-3, 4))]
    if "dim" in reads:
        argv += ["--dim", draw(_values(-3, 5))]
    return argv


@pytest.mark.parametrize("opt", ("r", "degree", "dim", "guard", "seed"))
def test_integer_options_read_ascii_digits_only(opt):
    """An integer option is ASCII ``[-]digits``: argparse refuses "\u0663"
    and " 1_0", which ``int`` reads as 3 and 10, and reads "-1" and "7"."""
    sub = {"r": "morita", "degree": "homology", "dim": "omni",
           "guard": "homology", "seed": "suite"}[opt]
    parser = build_parser()
    for bad in ("\u0663", " 1_0", "+3", "1e3"):
        with contextlib.redirect_stderr(io.StringIO()) as err, \
                pytest.raises(SystemExit) as exc:
            parser.parse_args([sub, f"--{opt}", bad])
        assert exc.value.code == 2
        assert f"argument --{opt}: invalid int value" in err.getvalue()
    for good in ("-1", "7"):
        assert getattr(parser.parse_args([sub, f"--{opt}", good]),
                       opt) == int(good)


@settings(max_examples=60, deadline=None)
@example(argv=["homology", "--algebra", "qx2", "--degree", "99999999999"])
@example(argv=["morita", "--algebra", "qx2", "--r", "0", "--guard", "-1"])
@example(argv=["omni", "--dim", "1e3"])
@example(argv=["morita", "--algebra", "q", "--r", "\u0663"])
@example(argv=["morita", "--algebra", "q", "--r", " 1_0"])
@given(argv=_option_runs())
def test_option_fuzz_exits_0_1_or_2_with_a_one_line_error(
        tmp_path_factory, argv):
    """A subcommand given drawn --r, --dim, --degree and --guard values
    never lets an exception escape: it exits 0, 1 or 2, and exit 2 reports
    a one-line error, in the JSON report or, for a value argparse refuses,
    as the last line on stderr."""
    report = tmp_path_factory.mktemp("options") / "report.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--format", "json", "--out", str(report)])
        except SystemExit as exc:
            code = exc.code
            assert code == 2 and not report.exists()
            assert err.getvalue().splitlines()[-1].startswith(
                f"hccourant {argv[0]}: error: ")
            return
    doc = json.loads(report.read_text())
    assert code in (0, 1, 2) and doc["exit_code"] == code
    if code == 2:
        assert doc["error"] and "\n" not in doc["error"]


# ``hccourant``'s public names, module by module
PUBLIC_NAMES = {
    "algebra": "AlgebraError FiniteAlgebra GuardError build_v1 "
               "make_algebra matrix_algebra opposite_algebra",
    "courant": "CourantError CourantSpace EpsilonSpace ESpace",
    "dirac": "BracketTable DiracError DiracVerdict Submodule TwoFormClass "
             "biderivation_space find_two_form_witness is_bracket_closed "
             "is_dirac is_maximally_isotropic is_poisson is_z_stable "
             "lie_algebroid_check make_bracket_table poisson_graph "
             "table_from_flat two_form two_form_graph",
    "exactlin": "HccourantError Q QMatrix nullspace rank",
    "files": "FileFormatError load_algebra_ref load_bracket_table "
             "load_submodule load_two_form",
    "hochschild": "Chain HomologyPresentation boundary_b cohomology_h1 "
                  "connes_B homology interior_product lie_derivative",
    "morita": "MoritaContext MoritaReport OppositeReport cotr inc "
              "transport_dirac verify_morita verify_opposite",
    "omni": "DStructureReport OmniIso build_omni_iso d_structure_check "
            "pairing_table verify_ev1 verify_main_theorem weinstein_table",
}


def test_lazy_namespace_keeps_every_public_name():
    """Each public name resolves on first use to its defining module's
    object, and ``import *`` and ``dir`` both list it."""
    star = {}
    exec("from hccourant import *", star)
    listed = dir(hccourant)
    assert hccourant.__all__ == sorted(
        name for names in PUBLIC_NAMES.values() for name in names.split())
    for mod, names in PUBLIC_NAMES.items():
        home = importlib.import_module(f"hccourant.{mod}")
        for name in names.split():
            assert getattr(hccourant, name) is getattr(home, name), name
            assert star[name] is getattr(home, name), name
            assert name in listed, name
    assert hccourant.__version__ == "0.2.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        hccourant.no_such_name
    with pytest.raises(ImportError):
        from hccourant import no_such_name  # noqa: F401


def test_package_version_matches_pyproject():
    """``pyproject.toml`` and ``hccourant.__version__`` name one version;
    read by a regex, as Python 3.10 has no ``tomllib``."""
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(
        encoding="utf-8")
    versions = re.findall(r'^version = "([^"]+)"$', text, re.M)
    assert versions == [hccourant.__version__]


# the options each subcommand reads, besides --format and --out
READS = {
    "validate": {"algebra"},
    "homology": {"algebra", "degree", "guard"},
    "cohomology": {"algebra", "guard"},
    "courant": {"algebra", "guard"},
    "kernel": {"algebra", "guard"},
    "epsilon": {"algebra", "guard"},
    "dirac-check": {"algebra", "bracket", "submodule", "guard"},
    "poisson-graph": {"algebra", "bracket", "guard"},
    "two-form": {"algebra", "omega", "guard"},
    "morita": {"algebra", "r", "guard"},
    "omni": {"dim", "mu", "guard"},
    "suite": {"seed"},
}
UNREAD = [[name, f"--{opt}", "1"] for name, reads in READS.items()
          for opt in sorted(set().union(*READS.values()) - reads)] + [
    # both used to exit 0 without a word about the ignored option
    ["morita", "--algebra", "v1_2", "--submodule", "nofile.json"],
    ["homology", "--algebra", "qx2", "--r", "9", "--mu", "x"]]


@pytest.mark.parametrize("argv", UNREAD, ids=" ".join)
def test_unread_option_exit_2(argv, capsys):
    """An option the subcommand does not read is refused by argparse, as an
    unknown choice of ``--format`` is, before anything is loaded."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


README = Path(__file__).parents[1] / "README.md"


def _readme_section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_usage_lines():
    """The ``hccourant ...`` lines of the README's command-line section."""
    return [line for line in _readme_section("Command line").splitlines()
            if line.startswith("hccourant ") and "<" not in line]


def _readme_exit(line):
    """The N of a usage line that ends in ``# exit N``, else 0."""
    m = re.search(r"# exit (\d+)$", line)
    return int(m.group(1)) if m else 0


@pytest.mark.parametrize("line", _readme_usage_lines())
def test_readme_usage_line_runs(line, tmp_path, capsys):
    """Every usage line exits as its ``# exit N`` says, 0 without one, and
    writes its report, an exit-2 error report too."""
    argv = shlex.split(line, comments=True)[1:]
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path / "report")
    else:
        argv += ["--out", str(tmp_path / "report")]
    assert main(argv) == _readme_exit(line)
    assert (tmp_path / "report").read_text()


def test_readme_is_the_contract():
    """The README's examples show exits 0, 1 and 2; it has at most 300
    lines, none past 80 columns; and its layout list names each module of
    the package once, and no other."""
    assert {0, 1, 2} <= set(map(_readme_exit, _readme_usage_lines()))
    lines = README.read_text(encoding="utf-8").splitlines()
    assert len(lines) <= 300
    assert [n for n, line in enumerate(lines, 1) if len(line) > 80] == []
    listed = re.findall(r"^- `(\w+)`", _readme_section("Layout"), re.M)
    package = Path(__file__).parents[1] / "src" / "hccourant"
    assert sorted(listed) == sorted(p.stem for p in package.glob("*.py"))


def test_out_flag_writes_file(tmp_path, capsys):
    p = tmp_path / "report.json"
    code, out = run(["validate", "--algebra", "q", "--format", "json",
                     "--out", str(p)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(p.read_text())["algebra"] == "Q"


@pytest.mark.parametrize("target", ("directory", "missing"))
def test_unwritable_out_exit_2(tmp_path, capsys, target):
    """An ``--out`` that cannot be opened used to end in a traceback with
    exit 1; it is one line on stderr and exit 2."""
    out = tmp_path if target == "directory" else tmp_path / "no" / "x.json"
    code = main(["validate", "--algebra", "q", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def _assert_pinned(name, args, expected_code, capsys):
    pinned = (Path(__file__).parent / "data" / name).read_text(
        encoding="utf-8")
    code, out = run(args + ["--format", "json"], capsys)
    assert code == expected_code
    assert out == pinned


def test_suite_seed42_report_is_pinned(capsys):
    """The suite report is byte-identical to the recorded one, so a change
    to any layer under it cannot drift a verdict, a dimension or a class
    representative unnoticed."""
    _assert_pinned("suite_seed42.json", ["suite", "--seed", "42"], 0,
                   capsys)


def _poisson_graph(table):
    return ["poisson-graph", "--algebra", "v1_3", "--bracket", table]


# name -> (arguments, exit code)
PINNED_REPORTS = {name: (args, 0) for name, args in {
    "kernel_v1_3.json": ["kernel", "--algebra", "v1_3"],
    "epsilon_v1_3.json": ["epsilon", "--algebra", "v1_3"],
    "poisson_graph_v1_3_so3.json": _poisson_graph("bracket_so3_v1_3"),
    # the zero bracket: a second Lie-algebroid report
    "poisson_graph_v1_3_zero.json": _poisson_graph("bracket_zero_v1_3"),
    "morita_v1_2.json": ["morita", "--algebra", "v1_2"],
    # the scale regime: the targets M_3(qx2) and M_3(v1_2) have dimension
    # 18 and 27
    "morita_qx2_r3.json": ["morita", "--algebra", "qx2", "--r", "3"],
    "morita_v1_2_r3.json": ["morita", "--algebra", "v1_2", "--r", "3"],
    # dimension 36: the commutative M_3(v1_3) and the non-commutative
    # M_3(m2q) = M_6(Q)
    "morita_v1_3_r3.json": ["morita", "--algebra", "v1_3", "--r", "3"],
    "morita_m2q_r3.json": ["morita", "--algebra", "m2q", "--r", "3"],
    "omni_dim2.json": ["omni", "--dim", "2"],
    # the reports that print H^1 class reps as d x d matrices
    "courant_v1_3.json": ["courant", "--algebra", "v1_3"],
    "cohomology_v1_2.json": ["cohomology", "--algebra", "v1_2"],
    # the first closed class of the 14-dimensional H_2
    "two_form_v1_3.json": ["two-form", "--algebra", "v1_3"],
    # the homology reports, which print class reps as tensors of basis
    # names: H_2 of V[1] at n = 3 and H_3 of Q[x]/(x^3)
    "homology_v1_3_degree2.json": ["homology", "--algebra", "v1_3",
                                   "--degree", "2"],
    "homology_qx3_degree3.json": ["homology", "--algebra", "qx3",
                                  "--degree", "3"],
}.items()}
# the false side: not Poisson, not closed, with the closure counterexample
PINNED_REPORTS["poisson_graph_v1_3_nonjacobi.json"] = (
    _poisson_graph("bracket_nonjacobi_v1_3"), 1)


def _omni_mu(name):
    return ["omni", "--dim", "3", "--mu",
            str(Path(__file__).parent / "data" / f"mu_{name}_3.json")]


# the D-structure verdict: the graph of so(3) on Q^3 is Dirac, and that of
# the non-skew mu(v_0, v_1) = v_0 is not, with its closure counterexample
# at the pair (0, 1)
PINNED_REPORTS["omni_dim3_mu_so3.json"] = (_omni_mu("so3"), 0)
PINNED_REPORTS["omni_dim3_mu_nonskew.json"] = (_omni_mu("nonskew"), 1)
# rational inputs, whose graph rows are cleared of denominators: so(3)
# times 3/7 (Dirac), the non-Jacobi table times -5/2 (not closed, with its
# counterexample) and so(3) times 1/2 on Q^3
PINNED_REPORTS["poisson_graph_v1_3_so3_3_7.json"] = (_poisson_graph(
    str(Path(__file__).parent / "data" / "bracket_so3_3_7_v1_3.json")), 0)
PINNED_REPORTS["poisson_graph_v1_3_nonjacobi_m5_2.json"] = (
    _poisson_graph(str(Path(__file__).parent / "data"
                       / "bracket_nonjacobi_m5_2_v1_3.json")), 1)
PINNED_REPORTS["omni_dim3_mu_so3_half.json"] = (_omni_mu("so3_half"), 0)
# skew and not Jacobi: [e0, e1] = e2, [e1, e2] = e0, [e0, e2] = e0; its
# graph complements the gl(V) block, so it is maximal, and it fails
# closure at the pair (0, 1) and the Jacobi identity on a triple i < j < k
PINNED_REPORTS["omni_dim3_mu_skew_nonjacobi.json"] = (
    _omni_mu("skew_nonjacobi"), 1)
# the so(3) graph of epsilon(v1_3) as a submodule file, re-spanned by an
# integer unimodular matrix: its rows, restricted off the H^1 block, all
# lead at one column, so maximality is read off the equations of L-perp
PINNED_REPORTS["dirac_check_v1_3_so3_respanned.json"] = (
    ["dirac-check", "--algebra", "v1_3", "--submodule",
     str(Path(__file__).parent / "data"
         / "submodule_so3_respanned_v1_3.json")], 0)


# the keys schema 2 removed because no computation decides them; the seed
# and cohomology's degree are checked per subcommand
REMOVED_KEYS = {"pre_quotient", "nondegenerate", "associative", "unital"}


def _keys(doc):
    """Every key of a JSON document, at any depth."""
    if isinstance(doc, dict):
        return set(doc).union(*map(_keys, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(_keys, doc))
    return set()


def test_report_pins_are_schema_2():
    """Every report under tests/data (the inputs are the mu and bracket
    tables and the submodule) is at schema 2, with no removed key at any
    depth, a seed in the suite report alone and no degree in the
    cohomology one."""
    data = Path(__file__).parent / "data"
    reports = [p for p in sorted(data.glob("*.json"))
               if not p.name.startswith(("mu_", "bracket_", "submodule_"))]
    assert len(reports) == 29
    for path in reports:
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["schema"] == "hccourant/2", path.name
        keys = _keys(doc)
        assert not keys & REMOVED_KEYS, path.name
        assert ("seed" in keys) == (doc["subcommand"] == "suite"), path.name
        if doc["subcommand"] == "cohomology":
            assert "degree" not in doc


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_cli_report_is_pinned(name, capsys):
    """The suite records only dimensions; these reports also pin the J
    basis, the epsilon class reps and form table, the graph bases and the
    Lie-algebroid report."""
    _assert_pinned(name, *PINNED_REPORTS[name], capsys)


def test_respanned_graph_takes_the_equation_path(monkeypatch, capsys):
    """The pinned re-spanned so(3) graph is the Poisson graph's subspace,
    but its spanning rows fail the leading-column rule, so its maximality
    takes the equations of L-perp, which no graph the package builds
    reaches."""
    from hccourant import dirac
    ruled, rule = [], dirac._independent_off

    def spy(rows, lo, hi):
        ruled.append(rule(rows, lo, hi))
        return ruled[-1]
    monkeypatch.setattr(dirac, "_independent_off", spy)
    name = "dirac_check_v1_3_so3_respanned.json"
    _assert_pinned(name, *PINNED_REPORTS[name], capsys)
    assert ruled == [False]
    data = Path(__file__).parent / "data"
    graph = json.loads((data / "poisson_graph_v1_3_so3.json").read_text(
        encoding="utf-8"))["graph_basis_epsilon"]
    assert json.loads((data / name).read_text(encoding="utf-8"))[
        "submodule_basis"] == graph


def test_cohomology_builds_only_h1(monkeypatch, capsys):
    """``cohomology`` prints H^1 alone and builds no homology: with every
    binding of ``homology`` refusing, its report is still the pinned one."""
    from hccourant import hochschild

    def refuse(*args, **kwargs):
        raise AssertionError("cohomology built a homology")

    built = hochschild.homology
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("hccourant")
                and getattr(mod, "homology", None) is built):
            monkeypatch.setattr(mod, "homology", refuse)
    _assert_pinned("cohomology_v1_2.json",
                   ["cohomology", "--algebra", "v1_2"], 0, capsys)
