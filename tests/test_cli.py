import hashlib
import json

import pytest

from fixtures import balanced_type, smooth_cubic_type, tropical_line

from tropcurves.cli import main
from tropcurves.serialize import config_to_json, type_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_with_oracle(capsys):
    code, out, _err = run_cli(capsys, "--json", "count", "--d", "3", "--g", "0", "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 12
    assert data["oracle"] == 12
    assert data["agrees"]


def test_walk_genus_out_of_range(capsys):
    code, out, err = run_cli(capsys, "walk", "--d", "3", "--g", "5")
    assert code == 2
    assert out == ""
    assert "0 <= g <= 1" in err


def test_genus_out_of_range_answers_empty(capsys):
    # count and enumerate share the floor layer's one (d, g) contract: no
    # diagrams, so no solutions and a count of 0, as the oracle says
    for d in ("1", "3"):
        code, out, err = run_cli(capsys, "--json", "enumerate", "--d", d, "--g", "-5")
        assert code == 0
        assert json.loads(out)["solutions"] == []
        code, out, _err = run_cli(capsys, "--json", "count", "--d", d, "--g", "-5", "--oracle")
        assert code == 0
        assert json.loads(out) == {"agrees": True, "count": 0, "d": int(d), "g": -5, "oracle": 0}
    # the walk needs a solution to start from
    code, out, err = run_cli(capsys, "walk", "--d", "3", "--g", "-5")
    assert code == 2
    assert out == ""
    assert "0 <= g <= 1" in err


def test_enumerate_refuses_points_outside_the_floor_method(tmp_path, capsys):
    # the stretched points listed bottom up have no floor decomposed curve
    # for any diagram: one error line, not an empty list of solutions
    from tropcurves.evaluation import PointConfiguration
    from tropcurves.floors import make_stretched

    pf = tmp_path / "rev.json"
    pf.write_text(json.dumps(config_to_json(PointConfiguration(make_stretched(8, 3).points[::-1]))))
    code, out, err = run_cli(capsys, "--json", "enumerate", "--d", "3", "--g", "0", "--points", str(pf))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {pf}: diagram 0 has no curve through the points")
    assert err.count("\n") == 1


def test_enumerate_refuses_degree_zero(capsys):
    for g in ("0", "2"):
        code, out, err = run_cli(capsys, "enumerate", "--d", "0", "--g", g)
        assert code == 2
        assert out == ""
        assert "degree must be positive" in err


def test_markings_refuse_negative_delta(capsys):
    for mode in ("--witness", "--classes"):
        code, out, err = run_cli(capsys, "markings", "--d", "4", "--delta", "-1", mode)
        assert code == 2
        assert out == ""
        assert "delta must be non-negative" in err


def test_byte_determinism(capsys):
    _c, out1, _ = run_cli(capsys, "--json", "count", "--d", "2", "--g", "0")
    _c, out2, _ = run_cli(capsys, "--json", "count", "--d", "2", "--g", "0")
    assert out1 == out2


def test_markings_classes(capsys):
    code, out, _ = run_cli(capsys, "--json", "markings", "--d", "4", "--delta", "3", "--classes")
    assert code == 0
    data = json.loads(out)
    assert data["irreducible_classes"] == 1


@pytest.mark.parametrize(
    "delta, digest",
    [
        ("6", "505885bc7135078628cacfcbfc8d42a39a1394d17e842b3e7ea1e403578226b9"),
        ("8", "86179c5b8131dd0bc7f88ef667b36a17befc23b10d72c26574d6467bda846be8"),
    ],
)
def test_markings_classes_output_frozen(capsys, delta, digest):
    # the bytes of the breadth-first search that the union-find replaced
    code, out, _ = run_cli(capsys, "--json", "markings", "--d", "6", "--delta", delta, "--classes")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_markings_witness(capsys):
    code, out, _ = run_cli(capsys, "--json", "markings", "--d", "4", "--delta", "4", "--witness")
    assert code == 0
    data = json.loads(out)
    assert data["empty"] is True


@pytest.mark.parametrize("flags", [("--classes", "--witness"), ("--witness", "--codim"), ("--classes", "--codim")])
def test_markings_mode_flags_are_exclusive(tmp_path, capsys, flags):
    m = tmp_path / "m.json"
    m.write_text("[[1, 2]]")
    argv = ["markings", "--d", "4", "--delta", "1"]
    for flag in flags:
        argv += [flag, str(m), str(m)] if flag == "--codim" else [flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "not allowed with argument" in captured.err


def test_markings_witness_scale_refusal(capsys):
    # the witness lists the C(d, 2) nodes, so d = 100000 would run for hours
    code, out, err = run_cli(capsys, "markings", "--d", "100000", "--delta", "1", "--witness")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("scale refusal:")


def test_walk_writes_its_trace_to_stdout(capsys):
    from tropcurves.serialize import dumps, trace_to_json
    from tropcurves.walk import run_walk

    code, out, err = run_cli(capsys, "walk", "--d", "3", "--g", "0", "--seed", "8")
    assert (code, err) == (0, "")
    assert out == dumps(trace_to_json(run_walk(3, 0, seed=8))) + "\n"


def test_walk_trace(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    code, _out, _err = run_cli(
        capsys, "--json", "walk", "--d", "2", "--g", "0", "--trace", str(out_file)
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["events"][-1][0] == "terminal"
    assert data["terminal"]["stratum"]["edges"][data["terminal"]["free_edge"]]["slope"] == [0, 0]


def _refuses_unwritable_output(tmp_path, monkeypatch, capsys, module, name, argv, flag):
    # the path is checked before any work: the job itself must not run
    def must_not_run(*args, **kwargs):
        raise AssertionError("the job ran before its output path was checked")

    monkeypatch.setattr(module, name, must_not_run)
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run_cli(capsys, *argv, flag, str(path))
        assert (code, out, err) == (2, "", f"error: cannot write {path}\n")
    assert not (tmp_path / "missing").exists()
    monkeypatch.undo()


def _failed_run_leaves_output_alone(tmp_path, capsys, argv, flag, status):
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("earlier")
    for path in (kept, fresh):
        code, out, _err = run_cli(capsys, *argv, flag, str(path))
        assert (code, out) == (status, "")
    assert kept.read_text() == "earlier"
    assert not fresh.exists()


def test_walk_checks_its_trace_path_before_the_run(tmp_path, monkeypatch, capsys):
    import tropcurves.walk
    from tropcurves.walk import WalkError

    argv = ("walk", "--d", "4", "--g", "3")
    _refuses_unwritable_output(tmp_path, monkeypatch, capsys, tropcurves.walk, "run_walk", argv, "--trace")
    # a walk that fails after the check neither creates nor truncates the file
    _failed_run_leaves_output_alone(tmp_path, capsys, ("walk", "--d", "3", "--g", "5"), "--trace", 2)

    def failing_walk(d, g, seed=0):
        raise WalkError("(k, r) failed to decrease")

    monkeypatch.setattr(tropcurves.walk, "run_walk", failing_walk)
    _failed_run_leaves_output_alone(tmp_path, capsys, ("walk", "--d", "3", "--g", "0"), "--trace", 4)


def test_enumerate_checks_its_out_path_before_the_run(tmp_path, monkeypatch, capsys):
    import tropcurves.floors

    argv = ("enumerate", "--d", "4", "--g", "0")
    _refuses_unwritable_output(tmp_path, monkeypatch, capsys, tropcurves.floors, "enumerate_curves", argv, "--out")
    _failed_run_leaves_output_alone(tmp_path, capsys, ("enumerate", "--d", "6", "--g", "0"), "--out", 3)


def test_fiber_subcommand(tmp_path, capsys):
    from fixtures import tropical_line
    from tropcurves.evaluation import PointConfiguration

    t = tropical_line(n_marks=2)
    # subdivide: put marks on rays via the corpus helper for a solvable fiber
    from tropcurves.corpus import _attach_mark

    base = tropical_line()
    # attach two marks on two different rays
    t1 = _attach_mark(base, ("leg", 0))
    t2 = _attach_mark(t1, ("leg", 2))
    tf = tmp_path / "type.json"
    tf.write_text(json.dumps(type_to_json(t2)))
    cfg = PointConfiguration(((3, 5), (-5, -1)))
    pf = tmp_path / "pts.json"
    pf.write_text(json.dumps(config_to_json(cfg)))
    code, out, _ = run_cli(capsys, "--json", "fiber", "--type", str(tf), "--points", str(pf))
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "point"


def test_enumerate_and_classify(tmp_path, capsys):
    out_file = tmp_path / "curves.json"
    code, _o, _e = run_cli(
        capsys, "--json", "enumerate", "--d", "2", "--g", "0", "--out", str(out_file)
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert len(data["solutions"]) == 1
    tf = tmp_path / "type.json"
    tf.write_text(json.dumps(data["solutions"][0]["curve"]))
    code, out, _ = run_cli(capsys, "--json", "classify-stratum", "--type", str(tf))
    assert code == 0
    cone = json.loads(out)
    assert cone["classification"] == "nice"


def test_validate_family_cli(tmp_path, capsys):
    from fixtures import smooth_cubic_curve
    from tropcurves.families import constant_family, BaseCurve
    from tropcurves.graphs import TropicalGraph
    from tropcurves.serialize import family_to_json
    from fractions import Fraction as F

    base = BaseCurve(TropicalGraph((0, 0), ((0, 1),), (F(1),), (0,)))
    fam = constant_family(base, smooth_cubic_curve())
    ff = tmp_path / "fam.json"
    ff.write_text(json.dumps(family_to_json(fam)))
    code, out, _ = run_cli(capsys, "--json", "validate-family", "--family", str(ff))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_fiber_malformed_type_json(tmp_path, capsys):
    tf = tmp_path / "type.json"
    tf.write_text(json.dumps({"vertices": [{"id": 0, "weight": 0}], "legs": []}))
    pf = tmp_path / "pts.json"
    pf.write_text(json.dumps({"points": [["0", "0"]]}))
    code, out, err = run_cli(capsys, "fiber", "--type", str(tf), "--points", str(pf))
    assert (code, out) == (2, "")
    assert err == "error: type JSON: missing key 'edges'\n"
    tf.write_text(json.dumps([1, 2]))
    code, out, err = run_cli(capsys, "fiber", "--type", str(tf), "--points", str(pf))
    assert (code, out) == (2, "")
    assert err.startswith("error: type JSON is malformed")


def test_fiber_and_classify_refuse_unbalanced_type(tmp_path, capsys):
    # one edge of slope (1, 0) and no legs: both ends are unbalanced, and
    # both commands refuse the type with the message cone_of raises
    tf = tmp_path / "type.json"
    edges = [{"u": 0, "v": 1, "slope": [1, 0]}]
    tf.write_text(json.dumps({"vertices": [{"id": 0, "weight": 0}, {"id": 1, "weight": 0}], "edges": edges, "legs": []}))
    pf = tmp_path / "pts.json"
    pf.write_text(json.dumps({"points": []}))
    for argv in (["classify-stratum", "--type", str(tf)], ["fiber", "--type", str(tf), "--points", str(pf)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: type is not balanced at vertex 0\n"


def test_fiber_refuses_a_mark_after_a_leg(tmp_path, capsys):
    # the contracted leg listed last, after the line's three rays
    from tropcurves.graphs import CombinatorialType

    line = tropical_line(n_marks=1)
    t = CombinatorialType(line.weights, line.edges, line.legs[1:] + line.legs[:1])
    tf, pf = tmp_path / "type.json", tmp_path / "pts.json"
    tf.write_text(json.dumps(type_to_json(t)))
    pf.write_text(json.dumps({"points": [["0", "0"]]}))
    code, out, err = run_cli(capsys, "fiber", "--type", str(tf), "--points", str(pf))
    assert (code, out) == (2, "")
    assert err == "error: type has non-contracted leg 0 before contracted leg 3; contracted legs must come first\n"


def test_fiber_refuses_float_points(tmp_path, capsys):
    from fixtures import tropical_line

    tf = tmp_path / "type.json"
    tf.write_text(json.dumps(type_to_json(tropical_line(n_marks=2))))
    pf = tmp_path / "pts.json"
    pf.write_text(json.dumps({"points": [[0.1, 0], ["1", "2"]]}))
    code, out, err = run_cli(capsys, "fiber", "--type", str(tf), "--points", str(pf))
    assert (code, out) == (2, "")
    assert err == 'error: config JSON: rational 0.1 is not an int or a "p/q" string\n'


def test_walk_error_exit_status(monkeypatch, capsys):
    import tropcurves.walk
    from tropcurves.walk import WalkError

    def failing_walk(d, g, seed=0):
        raise WalkError("(k, r) failed to decrease")

    monkeypatch.setattr(tropcurves.walk, "run_walk", failing_walk)
    code, out, err = run_cli(capsys, "walk", "--d", "3", "--g", "0")
    assert (code, out) == (4, "")
    assert err == "walk error: (k, r) failed to decrease\n"


def test_markings_codim_reads_pairs(tmp_path, capsys):
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    m1.write_text("[[1, 2]]")
    m2.write_text("[[1, 3]]")
    code, out, _ = run_cli(capsys, "markings", "--d", "3", "--codim", str(m1), str(m2))
    assert (code, json.loads(out)) == (0, {"codim": 1})
    m2.write_text("[[0, 1], [2]]")
    code, out, err = run_cli(capsys, "markings", "--d", "3", "--codim", str(m1), str(m2))
    assert (code, out) == (2, "")
    assert err == f"error: {m2}: node [2] is not a pair of ints\n"
    m2.write_text("[[1, 4]]")
    code, out, err = run_cli(capsys, "markings", "--d", "3", "--codim", str(m1), str(m2))
    assert (code, out, err) == (2, "", f"error: {m2}: marking contains a pair that is not a node\n")
    m2.write_text('{"a": 1}')
    code, out, err = run_cli(capsys, "markings", "--d", "3", "--codim", str(m1), str(m2))
    assert (code, out) == (2, "")
    assert err == f"error: {m2}: a marking is a JSON list of [i, j] pairs\n"


def test_zero_denominator_is_refused_at_the_cli(tmp_path, capsys):
    pf = tmp_path / "points.json"
    pf.write_text(json.dumps({"points": [["1/0", "0"]]}))
    code, out, err = run_cli(capsys, "enumerate", "--d", "1", "--g", "0", "--points", str(pf))
    assert (code, out, err) == (2, "", "error: config JSON: rational '1/0' has a zero denominator\n")


def test_exponent_in_a_rational_is_refused_at_the_cli(tmp_path, capsys):
    # Fraction("1e999999999") would build a billion-digit power of ten
    pf = tmp_path / "points.json"
    pf.write_text(json.dumps({"points": [["1e999999999", "0"]]}))
    code, out, err = run_cli(capsys, "enumerate", "--d", "1", "--g", "0", "--points", str(pf))
    assert (code, out, err) == (2, "", "error: config JSON: rational '1e999999999' is not an int or a \"p/q\" string\n")


def test_rational_of_5000_digits_is_refused_at_the_cli(tmp_path, capsys):
    pf = tmp_path / "points.json"
    pf.write_text(json.dumps({"points": [["1" * 5000, "0"]]}))
    code, out, err = run_cli(capsys, "enumerate", "--d", "1", "--g", "0", "--points", str(pf))
    assert (code, out, err) == (2, "", "error: config JSON: rational '111111111111...' has more than 4300 digits\n")


LONG_NUMERAL = "1" * 3000
LINE_JSON = type_to_json(tropical_line())
POINTS_ARGS = ("enumerate", "--d", "1", "--g", "0", "--points")


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--d", "1", "--g", "0", "--points", "{bad}"),
        ("fiber", "--type", "{bad}", "--points", "{good}"),
        ("fiber", "--type", "{good}", "--points", "{bad}"),
        ("markings", "--d", "3", "--codim", "{bad}", "{good}"),
        ("validate-family", "--family", "{bad}"),
        ("classify-stratum", "--type", "{bad}"),
    ],
    ids=["enumerate-points", "fiber-type", "fiber-points", "markings-codim", "validate-family", "classify-stratum"],
)
@pytest.mark.parametrize("text", ['{"weight": ' + "1" * 5000 + "}", "[" * 100000], ids=["long-int", "deep-nesting"])
def test_undecodable_json_is_refused_naming_the_file(tmp_path, capsys, argv, text):
    # an integer of more than 4300 digits, or nesting past the recursion
    # limit, does not decode: the refusal names the file, not Python's limit
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(LINE_JSON))
    code, out, err = run_cli(capsys, *(a.format(bad=bad, good=good) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: not valid JSON: ") and err.count("\n") == 1
    assert "set_int_max_str_digits" not in err and len(err) < 120 + len(str(bad))


def _edited_line(**edits):
    """The tropical line's type JSON with some of its lists replaced."""
    return {**type_to_json(tropical_line()), **edits}


@pytest.mark.parametrize(
    "document, refusal",
    [
        (_edited_line(vertices=[]), "graph needs at least one vertex"),
        (_edited_line(vertices=[{"id": 0, "weight": -2}]), "vertex 0: weight -2 is negative"),
        (_edited_line(edges=[{"u": 0, "v": 7, "slope": [0, 0]}]), "edge 0: endpoint 7 is out of range 0..0"),
        (
            _edited_line(legs=[*LINE_JSON["legs"][:2], {"vertex": 3, "slope": [1, 1]}]),
            "leg 2: vertex 3 is out of range 0..0",
        ),
        (
            _edited_line(vertices=[{"id": 0, "weight": 0}, {"id": 1, "weight": 0}]),
            "graph is disconnected: vertex 1 is not joined to vertex 0",
        ),
        (
            _edited_line(edges=[{"u": 0, "v": 0, "slope": [1, 0]}]),
            "edge 0: a loop with nonzero slope (1, 0) is not realizable",
        ),
    ],
    ids=["no-vertex", "negative-weight", "edge-endpoint", "leg-vertex", "disconnected", "sloped-loop"],
)
def test_type_refusals_name_their_record(tmp_path, capsys, document, refusal):
    tf = tmp_path / "type.json"
    tf.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "classify-stratum", "--type", str(tf))
    assert (code, out, err) == (2, "", f"error: type JSON: {refusal}\n")


def test_base_graph_refusal_names_its_edge(tmp_path, capsys):
    data = _constant_family_json()
    data["base"]["edges"][0]["length"] = "-3/2"
    ff = tmp_path / "fam.json"
    ff.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate-family", "--family", str(ff))
    assert (code, out, err) == (2, "", "error: graph JSON: edge 0: length -3/2 is not strictly positive\n")


def test_base_loop_refusal_names_its_edge(tmp_path, capsys):
    data = _constant_family_json()
    data["base"]["edges"].append({"u": 1, "v": 1, "length": "2"})
    ff = tmp_path / "fam.json"
    ff.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate-family", "--family", str(ff))
    assert (code, out, err) == (2, "", "error: family JSON: base curve edge 1 is a loop at vertex 1\n")


@pytest.mark.parametrize(
    "length, refusal",
    [("0", "edge 3: length 0 is not strictly positive"), ("3", "edge 3: positions violate geometric consistency")],
    ids=["zero", "inconsistent"],
)
def test_vertex_curve_refusal_names_its_edge(tmp_path, capsys, length, refusal):
    data = _constant_family_json()
    data["vertex_curves"]["1"]["edges"][3]["length"] = length
    ff = tmp_path / "fam.json"
    ff.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate-family", "--family", str(ff))
    assert (code, out, err) == (2, "", f"error: curve JSON: {refusal}\n")


@pytest.mark.parametrize(
    "nodes, twice",
    [([[1, 2], [2, 1], [3, 4]], "[2, 1]"), ([[1, 2], [1, 2], [1, 4]], "[1, 2]")],
    ids=["reversed", "repeated"],
)
def test_codim_refuses_a_node_listed_twice(tmp_path, capsys, nodes, twice):
    # read as a set, the repeat would vanish and leave a marking of fewer nodes
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    m1.write_text(json.dumps(nodes))
    m2.write_text("[[1, 2], [1, 4]]")
    code, out, err = run_cli(capsys, "markings", "--d", "4", "--codim", str(m1), str(m2))
    assert (code, out, err) == (2, "", f"error: {m1}: node {twice} is listed twice\n")


def test_codim_refusal_names_both_cardinalities(tmp_path, capsys):
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    m1.write_text("[[1, 2]]")
    m2.write_text("[[1, 3], [2, 3]]")
    code, out, err = run_cli(capsys, "markings", "--d", "3", "--codim", str(m1), str(m2))
    assert (code, out, err) == (2, "", "error: markings must have the same cardinality, not 1 and 2\n")


@pytest.mark.parametrize(
    "argv, document",
    [
        (POINTS_ARGS, {"points": [[LONG_NUMERAL + "e5", "0"]]}),
        (POINTS_ARGS, {"points": [[LONG_NUMERAL + "/0", "0"]]}),
        (POINTS_ARGS, {"points": [list(range(5000))]}),
        (("classify-stratum", "--type"), {**LINE_JSON, "vertices": [{"id": 0, "weight": LONG_NUMERAL}]}),
        (("classify-stratum", "--type"), {**LINE_JSON, "legs": [{"vertex": 0, "slope": list(range(5000))}]}),
    ],
    ids=["not-p-q", "zero-denominator", "not-a-pair", "not-an-int", "not-a-pair-of-ints"],
)
def test_refusal_of_a_long_value_is_one_short_line(tmp_path, capsys, argv, document):
    # the offending value is shown cut short, never echoed whole
    f = tmp_path / "input.json"
    f.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, *argv, str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 120


@pytest.mark.parametrize("point", [["1"], ["1", "2", "3"]], ids=["one-entry", "three-entries"])
def test_point_that_is_not_a_pair_is_refused_at_the_cli(tmp_path, capsys, point):
    pf = tmp_path / "points.json"
    pf.write_text(json.dumps({"points": [point]}))
    code, out, err = run_cli(capsys, "enumerate", "--d", "1", "--g", "0", "--points", str(pf))
    assert (code, out, err) == (2, "", f"error: config JSON: point {point!r} is not a pair\n")


def test_classify_stratum_malformed_slope(tmp_path, capsys):
    tf = tmp_path / "type.json"
    legs = [{"vertex": 0, "slope": [1]}]
    tf.write_text(json.dumps({"vertices": [{"id": 0, "weight": 0}], "edges": [], "legs": legs}))
    code, out, err = run_cli(capsys, "classify-stratum", "--type", str(tf))
    assert (code, out) == (2, "")
    assert err == "error: type JSON: slope [1] is not a pair of ints\n"


def _constant_family_json():
    from fixtures import smooth_cubic_curve
    from fractions import Fraction as F
    from tropcurves.families import constant_family, BaseCurve
    from tropcurves.graphs import TropicalGraph
    from tropcurves.serialize import family_to_json

    base = BaseCurve(TropicalGraph((0, 0), ((0, 1),), (F(1),), (0,)))
    return family_to_json(constant_family(base, smooth_cubic_curve()))


def test_readers_refuse_non_ints_at_the_cli(tmp_path, capsys):
    tf = tmp_path / "type.json"
    for key, value in [("weight", 1.7), ("id", 1.0)]:
        data = type_to_json(tropical_line())
        data["vertices"][0][key] = value
        tf.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "classify-stratum", "--type", str(tf))
        assert (code, out) == (2, "")
        assert err == f"error: type JSON: vertex {key} {value} is not an int\n"
    data = type_to_json(smooth_cubic_type())
    data["edges"][0]["v"] = 1.0
    tf.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "classify-stratum", "--type", str(tf))
    assert (code, out, err) == (2, "", "error: type JSON: vertex 1.0 is not an int\n")
    data = _constant_family_json()
    data["contractions"]["0|edge:0"]["vertex_map"][0] = 0.0
    ff = tmp_path / "fam.json"
    ff.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate-family", "--family", str(ff))
    assert (code, out, err) == (2, "", "error: family JSON: vertex_map entry 0.0 is not an int\n")


def test_validate_family_refuses_bad_contraction_maps(tmp_path, capsys):
    # each map points into the nine vertices and nine edges of the cubic
    ff = tmp_path / "fam.json"
    for name, edit, why in [
        ("vertex_map", lambda m: m.__setitem__(0, 99), "vertex_map entry 99 is out of range"),
        ("edge_map", lambda m: m.__setitem__(0, 99), "edge_map entry 99 is out of range"),
        ("edge_map", lambda m: m.__setitem__(0, -2), "edge_map entry -2 is out of range"),
        ("vertex_map", lambda m: m.pop(), "vertex_map has 8 entries, not 9"),
    ]:
        data = _constant_family_json()
        edit(data["contractions"]["1|edge:0"][name])
        ff.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "validate-family", "--family", str(ff))
        assert (code, out, err) == (2, "", f"error: family JSON: contraction 1|edge:0: {why}\n")


_REF = 'is not a "kind:index" reference'
_CONTRACTION = 'is not a "vertex|kind:index" key'


@pytest.mark.parametrize(
    "path, old, new, refusal",
    [
        (["contractions"], "1|edge:0", "1", f"contractions key '1' {_CONTRACTION}"),
        (["contractions"], "1|edge:0", "x|edge:0", f"contractions key 'x|edge:0' {_CONTRACTION}"),
        (["edge_types"], "edge:0", "edge:x", f"edge_types key 'edge:x' {_REF}"),
        (["lengths"], "edge:0", "edge", f"lengths key 'edge' {_REF}"),
        (["positions"], "edge:0", "edge:0:1", f"positions key 'edge:0:1' {_REF}"),
        (["lengths", "edge:0"], "0", "x", "lengths key 'x' is not an index"),
        (["positions", "edge:0"], "3", " 3", "positions key ' 3' is not an index"),
        (["vertex_curves"], "1", "1" * 5000, "vertex_curves key '111111111111...' is not an index"),
    ],
    ids=[
        "contraction",
        "contraction-vertex",
        "edge-types-ref",
        "lengths-ref",
        "positions-ref",
        "lengths-index",
        "positions-index",
        "vertex-curves-index",
    ],
)
def test_validate_family_refuses_malformed_keys(tmp_path, capsys, path, old, new, refusal):
    # every key is parsed by one reader, which names the field and shows
    # the key cut short, never Python's own unpacking or int() message
    data = _constant_family_json()
    mapping = data
    for step in path:
        mapping = mapping[step]
    mapping[new] = mapping.pop(old)
    ff = tmp_path / "fam.json"
    ff.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate-family", "--family", str(ff))
    assert (code, out, err) == (2, "", f"error: family JSON: {refusal}\n")


def test_validate_family_refuses_bad_degree_slopes(tmp_path, capsys):
    ff = tmp_path / "fam.json"
    for slope in ([1.0, 1], [1, 1, 0], 1):
        data = _constant_family_json()
        data["extended_degree"][1] = slope
        ff.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "validate-family", "--family", str(ff))
        assert (code, out) == (2, "")
        assert err == f"error: family JSON: extended_degree slope {slope!r} is not a pair of ints\n"
    data = _constant_family_json()
    ff.write_text(json.dumps(data))
    assert run_cli(capsys, "validate-family", "--family", str(ff))[0] == 0


@pytest.mark.parametrize(
    "edit, verdict",
    [
        (lambda d: d["lengths"]["edge:0"].pop("0"), ["missing-function", "('edge', 0) length 0"]),
        (lambda d: d["lengths"].pop("edge:0"), ["missing-function", "('edge', 0) length 0"]),
        (lambda d: d["positions"]["edge:0"].pop("3"), ["missing-function", "('edge', 0) position 3"]),
        (lambda d: d["vertex_curves"]["1"]["legs"].pop(), ["degree-mismatch", "vertex 1"]),
        (lambda d: d["edge_types"].pop("edge:0"), ["missing-type", "('edge', 0)"]),
        (lambda d: d["contractions"].pop("1|edge:0"), ["missing-vertex-data", "vertex 1, ('edge', 0)"]),
        # edge 0 has length 10, x of vertex 0 is 2, and the base edge has length 1
        (
            lambda d: d["edge_types"]["edge:0"]["edges"][0].update(slope=[0, -2]),
            ["unbalanced-fiber", "('edge', 0) vertex 0"],
        ),
        (
            lambda d: d["positions"]["edge:0"]["0"][0].update(value="3"),
            ["fiber-not-a-curve", "('edge', 0) at 1/2: edge 0: positions violate geometric consistency"],
        ),
        # the three edits below keep the value at the midpoint 1/2 and move the ends
        (
            lambda d: d["lengths"]["edge:0"]["0"].update(value="-1", slope="22"),
            ["negative-length", "('edge', 0) at 0"],
        ),
        (
            lambda d: d["lengths"]["edge:0"]["0"].update(value="5", slope="10"),
            ["length-compatibility", "('edge', 0) edge 0 at vertex 0"],
        ),
        (
            lambda d: d["positions"]["edge:0"]["0"][0].update(value="1", slope="2"),
            ["position-compatibility", "('edge', 0) vertex 0 at base vertex 0"],
        ),
        (lambda d: d["vertex_curves"]["0"]["legs"][0].update(vertex=1), ["leg-attachment", "('edge', 0) leg 0"]),
    ],
    ids=[
        "length-function",
        "lengths-of-a-ref",
        "position-function",
        "vertex-curve-legs",
        "missing-type",
        "missing-vertex-data",
        "unbalanced-fiber",
        "fiber-not-a-curve",
        "negative-length",
        "length-compatibility",
        "position-compatibility",
        "leg-attachment",
    ],
)
def test_validate_family_reports_incomplete_data(tmp_path, capsys, edit, verdict):
    # well-formed JSON that leaves out part of the family or breaks one
    # of its compatibilities: a failed verdict on stdout, exit 1, nothing
    # on stderr
    data = _constant_family_json()
    edit(data)
    ff = tmp_path / "fam.json"
    ff.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate-family", "--family", str(ff))
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "violation": verdict[0], "detail": verdict[1]}


def test_classify_stratum_output_frozen(tmp_path, capsys):
    tf = tmp_path / "type.json"
    tf.write_text(json.dumps(type_to_json(balanced_type())))
    code, out, _ = run_cli(capsys, "classify-stratum", "--type", str(tf))
    assert code == 0
    assert out == (
        '{"ambient_dim":7,"aut_order":4,"classification":"other","constraints":[[0,0,0,0,0,0,0],'
        '[0,0,0,0,0,0,0],[-1,0,1,0,0,-1,0],[0,-1,0,1,0,0,0],[-1,0,1,0,0,0,-1],[0,-1,0,1,0,0,0]],'
        '"dimension":4,"four_valent_vertex":null,"realizable":true,"type":{"edges":'
        '[{"slope":[0,0],"u":0,"v":0},{"slope":[1,0],"u":0,"v":1},{"slope":[1,0],"u":0,"v":1}],'
        '"legs":[{"slope":[-1,1],"vertex":0},{"slope":[-1,-1],"vertex":0},{"slope":[1,1],"vertex":1},'
        '{"slope":[1,-1],"vertex":1}],"vertices":[{"id":0,"weight":1},{"id":1,"weight":0}]}}\n'
    )
