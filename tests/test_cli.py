import json

import pytest

from fixtures import smooth_cubic_type, tropical_line

from tropcurves.cli import main
from tropcurves.graphs import CombinatorialType, Edge, Leg
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


def test_count_scale_refusal(capsys):
    code, _out, err = run_cli(capsys, "count", "--d", "7", "--g", "0")
    assert code == 3
    assert "scale" in err


def test_enumerate_scale_refusal(capsys):
    code, _out, err = run_cli(capsys, "enumerate", "--d", "6", "--g", "0")
    assert code == 3
    assert "scale" in err


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


def test_markings_witness(capsys):
    code, out, _ = run_cli(capsys, "--json", "markings", "--d", "4", "--delta", "4", "--witness")
    assert code == 0
    data = json.loads(out)
    assert data["empty"] is True


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


def test_fiber_refuses_float_points(tmp_path, capsys):
    from fixtures import tropical_line

    tf = tmp_path / "type.json"
    tf.write_text(json.dumps(type_to_json(tropical_line(n_marks=2))))
    pf = tmp_path / "pts.json"
    pf.write_text(json.dumps({"points": [[0.1, 0], ["1", "2"]]}))
    code, out, err = run_cli(capsys, "fiber", "--type", str(tf), "--points", str(pf))
    assert (code, out) == (2, "")
    assert err == 'error: rational 0.1 is not an int or a "p/q" string\n'


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
    m2.write_text('{"a": 1}')
    code, out, err = run_cli(capsys, "markings", "--d", "3", "--codim", str(m1), str(m2))
    assert (code, out) == (2, "")
    assert err == f"error: {m2}: a marking is a JSON list of [i, j] pairs\n"


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
    ],
    ids=["length-function", "lengths-of-a-ref", "position-function", "vertex-curve-legs"],
)
def test_validate_family_reports_incomplete_data(tmp_path, capsys, edit, verdict):
    # well-formed JSON that leaves out part of the family: a failed
    # verdict on stdout, exit 1, nothing on stderr
    data = _constant_family_json()
    edit(data)
    ff = tmp_path / "fam.json"
    ff.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate-family", "--family", str(ff))
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "violation": verdict[0], "detail": verdict[1]}


def test_classify_stratum_output_frozen(tmp_path, capsys):
    # a weight-1 vertex with a zero-slope loop, joined to a second vertex
    # by two parallel edges: the loop flip and the edge swap give order 4
    t = CombinatorialType(
        weights=(1, 0),
        edges=(Edge(0, 0), Edge(0, 1, (1, 0)), Edge(0, 1, (1, 0))),
        legs=(Leg(0, (-1, 1)), Leg(0, (-1, -1)), Leg(1, (1, 1)), Leg(1, (1, -1))),
    )
    tf = tmp_path / "type.json"
    tf.write_text(json.dumps(type_to_json(t)))
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
