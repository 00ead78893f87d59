"""Property tests on small random combinatorial types (Hypothesis)."""

import contextlib
import io
import json
import re
from fractions import Fraction as F

import pytest
from fixtures import brute_force_aut_order, genus, reference_cone_contains, relabel, smooth_cubic_curve, tropical_line

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from tropcurves.canonical import aut_order, canonical_key  # noqa: E402
from tropcurves.cli import main  # noqa: E402
from tropcurves.cones import (  # noqa: E402
    expand_lengths,
    integer_positions,
    is_realizable,
    path,
    path_coefficients,
    reduced_fiber_polyhedron,
)
from tropcurves.corpus import _attach_mark, _cone_contains  # noqa: E402
from tropcurves.evaluation import PointConfiguration  # noqa: E402
from tropcurves.families import BaseCurve, constant_family, validate_family  # noqa: E402
from tropcurves.graphs import (  # noqa: E402
    CombinatorialType,
    Edge,
    Leg,
    ParametrizedCurve,
    TropicalGraph,
    check_balancing,
    components,
    face_contract,
)
from tropcurves.linalg import clear_denominators, feasible_nonneg, mat_rank, solve_affine  # noqa: E402
from tropcurves.serialize import (  # noqa: E402
    config_from_json,
    config_to_json,
    curve_from_json,
    curve_to_json,
    dumps,
    family_from_json,
    family_to_json,
    type_from_json,
    type_to_json,
)

SLOPES = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
RATIONALS = st.builds(F, st.integers(-50, 50), st.integers(1, 12))
SETTINGS = hypothesis.settings(max_examples=200, deadline=None)


@SETTINGS
@hypothesis.given(
    st.integers(1, 4),
    st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), max_size=4),
    st.builds(F, st.integers(1, 7) | st.integers(-7, -1), st.integers(1, 7)),
)
def test_linalg_answers_alike_on_ints_and_fractions(n, dense, scale):
    # rows of ints are taken as given; the same rows as Fractions, and
    # scaled by a common rational, are cleared first: the system, its
    # solutions and its nonnegative feasibility are the same
    rows = [{j: a for j, a in enumerate(row[:n]) if a} for row in dense]
    rhs = [row[-1] for row in dense]
    want = (solve_affine(rows, rhs, n), mat_rank(rows, n), feasible_nonneg(rows, rhs, n))
    for mult in (F(1), scale):
        r = [{j: a * mult for j, a in row.items()} for row in rows]
        b = [x * mult for x in rhs]
        assert (solve_affine(r, b, n), mat_rank(r, n), feasible_nonneg(r, b, n)) == want


@SETTINGS
@hypothesis.given(
    st.lists(SLOPES, max_size=5),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(1, 10**6),
)
def test_cone_contains_matches_lp_and_is_scale_free(gens, w, m):
    # the incidence scan runs the test on integer-scaled points, which
    # relies on the answer not changing under w -> m*w
    rows = [{j: g[c] for j, g in enumerate(gens) if g[c]} for c in (0, 1)]
    inside = feasible_nonneg(rows, list(w), len(gens))
    assert _cone_contains(gens, w) == inside
    assert _cone_contains(gens, (m * w[0], m * w[1])) == inside


@st.composite
def cone_cases(draw):
    """Up to eight generators and a w, each a free slope or an integer
    multiple of one of at most three directions, so zero, parallel and
    antiparallel vectors, and w = 0, come up often."""
    directions = draw(st.lists(SLOPES.filter(any), min_size=1, max_size=3))
    multiple = st.builds(lambda v, k: (k * v[0], k * v[1]), st.sampled_from(directions), st.integers(-3, 3))
    gens = draw(st.lists(st.one_of(multiple, SLOPES), max_size=8))
    return gens, draw(st.one_of(multiple, SLOPES))


@SETTINGS
@hypothesis.given(cone_cases())
def test_cone_fold_matches_pairwise_test(case):
    gens, w = case
    assert _cone_contains(gens, w) == reference_cone_contains(gens, w)


@st.composite
def small_types(draw):
    """Connected types on at most five vertices: a random spanning tree,
    up to two extra edges or loops (loops have slope zero), weights 0 or 1,
    and up to three ordered legs, some of them contracted."""
    n = draw(st.integers(1, 5))
    edges = [Edge(draw(st.integers(0, v - 1)), v, draw(SLOPES)) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 2))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        edges.append(Edge(u, v, (0, 0) if u == v else draw(SLOPES)))
    weights = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    legs = tuple(Leg(v, s) for v, s in draw(st.lists(st.tuples(st.integers(0, n - 1), SLOPES), max_size=3)))
    return CombinatorialType(weights, tuple(edges), legs)


@SETTINGS
@hypothesis.given(small_types())
def test_is_realizable_matches_the_relative_interior_point(t):
    # the phase-1 LP with every length at least 1, against the open cone's
    # point from `Polyhedron.strict_point`
    assert is_realizable(t) == (reduced_fiber_polyhedron(t, ())[0].strict_point() is not None)


@SETTINGS
@hypothesis.given(small_types())
def test_tree_path_holds_only_its_own_edges(t):
    # the edges the two root paths share cancel and are left out
    coeffs = path_coefficients(t)
    for u in range(t.n_vertices()):
        for v in range(t.n_vertices()):
            got = path(coeffs, u, v)
            assert 0 not in got.values()
            diff = {j: coeffs[v].get(j, 0) - coeffs[u].get(j, 0) for j in {*coeffs[u], *coeffs[v]}}
            assert got == {j: c for j, c in diff.items() if c}


@SETTINGS
@hypothesis.given(small_types(), st.randoms(use_true_random=False))
def test_canonical_key_invariant_under_relabeling(t, rng):
    label = list(range(t.n_vertices()))
    rng.shuffle(label)
    shuffled = relabel(t, label)
    for labeled in ("all", "contracted", "none"):
        assert canonical_key(shuffled, labeled) == canonical_key(t, labeled)


@SETTINGS
@hypothesis.given(small_types())
def test_aut_order_matches_brute_force(t):
    assert aut_order(t) == brute_force_aut_order(t)


@SETTINGS
@hypothesis.given(small_types())
def test_type_json_round_trip(t):
    assert type_from_json(json.loads(dumps(type_to_json(t)))) == t


def _star_reference(t, v):
    """Germs at v by a scan of every edge and leg, one vertex at a time:
    the reference the one-pass `stars` must match."""
    germs = []
    for i, e in enumerate(t.edges):
        if e.is_loop() and e.u == v:
            germs.append((e.slope, ("edge", i, 0)))
            germs.append(((-e.slope[0], -e.slope[1]), ("edge", i, 1)))
        elif e.u == v:
            germs.append((e.slope, ("edge", i, 0)))
        elif e.v == v:
            germs.append(((-e.slope[0], -e.slope[1]), ("edge", i, 1)))
    for j, leg in enumerate(t.legs):
        if leg.vertex == v:
            germs.append((leg.slope, ("leg", j)))
    return germs


@SETTINGS
@hypothesis.given(small_types())
def test_stars_match_a_per_vertex_scan(t):
    reference = [_star_reference(t, v) for v in range(t.n_vertices())]
    assert t.stars() == reference
    assert [t.star(v) for v in range(t.n_vertices())] == reference
    sums = [(sum(s[0] for s, _d in germs), sum(s[1] for s, _d in germs)) for germs in reference]
    unbalanced = [v for v, total in enumerate(sums) if total != (0, 0)]
    assert check_balancing(t) == (unbalanced[0] if unbalanced else None)


def test_star_refuses_vertices_out_of_range():
    t = smooth_cubic_curve().ctype
    for v in (-1, t.n_vertices()):
        with pytest.raises(ValueError, match="out of range"):
            t.star(v)


@st.composite
def pair_lists(draw):
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=12))


@SETTINGS
@hypothesis.given(pair_lists())
@hypothesis.example((4, [(0, 0), (1, 2), (2, 1), (1, 2), (3, 3)]))
def test_components_match_breadth_first_search(case):
    n, pairs = case
    adjacent = {x: set() for x in range(n)}
    for u, v in pairs:
        adjacent[u].add(v)
        adjacent[v].add(u)
    label = {}
    for s in range(n):
        frontier = [s]
        while frontier:
            x = frontier.pop()
            if x not in label:
                label[x] = s
                frontier.extend(adjacent[x])
    root = components(n, pairs)
    assert all(root[root[x]] == root[x] for x in range(n))
    assert all((root[x] == root[y]) == (label[x] == label[y]) for x in range(n) for y in range(n))


@st.composite
def balanced_types(draw):
    """A small type with one more leg at each unbalanced vertex, of the
    slope that balances it."""
    t = draw(small_types())
    fixes = []
    for v in range(t.n_vertices()):
        sx = sum(s[0] for s, _d in t.star(v))
        sy = sum(s[1] for s, _d in t.star(v))
        if (sx, sy) != (0, 0):
            fixes.append(Leg(v, (-sx, -sy)))
    return CombinatorialType(t.weights, t.edges, t.legs + tuple(fixes))


@SETTINGS
@hypothesis.given(balanced_types(), st.data())
def test_face_contract_preserves_genus_degree_and_balancing(t, data):
    assert check_balancing(t) is None
    subset = data.draw(st.sets(st.integers(0, len(t.edges) - 1)) if t.edges else st.just(set()))
    # a subset that turns an edge of nonzero slope into a loop is no face
    root = components(t.n_vertices(), [(t.edges[i].u, t.edges[i].v) for i in subset])
    kept = [e for i, e in enumerate(t.edges) if i not in subset]
    hypothesis.assume(all(e.slope == (0, 0) or root[e.u] != root[e.v] for e in kept))
    c = face_contract(t, subset)
    assert len(c.edges) == len(t.edges) - len(subset)
    assert genus(c) == genus(t)
    assert c.extended_degree() == t.extended_degree()
    assert check_balancing(c) is None


@st.composite
def small_curves(draw):
    """Curves on a random tree (plus zero-slope loops): positive rational
    lengths, and positions integrated from a rational root position."""
    n = draw(st.integers(1, 5))
    positions = [(draw(RATIONALS), draw(RATIONALS))]
    edges, lengths = [], []
    for v in range(1, n):
        u, s = draw(st.integers(0, v - 1)), draw(SLOPES)
        length = draw(RATIONALS.filter(lambda x: x > 0))
        edges.append(Edge(u, v, s))
        lengths.append(length)
        positions.append((positions[u][0] + length * s[0], positions[u][1] + length * s[1]))
    for v in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        edges.append(Edge(v, v, (0, 0)))
        lengths.append(draw(RATIONALS.filter(lambda x: x > 0)))
    weights = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    legs = tuple(Leg(v, s) for v, s in draw(st.lists(st.tuples(st.integers(0, n - 1), SLOPES), max_size=3)))
    return ParametrizedCurve(CombinatorialType(weights, tuple(edges), legs), tuple(lengths), tuple(positions))


@SETTINGS
@hypothesis.given(small_curves())
def test_curve_json_round_trip(c):
    assert curve_from_json(json.loads(dumps(curve_to_json(c)))) == c


def _fraction_consistent(t, lengths, positions):
    """The consistency check of ParametrizedCurve, in Fraction arithmetic."""
    lengths = [F(x) for x in lengths]
    positions = [(F(x), F(y)) for x, y in positions]
    if any(x <= 0 for x in lengths):
        return False
    for e, ln in zip(t.edges, lengths):
        (ux, uy), (vx, vy) = positions[e.u], positions[e.v]
        if not e.is_loop() and (vx - ux, vy - uy) != (ln * e.slope[0], ln * e.slope[1]):
            return False
    return True


@st.composite
def curve_inputs(draw):
    """A tree type with lengths and integrated positions, ints and
    Fractions of mixed denominators, plus parallel copies of tree edges
    and zero-slope loops; then maybe one coordinate moved by 1/q, one
    length moved by 1/q or one length made nonpositive."""
    n = draw(st.integers(1, 5))
    number = st.one_of(st.integers(-20, 20), RATIONALS)
    positions = [[draw(number), draw(number)]]
    edges, lengths = [], []
    for v in range(1, n):
        u, s = draw(st.integers(0, v - 1)), draw(SLOPES)
        length = draw(st.one_of(st.integers(1, 9), RATIONALS.filter(lambda x: x > 0)))
        edges.append(Edge(u, v, s))
        lengths.append(length)
        positions.append([positions[u][0] + length * s[0], positions[u][1] + length * s[1]])
    for i in draw(st.lists(st.integers(0, n - 2), max_size=2)) if n > 1 else ():
        edges.append(edges[i])
        lengths.append(lengths[i])
    for v in draw(st.lists(st.integers(0, n - 1), max_size=1)):
        edges.append(Edge(v, v, (0, 0)))
        lengths.append(draw(RATIONALS.filter(lambda x: x > 0)))
    q = F(draw(st.sampled_from((-1, 1))), draw(st.integers(1, 12)))
    change = draw(st.sampled_from(("none", "position", "length", "nonpositive")))
    if change == "position":
        positions[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] += q
    elif change in ("length", "nonpositive") and lengths:
        i = draw(st.integers(0, len(lengths) - 1))
        lengths[i] = lengths[i] + q if change == "length" else -abs(lengths[i]) * draw(st.integers(0, 1))
    t = CombinatorialType((0,) * n, tuple(edges))
    return t, tuple(lengths), tuple(map(tuple, positions))


def _int_if_integral(x):
    x = F(x)
    return x.numerator if x.denominator == 1 else x


@SETTINGS
@hypothesis.given(curve_inputs(), st.data())
def test_curve_check_matches_fraction_arithmetic(inputs, data):
    # the constructor clears denominators to one lcm and compares ints;
    # it must accept exactly what the Fraction check accepts, and the
    # same curve given as drawn, as Fractions, as ints where integral or
    # mixed must get the same verdict, refusal text and integer form
    t, lengths, positions = inputs
    values, ne = [*lengths, *(c for p in positions for c in p)], len(lengths)
    picks = data.draw(st.lists(st.sampled_from((F, _int_if_integral)), min_size=len(values), max_size=len(values)))
    forms = [values, [F(x) for x in values], [_int_if_integral(x) for x in values], [f(x) for f, x in zip(picks, values)]]
    verdicts, curves = [], []
    for given in forms:
        try:
            curves.append(ParametrizedCurve(t, given[:ne], tuple(zip(given[ne::2], given[ne + 1 :: 2]))))
            verdicts.append("accepted")
        except ValueError as exc:
            verdicts.append(str(exc))
    assert len(set(verdicts)) == 1, verdicts
    assert (verdicts[0] == "accepted") == _fraction_consistent(t, lengths, positions)
    for c in curves[1:]:
        assert c == curves[0] and hash(c) == hash(curves[0])
        assert c.lengths == curves[0].lengths and c.positions == curves[0].positions


def _expand_reference(t, points, coeffs, lengths):
    """Positions then lengths, summed along the tree paths in Fraction
    arithmetic: the reference the int `expand_lengths` must match."""

    def shift(v):
        return [sum(F(lengths[j]) * c * t.edges[j].slope[k] for j, c in coeffs[v].items()) for k in (0, 1)]

    root = (F(0), F(0))
    if points:
        dx, dy = shift(t.legs[0].vertex)
        root = (points[0][0] - dx, points[0][1] - dy)
    return [root[k] + shift(v)[k] for v in range(t.n_vertices()) for k in (0, 1)] + list(lengths)


@st.composite
def expansion_inputs(draw):
    """A small type with lengths and maybe an anchor point: all ints, or
    Fractions of mixed denominators, or a mix of both."""
    t = draw(small_types())
    number = draw(st.sampled_from((st.integers(-50, 50), RATIONALS, st.one_of(st.integers(-50, 50), RATIONALS))))
    lengths = draw(st.lists(number, min_size=len(t.edges), max_size=len(t.edges)))
    points = ()
    if t.legs and draw(st.booleans()):
        points = (draw(st.tuples(number, number)),)
    return t, points, lengths


@SETTINGS
@hypothesis.given(expansion_inputs())
def test_expand_lengths_matches_fraction_arithmetic(inputs):
    # positions are built on ints over one lcm and divided once; the walk's
    # velocities, the int positions of the cleared direction with the
    # first mark pinned at the origin, must have the reference's signs
    t, points, lengths = inputs
    coeffs = path_coefficients(t)
    expanded = expand_lengths(t, points, coeffs, lengths)
    assert expanded == _expand_reference(t, points, coeffs, lengths)
    assert all(type(x) is F for x in expanded[: 2 * t.n_vertices()])
    if t.legs:
        velocities = integer_positions(t, coeffs, clear_denominators(lengths)[1], (0, 0))
        reference = _expand_reference(t, ((0, 0),), coeffs, lengths)[: 2 * t.n_vertices()]
        assert all(type(x) is int for x in velocities)
        assert [(x > 0) - (x < 0) for x in velocities] == [(x > 0) - (x < 0) for x in reference]


@SETTINGS
@hypothesis.given(st.lists(st.tuples(RATIONALS, RATIONALS), min_size=1, max_size=6, unique=True))
def test_config_json_round_trip(points):
    cfg = PointConfiguration(tuple(points))
    assert all(isinstance(x, F) for p in cfg.points for x in p)
    assert config_from_json(json.loads(dumps(config_to_json(cfg)))) == cfg


@st.composite
def constant_families(draw):
    """Constant families of a fixture curve over a loop-free base: a random
    tree on at most four vertices plus up to one parallel edge, positive
    rational lengths and up to three legs."""
    n = draw(st.integers(1, 4))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if edges and draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))
    lengths = tuple(draw(RATIONALS.filter(lambda x: x > 0)) for _ in edges)
    weights = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    legs = tuple(draw(st.lists(st.integers(0, n - 1), max_size=3)))
    line = ParametrizedCurve(tropical_line(), (), ((F(0), F(0)),))
    curve = draw(st.sampled_from([line, smooth_cubic_curve()]))
    return constant_family(BaseCurve(TropicalGraph(weights, tuple(edges), lengths, legs)), curve)


@SETTINGS
@hypothesis.given(constant_families())
def test_family_json_round_trip(fam):
    text = dumps(family_to_json(fam))
    back = family_from_json(json.loads(text))
    assert dumps(family_to_json(back)) == text
    assert validate_family(back) == validate_family(fam)


def _reader_cases():
    """(argv, document): each CLI input a reader parses, as a valid JSON
    document and the argv that reads it, "{}" standing for its file."""
    line = tropical_line()
    marked = type_to_json(_attach_mark(_attach_mark(line, ("leg", 0)), ("leg", 2)))
    points = config_to_json(PointConfiguration(((3, 5), (-5, -1))))
    base = BaseCurve(TropicalGraph((0, 0), ((0, 1),), (F(1),), (0,)))
    family = family_to_json(constant_family(base, smooth_cubic_curve()))
    return [
        (("fiber", "--type", "{}", "--points", points), marked),
        (("fiber", "--type", marked, "--points", "{}"), points),
        (("classify-stratum", "--type", "{}"), marked),
        (("enumerate", "--d", "1", "--g", "0", "--points", "{}"), points),
        (("validate-family", "--family", "{}"), family),
        (("markings", "--d", "3", "--codim", "{}", [[1, 3]]), [[1, 2]]),
    ]


HOSTILE = ["1/0", [0], 10**30, True, None, {}, "x", -1, 0.5]


def _paths(doc, path=()):
    """The path of every entry below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def mutated_inputs(draw):
    """A reader case with one to three entries of its document deleted,
    renamed (a key), repeated (a list entry) or replaced by a hostile value."""
    argv, doc = draw(st.sampled_from(_reader_cases()))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *up, key = draw(st.sampled_from(paths))
        parent = doc
        for step in up:
            parent = parent[step]
        op = draw(st.sampled_from(["delete", "rename", "repeat", "replace"]))
        if op == "delete":
            del parent[key]
        elif op == "rename" and isinstance(parent, dict):
            parent[draw(st.sampled_from(["x", "", "1/0", key + key]))] = parent.pop(key)
        elif op == "repeat" and isinstance(parent, list):
            parent.insert(key, parent[key])
        else:
            parent[key] = draw(st.sampled_from(HOSTILE))
        doc = json.loads(json.dumps(doc))  # no entry shared with HOSTILE or another
    return argv, doc


@hypothesis.settings(max_examples=800, deadline=None, derandomize=True, database=None)
@hypothesis.given(mutated_inputs())
# points the floor method cannot use: refused after reading, naming the file
@hypothesis.example(
    case=(("enumerate", "--d", "1", "--g", "0", "--points", "{}"), {"points": [[10**30, "5"], ["-5", "-1"]]})
)
def test_mutated_cli_inputs_fail_cleanly(tmp_path_factory, case):
    # one reader contract: whatever a mutated document holds, the CLI
    # answers with a documented exit status, never a traceback, and a
    # refusal is one short line
    argv, doc = case
    folder = tmp_path_factory.getbasetemp() / "mutated-inputs"
    folder.mkdir(exist_ok=True)
    args = []
    for i, arg in enumerate(argv):
        if isinstance(arg, str) and arg != "{}":
            args.append(arg)
            continue
        path = folder / f"{i}.json"
        path.write_text(json.dumps(doc if arg == "{}" else arg))
        args.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    err = err.getvalue().replace(str(folder), "")
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 120, err
        # a reader's refusal names its document or its file; the refusals
        # made after reading name their operands instead
        after_reading = (
            "error: expected ",
            "error: type has ",
            "error: type is not balanced ",
            "error: markings must have the same cardinality",
        )
        assert re.match(r"error: ([a-z]+ JSON\b|/[0-9]+\.json: )", err) or err.startswith(after_reading), err
