"""Command line interface.

Machine output is JSON on stdout; human-readable logs go to stderr.
Identical inputs produce identical bytes.  Exit statuses: 1 when
`validate-family` returns a failed verdict, whose JSON is on stdout; 2
for usage errors (the usual argparse status) and for bad input, such as
an unreadable file or malformed JSON, or an output path that cannot be
written, refused before any work; 3 for scale refusals; 4 when the walk
fails one of its invariants (WalkError).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from tropcurves.errors import ScaleRefusal, WalkError


def _log(args, msg):
    if not getattr(args, "json", False):
        print(msg, file=sys.stderr)


def _emit(data):
    print(json.dumps(data, sort_keys=True, separators=(",", ":")))


def _check_writable(path):
    """Refuse an output path that cannot be written, before any work is
    done and without creating or truncating it; the file is opened only
    once its contents are ready."""
    if os.path.exists(path):
        ok = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        parent = os.path.dirname(path) or "."
        ok = os.path.isdir(parent) and os.access(parent, os.W_OK)
    if not ok:
        raise OSError(f"cannot write {path}")


def cmd_count(args):
    from tropcurves.floors import count_severi
    from tropcurves.recursion import irreducible_severi_degree

    result = {"d": args.d, "g": args.g, "count": count_severi(args.d, args.g)}
    if args.oracle:
        result["oracle"] = irreducible_severi_degree(args.d, args.g)
        result["agrees"] = result["count"] == result["oracle"]
    _log(args, f"count({args.d},{args.g}) = {result['count']}")
    _emit(result)
    return 0


def cmd_enumerate(args):
    from tropcurves.floors import StretchedConfig, enumerate_curves
    from tropcurves.serialize import config_from_json, curve_to_json

    if args.out:
        _check_writable(args.out)
    cfg = None  # the built-in stretched configuration
    if args.points:
        with open(args.points) as fh:
            cfg = StretchedConfig(config_from_json(json.load(fh)), stretch=0)
    sols = enumerate_curves(args.d, args.g, cfg)
    data = {
        "d": args.d,
        "g": args.g,
        "solutions": [
            {"diagram": diag.text(), "curve": curve_to_json(curve), "multiplicity": curve.multiplicity()}
            for diag, curve in sols
        ],
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        _log(args, f"wrote {len(sols)} curves to {args.out}")
    else:
        _emit(data)
    return 0


def cmd_fiber(args):
    from tropcurves.serialize import config_from_json, fiber_to_json, type_from_json
    from tropcurves.evaluation import fiber

    with open(args.type) as fh:
        t = type_from_json(json.load(fh))
    with open(args.points) as fh:
        cfg = config_from_json(json.load(fh))
    fb = fiber(t, cfg)
    _log(args, f"fiber: {fb.kind}, dimension {fb.dimension}")
    _emit(fiber_to_json(fb))
    return 0


def cmd_walk(args):
    from tropcurves.serialize import trace_to_json
    from tropcurves.walk import run_walk

    if args.trace:
        _check_writable(args.trace)
    trace = run_walk(args.d, args.g, seed=args.seed)
    data = trace_to_json(trace)
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        _log(args, f"walk({args.d},{args.g}): {trace.crossings} crossings, trace in {args.trace}")
    else:
        _emit(data)
    return 0


def _read_nodes(path):
    """The nodes of a marking file: a JSON list of [i, j] line-index pairs."""
    from tropcurves.serialize import int_pair

    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: a marking is a JSON list of [i, j] pairs")
    return frozenset(int_pair(p, f"{path}: node") for p in data)


def cmd_markings(args):
    from tropcurves.arrangements import (
        MarkingSet,
        branch_codim,
        empty_criterion,
        equivalence_classes,
        is_irreducible,
        marking_avoiding_line,
    )

    if args.codim:
        from tropcurves.arrangements import Arrangement

        arr = Arrangement(args.d)
        m1, m2 = (MarkingSet(arr, _read_nodes(path)) for path in args.codim)
        _emit({"codim": branch_codim(m1, m2)})
        return 0
    if args.witness:
        w = marking_avoiding_line(args.d, args.delta)
        data = {
            "empty": empty_criterion(args.d, args.delta),
            "witness": sorted(list(p) for p in w.nodes) if w else None,
        }
        _emit(data)
        return 0
    classes = equivalence_classes(args.d, args.delta)
    data = {
        "d": args.d,
        "delta": args.delta,
        "classes": [
            {
                "size": len(cl),
                "irreducible": is_irreducible(cl[0]),
                "representative": sorted(list(p) for p in cl[0].nodes),
            }
            for cl in classes
        ],
        "irreducible_classes": sum(1 for cl in classes if is_irreducible(cl[0])),
    }
    _log(args, f"{len(classes)} classes, {data['irreducible_classes']} irreducible")
    _emit(data)
    return 0


def cmd_validate_family(args):
    from tropcurves.families import validate_family
    from tropcurves.serialize import family_from_json

    with open(args.family) as fh:
        fam = family_from_json(json.load(fh))
    verdict = validate_family(fam)
    _emit({"ok": verdict.ok, "violation": verdict.violation, "detail": verdict.detail})
    return 0 if verdict.ok else 1


def cmd_classify_stratum(args):
    from tropcurves.cones import cone_of
    from tropcurves.serialize import cone_to_json, type_from_json

    with open(args.type) as fh:
        t = type_from_json(json.load(fh))
    cone = cone_of(t)
    _emit(cone_to_json(cone))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="tropcurves", description=__doc__)
    p.add_argument("--json", action="store_true", help="suppress stderr logs")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="Severi degree via floor diagrams")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--g", type=int, required=True)
    c.add_argument("--oracle", action="store_true", help="also run the recursion oracle")
    c.set_defaults(func=cmd_count)

    e = sub.add_parser("enumerate", help="all solutions through a stretched configuration")
    e.add_argument("--d", type=int, required=True)
    e.add_argument("--g", type=int, required=True)
    e.add_argument("--points", help="JSON point configuration (default: built-in stretched)")
    e.add_argument("--out", help="output file (default: stdout)")
    e.set_defaults(func=cmd_enumerate)

    f = sub.add_parser("fiber", help="evaluation fiber of a type over points")
    f.add_argument("--type", required=True)
    f.add_argument("--points", required=True)
    f.set_defaults(func=cmd_fiber)

    w = sub.add_parser("walk", help="run the elevator-moving walk")
    w.add_argument("--d", type=int, required=True)
    w.add_argument("--g", type=int, required=True)
    w.add_argument("--seed", type=int, default=0, help="starting-solution selector")
    w.add_argument("--trace", help="write the trace JSON here")
    w.set_defaults(func=cmd_walk)

    m = sub.add_parser("markings", help="marking classes on a line arrangement")
    m.add_argument("--d", type=int, required=True)
    m.add_argument("--delta", type=int, default=0)
    m.add_argument("--classes", action="store_true", help="list equivalence classes (default)")
    m.add_argument("--witness", action="store_true", help="emptiness criterion plus witness")
    m.add_argument("--codim", nargs=2, metavar=("M1", "M2"), help="codimension of two markings")
    m.set_defaults(func=cmd_markings)

    v = sub.add_parser("validate-family", help="check a family JSON")
    v.add_argument("--family", required=True)
    v.set_defaults(func=cmd_validate_family)

    s = sub.add_parser("classify-stratum", help="moduli cone of a type JSON")
    s.add_argument("--type", required=True)
    s.set_defaults(func=cmd_classify_stratum)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScaleRefusal as exc:
        print(f"scale refusal: {exc}", file=sys.stderr)
        return 3
    except WalkError as exc:
        print(f"walk error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
