"""Command-line entry points.

Exit status: 0 on success, 1 when a property suite or the gallery reports a
failure, 2 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import gridio
from .errors import GalleryMismatch, OffGrid, SymmkitError
from .experiments import run_convergence
from .geometry import OrientedHyperplane
from .rearrange import polarize, schwarz_symmetrize_function, steiner_symmetrize_function


def _parse_vector(text):
    parts = [float(p) for p in text.split(",")]
    if not 1 <= len(parts) <= 3:
        raise ValueError("normal must have 1, 2 or 3 components")
    return tuple(parts)


def _parse_seed(text):
    """A ``--seed`` value: numpy seeds only from a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _build_parser():
    parser = argparse.ArgumentParser(prog="symmkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polarize", help="two-point rearrangement of a GRD1 function")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--normal", required=True, help="unit normal, e.g. 0,1")
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--positive", choices=["+", "-"], default="+")

    p = sub.add_parser("steiner", help="per-column symmetric-decreasing rearrangement")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--axis", type=int, required=True, help="0-based axis index")

    p = sub.add_parser("schwarz", help="planar-fiber symmetrization of a 3D grid function")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--axis", type=int, required=True, help="0-based axis index")

    p = sub.add_parser("chordmap", help="contraction-driven chord movement")
    p.add_argument("--in", dest="inp", required=True, help=".grd indicator grid or .json polygon")
    p.add_argument("--out", required=True)
    p.add_argument("--contraction", required=True, help="contraction JSON file")
    p.add_argument("--axis", type=int, default=None, help="grid mode: 0-based column axis")
    p.add_argument("--normal", default=None, help="polygon mode: chord direction, e.g. 0,1")

    p = sub.add_parser("verify", help="run the property battery on the canonical maps")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=_parse_seed, default=7)
    p.add_argument("--report", default=None)

    p = sub.add_parser("converge", help="iterated two-point convergence experiment")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--axis", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--out", required=True, help="trace CSV path")
    p.add_argument("--final", default=None, help="optional GRD1 path for the last iterate")

    p = sub.add_parser("gallery", help="counterexample fixtures vs expected verdicts")
    p.add_argument("--report", default=None)
    p.add_argument("--seed", type=_parse_seed, default=7)
    p.add_argument("--trials", type=int, default=20)

    return parser


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_polarize(args):
    f = gridio.read_grid_function(args.inp)
    plane = OrientedHyperplane(_parse_vector(args.normal), args.offset, args.positive)
    plan = plane.reflection(f.grid)
    # an H- cell whose mirror leaves the grid would be filled from outside it, and f would lose mass
    if not plan.inside[~plan.hplus.ravel()].all():
        raise OffGrid("the mirror of some H- cell leaves the grid; polarize across a plane toward the grid's center")
    gridio.write_grid_function(args.out, polarize(f, plane))
    return 0


def _cmd_symmetrize(args):
    rule = steiner_symmetrize_function if args.command == "steiner" else schwarz_symmetrize_function
    f = gridio.read_grid_function(args.inp)
    gridio.write_grid_function(args.out, rule(f, args.axis))
    return 0


def _cmd_chordmap(args):
    from .chordmaps import chord_move_gridset, chord_move_polygon

    phi = gridio.read_contraction(args.contraction)
    if args.inp.endswith(".json"):
        if args.normal is None:
            raise ValueError("polygon mode needs --normal for the chord direction")
        poly = gridio.read_polygon(args.inp)
        region = chord_move_polygon(poly, phi, np.asarray(_parse_vector(args.normal)))
        gridio.write_region(args.out, region)
        return 0
    if args.axis is None:
        raise ValueError("grid mode needs --axis")
    a = gridio.read_grid_set(args.inp)
    gridio.write_grid_set(args.out, chord_move_gridset(a, phi, args.axis))
    return 0


def _cmd_verify(args):
    from .harness import run_verify

    report, all_hold = run_verify(trials=args.trials, seed=args.seed)
    if args.report:
        _write_json(args.report, report)
    print("verify: all properties hold" if all_hold else "verify: property failure detected")
    return 0 if all_hold else 1


def _cmd_converge(args):
    f = gridio.read_grid_function(args.inp)
    trace = run_convergence(f, args.axis, args.iters, args.seed)
    trace.to_csv(args.out)
    if args.final:
        gridio.write_grid_function(args.final, trace.final)
    print(f"converge: initial L1 {trace.initial_l1!r}, final L1 {trace.final_l1!r}")
    step = trace.target_step
    print("converge: target not reached" if step is None else f"converge: target reached at step {step}")
    return 0


def _cmd_gallery(args):
    from .harness import run_gallery

    try:
        summary = run_gallery(seed=args.seed, trials=args.trials)
        status = 0
    except GalleryMismatch as exc:
        summary = exc.summary
        status = 1
    if args.report:
        _write_json(args.report, summary)
    print("gallery: all verdict matrices match" if status == 0 else "gallery: mismatch")
    return status


_HANDLERS = {
    "polarize": _cmd_polarize,
    "steiner": _cmd_symmetrize,
    "schwarz": _cmd_symmetrize,
    "chordmap": _cmd_chordmap,
    "verify": _cmd_verify,
    "converge": _cmd_converge,
    "gallery": _cmd_gallery,
}


def cli_dispatch(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (SymmkitError, ValueError, OSError) as exc:
        print(f"symmkit: error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))
