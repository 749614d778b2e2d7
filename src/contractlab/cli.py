"""Command-line front end: verify, solve, reduce, lab, gen.

Exit codes everywhere: 0 success / valid, 1 negative verdict or refusal
(invalid contraction, golden regression, cap exceeded, disconnected input
where connectivity is required), 2 usage or parse errors and every failed read
or write, of a named file or of stdout: exit 1 is only ever a verdict or a
refusal.  All comparable output is deterministic for fixed flags and seed;
wall-clock timings never appear outside the lab reports' ``elapsed_ms`` field.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from .graphs import (
    BipartiteGraph,
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    _COUNT_RE,
    _INTEGER_RE,
    complete_bipartite,
    cycle_graph,
    generate_planted_biclique,
    generate_random_bipartite,
    parse_graph,
    parse_rational,
    path_graph,
    render_graph,
    require_connected,
)
from .contraction import Tolerance, violation_witness
from .solvers import (
    CapExceededError,
    DEFAULT_EDGE_CAP,
    DEFAULT_SIDE_CAP,
    max_contraction_exact,
    max_edge_biclique_exact,
    max_balanced_biclique_exact,
    max_weak_contraction_exact,
)
from .reductions import build_gadget, build_tensor_square
from . import lab as lablib


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# Integer flags take ASCII decimal, as graph text does: int() alone would
# also read "1_0" as 10, "+3" as 3 and non-ASCII digits such as "٣".
def _integer(text: str) -> int:
    if not _INTEGER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not _COUNT_RE.fullmatch(text) or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contractlab",
        description="Distance-preserving contraction toolkit: verifiers, exact "
        "solvers, reductions, and the claim-checking lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check a contraction set against a tolerance")
    p_verify.add_argument("graph", help="graph file")
    p_verify.add_argument("contraction", help="file of edge ids, one per line")
    p_verify.add_argument("--alpha", type=_rational, default=Fraction(1))
    p_verify.add_argument("--beta", type=_rational, default=Fraction(1))
    p_verify.add_argument("--weak", action="store_true", help="use weak-mode validity")
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--out", help="write the report here instead of stdout")
    p_verify.set_defaults(func=cmd_verify)

    p_solve = sub.add_parser("solve", help="run an exact solver")
    p_solve.add_argument("graph", help="graph file")
    p_solve.add_argument(
        "--problem", required=True, choices=("cont", "weakcont", "meb", "mbb")
    )
    p_solve.add_argument("--alpha", type=_rational, default=Fraction(1))
    p_solve.add_argument("--beta", type=_rational, default=Fraction(1))
    p_solve.add_argument("--cap-edges", type=_positive_int, default=DEFAULT_EDGE_CAP)
    p_solve.add_argument("--cap-side", type=_positive_int, default=DEFAULT_SIDE_CAP)
    p_solve.add_argument("--threads", type=_positive_int, default=1, help="accepted and ignored")
    p_solve.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_solve.add_argument("--out")
    p_solve.set_defaults(func=cmd_solve)

    p_reduce = sub.add_parser("reduce", help="build the gadget or tensor square")
    p_reduce.add_argument("graph", help="bipartite graph file")
    p_reduce.add_argument("--construction", required=True, choices=("gadget", "tensor"))
    p_reduce.add_argument("--weight", type=_rational, default=Fraction(1))
    p_reduce.add_argument("--out", required=True, help="output graph file")
    p_reduce.set_defaults(func=cmd_reduce)

    p_lab = sub.add_parser("lab", help="run the claim-checking suite")
    p_lab.add_argument("--suite", help="suite config JSON (default: built-in suite)")
    p_lab.add_argument("--out", default="lab-out", help="directory for reports")
    p_lab.add_argument("--goldens", help="golden verdict directory (default: OUT/goldens)")
    p_lab.add_argument("--threads", type=_positive_int, default=1, help="accepted and ignored")
    p_lab.add_argument("--cap-edges", type=_positive_int, help="override caps.max_edges")
    p_lab.add_argument(
        "--cap-path-len", type=_positive_int,
        help="cap on simple-path length (edges); overrides caps.max_path_edges",
    )
    p_lab.set_defaults(func=cmd_lab)

    p_gen = sub.add_parser("gen", help="generate an instance")
    p_gen.add_argument("--family", required=True, choices=_GEN_FAMILIES)
    p_gen.add_argument("--left", type=_positive_int)
    p_gen.add_argument("--right", type=_positive_int)
    p_gen.add_argument("--n", type=_positive_int)
    # no defaults here: a flag left as None was not given (see _GEN_FAMILIES)
    p_gen.add_argument("--prob", type=_rational)
    p_gen.add_argument("--plant-left", type=_integer)
    p_gen.add_argument("--plant-right", type=_integer)
    p_gen.add_argument("--noise", type=_rational)
    p_gen.add_argument("--seed", type=_integer)
    p_gen.add_argument("--out")
    p_gen.add_argument("--plant-out", help="write the planted witness JSON here")
    p_gen.set_defaults(func=cmd_gen)

    return parser


# ----------------------------------------------------------------------------
# Output helpers.
# ----------------------------------------------------------------------------


def _flatten(payload: dict, prefix: str = "") -> list[tuple[str, str]]:
    rows = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, name + "."))
        else:
            rows.append((name, json.dumps(value) if isinstance(value, list) else str(value)))
    return rows


def _write(out: str | Path | None, text: str) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is empty.
    A plain write, not a rename: ``out`` may be a symlink, FIFO or /dev/stdout."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        # the stream keeps what it could not write and would retry it at exit,
        # with a second message and exit status 120: drop the stream
        sys.stdout = None
        raise


def _emit(payload: dict, human: str, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = lablib.json_text(payload)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        writer.writerows(_flatten(payload))
        text = buf.getvalue()
    else:
        text = human + "\n"
    _write(out, text)


def _load_graph(path: str) -> Graph | BipartiteGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _load_edge_ids(path: str) -> list[int]:
    ids = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not _INTEGER_RE.fullmatch(line):
            raise GraphFormatError("malformed-edge-id", f"expected an edge id, got {line!r}", lineno)
        ids.append(int(line))
    return ids


# ----------------------------------------------------------------------------
# Subcommands.
# ----------------------------------------------------------------------------


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    if isinstance(g, BipartiteGraph):
        g = g.to_graph()
    ids = _load_edge_ids(args.contraction)
    tolerance = Tolerance(args.alpha, args.beta)
    witness = violation_witness(g, ids, tolerance, weak=args.weak)
    payload = {
        "mode": "weak" if args.weak else "strong",
        "alpha": str(tolerance.alpha),
        "beta": str(tolerance.beta),
        "contraction": sorted(set(ids)),
        "valid": witness is None,
    }
    if witness is None:
        human = "valid"
    else:
        payload["witness"] = witness.to_json_dict()
        if witness.kind == "not-proper-subset":
            human = "invalid: contraction set must be a proper subset of the edges"
        else:
            human = (
                f"invalid: pair ({witness.u}, {witness.v}) has distance "
                f"{witness.distance} but contracted distance {witness.contracted_distance}"
            )
    _emit(payload, human, args.format, args.out)
    return 0 if witness is None else 1


def _split_for_solving(g: Graph) -> list[tuple[Graph, list[int]]]:
    """Connected pieces of g that carry an edge, with their edge-id maps back to g.

    The edges' endpoints, then each component's vertices, are renumbered in
    ascending order, which preserves the canonical edge order, so subgraph
    edge id i maps to edge_map[i].  No vertex without an edge is visited.
    """
    core, _ = _renumbered(g, sorted({x for u, v, _ in g.edges for x in (u, v)}))
    return [_renumbered(core, comp) for comp in core.components]


def _renumbered(g: Graph, kept: list[int]) -> tuple[Graph, list[int]]:
    """The subgraph of g on the ascending vertex list ``kept``, with vertex
    kept[i] as i, and the ids in g of its edges."""
    index = {v: i for i, v in enumerate(kept)}
    ids = [eid for eid, (u, _, _) in enumerate(g.edges) if u in index]
    edges = tuple((index[u], index[v], w) for u, v, w in map(g.edges.__getitem__, ids))
    return Graph(len(kept), edges), ids


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    problem = args.problem
    if problem in ("meb", "mbb"):
        if not isinstance(g, BipartiteGraph):
            raise ValueError(f"problem {problem} needs a bipartite instance")
        solver = max_edge_biclique_exact if problem == "meb" else max_balanced_biclique_exact
        result = solver(g, args.cap_side)
        payload = {
            "problem": problem,
            "objective": result.objective,
            "witness": result.witness.to_json_dict(),
            "explored": result.explored,
        }
        human = (
            f"objective {result.objective}\n"
            f"left {list(result.witness.left)}\nright {list(result.witness.right)}"
        )
        _emit(payload, human, args.format, args.out)
        return 0

    if isinstance(g, BipartiteGraph):
        g = g.to_graph()
    if problem == "weakcont" and g.edge_count == 0:
        raise ValueError(
            "weak contraction needs at least one edge: no proper subset exists"
        )
    tolerance = Tolerance(args.alpha, args.beta)
    solver = max_contraction_exact if problem == "cont" else max_weak_contraction_exact
    pieces = _split_for_solving(g)

    solved = []
    for sub, emap in pieces:
        res = solver(sub, tolerance, args.cap_edges)
        solved.append((res, [emap[e] for e in res.witness]))

    witness = sorted(eid for _, mapped in solved for eid in mapped)
    objective = sum(res.objective for res, _ in solved)
    payload = {
        "problem": problem,
        "alpha": str(tolerance.alpha),
        "beta": str(tolerance.beta),
        "objective": objective,
        "witness": witness,
        "explored": sum(res.explored for res, _ in solved),
    }
    if len(pieces) > 1:
        payload["components"] = [
            {"objective": res.objective, "witness": mapped} for res, mapped in solved
        ]
    human = f"objective {objective}\nwitness {witness}"
    _emit(payload, human, args.format, args.out)
    return 0


def cmd_reduce(args) -> int:
    g = _load_graph(args.graph)
    if not isinstance(g, BipartiteGraph):
        raise ValueError("reduce needs a bipartite instance")
    require_connected(g.to_graph(), "reduce requires a connected instance")
    out_path = Path(args.out)
    sidecar = out_path.with_name(out_path.name + ".provenance.json")
    # the graph is written first, and a missing directory or a directory at
    # --out fails that write; a directory at the sidecar is refused before it
    if sidecar.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(sidecar))
    if args.construction == "gadget":
        gadget = build_gadget(g, args.weight)
        text = render_graph(gadget.combined)
        nv = gadget.left_count
        roles = [None] * gadget.combined.vertex_count
        for v, pendant in enumerate(gadget.pendant_map):
            side, source = ("left", v) if v < nv else ("right", v - nv)
            roles[v] = {"index": v, "role": f"core-{side}", "source": source}
            roles[pendant] = {"index": pendant, "role": f"pendant-{side}", "source": source}
        provenance = {
            "construction": "gadget",
            "weight": str(gadget.weight),
            "vertices": roles,
            "edge_kinds": list(gadget.edge_kind),
        }
    else:
        tensor = build_tensor_square(g)
        text = render_graph(tensor.graph)
        provenance = {
            "construction": "tensor-square",
            "left_pairs": [list(p) for p in tensor.left_pairs],
            "right_pairs": [list(p) for p in tensor.right_pairs],
        }
    _write(out_path, text)
    _write(sidecar, lablib.json_text(provenance))
    _write(None, f"wrote {out_path} and {sidecar}\n")
    return 0


def cmd_lab(args) -> int:
    if args.suite:
        config = json.loads(Path(args.suite).read_text(encoding="utf-8"))
        lablib.validate_suite(config)
    else:
        config = lablib.default_suite_config()
    if args.cap_edges or args.cap_path_len:
        caps = dict(config.get("caps", {}))
        if args.cap_edges:
            caps["max_edges"] = args.cap_edges
        if args.cap_path_len:
            caps["max_path_edges"] = args.cap_path_len
        config = dict(config, caps=caps)
    reports = lablib.run_suite(config, threads=args.threads)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payloads = [rep.to_json_dict() for rep in reports]
    lablib.write_atomic(out_dir / "reports.json", lablib.json_text(payloads))
    summary = io.StringIO()
    writer = csv.DictWriter(summary, fieldnames=lablib.SUMMARY_COLUMNS)
    writer.writeheader()
    writer.writerows(lablib.summarize(reports))
    lablib.write_atomic(out_dir / "summary.csv", summary.getvalue())

    goldens = Path(args.goldens) if args.goldens else out_dir / "goldens"
    pinned, regressions, unreadable = lablib.compare_goldens(reports, goldens)

    counts = Counter(rep.verdict for rep in reports)
    text = (
        f"{len(reports)} reports: {counts['holds']} holds, "
        f"{counts['counterexample']} counterexamples, {counts['vacuous']} vacuous, "
        f"{counts['error']} errors\n"
    )
    if pinned:
        text += f"pinned {pinned} new golden verdicts in {goldens}\n"
    _write(None, text)
    for claim in unreadable:
        sys.stderr.write(f"unreadable golden file for claim {claim}\n")
    for line in regressions:
        sys.stderr.write(f"regression: {line}\n")
    return 1 if regressions or unreadable else 0


# gen's families, in --family's order: the size flags each needs, the other
# flags it reads with their defaults, and a builder of (graph, planted witness
# or None).  Every other flag in _GEN_FLAGS is refused if given, --plant-out
# too: only the planted family has a witness to write.
_GEN_FAMILIES = {
    "random-bipartite": (
        ("left", "right"),
        {"prob": Fraction(1, 2), "seed": 0},
        lambda a: (generate_random_bipartite(a.left, a.right, a.prob, a.seed), None),
    ),
    "planted": (
        ("left", "right"),
        {"plant_left": 0, "plant_right": 0, "noise": Fraction(0), "seed": 0, "plant_out": None},
        lambda a: generate_planted_biclique(
            a.left, a.right, a.plant_left, a.plant_right, a.noise, a.seed
        ),
    ),
    "path": (("n",), {}, lambda a: (path_graph(a.n), None)),
    "cycle": (("n",), {}, lambda a: (cycle_graph(a.n), None)),
    "complete-bipartite": (
        ("left", "right"), {}, lambda a: (complete_bipartite(a.left, a.right), None)
    ),
}
_GEN_FLAGS = (
    "left", "right", "n", "prob", "plant_left", "plant_right", "noise", "seed", "plant_out"
)


def cmd_gen(args) -> int:
    sizes, optional, build = _GEN_FAMILIES[args.family]
    for name in sizes:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required for family {args.family}")
    for name in _GEN_FLAGS:
        if name not in sizes and name not in optional and getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} is not read by family {args.family}")
    for name, default in optional.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    g, plant = build(args)
    _write(args.out, render_graph(g))
    if args.plant_out:
        _write(args.plant_out, lablib.json_text(plant.to_json_dict()))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    shown = io.StringIO()
    try:
        try:
            with contextlib.redirect_stdout(shown):
                args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse prints help itself and ignores a failed write: its text
            # goes out through the one writer instead
            _write(None, shown.getvalue())
            return int(exc.code or 0)
        return args.func(args)
    except (CapExceededError, DisconnectedGraphError) as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 1
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
