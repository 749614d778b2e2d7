"""Command-line front end: verify, solve, reduce, lab, gen.

Exit codes everywhere: 0 success / valid, 1 negative verdict or refusal
(invalid contraction, golden regression, cap exceeded, disconnected input
where connectivity is required), 2 usage, parse or file errors.  All comparable
output is deterministic for fixed flags and seed; wall-clock timings never
appear outside the lab reports' ``elapsed_ms`` field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .graphs import (
    BipartiteGraph,
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    complete_bipartite,
    connected_components,
    cycle_graph,
    generate_planted_biclique,
    generate_random_bipartite,
    is_connected,
    parse_graph,
    parse_rational,
    path_graph,
    render_graph,
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


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
    p_gen.add_argument(
        "--family",
        required=True,
        choices=("random-bipartite", "planted", "path", "cycle", "complete-bipartite"),
    )
    p_gen.add_argument("--left", type=_positive_int)
    p_gen.add_argument("--right", type=_positive_int)
    p_gen.add_argument("--n", type=_positive_int)
    p_gen.add_argument("--prob", type=_rational, default=Fraction(1, 2))
    p_gen.add_argument("--plant-left", type=int, default=0)
    p_gen.add_argument("--plant-right", type=int, default=0)
    p_gen.add_argument("--noise", type=_rational, default=Fraction(0))
    p_gen.add_argument("--seed", type=int, default=0)
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


def _emit(payload: dict, human: str, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        writer.writerows(_flatten(payload))
        text = buf.getvalue()
    else:
        text = human if human.endswith("\n") else human + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_graph(path: str) -> Graph | BipartiteGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _load_edge_ids(path: str) -> list[int]:
    ids = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            ids.append(int(line))
        except ValueError:
            raise GraphFormatError(
                "malformed-edge-id", f"expected an edge id, got {line!r}", lineno
            ) from None
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
    """Connected pieces of g with their edge-id maps back to g.

    Component vertices are renumbered in ascending order, which preserves the
    canonical edge order, so subgraph edge id i maps to edge_map[i].
    """
    comps = connected_components(g)
    if len(comps) <= 1:
        return [(g, list(range(g.edge_count)))]
    out = []
    for comp in comps:
        index = {v: i for i, v in enumerate(comp)}
        members = set(comp)
        edge_map = [eid for eid, (u, _, _) in enumerate(g.edges) if u in members]
        sub = Graph(
            len(comp),
            tuple(
                (index[u], index[v], w)
                for u, v, w in g.edges
                if u in members
            ),
        )
        out.append((sub, edge_map))
    return out


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
            "witness": {
                "left": list(result.witness.left),
                "right": list(result.witness.right),
            },
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
    pieces = [
        (sub, emap) for sub, emap in _split_for_solving(g) if sub.edge_count > 0
    ]

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
    if not is_connected(g.to_graph()):
        raise DisconnectedGraphError("reduce requires a connected instance")
    out_path = Path(args.out)
    if args.construction == "gadget":
        gadget = build_gadget(g, args.weight)
        text = render_graph(gadget.combined)
        nv, nu = gadget.left_count, gadget.right_count
        roles = []
        for v in range(gadget.combined.vertex_count):
            if v < nv:
                roles.append({"index": v, "role": "core-left", "source": v})
            elif v < nv + nu:
                roles.append({"index": v, "role": "core-right", "source": v - nv})
            elif v < 2 * nv + nu:
                roles.append({"index": v, "role": "pendant-left", "source": v - nv - nu})
            else:
                roles.append({"index": v, "role": "pendant-right", "source": v - 2 * nv - nu})
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
    out_path.write_text(text, encoding="utf-8")
    sidecar = out_path.with_name(out_path.name + ".provenance.json")
    sidecar.write_text(
        json.dumps(provenance, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    sys.stdout.write(f"wrote {out_path} and {sidecar}\n")
    return 0


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step: write a temporary file in
    the same directory, then ``os.replace`` it into place.  A write that fails
    leaves the old file's bytes and removes the temporary file.  The file is
    created as ``open`` creates it, so it gets the usual permissions."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    _write_atomic(out_dir / "reports.json", json.dumps(payloads, sort_keys=True, indent=2) + "\n")
    summary = io.StringIO()
    writer = csv.DictWriter(
        summary,
        fieldnames=["claim", "family", "holds", "counterexample", "vacuous", "error", "total"],
    )
    writer.writeheader()
    writer.writerows(lablib.summarize(reports))
    _write_atomic(out_dir / "summary.csv", summary.getvalue())

    goldens = Path(args.goldens) if args.goldens else out_dir / "goldens"
    goldens.mkdir(parents=True, exist_ok=True)
    regressions: list[str] = []
    unreadable: list[str] = []
    pinned = 0
    by_claim: dict[str, list] = {}
    for rep in reports:
        by_claim.setdefault(rep.claim, []).append(rep)
    for claim, claim_reports in by_claim.items():
        golden_path = goldens / f"{claim}.json"
        recorded: dict[str, str] = {}
        if golden_path.exists():
            try:
                recorded = json.loads(golden_path.read_text(encoding="utf-8"))
                if not isinstance(recorded, dict):
                    raise ValueError("golden file must hold an object")
            except ValueError:
                unreadable.append(claim)
                continue
        changed = False
        for rep in claim_reports:
            key = lablib.instance_key(rep.instance)
            if key not in recorded:
                recorded[key] = rep.verdict
                pinned += 1
                changed = True
            elif recorded[key] != rep.verdict:
                regressions.append(
                    f"{claim}: {key} recorded {recorded[key]!r}, got {rep.verdict!r}"
                )
        if changed and claim not in unreadable:
            _write_atomic(golden_path, json.dumps(recorded, sort_keys=True, indent=2) + "\n")

    counts = {"holds": 0, "counterexample": 0, "vacuous": 0, "error": 0}
    for rep in reports:
        counts[rep.verdict] += 1
    sys.stdout.write(
        f"{len(reports)} reports: {counts['holds']} holds, "
        f"{counts['counterexample']} counterexamples, {counts['vacuous']} vacuous, "
        f"{counts['error']} errors\n"
    )
    if pinned:
        sys.stdout.write(f"pinned {pinned} new golden verdicts in {goldens}\n")
    for claim in unreadable:
        sys.stderr.write(f"unreadable golden file for claim {claim}\n")
    for line in regressions:
        sys.stderr.write(f"regression: {line}\n")
    return 1 if regressions or unreadable else 0


def cmd_gen(args) -> int:
    def need(name):
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            raise ValueError(f"--{name} is required for family {args.family}")
        return value

    plant_payload = None
    if args.family == "random-bipartite":
        g = generate_random_bipartite(need("left"), need("right"), args.prob, args.seed)
    elif args.family == "planted":
        g, plant = generate_planted_biclique(
            need("left"),
            need("right"),
            args.plant_left,
            args.plant_right,
            args.noise,
            args.seed,
        )
        plant_payload = {"left": list(plant.left), "right": list(plant.right)}
    elif args.family == "path":
        g = path_graph(need("n"))
    elif args.family == "cycle":
        g = cycle_graph(need("n"))
    else:
        g = complete_bipartite(need("left"), need("right"))

    text = render_graph(g)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if plant_payload is not None and args.plant_out:
        Path(args.plant_out).write_text(
            json.dumps(plant_payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CapExceededError, DisconnectedGraphError) as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 1
    # a path the user named that cannot be used; other OSErrors, such as a
    # failed write, keep their traceback
    except (
        FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError, ValueError
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
