"""A seeded fuzz of the exit-code contract: mutated graph texts, edge-id
files, suite JSONs and argv lists through ``cli.main``.

Every case runs in one child interpreter whose address space is capped with
``resource.setrlimit(RLIMIT_AS)``, so an input that makes the program grab
memory fails this test instead of exhausting the machine.  Each case must
exit 0, 1 or 2 with no exception escaping ``main``, and an exit of 2 or a
refusal must print exactly one ``error:`` or ``refused:`` line.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import contractlab as cl

SEED = 2901
CASES = 400
MUTANTS = 40
MEMORY_LIMIT = 512 * 2**20
HUGE = "99999999999999999999"

# Runs the argv lists read from stdin (JSON) through cli.main in this one
# process, and prints one [exit code or None, stderr, traceback] per case.
CHILD = """
import contextlib, io, json, resource, sys, traceback
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from contractlab import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    code, trace = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit):  # main must let neither escape
        trace = traceback.format_exc()
    results.append([code, err.getvalue(), trace])
json.dump(results, sys.__stdout__)
"""

GRAPHS = [
    cl.render_graph(cl.path_graph(3)),
    cl.render_graph(cl.cycle_graph(4)),
    cl.render_graph(cl.complete_bipartite(2, 2)),
    "graph 6 4\n0 1\n1 2\n3 4\n4 5\n",  # two 3-paths
    "graph 6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n",  # two triangles
    "graph 5 3\n0 1\n1 2\n2 3\n",  # a 4-path and a vertex without an edge
    "graph 5 5\n0 1 1/2\n1 2 3/2\n2 3 2/3\n3 4 1\n0 4 5/4\n",
    "bipartite 2 3 4\n0 0\n0 1\n1 1\n1 2\n",
    "graph 1 0\n",
    f"graph {HUGE} 1\n0 1\n",
    f"bipartite {HUGE} 1 0\n",
]
EDGE_IDS = ["0\n", "0\n2\n", "# a comment\n\n1\n", "0\n1\n2\n3\n", "\n"]
SUITES = [
    {"instances": [{"family": "path", "n": 4, "claims": ["path-lemma", "path-lemma-shortest"]}]},
    {"instances": [{"family": "complete-bipartite", "left": 1, "right": 2,
                    "claims": ["biclique-lemma", "thm6-soundness", "lemma2-lift"]}]},
    {"caps": {"max_edges": 6}, "instances": [{"family": "all-bipartite", "left": 1, "right": 2,
                                              "claims": ["thm6-completeness"]}]},
    {"instances": [{"family": "random-bipartite", "left": 2, "right": 2, "prob": "1/2",
                    "seed": 1, "claims": ["corollary-scaling"], "betas": ["1"], "trials": 2}]},
    {"instances": [{"family": "file", "path": "g0.txt", "claims": ["path-lemma"]}]},
]
TOKENS = [
    "0", "1", "2", "3", "-1", "1/2", "0/1", "1/0", "x", "1.5", "٣", "1_0", "+1",
    "", "#", "graph", "bipartite", HUGE,
]
VALUES = [-1, 0, 1, 2, 3, "2", "1/2", 2.5, True, None, [], {}, "x", HUGE]
# the flags each solve problem and reduce construction reads, and the share of
# those cases given one more flag that only another choice reads
READS = {
    "solve": {
        "cont": ("--beta", "--cap-edges"),
        "weakcont": ("--beta", "--cap-edges"),
        "meb": ("--cap-side",),
        "mbb": ("--cap-side",),
    },
    "reduce": {"gadget": ("--weight",), "tensor": ()},
}
UNREAD_SHARE = 0.1


def _mutate_text(rng: random.Random, text: str) -> str:
    lines = text.split("\n")
    roll = rng.randrange(6)
    if roll == 0:  # replace one token
        i = rng.randrange(len(lines))
        words = lines[i].split(" ")
        words[rng.randrange(len(words))] = rng.choice(TOKENS)
        lines[i] = " ".join(words)
    elif roll == 1:
        del lines[rng.randrange(len(lines))]
    elif roll == 2:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    elif roll == 3:
        lines[0] = lines[0].replace("graph", "bipartite 1") if "graph" in lines[0] else "graph 4 1"
    elif roll == 4:
        return text[: rng.randrange(len(text) + 1)]
    else:
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice(" \t#-/0 x") + text[i:]
    return "\n".join(lines)


def _mutate_suite(rng: random.Random, suite):
    suite = json.loads(json.dumps(suite))
    instance = suite["instances"][0]
    roll = rng.randrange(6)
    if roll == 0:
        instance[rng.choice(sorted(instance))] = rng.choice(VALUES)
    elif roll == 1:
        del instance[rng.choice(sorted(instance))]
    elif roll == 2:
        instance[rng.choice(["claims", "betas", "extra"])] = rng.choice(VALUES + [["x"], [1]])
    elif roll == 3:
        suite[rng.choice(["caps", "instances", "extra"])] = rng.choice(VALUES)
    elif roll == 4:
        suite["caps"] = {rng.choice(["max_edges", "max_path_edges", "max_edge"]): rng.choice(VALUES)}
    else:
        suite["instances"] = [rng.choice(VALUES)]
    return suite


def _argv(rng: random.Random, k: int) -> list[str]:
    """A seeded argv list over the files of ``_corpus``; half of the files
    named are unmutated, and so are most flag values."""
    def pick(name: str, unmutated: int, total: int) -> str:
        stem, suffix = name.split(".")
        return f"{stem}{rng.randrange(unmutated if rng.random() < 0.5 else total)}.{suffix}"

    graph = pick("g.txt", len(GRAPHS), len(GRAPHS) + MUTANTS)
    good = lambda valid, invalid: rng.choice(valid if rng.random() < 0.85 else invalid)
    rational = lambda: good(["1", "2", "3/2", "1/3"], ["0", "-1", "x", "1/0", "0.5"])
    cap = lambda: good(["4", "20"], ["0", "-1", HUGE])
    value = {"--beta": rational, "--cap-edges": cap, "--cap-side": cap, "--weight": rational}

    def flags(command: str, choice: str) -> list[str]:
        table = READS[command]
        names = list(table[choice])
        unread = sorted({name for read in table.values() for name in read} - set(names))
        if unread and rng.random() < UNREAD_SHARE:
            names.append(rng.choice(unread))
        return [word for name in names for word in (name, value[name]())]

    command = rng.choice(["verify", "solve", "solve", "reduce", "lab", "gen"])
    if command == "verify":
        argv = ["verify", graph, pick("c.txt", len(EDGE_IDS), len(EDGE_IDS) + MUTANTS)]
        argv += rng.choice([[], ["--weak"]]) + ["--alpha", rational(), "--beta", rational()]
        argv += ["--format", rng.choice(["text", "json", "csv"])]
    elif command == "solve":
        problem = rng.choice(["cont", "weakcont", "weakcont", "meb", "mbb"])
        argv = ["solve", graph, "--problem", problem]
        argv += flags("solve", problem)
        argv += ["--format", rng.choice(["text", "json", "csv"])]
    elif command == "reduce":
        construction = rng.choice(["gadget", "tensor"])
        argv = ["reduce", graph, "--construction", construction]
        argv += flags("reduce", construction) + ["--out", f"r{k}.txt"]
    elif command == "lab":
        argv = ["lab", "--suite", pick("s.json", len(SUITES), len(SUITES) + MUTANTS)]
        argv += ["--out", f"lab{k}"]
    else:
        family = rng.choice(["path", "cycle", "random-bipartite", "planted", "complete-bipartite"])
        size = lambda: good(["1", "2", "3"], ["0", "1_0", HUGE, "1000002"])
        argv = ["gen", "--family", family, "--out", f"gen{k}.txt"]
        argv += rng.choice([["--n", size()], ["--left", size(), "--right", size()]])
        argv += rng.choice([[], ["--seed", "3"], ["--plant-left", "1", "--plant-right", "2"]])
    roll = rng.randrange(8)
    if roll == 0:  # drop an argument
        del argv[rng.randrange(len(argv))]
    elif roll == 1:  # a flag no command takes, or a stray value
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["--bogus", "x", "--help"]))
    return argv


def _corpus(rng: random.Random, root: Path) -> None:
    """Write the graph texts (g*.txt), edge-id files (c*.txt) and suites
    (s*.json), each list followed by MUTANTS seeded mutations of it."""
    for stem, base, mutate, render in (
        ("g", GRAPHS, _mutate_text, str),
        ("c", EDGE_IDS, _mutate_text, str),
        ("s", SUITES, _mutate_suite, json.dumps),
    ):
        items = base + [mutate(rng, rng.choice(base)) for _ in range(MUTANTS)]
        suffix = "json" if stem == "s" else "txt"
        for i, item in enumerate(items):
            (root / f"{stem}{i}.{suffix}").write_text(render(item), encoding="utf-8")


def test_cli_exit_contract_under_fuzz(tmp_path):
    rng = random.Random(SEED)
    _corpus(rng, tmp_path)
    # the disconnected graphs under weakcont, then seeded random argv lists
    cases = [["solve", f"g{i}.txt", "--problem", "weakcont"] for i in (3, 4)]
    cases += [_argv(rng, k) for k in range(CASES)]

    src = Path(cl.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c", CHILD, str(MEMORY_LIMIT)],
        input=json.dumps(cases), capture_output=True, text=True, cwd=tmp_path,
        env={"PYTHONPATH": str(src), "PATH": ""}, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    results = json.loads(run.stdout)
    assert len(results) == len(cases)
    failure_line = re.compile(r"^(?:contractlab[\w -]*: )?(?:error|refused): ", re.M)
    for argv, (code, err, trace) in zip(cases, results):
        assert trace is None, (argv, trace)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code == 2 or err.startswith("refused: "):
            assert len(failure_line.findall(err)) == 1, (argv, err)
    codes = [code for code, _, _ in results]
    assert results[0][:2] == results[1][:2] == [
        1, "refused: contraction searches require a connected graph\n"
    ]
    assert {0, 1, 2} <= set(codes)
