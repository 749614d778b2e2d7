"""Checks beyond tier-1: ``PYTHONPATH=src python -m pytest -q tests/ci_checks.py``.

The name is outside pytest's ``test_*.py`` pattern, so tier-1 never collects
this file.  CLI and API checks run ``python -m contractlab.cli`` in a fresh
directory with this environment, ``PYTHONPATH`` made absolute: with it unset
(CI, after ``pip install .``) that is the installed wheel, with ``src`` the
source tree.  The tree walks and the bench smoke run the checkout's ``src/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import re
import resource
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

import contractlab as cl
from contractlab import solvers

from builders import random_connected_graph, report_digests
from test_solvers import _reference_walk

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ)
if ENV.get("PYTHONPATH"):
    ENV["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, ENV["PYTHONPATH"].split(os.pathsep)))
LIMIT = 1000000 * 1024  # ulimit -v 1000000: a regression fails here instead of exhausting the machine


def run(args, cwd, stdout=subprocess.PIPE, limit=None):
    """``python *args`` in ``cwd``; ``limit`` caps the child's address space."""
    cap = None if limit is None else lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=ENV, stdout=stdout,
        stderr=subprocess.PIPE, text=True, preexec_fn=cap, timeout=600,
    )


def cli(argv, cwd, **kw):
    return run(["-m", "contractlab.cli", *argv.split()], cwd, **kw)


def suite(*instances, **top):
    return json.dumps({**top, "instances": list(instances)})


def cor(trials):
    return suite({"family": "random-bipartite", "left": 3, "right": 3, "prob": "1/3", "seed": 2,
                  "claims": ["corollary-scaling"], "betas": ["3"], "trials": trials})


# The files every CLI case starts from, and the gen calls that add to them.
FILES = {
    # a triangle with a pendant edge; two 3-paths
    "tail.txt": "graph 4 4\n0 1\n0 2\n1 2\n2 3\n",
    "two.txt": "graph 6 4\n0 1\n1 2\n3 4\n4 5\n",
    # a suite over the file, complete-bipartite and random-bipartite families
    "suite.json": suite(
        {"family": "file", "path": "k23.txt",
         "claims": ["biclique-lemma", "thm6-soundness", "thm6-completeness", "lemma2-lift"]},
        {"family": "complete-bipartite", "left": 2, "right": 2,
         "claims": ["path-lemma", "path-lemma-shortest"]},
        {"family": "random-bipartite", "left": 3, "right": 3, "prob": "1/2", "seed": 2,
         "claims": ["corollary-scaling"], "betas": ["3"], "trials": 10},
    ),
    "cor0.json": cor(0),
    "cor5.json": cor(5),
    "typo.json": '{"caps": {"max_edge": 3}, "instances": []}',
    "top.json": '{"instance": []}',
    "c02.txt": "0\n2\n",
    "c0.txt": "0\n",
    # rational weights (scale 12)
    "r5.txt": "graph 5 5\n0 1 1/2\n1 2 3/2\n2 3 2/3\n3 4 1\n0 4 5/4\n",
    "c4.txt": "4\n",
    # mixed rational weights (Dijkstra) and uniform weights 3 (levels step by 3)
    "r7.txt": "graph 7 9\n0 1 1/2\n0 6 3/4\n1 2 2\n1 5 5/3\n2 3 1/2\n3 4 3/4\n3 6 2\n4 5 1\n5 6 1/3\n",
    "c147.txt": "1\n4\n7\n",
    "h6.txt": "graph 6 7\n0 1 3\n1 2 3\n2 3 3\n3 4 3\n4 5 3\n0 5 3\n0 3 3\n",
    "c14.txt": "1\n4\n",
    "dup.txt": "graph 3 2\n0 1\n1 0\n",
    "us.txt": "graph 1_0 1\n0 1\n",
    "huge-b.txt": "bipartite 99999999999999999999 1 0\n",
    "huge-g.txt": "graph 99999999999999999999 0\n",
}
GENS = [
    "gen --family path --n 4 --out p.txt",
    "gen --family cycle --n 9 --out c9.txt",
    "gen --family path --n 9 --out p9.txt",
    "gen --family complete-bipartite --left 3 --right 4 --out k34.txt",
    "gen --family planted --left 10 --right 10 --plant-left 3 --plant-right 6 --noise 1/3 --seed 5"
    " --out pl.txt",
    "gen --family complete-bipartite --left 2 --right 3 --out k23.txt",
    "gen --family cycle --n 6 --out c6.txt",
]


class Case(NamedTuple):
    """One CLI call, run ``runs`` times, each run checked: its exit code,
    lines stdout must hold (None: stdout must be empty), a regex all of
    stderr must match (None: not read), files that must not exist after it,
    and a (file, text) the file must contain.  ``full`` sends stdout to
    /dev/full, ``limit`` caps the address space at ``LIMIT``."""
    argv: str
    code: int = 0
    out: tuple[str, ...] | None = ()
    err: str | None = None
    absent: tuple[str, ...] = ()
    has: tuple[str, str] | None = None
    runs: int = 1
    full: bool = False
    limit: bool = False


ENOSPC = r"error: \[Errno 28\] No space left on device\n"
CASES = [
    Case("solve p.txt --problem weakcont"),
    # a strong search that merges blocks; a weak solve on a cycle takes the
    # closed form (m - 1 edges), and so does the triangle with a pendant edge,
    # whose bridge (edge 3) is tested and rejected before edge 2 is dropped
    Case("solve c9.txt --problem cont --beta 2", out=("objective 4",)),
    Case("solve c9.txt --problem weakcont", out=("objective 8",)),
    Case("solve tail.txt --problem weakcont --alpha 1 --beta 0",
         out=("objective 3", "witness [0, 1, 3]")),
    # a weak search on a tree: the capped last-child pass and the str partition labels
    Case("solve p9.txt --problem weakcont --beta 2", out=("objective 2", "witness [0, 1]")),
    # a weak set is one proper subset of all the edges, so weakcont refuses
    # edges spanning two components, while cont solves each component alone
    Case("solve two.txt --problem weakcont", 1, None, r"refused: .*\n"),
    Case("solve two.txt --problem cont", out=("objective 2", "witness [0, 2]")),
    # tied optima: the suffix bounds and the final walk must return the
    # lexicographically smallest witness
    Case("solve k34.txt --problem cont --beta 1", out=("objective 3", "witness [0, 5, 10]")),
    # both biclique maximizers, which share one walk
    Case("solve pl.txt --problem meb",
         out=("objective 18", "left [4, 5, 9]", "right [0, 1, 6, 7, 8, 9]")),
    Case("solve pl.txt --problem mbb", out=("objective 4", "left [0, 4, 5, 9]", "right [0, 1, 7, 9]")),
    # the first lab run pins goldens, the second must match them
    Case("lab --out lab-out", runs=2,
         out=("43 reports: 16 holds, 12 counterexamples, 15 vacuous, 0 errors",)),
    Case("lab --suite suite.json --out suite-out", runs=2,
         out=("7 reports: 2 holds, 3 counterexamples, 2 vacuous, 0 errors",)),
    # corollary-scaling on a disconnected core (seed 2: four edges) builds its
    # unit verifier only when a trial reads it: trials 0 is vacuous, and
    # trials 5 is one error report, the gadget's refusal
    Case("lab --suite cor0.json --out cor0-out",
         out=("1 reports: 0 holds, 0 counterexamples, 1 vacuous, 0 errors",)),
    Case("lab --suite cor5.json --out cor5-out",
         out=("1 reports: 0 holds, 0 counterexamples, 0 vacuous, 1 errors",),
         has=("cor5-out/reports.json",
              "DisconnectedGraphError: gadget construction requires a connected graph")),
    # a misspelt cap or top-level key is refused
    Case("lab --suite typo.json --out typo-out", 2),
    Case("lab --suite top.json --out top-out", 2),
    # a rejected set exits 1 with its lexicographically first failing pair,
    # strong and weak; an accepted set exits 0
    Case("verify c6.txt c02.txt --alpha 1 --beta 0", 1,
         ("invalid: pair (0, 1) has distance 1 but contracted distance 0",)),
    Case("verify c6.txt c02.txt --weak --beta 1", 1,
         ("invalid: pair (0, 3) has distance 3 but contracted distance 1",)),
    Case("verify c6.txt c0.txt --beta 1", out=("valid",)),
    # a failed write, to a named file, to stdout or of help text, exits 2
    # with one error line and no traceback
    Case("verify c6.txt c0.txt --beta 1 --out /dev/full", 2, err=ENOSPC),
    Case("gen --family path --n 3", 2, err=ENOSPC, full=True),
    Case("--help", 2, err=ENOSPC, full=True),
    # only the planted family has a witness to write, and no family takes a
    # flag it does not read (path takes no --seed): exit 2, nothing written
    Case("gen --family path --n 3 --out w.txt --plant-out w.json", 2, absent=("w.txt", "w.json")),
    Case("gen --family path --n 3 --seed 1", 2, None),
    # solve and reduce follow the same rule: meb reads only --cap-side, and
    # only the gadget reads --weight
    Case("solve pl.txt --problem meb --alpha 2", 2, None, r"error: .*\n"),
    Case("reduce k23.txt --construction tensor --weight 2 --out t.txt", 2,
         absent=("t.txt", "t.txt.provenance.json")),
    # rational weights at a non-integer alpha and beta, and the search
    # kernel's branches, strong and weak, each with contracted edges
    Case("verify r5.txt c4.txt --alpha 3/2 --beta 1/3", 1,
         ("invalid: pair (2, 4) has distance 5/3 but contracted distance 2/3",)),
    Case("verify r7.txt c147.txt --alpha 3/2 --beta 1/3", 1,
         ("invalid: pair (0, 2) has distance 5/2 but contracted distance 13/12",)),
    Case("verify r7.txt c147.txt --alpha 2 --beta 1", out=("valid",)),
    Case("verify r7.txt c147.txt --weak --alpha 2 --beta 1/2", 1,
         ("invalid: pair (0, 4) has distance 25/12 but contracted distance 1/3",)),
    Case("verify h6.txt c14.txt --beta 3", 1,
         ("invalid: pair (0, 2) has distance 6 but contracted distance 0",)),
    Case("verify h6.txt c14.txt --weak --alpha 2 --beta 1", 1,
         ("invalid: pair (2, 5) has distance 9 but contracted distance 3",)),
    # malformed graphs exit 2: a duplicate is blamed on its second line, and
    # counts and integer flags are ASCII decimal ("1_0" is not 10)
    Case("verify dup.txt c0.txt", 2, err=r"(?s).*\(line 3\).*"),
    Case("verify us.txt c0.txt", 2),
    Case("gen --family path --n 1_0", 2, None),
    # an edgeless header too large for any per-vertex list is refused, or
    # solved (both biclique maximizers mask only the partner side's vertices
    # with an edge), from its edges alone; gen refuses a family over its edge
    # bound from the flags alone
    Case("reduce huge-b.txt --construction gadget --out huge-r.txt", 1,
         err=r"refused: reduce requires a connected instance\n", absent=("huge-r.txt",), limit=True),
    Case("solve huge-g.txt --problem cont", out=("objective 0",), limit=True),
    Case("solve huge-b.txt --problem meb", out=("objective 0",), limit=True),
    Case("solve huge-b.txt --problem mbb", out=("objective 0",), limit=True),
    Case("gen --family path --n 10000000000", 2, None, limit=True),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for name, text in FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    for argv in GENS:
        assert cli(argv, root).returncode == 0, argv
    return root


@pytest.mark.parametrize("case", CASES, ids=[case.argv for case in CASES])
def test_cli(case, inputs, tmp_path):
    shutil.copytree(inputs, tmp_path, dirs_exist_ok=True)
    for _ in range(case.runs):
        with open("/dev/full", "w") if case.full else contextlib.nullcontext(subprocess.PIPE) as stdout:
            done = cli(case.argv, tmp_path, stdout=stdout, limit=LIMIT if case.limit else None)
        assert done.returncode == case.code, done.stderr
        if case.out is None:
            assert done.stdout == "", done.stdout
        else:
            assert set(case.out) <= set((done.stdout or "").splitlines()), done.stdout
        assert case.err is None or re.fullmatch(case.err, done.stderr), done.stderr
    assert not [name for name in case.absent if (tmp_path / name).exists()]
    if case.has:
        assert case.has[1] in (tmp_path / case.has[0]).read_text(encoding="utf-8")


QUICK_START = """import ast, sys
with open(sys.argv[1], encoding="utf-8") as fh:
    block = fh.read().split("```python\\n", 1)[1].split("```", 1)[0]
tree = ast.parse(block)
last = tree.body.pop()
ns = {}
exec(compile(tree, "README.md", "exec"), ns)
verdict = eval(compile(ast.Expression(last.value), "README.md", "eval"), ns)
assert verdict == "counterexample", verdict
"""


def test_readme_quick_start(tmp_path):
    # the README's python quick start must not raise, and its last line, the
    # biclique-lemma verdict on K_{2,2}, must read counterexample
    done = run(["-c", QUICK_START, str(ROOT / "README.md")], tmp_path)
    assert done.returncode == 0, done.stderr


def test_contract_partition(inputs):
    # contract on the rational graph: its partition and the quotient
    # distances from supernode 0
    script = """import contractlab as cl
with open("r7.txt", encoding="utf-8") as fh:
    q = cl.contract(cl.parse_graph(fh.read()), [1, 4, 7])
print("partition", *q.partition)
print("from 0", *q.contracted_distances.values[0])"""
    done = run(["-c", script], inputs)
    assert done.returncode == 0, done.stderr
    assert {"partition 0 1 2 2 3 3 0", "from 0 0 1/2 13/12 1/3"} <= set(done.stdout.splitlines())


# The all-bipartite 4x5 classes, beyond the 4x4 pins of tier-1: both path
# claims (1,116 reports, each over a complete valid-set enumeration of up to
# 2^20 - 1 sets), digests taken before the walker replayed subtrees; and the
# gadget claims with lemma2-lift (2,232 reports, gadgets of up to 29 edges),
# digests taken before the memo's dead-entry rerun was removed.
LAB_4X5 = [
    ({"instances": [{"family": "all-bipartite", "left": 4, "right": 5,
                     "claims": ["path-lemma", "path-lemma-shortest"]}]},
     "1116 reports: 0 holds, 1059 counterexamples, 57 vacuous, 0 errors", {
         ("path-lemma", "4x5"): (558, "14bf366502b11a77"),
         ("path-lemma-shortest", "4x5"): (558, "344137807cfa2ecd"),
     }),
    ({"caps": {"max_edges": 29}, "instances": [{"family": "all-bipartite", "left": 4, "right": 5, "claims": [
        "biclique-lemma", "thm6-soundness", "thm6-completeness", "lemma2-lift"]}]},
     "2232 reports: 586 holds, 1088 counterexamples, 558 vacuous, 0 errors", {
         ("biclique-lemma", "4x5"): (558, "0482254e1e8d5bce"),
         ("thm6-soundness", "4x5"): (558, "dddd67ddd180b02d"),
         ("thm6-completeness", "4x5"): (558, "b8d2323049fff4ee"),
         ("lemma2-lift", "4x5"): (558, "a395a1d2503f1b6d"),
     }),
]


@pytest.mark.parametrize("config, summary, pinned", LAB_4X5, ids=["path-claims", "gadget-claims"])
def test_lab_all_bipartite_4x5(tmp_path, config, summary, pinned):
    (tmp_path / "suite.json").write_text(json.dumps(config), encoding="utf-8")
    done = cli("lab --suite suite.json --out out", tmp_path)
    assert done.returncode == 0, done.stderr
    assert summary in done.stdout.splitlines()
    reports = json.loads((tmp_path / "out" / "reports.json").read_text(encoding="utf-8"))
    assert report_digests(reports) == pinned


def test_all_bipartite_5x5_classes():
    # the 5x5 classes, past tier-1's CLASS_TABLE (up to 4x5 and 5x4) and its
    # mask sweep (up to 12 cells): class count and the first 16 hex digits of
    # the sha256 of the rendered representatives, in order
    classes = cl.lab.enumerate_connected_bipartite(5, 5, cap=25)
    rendered = "".join(cl.render_graph(c) for c in classes)
    assert (len(classes), hashlib.sha256(rendered.encode()).hexdigest()[:16]) == (1897, "0772b31d4201ee75")


def test_weak_tree_walks_match_the_plain_reference_walk():
    # weak searches of trees take the forced-merge closure; on seeded trees
    # and tree-core gadgets with 16-20 edges, past the power-set oracle's
    # reach, the closure walker must give the stream, optimum and witness of
    # the plain reference walk (union-find rule, no closure) in no more nodes
    rng = random.Random(36)
    tolerances = [cl.Tolerance(1, 1), cl.Tolerance(Fraction(3, 2), 1),
                  cl.Tolerance(Fraction(5, 4), Fraction(1, 2))]
    cases = []
    for trial in range(15):
        m = 16 + trial % 5
        cases.append((random_connected_graph(rng, m + 1, m, unit=trial % 2 == 0), tolerances[trial % 3]))
    # pendant gadgets of tree cores (17 and 19 edges), where the closure cascades
    for sides in ((2, 7), (2, 8)):
        trees = [c for c in cl.lab.enumerate_connected_bipartite(*sides) if c.edge_count == sum(sides) - 1]
        cases += [(cl.build_gadget(core, 1).combined, tolerances[0]) for core in trees[:2]]
    nodes = [0, 0]  # enumeration nodes, closure and plain
    for trial, (g, t) in enumerate(cases):
        assert g.edge_count == g.vertex_count - 1 and 16 <= g.edge_count <= 20
        search = solvers.weak_search(g, t)
        stream = list(cl.enumerate_valid_weak_contractions(g, t, search=search))
        plain_stream, plain_nodes = _reference_walk(g, t, False, closure=False)
        assert stream == plain_stream and search.explored <= plain_nodes, trial
        try:
            res = cl.max_weak_contraction_exact(g, t)
            got = (res.objective, res.witness)
        except ValueError:
            got = None
        plain_sets, _ = _reference_walk(g, t, True, closure=False)
        want = (len(plain_sets[-1]), plain_sets[-1]) if plain_sets else None
        assert got == want, (trial, got, want)
        nodes[0] += search.explored
        nodes[1] += plain_nodes
    assert len(cases) == 19 and nodes == [53156, 59234], nodes


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["verify-batch", "solve-search", "lab-exhaustive"])
def test_bench_smoke(workload, trace):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace]
    done = run(["bench/run.py", *argv], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
