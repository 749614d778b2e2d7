"""cli: exit-status contract, output determinism, golden pinning and drift."""

from __future__ import annotations

import csv
import errno
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import contractlab as cl
from contractlab import cli
from contractlab.cli import main
from contractlab.graphs import ScaledDistances
from contractlab.lab import LabReport, instance_key, json_text, summarize

from builders import report_digests


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def p3(tmp_path):
    return write(tmp_path, "p3.txt", cl.render_graph(cl.path_graph(3)))


@pytest.fixture()
def c4(tmp_path):
    return write(tmp_path, "c4.txt", cl.render_graph(cl.cycle_graph(4)))


@pytest.fixture()
def k22(tmp_path):
    return write(tmp_path, "k22.txt", cl.render_graph(cl.complete_bipartite(2, 2)))


# a header whose vertices no per-vertex list could hold
HUGE = "99999999999999999999"


@pytest.fixture()
def no_huge_adjacency(monkeypatch):
    """Building the adjacency of a graph on more than 10**6 vertices fails the
    test before anything is allocated."""
    build = cl.Graph.adjacency.func

    def guarded(g):
        assert g.vertex_count <= 10**6, f"built the adjacency of {g.vertex_count} vertices"
        return build(g)

    adjacency = cached_property(guarded)
    adjacency.__set_name__(cl.Graph, "adjacency")
    monkeypatch.setattr(cl.Graph, "adjacency", adjacency)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_valid_exit_zero(tmp_path, p3, capsys):
    cfile = write(tmp_path, "c.txt", "0\n")
    assert run_cli("verify", p3, cfile, "--alpha", "1", "--beta", "1", "--weak") == 0
    assert "valid" in capsys.readouterr().out


def test_verify_full_set_not_proper(tmp_path, p3, capsys):
    cfile = write(tmp_path, "c.txt", "0\n1\n")
    assert run_cli("verify", p3, cfile, "--weak") == 1
    assert "proper subset" in capsys.readouterr().out


def test_verify_invalid_prints_witness(tmp_path, capsys):
    p4 = write(tmp_path, "p4.txt", cl.render_graph(cl.path_graph(4)))
    cfile = write(tmp_path, "c.txt", "0\n2\n")
    assert run_cli("verify", p4, cfile, "--weak", "--format", "json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert payload["witness"] == {
        "kind": "pair",
        "u": 0,
        "v": 3,
        "distance": "3",
        "contracted_distance": "1",
    }


def test_verify_malformed_tolerance_exit_two(tmp_path, p3, capsys):
    cfile = write(tmp_path, "c.txt", "0\n")
    assert run_cli("verify", p3, cfile, "--alpha", "1.5.2") == 2


def test_verify_malformed_graph_exit_two(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "graph 2 1\n0 0 1\n")
    cfile = write(tmp_path, "c.txt", "0\n")
    assert run_cli("verify", bad, cfile) == 2


def test_verify_bad_contraction_file_exit_two(tmp_path, p3):
    # "1_0" and "+1" would read as 10 and 1 through int()
    for text in ("zero\n", "1_0\n", "+1\n"):
        cfile = write(tmp_path, "c.txt", text)
        assert run_cli("verify", p3, cfile) == 2


def test_verify_missing_file_exit_two(tmp_path, p3):
    assert run_cli("verify", p3, str(tmp_path / "absent.txt")) == 2


def test_verify_out_of_range_id_exit_two(tmp_path, p3):
    cfile = write(tmp_path, "c.txt", "9\n")
    assert run_cli("verify", p3, cfile) == 2
    # a bad id outranks a disconnected graph (which alone would exit 1)
    split = write(tmp_path, "split.txt", cl.render_graph(cl.Graph(4, ((0, 1), (2, 3)))))
    assert run_cli("verify", split, cfile) == 2


def test_verify_csv_format(tmp_path, p3, capsys):
    cfile = write(tmp_path, "c.txt", "0\n")
    assert run_cli("verify", p3, cfile, "--weak", "--format", "csv") == 0
    out = capsys.readouterr().out
    assert out.startswith("key,value")
    assert "valid,True" in out


def test_csv_flattens_nested_witnesses(tmp_path, capsys):
    # a rejected set's witness and a biclique are objects: one row per field
    p4 = write(tmp_path, "p4.txt", cl.render_graph(cl.path_graph(4)))
    cfile = write(tmp_path, "c.txt", "0\n2\n")
    assert run_cli("verify", p4, cfile, "--weak", "--format", "csv") == 1
    assert capsys.readouterr().out.splitlines() == [
        "key,value", "mode,weak", "alpha,1", "beta,1", 'contraction,"[0, 2]"',
        "valid,False", "witness.kind,pair", "witness.u,0", "witness.v,3",
        "witness.distance,3", "witness.contracted_distance,1",
    ]
    k23 = write(tmp_path, "k23.txt", cl.render_graph(cl.complete_bipartite(2, 3)))
    assert run_cli("solve", k23, "--problem", "meb", "--format", "csv") == 0
    assert capsys.readouterr().out.splitlines() == [
        "key,value", "problem,meb", "objective,6", 'witness.left,"[0, 1]"',
        'witness.right,"[0, 1, 2]"', "explored,3",
    ]


def test_verify_reads_a_bipartite_file(tmp_path, capsys):
    # right vertex r is vertex left_count + r of the graph verified
    k22 = write(tmp_path, "k22.txt", "bipartite 2 2 4\n0 0\n0 1\n1 0\n1 1\n")
    cfile = write(tmp_path, "c.txt", "0\n")
    assert run_cli("verify", k22, cfile, "--beta", "0") == 1
    assert capsys.readouterr().out == (
        "invalid: pair (0, 1) has distance 2 but contracted distance 1\n"
    )
    graph = write(tmp_path, "g.txt", cl.render_graph(cl.complete_bipartite(2, 2).to_graph()))
    assert run_cli("verify", graph, cfile, "--beta", "0") == 1
    assert capsys.readouterr().out == (
        "invalid: pair (0, 1) has distance 2 but contracted distance 1\n"
    )


def test_edge_id_file_skips_blank_and_comment_lines(tmp_path, p3, capsys):
    plain = write(tmp_path, "plain.txt", "0\n")
    commented = write(tmp_path, "commented.txt", "# contracted edges\n\n  \n0\n  # done\n")
    outputs = []
    for cfile in (plain, commented):
        assert run_cli("verify", p3, cfile, "--weak", "--format", "json") == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1] and outputs[0]["contraction"] == [0]


def test_lab_cap_path_len_flag(tmp_path, capsys):
    suite = write(
        tmp_path,
        "suite.json",
        json.dumps({"instances": [{"family": "cycle", "n": 6, "claims": ["path-lemma"]}]}),
    )
    out = tmp_path / "o"
    assert run_cli("lab", "--suite", suite, "--out", str(out), "--cap-path-len", "2") == 0
    data = json.loads((out / "reports.json").read_text(encoding="utf-8"))
    assert data[0]["stats"]["truncated"] is True


def test_verify_exit_matrix(tmp_path, p3):
    # the full contract: 0 valid, 1 invalid, 2 malformed, for one input each
    valid = write(tmp_path, "valid.txt", "0\n")
    invalid = write(tmp_path, "invalid.txt", "0\n1\n")
    matrix = [
        (["verify", p3, valid, "--weak"], 0),
        (["verify", p3, invalid, "--weak"], 1),
        (["verify", p3, valid, "--beta", "x/y"], 2),
        (["verify", p3, valid, "--beta", "\u0663"], 2),
    ]
    for argv, expected in matrix:
        assert run_cli(*argv) == expected


@pytest.mark.parametrize("weak", [(), ("--weak",)], ids=["strong", "weak"])
def test_verify_refuses_too_few_edges_before_any_search(tmp_path, capsys, monkeypatch, weak):
    # 20000 vertices and one edge cannot be connected: refused from the
    # counts alone, before the O(n^2) base rows (a search here fails the
    # test); K_64 plus 1,936 isolated vertices has 2,016 edges, enough for
    # its 2,000 vertices, and is refused from its components instead
    def no_search(self, src, cmask=0):
        raise AssertionError("searched a graph that cannot be connected")

    monkeypatch.setattr(ScaledDistances, "from_source", no_search)
    k64 = cl.Graph(2000, tuple(itertools.combinations(range(64), 2)))
    ids = write(tmp_path, "c.txt", "0\n")
    for text in ("graph 20000 1\n0 1\n", cl.render_graph(k64)):
        graph = write(tmp_path, "g.txt", text)
        assert run_cli("verify", graph, ids, *weak) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "refused: tolerance checks require a connected graph\n"


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_meb_on_planted(tmp_path, capsys):
    g, _ = cl.generate_planted_biclique(5, 5, 3, 3, 0, seed=12)
    gfile = write(tmp_path, "g.txt", cl.render_graph(g))
    assert run_cli("solve", gfile, "--problem", "meb", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 9


def test_solve_weakcont_four_cycle(tmp_path, c4, capsys):
    assert (
        run_cli("solve", c4, "--problem", "weakcont", "--alpha", "1", "--beta", "1",
                "--format", "json")
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 3  # every proper spanning subset is valid


def test_solve_cont_beta_zero(tmp_path, c4, capsys):
    assert run_cli("solve", c4, "--problem", "cont", "--beta", "0", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 0
    assert payload["witness"] == []


def test_solve_splits_disconnected_components(tmp_path, capsys):
    # strong validity has no properness condition, so cont solves each
    # component alone; a weak set is one proper subset of all the edges, so
    # weakcont refuses edges spanning several components as the library does
    g = cl.Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))  # two 3-paths
    gfile = write(tmp_path, "g.txt", cl.render_graph(g))
    assert (
        run_cli("solve", gfile, "--problem", "cont", "--beta", "1", "--format", "json")
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 2
    assert len(payload["components"]) == 2
    assert payload["witness"] == [0, 2]
    triangles = cl.Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    for graph in (g, triangles):
        gfile = write(tmp_path, "g.txt", cl.render_graph(graph))
        assert run_cli("solve", gfile, "--problem", "weakcont", "--beta", "1") == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "refused: contraction searches require a connected graph\n"
        with pytest.raises(cl.DisconnectedGraphError, match="^contraction searches"):
            cl.max_weak_contraction_exact(graph, cl.Tolerance(1, 1))


def test_solve_weakcont_drops_only_edgeless_vertices(tmp_path, capsys):
    # the edges lie in one component: weakcont solves that graph once, with
    # the edge ids of the file and no components payload
    gfile = write(tmp_path, "g.txt", "graph 5 3\n0 1\n1 2\n2 3\n")
    assert run_cli("solve", gfile, "--problem", "weakcont") == 0
    assert capsys.readouterr().out == "objective 1\nwitness [0]\n"
    res = cl.max_weak_contraction_exact(cl.path_graph(4), cl.Tolerance(1, 1))
    assert run_cli("solve", gfile, "--problem", "weakcont", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out) == {
        "problem": "weakcont", "alpha": "1", "beta": "1", "objective": res.objective,
        "witness": list(res.witness), "explored": res.explored,
    }


def test_solve_visits_only_vertices_with_an_edge(tmp_path, capsys, no_huge_adjacency):
    graph = write(tmp_path, "g.txt", f"graph {HUGE} 0\n")
    assert run_cli("solve", graph, "--problem", "cont") == 0
    assert capsys.readouterr().out == "objective 0\nwitness []\n"
    # edges far apart solve as the same two pieces on five vertices
    n = int(HUGE)
    far = write(tmp_path, "far.txt", f"graph {HUGE} 3\n0 1\n1 {n - 4}\n{n - 2} {n - 1}\n")
    near = write(tmp_path, "near.txt", "graph 5 3\n0 1\n1 2\n3 4\n")
    outputs = []
    for path in (far, near):
        assert run_cli("solve", path, "--problem", "cont", "--format", "json") == 0
        outputs.append(json.loads(capsys.readouterr().out))
        # the same two pieces are one graph whose edges span two components
        assert run_cli("solve", path, "--problem", "weakcont") == 1
        assert capsys.readouterr().err.startswith("refused: ")
    assert outputs[0] == outputs[1] and len(outputs[0]["components"]) == 2


def test_solve_many_components_match_their_pieces(tmp_path, capsys):
    # 1,200 components, each followed by a vertex without an edge: the split
    # reads the edges once, not once per component, and each piece solves as
    # it would alone, its edge ids shifted by the edges before it
    pieces = [cl.path_graph(3), cl.cycle_graph(3), cl.path_graph(2)] * 400
    edges, base = [], 0
    for piece in pieces:
        edges += [(base + u, base + v) for u, v, _ in piece.edges]
        base += piece.vertex_count + 1
    gfile = write(tmp_path, "g.txt", cl.render_graph(cl.Graph(base, tuple(edges))))
    t11 = cl.Tolerance(1, 1)
    assert run_cli("solve", gfile, "--problem", "cont", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    components, explored, offset = [], 0, 0
    for piece in pieces:
        res = cl.max_contraction_exact(piece, t11)
        components.append(
            {"objective": res.objective, "witness": [offset + e for e in res.witness]}
        )
        explored += res.explored
        offset += piece.edge_count
    assert payload["components"] == components
    assert payload["witness"] == [e for c in components for e in c["witness"]]
    assert payload["objective"] == sum(c["objective"] for c in components)
    assert payload["explored"] == explored
    # weak validity does not compose per component: one refusal
    assert run_cli("solve", gfile, "--problem", "weakcont", "--format", "json") == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1


@pytest.mark.parametrize("problem", ["meb", "mbb"])
def test_solve_biclique_on_huge_edgeless_header(tmp_path, capsys, no_huge_adjacency, problem):
    # the partner side's size enters no mask and no loop, whichever side it is
    for text in (f"bipartite {HUGE} 1 0\n", f"bipartite 1 {HUGE} 0\n"):
        graph = write(tmp_path, "g.txt", text)
        assert run_cli("solve", graph, "--problem", problem) == 0
        assert capsys.readouterr().out == "objective 0\nleft []\nright []\n"


def test_solve_threads_do_not_change_output(tmp_path, capsys):
    g = cl.Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))
    gfile = write(tmp_path, "g.txt", cl.render_graph(g))
    outputs = []
    for threads in ("1", "4"):
        assert (
            run_cli(
                "solve", gfile, "--problem", "cont", "--beta", "1",
                "--threads", threads, "--format", "json",
            )
            == 0
        )
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", [1, 3])
def test_solve_edgeless_graph(tmp_path, capsys, n):
    # the empty set of an edgeless graph is a valid strong set but not a
    # proper subset, so weakcont refuses the way the library does
    gfile = write(tmp_path, "g.txt", cl.render_graph(cl.Graph(n)))
    assert run_cli("solve", gfile, "--problem", "weakcont") == 2
    err = capsys.readouterr().err
    assert err == "error: weak contraction needs at least one edge: no proper subset exists\n"
    assert run_cli("solve", gfile, "--problem", "cont", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["objective"], payload["witness"]) == (0, [])


def test_solve_meb_requires_bipartite(tmp_path, p3):
    assert run_cli("solve", p3, "--problem", "meb") == 2


def test_solve_cap_refusal_exit_one(tmp_path, capsys):
    g = cl.cycle_graph(8)
    gfile = write(tmp_path, "g.txt", cl.render_graph(g))
    assert run_cli("solve", gfile, "--problem", "weakcont", "--cap-edges", "4") == 1
    assert "cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def test_reduce_gadget_writes_graph_and_provenance(tmp_path, k22, capsys):
    out = tmp_path / "gadget.txt"
    assert run_cli("reduce", k22, "--construction", "gadget", "--out", str(out)) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("graph 8 8\n")
    sidecar = json.loads((tmp_path / "gadget.txt.provenance.json").read_text())
    assert sidecar["construction"] == "gadget"
    assert len(sidecar["vertices"]) == 8
    assert sidecar["edge_kinds"].count("matching") == 4


def test_reduce_tensor_part_sizes(tmp_path, k22, capsys):
    out = tmp_path / "tensor.txt"
    assert run_cli("reduce", k22, "--construction", "tensor", "--out", str(out)) == 0
    g = cl.parse_graph(out.read_text(encoding="utf-8"))
    assert g.left_count == 4 and g.right_count == 4


def test_reduce_deterministic_bytes(tmp_path, k22, capsys):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli("reduce", k22, "--construction", "gadget", "--out", str(out1)) == 0
    assert run_cli("reduce", k22, "--construction", "gadget", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.txt.provenance.json").read_bytes() == (
        tmp_path / "b.txt.provenance.json"
    ).read_bytes()


def test_reduce_rejects_general_graph(tmp_path, p3):
    assert run_cli("reduce", p3, "--construction", "gadget", "--out", str(tmp_path / "x")) == 2


def test_reduce_refuses_disconnected(tmp_path):
    b = cl.BipartiteGraph(2, 2, ((0, 0), (1, 1)))
    gfile = write(tmp_path, "dis.txt", cl.render_graph(b))
    assert run_cli("reduce", gfile, "--construction", "gadget", "--out", str(tmp_path / "x")) == 1
    assert run_cli("reduce", gfile, "--construction", "tensor", "--out", str(tmp_path / "x")) == 1


def test_reduce_refuses_huge_edgeless_header_at_once(tmp_path, capsys, no_huge_adjacency):
    gfile = write(tmp_path, "huge.txt", f"bipartite {HUGE} 1 0\n")
    out = tmp_path / "x"
    assert run_cli("reduce", gfile, "--construction", "gadget", "--out", str(out)) == 1
    assert capsys.readouterr().err == "refused: reduce requires a connected instance\n"
    assert not out.exists()


@pytest.mark.parametrize("directory", ["r.txt.provenance.json", "r.txt"])
def test_reduce_refuses_a_directory_before_writing(tmp_path, k22, capsys, directory):
    # a directory at either output path exits 2 and the other file is not created
    (tmp_path / directory).mkdir()
    assert run_cli("reduce", k22, "--construction", "gadget", "--out", str(tmp_path / "r.txt")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["k22.txt", directory])


def test_reduce_weight_flag(tmp_path, k22):
    out = tmp_path / "w.txt"
    assert run_cli(
        "reduce", k22, "--construction", "gadget", "--weight", "1/2", "--out", str(out)
    ) == 0
    g = cl.parse_graph(out.read_text(encoding="utf-8"))
    assert all(w == Fraction(1, 2) for _, _, w in g.edges)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_deterministic(tmp_path, capsys):
    args = [
        "gen", "--family", "random-bipartite", "--left", "4", "--right", "4",
        "--prob", "1/2", "--seed", "7",
    ]
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == first


def test_gen_planted_with_witness(tmp_path):
    out = tmp_path / "g.txt"
    plant_out = tmp_path / "plant.json"
    assert (
        run_cli(
            "gen", "--family", "planted", "--left", "5", "--right", "5",
            "--plant-left", "3", "--plant-right", "3", "--noise", "0",
            "--seed", "3", "--out", str(out), "--plant-out", str(plant_out),
        )
        == 0
    )
    g = cl.parse_graph(out.read_text(encoding="utf-8"))
    plant = json.loads(plant_out.read_text(encoding="utf-8"))
    witness = cl.Biclique(tuple(plant["left"]), tuple(plant["right"]))
    assert witness.is_complete_in(g)
    assert cl.max_edge_biclique_exact(g).objective == 9


def test_gen_missing_parameter_exit_two(capsys):
    assert run_cli("gen", "--family", "path") == 2
    assert capsys.readouterr().err == "error: --n is required for family path\n"
    # a missing size is named before a given flag the family does not read
    assert run_cli("gen", "--family", "path", "--seed", "1") == 2
    assert capsys.readouterr().err == "error: --n is required for family path\n"


def test_gen_unknown_family_exit_two():
    assert run_cli("gen", "--family", "dodecahedron") == 2


@pytest.mark.parametrize(
    "sizes",
    [
        ("--family", "path", "--n", "3"),
        ("--family", "cycle", "--n", "3"),
        ("--family", "complete-bipartite", "--left", "2", "--right", "2"),
        ("--family", "random-bipartite", "--left", "2", "--right", "2"),
    ],
    ids=lambda sizes: sizes[1],
)
def test_gen_plant_out_without_a_plant_exit_two(tmp_path, capsys, sizes):
    # only the planted family has a witness: a plant file that would not be
    # written is refused before either file is
    out, plant_out = tmp_path / "g.txt", tmp_path / "w.json"
    assert run_cli("gen", *sizes, "--out", str(out), "--plant-out", str(plant_out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists() and not plant_out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # several unread flags: the error names the first in the parser's order
        ("--family", "path", "--n", "3", "--noise", "1/2", "--left", "4"),
        ("--family", "path", "--n", "3", "--seed", "1"),
        ("--family", "cycle", "--n", "3", "--prob", "1/2"),
        ("--family", "complete-bipartite", "--left", "2", "--right", "2", "--seed", "0"),
        ("--family", "random-bipartite", "--left", "2", "--right", "2", "--noise", "1/2"),
        ("--family", "random-bipartite", "--left", "2", "--right", "2", "--plant-left", "1"),
        ("--family", "random-bipartite", "--left", "2", "--right", "2", "--n", "3"),
        ("--family", "planted", "--left", "2", "--right", "2", "--prob", "1/2"),
        # solve's problems and reduce's constructions follow the same rule
        ("--problem", "meb", "--alpha", "1"),
        ("--problem", "mbb", "--cap-edges", "20"),
        ("--problem", "cont", "--cap-side", "20"),
        ("--construction", "tensor", "--weight", "1"),
    ],
    ids=lambda argv: f"{argv[1]}{argv[-2]}",
)
def test_gen_refuses_a_flag_its_family_does_not_read(tmp_path, k22, capsys, argv):
    # a flag the family, problem or construction would ignore, given even at
    # its default value, exits 2 with one line naming it, before any file is
    # read or written
    command = {"--family": ["gen"], "--problem": ["solve", k22], "--construction": ["reduce", k22]}
    out = tmp_path / "g.txt"
    assert run_cli(*command[argv[0]], *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {argv[-2]} is not read by {argv[0][2:]} {argv[1]}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k22.txt"]


def test_gen_defaults_of_the_flags_a_family_reads(tmp_path, k22, capsys):
    assert run_cli("gen", "--family", "random-bipartite", "--left", "3", "--right", "3") == 0
    text = capsys.readouterr().out
    assert cl.parse_graph(text) == cl.generate_random_bipartite(3, 3, Fraction(1, 2), 0)
    assert run_cli("gen", "--family", "planted", "--left", "3", "--right", "3") == 0
    text = capsys.readouterr().out
    assert cl.parse_graph(text) == cl.generate_planted_biclique(3, 3, 0, 0, 0, 0)[0]
    # so do solve's problems and reduce's constructions: a flag the choice
    # reads but was not given gives the output of its explicit default
    # (over the caps of 20: 21 edges, and 21 vertices on the smaller side)
    p22 = write(tmp_path, "p22.txt", cl.render_graph(cl.path_graph(22)))
    k2121 = write(tmp_path, "k2121.txt", cl.render_graph(cl.complete_bipartite(21, 21)))
    contraction = ("--alpha", "1", "--beta", "1", "--cap-edges", "20")
    for graph, problem, explicit, code in (
        (k22, "cont", contraction, 0),
        (k22, "weakcont", contraction, 0),
        (p22, "cont", contraction, 1),
        (k22, "meb", ("--cap-side", "20"), 0),
        (k22, "mbb", ("--cap-side", "20"), 0),
        (k2121, "mbb", ("--cap-side", "20"), 1),
    ):
        argv = ("solve", graph, "--problem", problem, "--format", "json")
        runs = [(run_cli(*argv, *flags), capsys.readouterr()) for flags in ((), explicit)]
        assert runs[0] == runs[1] and runs[0][0] == code
    outputs = []
    for flags in ((), ("--weight", "1")):
        out = tmp_path / f"r{len(outputs)}.txt"
        assert run_cli("reduce", k22, "--construction", "gadget", *flags, "--out", str(out)) == 0
        sidecar = out.with_name(out.name + ".provenance.json")
        outputs.append((out.read_bytes(), sidecar.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv,edges",
    [
        (("--family", "path", "--n", "10000000000"), 9999999999),
        (("--family", "cycle", "--n", "1000001"), 1000001),
        (("--family", "complete-bipartite", "--left", "1001", "--right", "1000"), 1001000),
        (("--family", "random-bipartite", "--left", "1", "--right", "10000000000"), 10**10),
        (("--family", "planted", "--left", "100000", "--right", "100000"), 10**10),
    ],
    ids=lambda value: value[1] if isinstance(value, tuple) else None,
)
def test_gen_refuses_over_the_edge_bound(capsys, argv, edges):
    # checked from the flags, before any graph is built
    assert run_cli("gen", *argv) == 2
    family = argv[1]
    assert capsys.readouterr() == (
        "", f"error: family {family} would build up to {edges} edges, over gen's bound of 1000000\n"
    )


def test_gen_edge_bound_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "GEN_MAX_EDGES", 4)
    for family, within, over in (
        ("path", ("--n", "5"), ("--n", "6")),
        ("cycle", ("--n", "4"), ("--n", "5")),
        ("complete-bipartite", ("--left", "2", "--right", "2"), ("--left", "1", "--right", "5")),
        ("planted", ("--left", "1", "--right", "4"), ("--left", "5", "--right", "1")),
    ):
        assert run_cli("gen", "--family", family, *within) == 0
        assert cl.parse_graph(capsys.readouterr().out).edge_count <= 4
        assert run_cli("gen", "--family", family, *over) == 2
        assert "over gen's bound of 4" in capsys.readouterr().err


def test_gen_help_lists_families_in_order(capsys):
    assert run_cli("gen", "--help") == 0
    assert "{random-bipartite,planted,path,cycle,complete-bipartite}" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# integer flags: ASCII decimal, as in graph text
# ---------------------------------------------------------------------------

# every flag parsed by _positive_int, with the arguments it needs around it
POSITIVE_INT_FLAGS = [
    ("solve", "{k22}", "--problem", "cont", "--cap-edges"),
    ("solve", "{k22}", "--problem", "meb", "--cap-side"),
    ("solve", "{k22}", "--problem", "cont", "--threads"),
    ("lab", "--out", "{out}", "--threads"),
    ("lab", "--out", "{out}", "--cap-edges"),
    ("lab", "--out", "{out}", "--cap-path-len"),
    ("gen", "--family", "complete-bipartite", "--right", "2", "--left"),
    ("gen", "--family", "complete-bipartite", "--left", "2", "--right"),
    ("gen", "--family", "path", "--n"),
]


def _fill(argv, tmp_path, k22):
    return [a.format(k22=k22, out=tmp_path / "out") for a in argv]


@pytest.mark.parametrize("argv", POSITIVE_INT_FLAGS, ids=lambda a: f"{a[0]}{a[-1]}")
def test_positive_int_flags_accept_decimal(tmp_path, k22, capsys, argv):
    assert run_cli(*_fill(argv, tmp_path, k22), "20") == 0


# int() reads "1_0" as 10, "+3" as 3 and the Arabic-Indic digit three as 3
@pytest.mark.parametrize("value", ["1_0", "+3", "\u0663", "0", "-3", "3.0"])
@pytest.mark.parametrize("argv", POSITIVE_INT_FLAGS, ids=lambda a: f"{a[0]}{a[-1]}")
def test_positive_int_flags_refuse_other_syntax(tmp_path, k22, capsys, argv, value):
    assert run_cli(*_fill(argv, tmp_path, k22), value) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "expected a positive integer" in out.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--seed", "--plant-left", "--plant-right"])
@pytest.mark.parametrize("value", ["1_1", "+3", "\u0663", "3.0", ""])
def test_integer_flags_refuse_other_syntax(capsys, flag, value):
    argv = ["gen", "--family", "planted", "--left", "5", "--right", "5", flag, value]
    assert run_cli(*argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "expected a decimal integer" in out.err


def test_seed_flag_accepts_negative(capsys):
    argv = ["gen", "--family", "random-bipartite", "--left", "3", "--right", "3"]
    assert run_cli(*argv, "--seed", "-3") == 0
    text = capsys.readouterr().out
    assert cl.parse_graph(text) == cl.generate_random_bipartite(3, 3, Fraction(1, 2), -3)


# ---------------------------------------------------------------------------
# lab
# ---------------------------------------------------------------------------


def _mini_suite(tmp_path):
    config = {
        "instances": [
            {"family": "path", "n": 3, "claims": ["path-lemma"]},
            {"family": "cycle", "n": 4, "claims": ["path-lemma"]},
            {
                "family": "all-bipartite",
                "left": 1,
                "right": 2,
                "claims": ["biclique-lemma", "thm6-completeness"],
            },
        ]
    }
    return write(tmp_path, "suite.json", json.dumps(config))


def test_lab_pins_goldens_then_stays_stable(tmp_path, capsys):
    suite = _mini_suite(tmp_path)
    out = tmp_path / "out"
    assert run_cli("lab", "--suite", suite, "--out", str(out)) == 0
    assert "pinned" in capsys.readouterr().out
    reports1 = (out / "reports.json").read_text(encoding="utf-8")
    assert run_cli("lab", "--suite", suite, "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "pinned" not in stdout
    reports2 = (out / "reports.json").read_text(encoding="utf-8")

    def strip(text):
        data = json.loads(text)
        for rep in data:
            rep["stats"].pop("elapsed_ms")
        return data

    assert strip(reports1) == strip(reports2)
    summary = (out / "summary.csv").read_text(encoding="utf-8")
    assert summary.startswith("claim,family,holds,counterexample,vacuous,error,total")
    reports = [
        LabReport(r["claim"], r["instance"], r["verdict"], r.get("witness"), r["stats"])
        for r in json.loads(reports2)
    ]
    expected = [{k: str(v) for k, v in row.items()} for row in summarize(reports)]
    assert list(csv.DictReader(io.StringIO(summary))) == expected


def test_json_files_are_one_line_with_sorted_keys(tmp_path, k22, capsys):
    # reports.json, a golden and a provenance sidecar are each json_text of
    # the value they hold: one line ending in one newline, every object's
    # keys sorted
    out = tmp_path / "out"
    assert run_cli("lab", "--out", str(out)) == 0
    assert run_cli("reduce", k22, "--construction", "gadget", "--out", str(tmp_path / "r.txt")) == 0
    files = [out / "reports.json", out / "goldens" / "path-lemma.json", tmp_path / "r.txt.provenance.json"]
    for path in files:
        text = path.read_text(encoding="utf-8")
        orders = []
        value = json.loads(text, object_pairs_hook=lambda pairs: orders.append([k for k, _ in pairs]) or dict(pairs))
        assert text.endswith("\n") and "\n" not in text[:-1], path.name
        assert orders and all(keys == sorted(keys) for keys in orders), path.name
        assert json_text(value) == text, path.name
    # and the text parses back to the value, elapsed_ms floats included
    payloads = [rep.to_json_dict() for rep in cl.run_suite()]
    assert json.loads(json_text(payloads)) == payloads


def test_lab_detects_tampered_golden(tmp_path, capsys):
    suite = _mini_suite(tmp_path)
    out = tmp_path / "out"
    assert run_cli("lab", "--suite", suite, "--out", str(out)) == 0
    capsys.readouterr()
    golden = out / "goldens" / "path-lemma.json"
    data = json.loads(golden.read_text(encoding="utf-8"))
    key = next(iter(data))
    data[key] = "holds" if data[key] != "holds" else "counterexample"
    golden.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("lab", "--suite", suite, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "path-lemma" in err and "regression" in err


def test_lab_flags_unreadable_golden_distinctly(tmp_path, capsys):
    suite = _mini_suite(tmp_path)
    out = tmp_path / "out"
    assert run_cli("lab", "--suite", suite, "--out", str(out)) == 0
    capsys.readouterr()
    golden = out / "goldens" / "biclique-lemma.json"
    golden.write_text("{not json", encoding="utf-8")
    assert run_cli("lab", "--suite", suite, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "unreadable" in err and "biclique-lemma" in err
    assert "regression" not in err


def test_lab_thread_counts_identical_reports(tmp_path, capsys):
    suite = _mini_suite(tmp_path)
    texts = []
    for threads, name in (("1", "a"), ("4", "b")):
        out = tmp_path / name
        assert run_cli("lab", "--suite", suite, "--out", str(out), "--threads", threads) == 0
        data = json.loads((out / "reports.json").read_text(encoding="utf-8"))
        for rep in data:
            rep["stats"].pop("elapsed_ms")
        texts.append(data)
    capsys.readouterr()
    assert texts[0] == texts[1]


def test_lab_default_suite_runs(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("lab", "--out", str(out)) == 0
    data = json.loads((out / "reports.json").read_text(encoding="utf-8"))
    assert {rep["claim"] for rep in data} == set(
        [
            "path-lemma",
            "path-lemma-shortest",
            "biclique-lemma",
            "thm6-soundness",
            "thm6-completeness",
            "corollary-scaling",
            "lemma2-lift",
        ]
    )


# A sha256 prefix of every default-suite report (its to_json_dict minus
# stats.elapsed_ms, as sorted-key JSON), in report order, and of summary.csv.
# Any change to a verdict, witness or counter of the default suite shows here;
# a change that means to make one updates these and says why in CHANGES.md.
DEFAULT_SUITE_REPORTS = [
    ("path-lemma", "path[n=3]", "c4ba3ef34f2d4bfa"),
    ("path-lemma-shortest", "path[n=3]", "dbd830d2d141073d"),
    ("path-lemma", "path[n=4]", "36bbda9de47eae69"),
    ("path-lemma-shortest", "path[n=4]", "373ea07ffef821be"),
    ("path-lemma", "path[n=5]", "76894a9dbc3d7b0f"),
    ("path-lemma-shortest", "path[n=5]", "78c5b963afd816ed"),
    ("path-lemma", "cycle[n=4]", "00a7e5e720443112"),
    ("path-lemma-shortest", "cycle[n=4]", "1920518312038258"),
    ("biclique-lemma", "all-bipartite[index=0,left=1,right=1]", "1c49beb1306298e6"),
    ("thm6-soundness", "all-bipartite[index=0,left=1,right=1]", "723394d7883124a1"),
    ("thm6-completeness", "all-bipartite[index=0,left=1,right=1]", "4e5aea76aaa777c7"),
    ("lemma2-lift", "all-bipartite[index=0,left=1,right=1]", "98bc5d2677e03c3a"),
    ("biclique-lemma", "all-bipartite[index=0,left=1,right=2]", "5669465132f8a354"),
    ("thm6-soundness", "all-bipartite[index=0,left=1,right=2]", "99d9cdf9ce6ad152"),
    ("thm6-completeness", "all-bipartite[index=0,left=1,right=2]", "471c9c8cd80f9f8c"),
    ("lemma2-lift", "all-bipartite[index=0,left=1,right=2]", "093ac8d8dbbee84f"),
    ("biclique-lemma", "all-bipartite[index=0,left=2,right=2]", "10baf4d9326208f0"),
    ("thm6-soundness", "all-bipartite[index=0,left=2,right=2]", "9c81c2588cc28776"),
    ("thm6-completeness", "all-bipartite[index=0,left=2,right=2]", "c34176b9a8ab992f"),
    ("lemma2-lift", "all-bipartite[index=0,left=2,right=2]", "56541d9eb44eea07"),
    ("biclique-lemma", "all-bipartite[index=1,left=2,right=2]", "5b6f605f8383978b"),
    ("thm6-soundness", "all-bipartite[index=1,left=2,right=2]", "18e99b5e9d987f09"),
    ("thm6-completeness", "all-bipartite[index=1,left=2,right=2]", "5bf2430619f9bf0d"),
    ("lemma2-lift", "all-bipartite[index=1,left=2,right=2]", "6a3a0b0cce81f5a0"),
    ("biclique-lemma", "all-bipartite[index=0,left=2,right=3]", "437bf207394d8dd0"),
    ("thm6-soundness", "all-bipartite[index=0,left=2,right=3]", "5d019a525836f2c6"),
    ("thm6-completeness", "all-bipartite[index=0,left=2,right=3]", "28a1ffa63bb4c600"),
    ("lemma2-lift", "all-bipartite[index=0,left=2,right=3]", "250f27e9c7bdefec"),
    ("biclique-lemma", "all-bipartite[index=1,left=2,right=3]", "eb5c88cd8ef415bb"),
    ("thm6-soundness", "all-bipartite[index=1,left=2,right=3]", "3673d834a5c04902"),
    ("thm6-completeness", "all-bipartite[index=1,left=2,right=3]", "61d3491136e26029"),
    ("lemma2-lift", "all-bipartite[index=1,left=2,right=3]", "1712d4c8de651711"),
    ("biclique-lemma", "all-bipartite[index=2,left=2,right=3]", "a526cf1aec97b04f"),
    ("thm6-soundness", "all-bipartite[index=2,left=2,right=3]", "fdc1c88ca69c6b07"),
    ("thm6-completeness", "all-bipartite[index=2,left=2,right=3]", "60d1624c9d387090"),
    ("lemma2-lift", "all-bipartite[index=2,left=2,right=3]", "2fcba6709aab087c"),
    ("biclique-lemma", "all-bipartite[index=3,left=2,right=3]", "6a59b9553c85bbc4"),
    ("thm6-soundness", "all-bipartite[index=3,left=2,right=3]", "e9898aac300b5032"),
    ("thm6-completeness", "all-bipartite[index=3,left=2,right=3]", "49e996b1fd04a16e"),
    ("lemma2-lift", "all-bipartite[index=3,left=2,right=3]", "dc8c88edd28c6d83"),
    ("corollary-scaling", "random-bipartite[beta=1/2,left=3,prob=1/2,right=3;seed=2]", "a45f3249af0886f8"),
    ("corollary-scaling", "random-bipartite[beta=3,left=3,prob=1/2,right=3;seed=2]", "3e194a003f7d7d1f"),
    ("lemma2-lift", "random-bipartite[left=3,prob=1/2,right=3;seed=2]", "e843c3b1f663a82b"),
]
DEFAULT_SUITE_SUMMARY = "eff01c6accfbbde8"


def _sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_lab_default_suite_outputs_pinned(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("lab", "--out", str(out)) == 0
    got = []
    for rep in json.loads((out / "reports.json").read_text(encoding="utf-8")):
        del rep["stats"]["elapsed_ms"]
        digest = _sha16(json.dumps(rep, sort_keys=True).encode())
        got.append((rep["claim"], instance_key(rep["instance"]), digest))
    for want, have in zip(DEFAULT_SUITE_REPORTS, got):
        assert have == want, f"first differing report: {want[:2]}, now {have}"
    assert len(got) == len(DEFAULT_SUITE_REPORTS)
    assert _sha16((out / "summary.csv").read_bytes()) == DEFAULT_SUITE_SUMMARY


# A sha256 prefix per (claim, size) of the all-bipartite 3x4 and 2x6 reports
# with the six path and gadget claims (276 reports): the newline-joined
# sorted-key JSON of that group's reports, minus stats.elapsed_ms, in report
# order.  These reports carry path witnesses, gadget contractions and biclique
# witnesses that the default suite's smaller instances do not reach.
SIX_CLAIMS = [
    "path-lemma", "path-lemma-shortest", "biclique-lemma",
    "thm6-soundness", "thm6-completeness", "lemma2-lift",
]
ALL_BIPARTITE_REPORTS = {
    ("path-lemma", "3x4"): (34, "b8e1ff66483fc13c"),
    ("path-lemma-shortest", "3x4"): (34, "cb48706462c16d91"),
    ("biclique-lemma", "3x4"): (34, "6a39cc0e619196cc"),
    ("thm6-soundness", "3x4"): (34, "1db02a8945ad91a0"),
    ("thm6-completeness", "3x4"): (34, "cb7f09da657075f5"),
    ("lemma2-lift", "3x4"): (34, "1cf6730fb116fa58"),
    ("path-lemma", "2x6"): (12, "60ff96bde153c384"),
    ("path-lemma-shortest", "2x6"): (12, "4cc5b3a54c09c6ed"),
    ("biclique-lemma", "2x6"): (12, "7c72bcf121574fc5"),
    ("thm6-soundness", "2x6"): (12, "39ae729341e87cfa"),
    ("thm6-completeness", "2x6"): (12, "409791dde9e23020"),
    ("lemma2-lift", "2x6"): (12, "59318abae1c7af5a"),
}


def _report_digests(tmp_path, config) -> dict[tuple[str, str], tuple[int, str]]:
    """Run the lab on a suite config; its reports' ``report_digests``."""
    suite = write(tmp_path, "suite.json", json.dumps(config))
    out = tmp_path / "out"
    assert run_cli("lab", "--suite", suite, "--out", str(out)) == 0
    return report_digests(json.loads((out / "reports.json").read_text(encoding="utf-8")))


def test_lab_all_bipartite_outputs_pinned(tmp_path, capsys):
    config = {"instances": [
        {"family": "all-bipartite", "left": 3, "right": 4, "claims": SIX_CLAIMS},
        {"family": "all-bipartite", "left": 2, "right": 6, "claims": SIX_CLAIMS},
    ]}
    got = _report_digests(tmp_path, config)
    for key, want in ALL_BIPARTITE_REPORTS.items():
        assert got.get(key) == want, f"reports of {key[0]} at {key[1]} differ"
    assert got.keys() == ALL_BIPARTITE_REPORTS.keys()


# The same digests for all-bipartite 4x4 (93 classes): the gadget claims and
# lemma2-lift with max_edges 29, since a 4x4 core's gadget has up to 29 edges
# (372 reports: 102 holds, 177 counterexamples, 93 vacuous), and both path
# claims (186 reports: 0 holds, 167 counterexamples, 19 vacuous)
ALL_BIPARTITE_4X4_REPORTS = [
    (["biclique-lemma", "thm6-soundness", "thm6-completeness", "lemma2-lift"], 29, {
        ("biclique-lemma", "4x4"): (93, "cc68454628855abc"),
        ("thm6-soundness", "4x4"): (93, "77817c2c96578a2d"),
        ("thm6-completeness", "4x4"): (93, "60bec10ae9008e59"),
        ("lemma2-lift", "4x4"): (93, "4c3f8cda721c1eb5"),
    }),
    (["path-lemma", "path-lemma-shortest"], 20, {
        ("path-lemma", "4x4"): (93, "bf5335c545639b4e"),
        ("path-lemma-shortest", "4x4"): (93, "7941808a3ac765de"),
    }),
]


@pytest.mark.parametrize(
    "claims, max_edges, pinned", ALL_BIPARTITE_4X4_REPORTS, ids=["gadget-claims", "path-claims"]
)
def test_lab_all_bipartite_4x4_outputs_pinned(tmp_path, capsys, claims, max_edges, pinned):
    config = {"caps": {"max_edges": max_edges}, "instances": [
        {"family": "all-bipartite", "left": 4, "right": 4, "claims": claims},
    ]}
    assert _report_digests(tmp_path, config) == pinned


@pytest.mark.parametrize("target", ["reports.json", "summary.csv", "goldens/path-lemma.json"])
def test_lab_failed_write_keeps_old_file(tmp_path, capsys, monkeypatch, target):
    # every lab output goes to a temporary file that is renamed into place:
    # a write that fails exits 2, keeps the old bytes and leaves no temporary file
    suite = _mini_suite(tmp_path)
    out = tmp_path / "out"
    assert run_cli("lab", "--suite", suite, "--out", str(out)) == 0
    capsys.readouterr()
    # a golden is rewritten only when it gains a verdict: drop one
    golden = out / "goldens" / "path-lemma.json"
    data = json.loads(golden.read_text(encoding="utf-8"))
    data.pop(next(iter(data)))
    golden.write_text(json.dumps(data), encoding="utf-8")
    path = out / target
    if path != golden:
        path.write_text("old\n", encoding="utf-8")
    old = path.read_bytes()
    files = sorted(out.rglob("*"))
    replace = os.replace

    def failing_replace(src, dst):
        if Path(dst) == path:
            raise OSError(errno.ENOSPC, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert run_cli("lab", "--suite", suite, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "no space left" in err.lower() and "Traceback" not in err
    assert path.read_bytes() == old
    assert sorted(out.rglob("*")) == files


@pytest.mark.parametrize(
    "flag,name",
    [("--out", "file"), ("--goldens", "file"), ("--out", "file/d"), ("--out", "dangling")],
)
def test_lab_refuses_an_output_that_is_not_a_directory(tmp_path, capsys, monkeypatch, flag, name):
    # a file or a dangling symlink at the path or above it is refused before
    # any claim runs, so nothing is written
    def no_run(*args, **kwargs):
        raise AssertionError("run_suite ran")

    monkeypatch.setattr(cli.lablib, "run_suite", no_run)
    write(tmp_path, "file", "")
    (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
    paths = {"--out": tmp_path / "out", "--goldens": tmp_path / "goldens", flag: tmp_path / name}
    argv = [word for option, path in paths.items() for word in (option, str(path))]
    assert run_cli("lab", *argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 20] Not a directory: '{paths[flag]}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dangling", "file"]
    assert (tmp_path / "file").read_bytes() == b""


def test_lab_bad_suite_file_exit_two(tmp_path):
    bad = write(tmp_path, "suite.json", "{broken")
    assert run_cli("lab", "--suite", bad, "--out", str(tmp_path / "o")) == 2


def test_lab_all_bipartite_over_cap_is_refused(tmp_path, capsys):
    # 6x6 has 36 possible edges, over the default cap of 20: refused before
    # any class is generated, and nothing is written
    config = {"instances": [{"family": "all-bipartite", "left": 6, "right": 6, "claims": []}]}
    suite = write(tmp_path, "suite.json", json.dumps(config))
    out = tmp_path / "o"
    assert run_cli("lab", "--suite", suite, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("refused:") and "exceeds the enumeration cap (20)" in err
    assert not out.exists()


_COROLLARY = {
    "family": "random-bipartite",
    "left": 2,
    "right": 2,
    "prob": "1/2",
    "seed": 1,
    "claims": ["corollary-scaling"],
}


@pytest.mark.parametrize(
    "config, where",
    [
        ({"instances": [{"family": "path"}]}, "instances[0]"),
        ([1, 2], "top level"),
        ({"caps": [], "instances": [{"family": "path", "n": 3, "claims": ["path-lemma"]}]}, "caps"),
        ({"caps": {"max_edges": "x"}, "instances": [{"family": "path", "n": 3}]}, "caps"),
        ({"caps": {"max_edges": True}, "instances": [{"family": "path", "n": 3}]}, "caps"),
        ({"instances": [{"family": "path", "n": True, "claims": ["path-lemma"]}]}, "instances[0].n"),
        ({"instances": [dict(_COROLLARY, betas="13")]}, "instances[0].betas"),
        ({"instances": [dict(_COROLLARY, betas=["x"])]}, "instances[0].betas"),
        ({"instances": [dict(_COROLLARY, trials="5")]}, "instances[0].trials"),
        ({"instances": [dict(_COROLLARY, prob=0.1)]}, "instances[0].prob"),
        ({"instances": [dict(_COROLLARY, prob="3/2")]}, "instances[0].prob"),
        ({"caps": {"max_edges": -5}, "instances": [dict(_COROLLARY)]}, "caps"),
        ({"instances": [{"family": "all-bipartite", "left": -1, "right": 2}]}, "instances[0].left"),
        # a misspelt cap or instance key would otherwise run with the default
        ({"caps": {"max_edge": 3}, "instances": [dict(_COROLLARY)]}, "caps.max_edge"),
        ({"instances": [dict(_COROLLARY, trial=5)]}, "instances[0].trial"),
        ({"instances": [{"family": "cycle", "n": 2, "claims": ["path-lemma"]}]}, "instances[0].n"),
        # a misspelt "instances" would otherwise run no instance and exit 0
        ({"instance": [dict(_COROLLARY)]}, "suite: instance is not"),
        # rationals are ASCII decimal: an Arabic-Indic three is not 3
        ({"instances": [dict(_COROLLARY, betas=["\u0663"])]}, "instances[0].betas"),
        # the corollary is stated for positive beta only: refused before any run
        ({"instances": [dict(_COROLLARY, betas=["0", "-1/2"])]}, "instances[0].betas"),
        ({"instances": [dict(_COROLLARY, betas=[1, -2])]}, "instances[0].betas"),
        ({"instances": {"family": "path"}}, "suite: instances must be a list"),
        ({"instances": [["path", 3]]}, "suite: instances[0] must be an object"),
        ({"instances": [dict(_COROLLARY, claims="path-lemma")]}, "instances[0].claims must be a list"),
        # betas and trials are read by corollary-scaling only
        ({"instances": [{"family": "path", "n": 3, "claims": ["path-lemma"], "betas": ["2"]}]},
         "instances[0].betas"),
        # a claim id is a string: a list there is refused, not a TypeError
        ({"instances": [{"family": "path", "n": 3, "claims": [["path-lemma"]]}]},
         "instances[0]: unknown claim id"),
    ],
)
def test_lab_malformed_suite_exit_two(tmp_path, capsys, config, where):
    suite = write(tmp_path, "suite.json", json.dumps(config))
    assert run_cli("lab", "--suite", suite, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: suite") and where in err
    assert "Traceback" not in err


def test_lab_file_instance_refuses_huge_edgeless_header(tmp_path, capsys, no_huge_adjacency):
    # every claim that needs a connected graph refuses it from the counts
    huge = write(tmp_path, "huge.txt", f"bipartite {HUGE} 1 0\n")
    claims = [
        "path-lemma", "path-lemma-shortest", "biclique-lemma",
        "thm6-soundness", "thm6-completeness", "corollary-scaling",
    ]
    suite = write(tmp_path, "suite.json", json.dumps(
        {"instances": [{"family": "file", "path": huge, "claims": claims}]}
    ))
    out = tmp_path / "o"
    assert run_cli("lab", "--suite", suite, "--out", str(out)) == 0
    assert capsys.readouterr().out.startswith("6 reports: 0 holds, 0 counterexamples, 0 vacuous, 6 errors\n")
    reports = json.loads((out / "reports.json").read_text(encoding="utf-8"))
    assert [r["claim"] for r in reports] == claims
    for r in reports:
        assert r["witness"]["error"].startswith("DisconnectedGraphError: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("lab", "--suite", "{suite}", "--out", "{file}"),
        ("lab", "--suite", "{suite}", "--out", "{tmp}/o", "--goldens", "{file}"),
        ("gen", "--family", "path", "--n", "3", "--out", "{file}/x.txt"),
    ],
)
def test_unusable_output_path_exit_two(tmp_path, capsys, argv):
    paths = {"suite": _mini_suite(tmp_path), "file": write(tmp_path, "f.txt", ""), "tmp": tmp_path}
    assert run_cli(*(arg.format(**paths) for arg in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, denied",
    [
        (("verify", "{p3}", "{c}"), "p3.txt"),
        (("verify", "{p3}", "{c}"), "c.txt"),
        (("gen", "--family", "path", "--n", "3", "--out", "{tmp}/g.txt"), "g.txt"),
        (("lab", "--suite", "{suite}", "--out", "{tmp}/o"), "suite.json"),
        (("lab", "--suite", "{suite}", "--out", "{tmp}/o"), "reports.json"),
    ],
)
def test_permission_denied_path_exit_two(tmp_path, capsys, monkeypatch, p3, argv, denied):
    # file modes do not stop root, so the refusal is simulated: every way a
    # named path is read or written raises PermissionError for that file
    paths = {
        "p3": p3, "c": write(tmp_path, "c.txt", "0\n"), "suite": _mini_suite(tmp_path), "tmp": tmp_path
    }

    def refusing(method):
        def call(path, *args, **kwargs):
            if Path(path).name == denied or Path(path).name.startswith(f".{denied}."):
                raise PermissionError(13, "Permission denied", str(path))
            return method(path, *args, **kwargs)

        return call

    monkeypatch.setattr(Path, "read_text", refusing(Path.read_text))
    monkeypatch.setattr(Path, "write_text", refusing(Path.write_text))
    monkeypatch.setattr("builtins.open", refusing(open))
    assert run_cli(*(arg.format(**paths) for arg in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Permission denied" in err
    assert "Traceback" not in err


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize(
    "argv, full",
    [
        (("verify", "{p3}", "{c}", "--weak", "--out", "{tmp}/v.txt"), "v.txt"),
        (("verify", "{p3}", "{c}", "--format", "json"), "<stdout>"),
        (("solve", "{p3}", "--problem", "cont", "--out", "{tmp}/s.txt"), "s.txt"),
        (("reduce", "{k22}", "--construction", "gadget", "--out", "{tmp}/r.txt"), "r.txt"),
        (
            ("reduce", "{k22}", "--construction", "tensor", "--out", "{tmp}/r.txt"),
            "r.txt.provenance.json",
        ),
        (("reduce", "{k22}", "--construction", "gadget", "--out", "{tmp}/r.txt"), "<stdout>"),
        (("gen", "--family", "path", "--n", "3", "--out", "{tmp}/g.txt"), "g.txt"),
        (("gen", "--family", "path", "--n", "3"), "<stdout>"),
        (
            ("gen", "--family", "planted", "--left", "3", "--right", "3", "--plant-left", "2",
             "--plant-right", "2", "--out", "{tmp}/g.txt", "--plant-out", "{tmp}/w.json"),
            "w.json",
        ),
        (("lab", "--suite", "{suite}", "--out", "{tmp}/o"), "<stdout>"),
    ],
)
def test_failed_write_exit_two(tmp_path, capsys, monkeypatch, p3, k22, argv, full):
    # a full disk is simulated: writing the named file, or stdout, raises
    # ENOSPC; the command exits 2 with one error line and no traceback
    paths = {
        "p3": p3, "k22": k22, "c": write(tmp_path, "c.txt", "0\n"),
        "suite": _mini_suite(tmp_path), "tmp": tmp_path,
    }
    write_text = Path.write_text

    def filling(path, *args, **kwargs):
        if path.name == full:
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", filling)
    if full == "<stdout>":
        monkeypatch.setattr(sys, "stdout", _FullStream())
    assert run_cli(*(arg.format(**paths) for arg in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "No space left on device" in err and "Traceback" not in err


@pytest.mark.parametrize("old", [False, True], ids=["new-paths", "old-files"])
@pytest.mark.parametrize(
    "argv, first, second",
    [
        (("reduce", "{k22}", "--construction", "gadget", "--out", "{tmp}/r.txt"),
         "r.txt", "r.txt.provenance.json"),
        (("gen", "--family", "planted", "--left", "3", "--right", "3", "--plant-left", "2",
          "--plant-right", "2", "--out", "{tmp}/g.txt", "--plant-out", "{tmp}/w.json"),
         "g.txt", "w.json"),
    ],
    ids=["reduce", "gen"],
)
def test_paired_write_leaves_no_file_without_its_partner(
    tmp_path, capsys, monkeypatch, k22, argv, first, second, old
):
    # reduce writes a graph and its provenance sidecar, gen a graph and its
    # plant file: when the second write fails, the first new file is not
    # left behind without its partner, any old files keep their bytes, and
    # no temporary file or directory is left
    for name in (first, second) if old else ():
        (tmp_path / name).write_text(f"old {name}\n", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    write_text = Path.write_text

    def filling(path, *args, **kwargs):
        if path.name == second:
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", filling)
    assert run_cli(*(arg.format(k22=k22, tmp=tmp_path) for arg in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "No space left on device" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    # with the write restored both files are replaced, the sidecar first
    monkeypatch.setattr(Path, "write_text", write_text)
    renamed = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda a, b: (renamed.append(Path(b).name), replace(a, b)))
    assert run_cli(*(arg.format(k22=k22, tmp=tmp_path) for arg in argv)) == 0
    assert renamed == [second, first]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({*before, first, second})


def test_paired_write_goes_through_a_symlink(tmp_path, capsys, k22):
    # an output path that is a symlink is written through, not replaced by
    # a rename: the link stays and its target gets the new bytes
    target = tmp_path / "real.txt"
    target.write_text("old\n", encoding="utf-8")
    (tmp_path / "r.txt").symlink_to(target)
    assert run_cli("reduce", k22, "--construction", "gadget", "--out", str(tmp_path / "r.txt")) == 0
    assert (tmp_path / "r.txt").is_symlink()
    assert target.read_text(encoding="utf-8").startswith("graph 8 8\n")
    assert (tmp_path / "r.txt.provenance.json").is_file()


def _run_module(*argv, stdout, unbuffered=False):
    # a fresh interpreter with block-buffered stdout, as in a shell pipeline,
    # or with PYTHONUNBUFFERED set
    env = dict(os.environ, PYTHONPATH=str(Path(cl.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "contractlab.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [(), ("--out", "/dev/full")])
def test_full_device_exit_two(argv):
    # stdout's buffer is flushed and dropped in the command, so the exit does
    # not retry the write (exit 120 with a second message)
    with open("/dev/full", "w") as full:
        proc = _run_module("gen", "--family", "path", "--n", "3", *argv, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("--help",), ("gen", "--help")], ids=["help", "gen-help"])
def test_help_to_full_device_exit_two(argv, unbuffered):
    # argparse prints help itself and ignores a failed write; the help text
    # goes through the one writer, so a failed write exits 2 like any other
    with open("/dev/full", "w") as full:
        proc = _run_module(*argv, stdout=full, unbuffered=unbuffered)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 28] No space left on device\n"


def test_broken_pipe_exit_two():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_module("gen", "--family", "path", "--n", "3", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_unknown_subcommand_exit_two():
    assert run_cli("frobnicate") == 2


def test_help_exits_zero():
    assert run_cli("--help") == 0
