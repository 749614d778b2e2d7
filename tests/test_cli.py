"""cli: exit-status contract, output determinism, golden pinning and drift."""

from __future__ import annotations

import csv
import io
import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

import contractlab as cl
from contractlab.cli import main
from contractlab.lab import LabReport, summarize


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
    cfile = write(tmp_path, "c.txt", "zero\n")
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
    ]
    for argv, expected in matrix:
        assert run_cli(*argv) == expected


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
    g = cl.Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))  # two 3-paths
    gfile = write(tmp_path, "g.txt", cl.render_graph(g))
    assert (
        run_cli("solve", gfile, "--problem", "weakcont", "--beta", "1", "--format", "json")
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 2
    assert len(payload["components"]) == 2
    assert payload["witness"] == [0, 2]


def test_solve_threads_do_not_change_output(tmp_path, capsys):
    g = cl.Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))
    gfile = write(tmp_path, "g.txt", cl.render_graph(g))
    outputs = []
    for threads in ("1", "4"):
        assert (
            run_cli(
                "solve", gfile, "--problem", "weakcont", "--beta", "1",
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


def test_gen_unknown_family_exit_two():
    assert run_cli("gen", "--family", "dodecahedron") == 2


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


@pytest.mark.parametrize("target", ["reports.json", "summary.csv", "goldens/path-lemma.json"])
def test_lab_failed_write_keeps_old_file(tmp_path, capsys, monkeypatch, target):
    # every lab output goes to a temporary file that is renamed into place:
    # a write that fails keeps the old bytes and leaves no temporary file
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
            raise OSError("no space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="no space left"):
        run_cli("lab", "--suite", suite, "--out", str(out))
    assert path.read_bytes() == old
    assert sorted(out.rglob("*")) == files


def test_lab_bad_suite_file_exit_two(tmp_path):
    bad = write(tmp_path, "suite.json", "{broken")
    assert run_cli("lab", "--suite", bad, "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize(
    "config, where",
    [
        ({"instances": [{"family": "path"}]}, "instances[0]"),
        ([1, 2], "top level"),
        ({"caps": [], "instances": [{"family": "path", "n": 3, "claims": ["path-lemma"]}]}, "caps"),
        ({"caps": {"max_edges": "x"}, "instances": [{"family": "path", "n": 3}]}, "caps"),
    ],
)
def test_lab_malformed_suite_exit_two(tmp_path, capsys, config, where):
    suite = write(tmp_path, "suite.json", json.dumps(config))
    assert run_cli("lab", "--suite", suite, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: suite") and where in err
    assert "Traceback" not in err


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


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_unknown_subcommand_exit_two():
    assert run_cli("frobnicate") == 2


def test_help_exits_zero():
    assert run_cli("--help") == 0
