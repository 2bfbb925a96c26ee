"""End-to-end command line runs, in process via ``main``."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from mercerkit import build_kernel, cli, validate_kernel
from mercerkit.cli import main
from mercerkit.space import load_atoms

GAUSSIAN = {"type": "gaussian", "gamma": 1.0}


def write_atoms(tmp_path, rows, dim=1, name="atoms.csv"):
    path = tmp_path / name
    header = "id,w," + ",".join(f"c{k + 1}" for k in range(dim))
    lines = [header] + [",".join(str(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_kernel(tmp_path, spec, name="kernel.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return path


def report_of(out):
    with open(out / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def three_atoms(tmp_path):
    return write_atoms(tmp_path, [("a", 1.0, 0.0), ("b", 0.5, 1.0), ("c", 2.0, 2.5)])


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_passes_for_gaussian(tmp_path, three_atoms):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    out = tmp_path / "out"
    code = main(["validate", "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(out)])
    assert code == 0
    report = report_of(out)
    assert report["command"] == "validate"
    assert report["passed"] is True
    assert report["validation"]["hermitian_ok"] is True
    assert report["validation"]["psd_ok"] is True
    assert report["n_atoms"] == 3
    # the text report mirrors the JSON keys
    text = (out / "report.txt").read_text()
    assert "validation.hermitian_deviation" in text
    assert "passed: true" in text


def test_validate_fails_for_asymmetric_table(tmp_path):
    atoms = write_atoms(tmp_path, [("a", 1.0, 0.0), ("b", 1.0, 1.0)])
    table = tmp_path / "table.csv"
    table.write_text(
        "x_id,t_id,l,j,re,im\n"
        "a,a,0,0,1.0,0.0\n"
        "b,b,0,0,1.0,0.0\n"
        "a,b,0,0,0.5,0.0\n"
        "b,a,0,0,0.9,0.0\n"
    )
    kernel = write_kernel(tmp_path, {"type": "precomputed", "path": "table.csv"})
    out = tmp_path / "out"
    code = main(["validate", "--atoms", str(atoms), "--kernel", str(kernel), "--out", str(out)])
    assert code == 2
    report = report_of(out)
    assert report["passed"] is False
    assert report["validation"]["hermitian_ok"] is False
    assert report["validation"]["hermitian_deviation"] == pytest.approx(0.4, abs=1e-15)


def test_missing_atoms_file_is_usage_error(tmp_path, capsys):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    code = main(
        ["validate", "--atoms", str(tmp_path / "nope.csv"), "--kernel", str(kernel), "--out", str(tmp_path / "out")]
    )
    assert code == 1
    assert "cannot read atoms file" in capsys.readouterr().err


def test_missing_required_option_is_usage_error(tmp_path, three_atoms, capsys):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    code = main(["validate", "--atoms", str(three_atoms), "--kernel", str(kernel)])
    assert code == 1
    assert "missing required option --out" in capsys.readouterr().err


def test_bad_kernel_spec_is_usage_error(tmp_path, three_atoms, capsys):
    kernel = write_kernel(tmp_path, {"type": "gaussian", "gamma": -2.0})
    code = main(["validate", "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "gamma" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_identity_table_oracle(tmp_path):
    # diag kernel over mu = (1, 3): rescaled weights (0.5, 1.5) are the
    # eigenvalues themselves and the trace budget is exactly 2
    atoms = write_atoms(tmp_path, [("a", 1.0, 0.0), ("b", 3.0, 1.0)])
    table = tmp_path / "table.csv"
    table.write_text(
        "x_id,t_id,l,j,re,im\n"
        "a,a,0,0,1.0,0.0\n"
        "b,b,0,0,1.0,0.0\n"
        "a,b,0,0,0.0,0.0\n"
    )
    kernel = write_kernel(tmp_path, {"type": "precomputed", "path": "table.csv"})
    out = tmp_path / "out"
    code = main(["decompose", "--atoms", str(atoms), "--kernel", str(kernel), "--out", str(out)])
    assert code == 0
    report = report_of(out)
    assert report["rank"] == 2
    assert report["m_nu"] == pytest.approx(2.0, abs=1e-15)
    assert report["spectrum_head"] == pytest.approx([1.5, 0.5], abs=1e-12)
    assert report["trace"]["ok"] is True
    assert report["passed"] is True

    rows = (out / "spectrum.csv").read_text().splitlines()
    assert rows[0] == "i,sigma"
    assert [float(r.split(",")[1]) for r in rows[1:]] == pytest.approx([1.5, 0.5], abs=1e-12)
    lines = (out / "eigenfunctions.csv").read_text().splitlines()
    assert lines[0] == "i,atom_id,j,re,im"
    assert len(lines) == 1 + 2 * 2  # rank x atoms, scalar kernel


def test_decompose_zero_measure_is_degenerate(tmp_path):
    atoms = write_atoms(tmp_path, [("a", 0.0, 0.0), ("b", 0.0, 1.0)])
    kernel = write_kernel(tmp_path, GAUSSIAN)
    out = tmp_path / "out"
    code = main(["decompose", "--atoms", str(atoms), "--kernel", str(kernel), "--out", str(out)])
    assert code == 3
    report = report_of(out)
    assert report["passed"] is False
    assert "empty support" in report["degenerate"]


def test_decompose_outputs_are_byte_deterministic(tmp_path, three_atoms):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(["decompose", "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(out1)]) == 0
    assert main(["decompose", "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(out2)]) == 0
    for name in ("spectrum.csv", "eigenfunctions.csv", "report.json", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


def test_metric_outputs(tmp_path, three_atoms):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    out = tmp_path / "out"
    code = main(["metric", "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(out)])
    assert code == 0

    rows = (out / "metric.csv").read_text().splitlines()
    assert rows[0] == "id,a,b,c"
    matrix = np.array([[float(v) for v in row.split(",")[1:]] for row in rows[1:]])
    np.testing.assert_array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0.0)

    with open(out / "quotient.json", encoding="utf-8") as fh:
        classes = json.load(fh)["classes"]
    assert [c["representative"] for c in classes] == ["a", "b", "c"]
    assert [c["members"] for c in classes] == [["a"], ["b"], ["c"]]

    assert (out / "support.txt").read_text().splitlines() == ["a", "b", "c"]
    report = report_of(out)
    assert report["class_count"] == 3
    assert report["mass_ok"] is True
    assert report["support_mass"] == report["total_mass"]


def test_metric_collapses_classes_for_constant_kernel(tmp_path, three_atoms):
    kernel = write_kernel(tmp_path, {"type": "constant", "value": 1.0})
    out = tmp_path / "out"
    assert main(["metric", "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(out)]) == 0
    report = report_of(out)
    assert report["class_count"] == 1
    with open(out / "quotient.json", encoding="utf-8") as fh:
        classes = json.load(fh)["classes"]
    assert classes[0]["members"] == ["a", "b", "c"]


def test_metric_mass_ok_with_interleaved_zero_mass(tmp_path):
    # the support sum over positive atoms alone differs from the full sum in
    # the last bit; the two must still compare equal
    weights = [1.072, 1.906, 0.374, 1.902, 0.692, 0.904, 1.673, 0.877, 1.144, 0.152]
    mu = np.zeros(20)
    mu[::2] = weights
    assert np.sum(mu[mu > 0]) != np.sum(mu)
    atoms = write_atoms(tmp_path, [(f"x{i}", float(w), float(i)) for i, w in enumerate(mu)])
    kernel = write_kernel(tmp_path, GAUSSIAN)
    out = tmp_path / "out"
    assert main(["metric", "--atoms", str(atoms), "--kernel", str(kernel), "--out", str(out)]) == 0
    report = report_of(out)
    assert report["support_size"] == 10
    assert report["mass_ok"] is True
    assert report["passed"] is True


@pytest.mark.parametrize(
    "row", ["a,b,0,0,nan,0.0", "b,a,0,0,0.5,0.0"], ids=["nan_entry", "inconsistent_mirror"]
)
def test_metric_validates_kernel(tmp_path, three_atoms, row):
    table = tmp_path / "table.csv"
    table.write_text(
        "x_id,t_id,l,j,re,im\n"
        "a,a,0,0,1.0,0.0\nb,b,0,0,1.0,0.0\nc,c,0,0,1.0,0.0\n"
        "a,b,0,0,0.1,0.0\na,c,0,0,0.1,0.0\nb,c,0,0,0.2,0.0\n" + row + "\n"
    )
    kernel = write_kernel(tmp_path, {"type": "precomputed", "path": "table.csv"})
    for command in ("validate", "metric", "decompose"):
        out = tmp_path / command
        assert main([command, "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(out)]) == 2
        report = report_of(out)
        assert report["command"] == command
        assert report["passed"] is False
        assert report["validation"]["hermitian_ok"] is False
    assert not (tmp_path / "metric" / "metric.csv").exists()


def test_no_subcommand_evaluates_builtin_kernels_pair_by_pair(tmp_path, monkeypatch):
    # every consumer reads whole blocks; a reintroduced per-pair loop counts here
    calls = []

    def counting(kernel):
        inner = kernel.eval

        def counted(x, t):
            calls.append((x.label, t.label))
            return inner(x, t)

        return dataclasses.replace(kernel, eval=counted)

    load, make = cli.kernel_from_file, cli.synthesize_kernel
    monkeypatch.setattr(cli, "kernel_from_file", lambda path: counting(load(path)))
    monkeypatch.setattr(cli, "synthesize_kernel", lambda family: counting(make(family)))
    rows = [(f"x{i}", 0.0 if i % 3 == 2 else 1.0, 0.4 * i, 0.1 * i * i) for i in range(9)]
    atoms = write_atoms(tmp_path, rows, dim=2)
    kernel = write_kernel(tmp_path, GAUSSIAN)
    base = ["--atoms", str(atoms), "--out"]
    for command in ("validate", "metric", "decompose", "reconstruct", "frames"):
        assert main([command] + base + [str(tmp_path / command), "--kernel", str(kernel)]) == 0
    synth = base + [str(tmp_path / "synthesize")]
    assert main(["synthesize"] + synth + ["--kernel", str(kernel), "--kernel", str(kernel)]) == 0
    frame = str(tmp_path / "frames" / "frame_j0.csv")
    assert main(["synthesize"] + synth + ["--frames", frame, frame]) == 0
    assert main(["reconstruct"] + base + [str(tmp_path / "sub"), "--kernel", str(kernel), "--subset", "x2,x3"]) == 0
    assert calls == []


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def test_reconstruct_full_series(tmp_path, three_atoms):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    out = tmp_path / "out"
    code = main(["reconstruct", "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(out)])
    assert code == 0
    report = report_of(out)
    assert report["full_rank_ok"] is True
    assert report["passed"] is True
    assert report["off_support"] == []
    assert report["final_error"] <= report["tol_recon"]
    rows = (out / "errors.csv").read_text().splitlines()
    assert rows[0] == "m,max_abs_error"
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(report["rank"] + 1))


def test_reconstruct_selected_truncations(tmp_path, three_atoms):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    out = tmp_path / "out"
    code = main(
        [
            "reconstruct", "--atoms", str(three_atoms), "--kernel", str(kernel),
            "--out", str(out), "--truncations", "2,0",
        ]
    )
    assert code == 0
    rows = (out / "errors.csv").read_text().splitlines()
    assert [int(r.split(",")[0]) for r in rows[1:]] == [0, 2]


def test_reconstruct_reports_off_support_subset(tmp_path):
    atoms = write_atoms(tmp_path, [("a", 1.0, 0.0), ("b", 1.0, 1.0), ("c", 0.0, 9.0)])
    kernel = write_kernel(tmp_path, GAUSSIAN)
    out = tmp_path / "out"
    code = main(
        [
            "reconstruct", "--atoms", str(atoms), "--kernel", str(kernel),
            "--out", str(out), "--subset", "a,c",
        ]
    )
    assert code == 0
    report = report_of(out)
    assert report["off_support"] == ["c"]
    assert report["full_rank_ok"] is None  # no guarantee off the support
    assert report["passed"] is True


def test_reconstruct_rejects_unknown_subset_atom(tmp_path, three_atoms, capsys):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    code = main(
        [
            "reconstruct", "--atoms", str(three_atoms), "--kernel", str(kernel),
            "--out", str(tmp_path / "out"), "--subset", "a,zz",
        ]
    )
    assert code == 1
    assert "unknown atom id 'zz'" in capsys.readouterr().err


def test_reconstruct_rejects_bad_truncations(tmp_path, three_atoms, capsys):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    base = ["reconstruct", "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(tmp_path / "out")]
    assert main(base + ["--truncations", "1,x"]) == 1
    assert main(base + ["--truncations", "99"]) == 1
    err = capsys.readouterr().err
    assert "out of range" in err


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def test_frames_writes_one_file_per_component(tmp_path, three_atoms):
    spec = {
        "type": "diagonal",
        "blocks": [GAUSSIAN, {"type": "laplacian", "gamma": 0.5}],
    }
    kernel = write_kernel(tmp_path, spec)
    out = tmp_path / "out"
    code = main(["frames", "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(out)])
    assert code == 0
    report = report_of(out)
    assert [b["j"] for b in report["blocks"]] == [0, 1]
    assert all(b["ok"] for b in report["blocks"])
    assert report["passed"] is True
    for j in range(2):
        lines = (out / f"frame_j{j}.csv").read_text().splitlines()
        assert lines[0] == "i,atom_id,value_re,value_im"
        assert len(lines) > 1


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def test_synthesize_round_trip_from_kernels(tmp_path, three_atoms):
    k1 = write_kernel(tmp_path, GAUSSIAN, "k1.json")
    k2 = write_kernel(tmp_path, {"type": "gaussian", "gamma": 2.0}, "k2.json")
    out = tmp_path / "out"
    code = main(
        [
            "synthesize", "--atoms", str(three_atoms),
            "--kernel", str(k1), "--kernel", str(k2), "--out", str(out),
        ]
    )
    assert code == 0
    report = report_of(out)
    assert report["n"] == 2
    assert report["validation"]["passed"] is True
    assert report["diagonal_ok"] is True
    assert report["passed"] is True
    assert report["diagonal_deviation"] <= report["tol_recon"]

    # the written table is itself a loadable, valid kernel
    spec = write_kernel(out, {"type": "precomputed", "path": "kernel.csv"}, "synth.json")
    synth = build_kernel({"type": "precomputed", "path": str(out / "kernel.csv")})
    space = load_atoms(three_atoms)
    assert synth.n == 2
    assert validate_kernel(synth, space.atoms).passed
    assert main(["validate", "--atoms", str(three_atoms), "--kernel", str(spec), "--out", str(out / "v")]) == 0


def test_synthesize_from_frame_files(tmp_path, three_atoms):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    frames_out = tmp_path / "frames_out"
    assert main(["frames", "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(frames_out)]) == 0
    out = tmp_path / "out"
    code = main(
        [
            "synthesize", "--atoms", str(three_atoms),
            "--frames", str(frames_out / "frame_j0.csv"),
            "--kernel", str(kernel), "--out", str(out),
        ]
    )
    assert code == 0
    report = report_of(out)
    assert report["n"] == 1
    assert report["diagonal_ok"] is True


def test_synthesize_requires_input(tmp_path, three_atoms, capsys):
    code = main(["synthesize", "--atoms", str(three_atoms), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "needs --kernel files or --frames files" in capsys.readouterr().err


def test_synthesize_rejects_matrix_kernels(tmp_path, three_atoms, capsys):
    spec = {"type": "diagonal", "blocks": [GAUSSIAN, GAUSSIAN]}
    kernel = write_kernel(tmp_path, spec)
    code = main(["synthesize", "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "scalar" in capsys.readouterr().err


def test_synthesize_rejects_frames_off_the_atom_file(tmp_path, three_atoms, capsys):
    frame = tmp_path / "frame.csv"
    frame.write_text("i,atom_id,value_re,value_im\n0,zz,1.0,0.0\n")
    code = main(
        ["synthesize", "--atoms", str(three_atoms), "--frames", str(frame), "--out", str(tmp_path / "out")]
    )
    assert code == 1
    assert "unknown atom id: 'zz'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config file and precedence
# ---------------------------------------------------------------------------


def test_config_supplies_defaults(tmp_path, three_atoms):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"atoms": str(three_atoms), "kernel": str(kernel), "out": str(out)}))
    assert main(["decompose", "--config", str(config)]) == 0
    assert report_of(out)["command"] == "decompose"


def test_flags_override_config(tmp_path, three_atoms):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    out_config, out_flag = tmp_path / "out_config", tmp_path / "out_flag"
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"atoms": str(three_atoms), "kernel": str(kernel), "out": str(out_config)})
    )
    assert main(["decompose", "--config", str(config), "--out", str(out_flag)]) == 0
    assert (out_flag / "report.json").exists()
    assert not out_config.exists()


def test_rank_cutoff_truncates_and_flag_wins(tmp_path, three_atoms):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    out_full, out_cut, out_flag = tmp_path / "full", tmp_path / "cut", tmp_path / "flag"
    base = ["decompose", "--atoms", str(three_atoms), "--kernel", str(kernel)]
    assert main(base + ["--out", str(out_full)]) == 0
    full_rank = report_of(out_full)["rank"]
    assert full_rank == 3

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rank_cutoff": 0.5}))
    assert main(base + ["--config", str(config), "--out", str(out_cut)]) == 0
    assert report_of(out_cut)["rank"] < full_rank

    assert main(base + ["--config", str(config), "--rank-cutoff", "0.0", "--out", str(out_flag)]) == 0
    assert report_of(out_flag)["rank"] == full_rank


def test_config_must_be_object(tmp_path, three_atoms, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    code = main(["decompose", "--config", str(config)])
    assert code == 1
    assert "config must be a JSON object" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# argparse plumbing
# ---------------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    assert "validate" in capsys.readouterr().out
