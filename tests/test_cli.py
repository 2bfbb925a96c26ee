"""End-to-end command line runs, in process via ``main``."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import NEAR_MAX_SEPARABLE
from mercerkit import build_kernel, cli, kernels, mercer, validate_kernel
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


def _reject_constant(name):
    raise ValueError(f"report.json is not strict JSON: {name}")


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
        report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
        assert report["command"] == command
        assert report["passed"] is False
        assert report["validation"]["hermitian_ok"] is False
    assert not (tmp_path / "metric" / "metric.csv").exists()


def test_overflowing_kernel_fails_validation_quietly(tmp_path, three_atoms, capsys):
    # (x t + 100)^400 overflows: the axiom checks fail on the non-finite Gram, with no numpy warning
    kernel = write_kernel(tmp_path, {"type": "polynomial", "degree": 400, "offset": 100.0})
    for command in ("validate", "metric", "decompose"):
        out = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ""
        report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
        assert report["passed"] is False
        assert report["validation"]["psd_ok"] is False


def test_validation_names_the_first_nonfinite_pair(tmp_path, three_atoms, capsys):
    # (x t)^800 on x = 0, 1, 2.5 is finite on every pair with a and on (b, b); (b, c) is the first to overflow
    kernel = write_kernel(tmp_path, {"type": "polynomial", "degree": 800, "offset": 0.0})
    out = tmp_path / "out"
    assert main(["validate", "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
    assert report["validation"]["nonfinite_pair"] == ["b", "c"]
    assert 'validation.nonfinite_pair: ["b", "c"]' in (out / "report.txt").read_text().splitlines()
    # a finite Gram leaves the key out
    finite = write_kernel(tmp_path, GAUSSIAN, name="gaussian.json")
    assert main(["validate", "--atoms", str(three_atoms), "--kernel", str(finite), "--out", str(out)]) == 0
    assert "nonfinite_pair" not in json.loads((out / "report.json").read_text())["validation"]


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
    # the row m = rank was not asked for, so there is no verdict on it, as off the support
    report = report_of(out)
    assert report["rank"] == 3
    assert report["full_rank_ok"] is None
    assert report["passed"] is True


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
    assert validate_kernel(synth, space).passed
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


def test_synthesize_from_the_frames_of_real_kernels_takes_the_real_path(tmp_path, three_atoms):
    # frames of real kernels have every value_im cell +0.0, so they read back real
    atoms, kernels, frames = ["--atoms", str(three_atoms)], [], []
    for k, spec in enumerate([GAUSSIAN, {"type": "laplacian", "gamma": 0.5}]):
        kernels += ["--kernel", str(write_kernel(tmp_path, spec, f"k{k}.json"))]
        assert main(["frames", *atoms, *kernels[-2:], "--out", str(tmp_path / f"f{k}")]) == 0
        frames.append(str(tmp_path / f"f{k}" / "frame_j0.csv"))
        assert mercer.read_frame(frames[-1]).values.dtype == np.float64
    from_kernels, from_frames = tmp_path / "kernels", tmp_path / "frames"
    assert main(["synthesize", *atoms, *kernels, "--out", str(from_kernels)]) == 0
    assert main(["synthesize", *atoms, "--frames", *frames, *kernels, "--out", str(from_frames)]) == 0
    by_kernels, by_frames = report_of(from_kernels), report_of(from_frames)
    for key in ("passed", "diagonal_ok", "n", "frame_count", "n_atoms"):
        assert by_frames[key] == by_kernels[key]
    assert by_frames["validation"]["passed"] is by_kernels["validation"]["passed"] is True
    assert (from_frames / "kernel.csv").read_bytes() == (from_kernels / "kernel.csv").read_bytes()


def test_synthesize_rejects_a_kernel_count_other_than_the_frame_count(tmp_path, three_atoms, capsys):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    frames_out = tmp_path / "frames_out"
    assert main(["frames", "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(frames_out)]) == 0
    frame = str(frames_out / "frame_j0.csv")
    out = tmp_path / "out"
    argv = ["synthesize", "--atoms", str(three_atoms), "--frames", frame, frame, "--kernel", str(kernel)]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "mercerkit: error: --kernel: expected one file per --frames file (2), got 1\n"
    assert not (out / "kernel.csv").exists()


def test_synthesize_rejects_frames_that_disagree_on_the_atom_set(tmp_path, three_atoms, capsys):
    frames = [tmp_path / "f0.csv", tmp_path / "f1.csv"]
    frames[0].write_text("i,atom_id,value_re,value_im\n0,a,1.0,0.0\n0,b,2.0,0.0\n")
    frames[1].write_text("i,atom_id,value_re,value_im\n0,a,1.0,0.0\n0,c,2.0,0.0\n")
    out = tmp_path / "out"
    argv = ["synthesize", "--atoms", str(three_atoms), "--frames", *map(str, frames), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "mercerkit: error: --frames: frames disagree on the atom set\n"
    assert not (out / "kernel.csv").exists()


def test_synthesize_with_an_empty_frame_list_in_the_config_reads_the_kernels(tmp_path, three_atoms):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"frames": []}))
    base = ["synthesize", "--atoms", str(three_atoms), "--kernel", str(write_kernel(tmp_path, GAUSSIAN))]
    assert main(base + ["--config", str(config), "--out", str(tmp_path / "config")]) == 0
    assert main(base + ["--out", str(tmp_path / "flags")]) == 0
    assert report_of(tmp_path / "config") == report_of(tmp_path / "flags")
    assert (tmp_path / "config" / "kernel.csv").read_bytes() == (tmp_path / "flags" / "kernel.csv").read_bytes()


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


@pytest.mark.parametrize("row", ["-1,a,5.0,0.0", "-3,a,5.0,0.0"], ids=["overwrites_last", "out_of_range"])
def test_synthesize_rejects_negative_frame_index(tmp_path, three_atoms, capsys, row):
    frame = tmp_path / "frame.csv"
    frame.write_text("i,atom_id,value_re,value_im\n0,a,1.0,0.0\n0,b,2.0,0.0\n1,a,3.0,0.0\n" + row + "\n")
    out = tmp_path / "out"
    code = main(["synthesize", "--atoms", str(three_atoms), "--frames", str(frame), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"mercerkit: error: {frame}: line 5: frame index must be nonnegative\n"
    assert not (out / "kernel.csv").exists()


def test_synthesize_rejects_frame_index_beyond_the_rows(tmp_path, three_atoms, capsys):
    # a dense frame this tall would take terabytes; the index is checked before anything is allocated
    frame = tmp_path / "frame.csv"
    frame.write_text("i,atom_id,value_re,value_im\n0,a,1.0,0.0\n0,b,2.0,0.0\n100000000000,c,3.0,0.0\n0,c,3.0,0.0\n")
    out = tmp_path / "out"
    code = main(["synthesize", "--atoms", str(three_atoms), "--frames", str(frame), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"mercerkit: error: {frame}: line 4: frame index 100000000000 is out of range for 4 data rows\n"
    assert not (out / "kernel.csv").exists()


@pytest.mark.parametrize("command", ["validate", "synthesize"])
def test_table_rejects_component_index_beyond_the_rows(tmp_path, three_atoms, capsys, command):
    # (k+1)^2 <= 2 * rows holds for every complete table; l = j = 300000 would ask for a 1.3 TiB table
    table = tmp_path / "table.csv"
    table.write_text("x_id,t_id,l,j,re,im\na,a,0,0,1.0,0.0\nb,b,0,0,1.0,0.0\nc,c,300000,300000,1.0,0.0\n")
    kernel = write_kernel(tmp_path, {"type": "precomputed", "path": "table.csv"})
    flag = ["--kernel", str(kernel)]
    code = main([command, "--atoms", str(three_atoms), *flag, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"mercerkit: error: {table}: line 4: component index 300000 is out of range for 3 data rows\n"


def no_memory(*args):
    raise MemoryError("Unable to allocate 57.4 GiB for an array")


def test_synthesize_reports_a_frame_too_large_to_hold(tmp_path, three_atoms, capsys, monkeypatch):
    # the dense build fails as it would for a 60,000-row frame of 60,000 atoms; nothing is allocated here
    monkeypatch.setattr(mercer, "_scatter", no_memory)
    frame = tmp_path / "frame.csv"
    frame.write_text("i,atom_id,value_re,value_im\n0,a,1.0,0.0\n0,b,2.0,0.0\n1,c,3.0,0.0\n")
    out = tmp_path / "out"
    code = main(["synthesize", "--atoms", str(three_atoms), "--frames", str(frame), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (
        f"mercerkit: error: cannot read frame file: {frame}: a dense frame of shape (2, 3) does not fit in memory\n"
    )
    assert not (out / "kernel.csv").exists()


@pytest.mark.parametrize("command", ["validate", "reconstruct"])
def test_table_too_large_to_hold_is_a_file_error(tmp_path, three_atoms, capsys, monkeypatch, command):
    monkeypatch.setattr(kernels, "_scatter", no_memory)
    table = tmp_path / "table.csv"
    table.write_text("x_id,t_id,l,j,re,im\na,a,0,0,1.0,0.0\nb,b,0,0,1.0,0.0\nc,c,0,0,1.0,0.0\na,b,1,1,1.0,0.0\n")
    kernel = write_kernel(tmp_path, {"type": "precomputed", "path": "table.csv"})
    code = main([command, "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (
        f"mercerkit: error: cannot read kernel table file: {table}: "
        "a dense table of shape (3, 3, 2, 2) does not fit in memory\n"
    )


def test_synthesize_rejects_frames_off_the_atom_file(tmp_path, three_atoms, capsys):
    frame = tmp_path / "frame.csv"
    frame.write_text("i,atom_id,value_re,value_im\n0,zz,1.0,0.0\n")
    code = main(
        ["synthesize", "--atoms", str(three_atoms), "--frames", str(frame), "--out", str(tmp_path / "out")]
    )
    assert code == 1
    assert "unknown atom id: 'zz'" in capsys.readouterr().err


# a cell longer than csv.field_size_limit() (131,072 characters by default), in a file numpy's pass rejects
LONG_CELL = "a" * 200_000


def field_limit_error(path, line):
    return f"mercerkit: error: {path}: line {line}: field larger than field limit ({csv.field_size_limit()})\n"


@pytest.mark.parametrize(
    "text, line",
    [(f"id,w,c1\n{LONG_CELL},1.0,0.0\nb,1.0,oops\n", 2), (f"id,w,{LONG_CELL}\na,1.0,0.0\n", 1)],
    ids=["data_row", "header"],
)
def test_atom_file_with_an_overlong_cell_is_a_file_error(tmp_path, capsys, text, line):
    atoms = tmp_path / "atoms.csv"
    atoms.write_text(text)
    kernel = write_kernel(tmp_path, GAUSSIAN)
    code = main(["validate", "--atoms", str(atoms), "--kernel", str(kernel), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == field_limit_error(atoms, line)


@pytest.mark.parametrize("given", ["frames", "frame_synth"])
def test_frame_file_with_an_overlong_cell_is_a_file_error(tmp_path, three_atoms, capsys, given):
    frame = tmp_path / "frame.csv"
    frame.write_text(f"i,atom_id,value_re,value_im\n0,{LONG_CELL},1.0,0.0\n0,b,oops,0.0\n")
    if given == "frames":
        argv = ["synthesize", "--frames", str(frame)]
    else:
        argv = ["validate", "--kernel", str(write_kernel(tmp_path, {"type": "frame_synth", "frames": ["frame.csv"]}))]
    code = main(argv + ["--atoms", str(three_atoms), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == field_limit_error(frame, 2)


@pytest.mark.parametrize(
    "kind, text",
    [
        ("atoms", b"id,w,c1\na,1.0,0.0\nb,1.0,1.\xff\n"),
        ("atoms", b"id,w,c1\n" + b"a,1.0,0.0\n" * 2000 + b"b,1.0,1.\xff\n"),
        ("table", b"x_id,t_id,l,j,re,im\na,a,0,0,1.\xff,0.0\n"),
        ("frame", b"i,atom_id,value_re,value_im\n0,a,1.\xff,0.0\n"),
        ("kernel", b'{"type": "gaussian", "gamma": 1.\xff}'),
    ],
    ids=["atoms", "atoms_past_the_first_read", "table", "frame", "kernel"],
)
def test_input_file_that_is_not_utf8_is_a_file_error(tmp_path, three_atoms, capsys, kind, text):
    bad = tmp_path / f"bad_{kind}"
    bad.write_bytes(text)
    atoms, kernel = three_atoms, write_kernel(tmp_path, GAUSSIAN)
    argv = ["validate"]
    if kind == "atoms":
        atoms = bad
    elif kind == "table":
        kernel = write_kernel(tmp_path, {"type": "precomputed", "path": bad.name}, name="table.json")
    elif kind == "frame":
        argv = ["synthesize", "--frames", str(bad)]
    else:
        kernel = bad
    if kind != "frame":
        argv += ["--kernel", str(kernel)]
    assert main(argv + ["--atoms", str(atoms), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"mercerkit: error: {bad}: 'utf-8' codec can't decode byte 0xff in position ")
    assert err.endswith(": invalid start byte\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "kind, message",
    [
        ("atoms", "./bad.csv: line 2: could not convert string to float: 'oops'"),
        ("frame", "./frame.csv: line 2: could not convert string to float: 'oops'"),
        ("missing", "cannot read atoms file: [Errno 2] No such file or directory: './none.csv'"),
    ],
    ids=["atoms", "frame", "missing"],
)
def test_input_file_is_named_as_given(tmp_path, three_atoms, monkeypatch, capsys, kind, message):
    # a path given as ./name is named ./name, not as a Path prints it; test_unreadable_config_is_a_one_line_usage_error
    # checks a kernel file
    (tmp_path / "bad.csv").write_text("id,w,c1\na,1.0,oops\n")
    (tmp_path / "frame.csv").write_text("i,atom_id,value_re,value_im\n0,a,oops,0.0\n")
    kernel = write_kernel(tmp_path, GAUSSIAN)
    monkeypatch.chdir(tmp_path)
    argv = {
        "atoms": ["validate", "--atoms", "./bad.csv", "--kernel", str(kernel)],
        "frame": ["synthesize", "--atoms", str(three_atoms), "--frames", "./frame.csv"],
        "missing": ["validate", "--atoms", "./none.csv", "--kernel", str(kernel)],
    }[kind]
    assert main(argv + ["--out", "out"]) == 1
    assert capsys.readouterr().err == f"mercerkit: error: {message}\n"


# ---------------------------------------------------------------------------
# exit paths shared by every subcommand
# ---------------------------------------------------------------------------

SUBCOMMANDS = ["validate", "metric", "decompose", "reconstruct", "frames", "synthesize"]


def run_subcommand(command, atoms, kernel, out):
    # synthesize computes its frames from the kernel, so it validates and decomposes it too
    return main([command, "--atoms", str(atoms), "--kernel", str(kernel), "--out", str(out)])


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_shared_exit_paths(tmp_path, command):
    atoms = write_atoms(tmp_path, [("a", 1.0, 0.0), ("b", 1.0, 1.0)])
    table = tmp_path / "table.csv"
    table.write_text("x_id,t_id,l,j,re,im\na,a,0,0,1.0,0.0\nb,b,0,0,1.0,0.0\na,b,0,0,0.5,0.0\nb,a,0,0,0.9,0.0\n")
    asymmetric = write_kernel(tmp_path, {"type": "precomputed", "path": "table.csv"})
    out = tmp_path / "asymmetric"
    assert run_subcommand(command, atoms, asymmetric, out) == 2
    report = report_of(out)
    assert set(report) == {"command", "kernel", "n_atoms", "validation", "passed"}
    assert (report["command"], report["n_atoms"], report["passed"]) == (command, 2, False)
    assert report["validation"]["hermitian_ok"] is False

    zero = write_atoms(tmp_path, [("a", 0.0, 0.0), ("b", 0.0, 1.0)], name="zero.csv")
    out = tmp_path / "zero_mass"
    code = run_subcommand(command, zero, write_kernel(tmp_path, GAUSSIAN), out)
    report = report_of(out)
    if command in ("validate", "metric"):  # neither needs positive mass
        assert code == 0
        assert report["passed"] is True
        return
    assert code == 3
    assert set(report) == {"command", "kernel", "n_atoms", "validation", "degenerate", "passed"}
    assert (report["command"], report["kernel"], report["n_atoms"]) == (command, "gaussian(gamma=1.0)", 2)
    assert report["validation"]["passed"] is True
    assert "empty support" in report["degenerate"]
    assert report["passed"] is False


@pytest.mark.parametrize("command", ["validate", "decompose", "reconstruct", "frames"])
def test_validation_and_assembly_share_one_symmetry_rule(tmp_path, capsys, command):
    # the core's pair (a, b) deviates by 0.1, the kernel's, times B = [[1e-12]], by 1e-13: under TOL_SYM
    atoms = write_atoms(tmp_path, [("a", 1.0, 0.0), ("b", 1.0, 1.0)])
    table = "x_id,t_id,l,j,re,im\na,a,0,0,1.0,0.0\nb,b,0,0,1.0,0.0\na,b,0,0,0.5,0.0\nb,a,0,0,0.4,0.0\n"
    (tmp_path / "t.csv").write_text(table)
    spec = {"type": "separable", "matrix": [[1e-12]], "scalar": {"type": "precomputed", "path": "t.csv"}}
    assert run_subcommand(command, atoms, write_kernel(tmp_path, spec), tmp_path / "out") == 0
    assert capsys.readouterr().err == ""
    assert report_of(tmp_path / "out")["passed"] is True


@pytest.mark.parametrize("depth", [400, 3000])
def test_deeply_nested_kernel_is_usage_error(tmp_path, three_atoms, capsys, depth):
    # a sum nested 400 deep exhausts the stack while the kernel is built, one 3000 deep while JSON is read
    gaussian = json.dumps(GAUSSIAN)
    kernel = tmp_path / "kernel.json"
    kernel.write_text('{"type": "sum", "terms": [' * depth + gaussian + f", {gaussian}]}}" * depth)
    assert run_subcommand("validate", three_atoms, kernel, tmp_path / "out") == 1
    assert capsys.readouterr().err == f"mercerkit: error: {kernel}: kernel description is nested too deeply\n"


def test_gaussian_whose_exponent_overflows_runs_quietly(tmp_path, capsys):
    # gamma |x - t|^2 overflows to inf off the diagonal and exp(-inf) is exactly 0: the Gram is the identity
    atoms = write_atoms(tmp_path, [("a", 1.0, 0.0), ("b", 1.0, 10.0), ("c", 0.0, 3.0)])
    kernel = write_kernel(tmp_path, {"type": "gaussian", "gamma": 1e308})
    for command in SUBCOMMANDS:
        # pytest captures warnings, so an uncaught one would not reach capsys
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_subcommand(command, atoms, kernel, tmp_path / command) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("entry", ["Infinity", "-Infinity", "NaN"])
def test_matrix_entry_that_is_not_finite_is_named(tmp_path, three_atoms, capsys, entry):
    # json reads these constants; such an entry of B is reported as what it is, not as asymmetry
    kernel = tmp_path / "kernel.json"
    kernel.write_text(f'{{"type": "separable", "matrix": [[{entry}, 0], [0, 1]], "scalar": {json.dumps(GAUSSIAN)}}}')
    for command in ("validate", "decompose"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_subcommand(command, three_atoms, kernel, tmp_path / command) == 1
        assert capsys.readouterr().err == "mercerkit: error: matrix: entries must be finite\n"


def test_matrix_near_the_largest_float_runs_quietly(tmp_path, capsys):
    # B = diag(1e308, 1e308) is finite, Hermitian and positive definite, and its Hermitian part is formed without
    # overflow; so are m_nu and the distances, whose intermediate products overflow; a number that overflows past
    # the largest float exits 1 with one line that names it
    kernel = write_kernel(tmp_path, NEAR_MAX_SEPARABLE)
    near = write_atoms(tmp_path, [("a", 1.0, 0.0), ("b", 1.0, 1.0)], name="near.csv")
    far = write_atoms(tmp_path, [("a", 1.0, 0.0), ("b", 1.0, 4.0)], name="far.csv")
    crowd = write_atoms(tmp_path, [("a", 1.0, 0.0), ("b", 1.0, 0.0), ("c", 1.0, 0.0)], name="crowd.csv")
    expected = {
        ("validate", near): "",
        ("reconstruct", near): "",
        ("frames", near): "",
        # tr K(x, x) is 2e308, its weighted value about 2
        ("decompose", near): "",
        # the squared distance of a and b is about 2e308, the distance about 1.4e154
        ("metric", far): "",
        # the Gram of three equal atoms has the eigenvalue 3e308
        ("validate", crowd): "validation.max_eigenvalue overflows the largest float",
    }
    for (command, atoms), message in expected.items():
        out = tmp_path / f"{command}-{atoms.stem}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_subcommand(command, atoms, kernel, out) == (1 if message else 0)
        assert capsys.readouterr().err == (f"mercerkit: error: {message}\n" if message else "")
    assert report_of(tmp_path / "validate-near")["validation"]["max_eigenvalue"] == 1.3678794411714423e308
    assert report_of(tmp_path / "decompose-near")["m_nu"] == pytest.approx(4.0, rel=1e-15)
    distances = (tmp_path / "metric-far" / "metric.csv").read_text().splitlines()
    assert float(distances[1].split(",")[2]) == pytest.approx(math.sqrt(2.0 * (1.0 - math.exp(-16.0))) * 1e154)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_table_missing_an_atom_is_usage_error(tmp_path, three_atoms, capsys, command):
    (tmp_path / "table.csv").write_text("x_id,t_id,l,j,re,im\na,a,0,0,1.0,0.0\nb,b,0,0,1.0,0.0\na,b,0,0,0.5,0.0\n")
    kernel = write_kernel(tmp_path, {"type": "precomputed", "path": "table.csv"})
    assert run_subcommand(command, three_atoms, kernel, tmp_path / "out") == 1
    assert capsys.readouterr().err == "mercerkit: error: precomputed kernel has no entry for pair ('a', 'c')\n"


@pytest.mark.parametrize("value", ["nan", "-1", "-1e-300", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag",
    [("decompose", "--rank-cutoff"), ("reconstruct", "--tol-recon"), ("metric", "--tol-quotient")],
)
def test_rejects_non_finite_or_negative_tolerance(tmp_path, three_atoms, capsys, command, flag, value):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    out = tmp_path / "out"
    argv = [command, "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(out)]
    assert main(argv + [f"{flag}={value}"]) == 1
    assert capsys.readouterr().err == f"mercerkit: error: {flag}: expected a finite nonnegative number, got {value}\n"
    assert not (out / "report.json").exists()


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


@pytest.mark.parametrize(
    "spec, cutoff", [(GAUSSIAN, "1e9"), ({"type": "constant", "value": 0.0}, "0.0")], ids=["cut", "zero"]
)
def test_rank_zero_decomposition_writes_header_only_tables(tmp_path, three_atoms, spec, cutoff):
    kernel = write_kernel(tmp_path, spec)
    base = ["--atoms", str(three_atoms), "--kernel", str(kernel), "--rank-cutoff", cutoff]
    assert main(["decompose", *base, "--out", str(tmp_path / "dec")]) == 0
    assert report_of(tmp_path / "dec")["rank"] == 0
    assert (tmp_path / "dec" / "spectrum.csv").read_bytes() == b"i,sigma\n"
    assert (tmp_path / "dec" / "eigenfunctions.csv").read_bytes() == b"i,atom_id,j,re,im\n"
    assert main(["frames", *base, "--out", str(tmp_path / "frames")]) == 0
    assert (tmp_path / "frames" / "frame_j0.csv").read_bytes() == b"i,atom_id,value_re,value_im\n"


def test_config_must_be_object(tmp_path, three_atoms, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    code = main(["decompose", "--config", str(config)])
    assert code == 1
    assert "config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, relative, kernel_message, config_message",
    [
        (
            b'{"atoms": \n ]',
            True,
            "./c.json: line 2: Expecting value",
            "./c.json: line 2: Expecting value",
        ),
        (
            b'{"atoms": "\xff"}',
            False,
            "{dir}/c.json: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte",
            "{dir}/c.json: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte",
        ),
        (
            b"[" * 100_000 + b"]" * 100_000,
            False,
            "{dir}/c.json: kernel description is nested too deeply",
            "{dir}/c.json: config is nested too deeply",
        ),
    ],
    ids=["syntax", "not_utf8", "nested_too_deeply"],
)
def test_unreadable_config_is_a_one_line_usage_error(
    tmp_path, monkeypatch, three_atoms, capsys, text, relative, kernel_message, config_message
):
    # --kernel and --config read JSON alike, and both name the path as it was given
    (tmp_path / "c.json").write_bytes(text)
    monkeypatch.chdir(tmp_path)
    path = "./c.json" if relative else str(tmp_path / "c.json")
    assert main(["validate", "--atoms", str(three_atoms), "--kernel", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"mercerkit: error: {kernel_message.format(dir=tmp_path)}\n"
    assert main(["validate", "--config", path]) == 1
    assert capsys.readouterr().err == f"mercerkit: error: {config_message.format(dir=tmp_path)}\n"


@pytest.mark.parametrize(
    "command, value, message",
    [
        ("validate", {"atoms": 5}, "--atoms: expected a file path, got 5"),
        ("validate", {"kernel": ["k.json"]}, '--kernel: expected a file path, got ["k.json"]'),
        ("decompose", {"rank_cutoff": "abc"}, "--rank-cutoff: could not convert string to float: 'abc'"),
        ("frames", {"rank_cutoff": -1}, "--rank-cutoff: expected a finite nonnegative number, got -1"),
        ("reconstruct", {"tol_recon": "x"}, "--tol-recon: could not convert string to float: 'x'"),
        ("metric", {"tol_quotient": [0.1]}, "--tol-quotient: expected a number, got [0.1]"),
        ("reconstruct", {"subset": 3}, "--subset: expected a comma-separated list"),
        ("synthesize", {"frames": "f.csv"}, '--frames: expected a list of file paths, got "f.csv"'),
        ("synthesize", {"kernel": [1]}, "--kernel: expected a file path, got 1"),
    ],
)
def test_config_values_are_checked_like_flags(tmp_path, three_atoms, capsys, command, value, message):
    config = tmp_path / "config.json"
    base = {"atoms": str(three_atoms), "kernel": str(write_kernel(tmp_path, GAUSSIAN)), "out": str(tmp_path / "out")}
    config.write_text(json.dumps({**base, **value}))
    assert main([command, "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"mercerkit: error: {message}\n"


def test_one_config_serves_every_subcommand(tmp_path, three_atoms):
    # keys a subcommand does not read are ignored
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "atoms": str(three_atoms),
                "kernel": str(write_kernel(tmp_path, GAUSSIAN)),
                "rank_cutoff": 0.0,
                "tol_recon": "1e-6",
                "tol_quotient": 0,
                "truncations": [0, 1],
            }
        )
    )
    for command in SUBCOMMANDS:
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
    assert report_of(tmp_path / "reconstruct")["tol_recon"] == 1e-6
    assert report_of(tmp_path / "synthesize")["tol_recon"] == 1e-6
    assert report_of(tmp_path / "metric")["tol_quotient"] == 0.0


# ---------------------------------------------------------------------------
# argparse plumbing
# ---------------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("validate", "--rank-cutoff"),
        ("metric", "--rank-cutoff"),
        ("decompose", "--tol-quotient"),
        ("reconstruct", "--tol-quotient"),
        ("frames", "--subset"),
        ("synthesize", "--rank-cutoff"),
    ],
)
def test_stray_flag_prints_the_subcommand_usage(tmp_path, three_atoms, capsys, command, flag):
    kernel = write_kernel(tmp_path, GAUSSIAN)
    out = tmp_path / "out"
    argv = [command, "--atoms", str(three_atoms), "--kernel", str(kernel), "--out", str(out), flag, "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: mercerkit {command} [-h]")
    assert err.endswith(f"mercerkit {command}: error: unrecognized arguments: {flag} 1\n")
    assert not out.exists()


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    assert "validate" in capsys.readouterr().out


def test_readme_command_lines_parse():
    # a flag dropped from the parser fails here instead of leaving the README stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("mercerkit ")]
    assert len(lines) >= len(SUBCOMMANDS)
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
