import contextlib
import csv
import dataclasses
import json
import os
import re
import threading
import warnings
from collections import OrderedDict, namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cohcert import bounds
from cohcert.cli import main, parse_state_spec, read_pattern_csv, to_json, CliInputError
from cohcert.patterns import COND_LIMIT
from conftest import run_python, write_w3_fringe


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    text = out.read_text()
    doc = json.loads(text) if name.endswith(".json") else None
    return rc, doc, text


def write_samples_csv(tmp_path, func, n=32, name="samples.csv", span=2 * np.pi):
    t = np.linspace(0, span, n, endpoint=False)
    path = tmp_path / name
    lines = ["t,p"] + [f"{float(ti)!r},{float(func(ti))!r}" for ti in t]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_parse_state_spec():
    rho, proj = parse_state_spec("W:3")
    assert rho.dim == 3 and proj.dim == 3
    rho, proj = parse_state_spec("werner:4:0.25")
    assert rho.dim == 4
    rho, proj = parse_state_spec("vec:3,4")
    assert np.allclose(np.abs(proj.amplitudes), [0.6, 0.8])
    with pytest.raises(CliInputError):
        parse_state_spec("nope:3")
    with pytest.raises(CliInputError):
        parse_state_spec("werner:3")
    with pytest.raises(CliInputError):
        parse_state_spec("vec:a,b")


def test_certify_state_spec(tmp_path):
    rc, doc, _ = run_cli(["certify", "--state", "W:3"], tmp_path)
    assert rc == 0
    assert doc["schema_version"] == 1
    assert doc["data"]["ratios"]["R_3"] == pytest.approx(1.7407, abs=1e-4)
    assert doc["data"]["verdict"]["certified_level"] == 3
    assert doc["data"]["moments"]["M_1"] == pytest.approx(1 / 3, abs=1e-12)


def test_certify_from_csv(tmp_path):
    path = write_samples_csv(tmp_path, lambda t: (1 + np.cos(t)) / 2)
    rc, doc, _ = run_cli(["certify", "--input", path], tmp_path)
    assert rc == 0
    assert doc["data"]["ratios"]["R_3"] == pytest.approx(1.25, abs=1e-6)
    assert doc["data"]["verdict"]["certified_level"] == 2


def test_certify_constant_samples(tmp_path):
    path = write_samples_csv(tmp_path, lambda t: 0.5)
    rc, doc, _ = run_cli(["certify", "--input", path], tmp_path)
    assert rc == 0
    # constant pattern at c0 has R_3 = c0; anything <= 1 certifies only level 1
    assert doc["data"]["ratios"]["R_3"] == pytest.approx(0.5, abs=1e-9)
    assert doc["data"]["verdict"]["certified_level"] == 1


@pytest.mark.parametrize("text, row", [
    ("t,p\n0.0,zero\n", 1),  # numpy counts this conversion error from row 0
    ("t,p\n0.0,0.5\n# note\n\n1.0\n", 2),  # and this column error from row 1
    ("# fringe\n#\nt,p\n0.0,0.5\nzero,0.5\n", 2),  # lines through the header are skipped
], ids=["conversion", "columns", "commented-header"])
def test_certify_malformed_csv_names_one_based_sample_row(tmp_path, capsys, text, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert main(["certify", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: malformed sample row {row}: ")
    assert err.count("\n") == 1 and " at row " not in err


def test_certify_non_finite_csv_names_one_based_sample_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,p\n0.0,nan\n")
    assert main(["certify", "--input", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: sample row 1 is not finite: t=0.0, p=nan\n"


@pytest.mark.parametrize("row", [1, 10_000])
def test_non_finite_row_of_a_long_csv_is_named(tmp_path, row):
    # the reader tests the whole array at once and looks for the row only on failure
    t = np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False).tolist()
    lines = [f"{ti!r},0.5" for ti in t]
    lines[row - 1] = f"{t[row - 1]!r},nan"
    bad = tmp_path / "long.csv"
    bad.write_text("t,p\n" + "\n".join(lines) + "\n")
    with pytest.raises(CliInputError) as err:
        read_pattern_csv(str(bad))
    assert str(err.value) == f"{bad}: sample row {row} is not finite: t={t[row - 1]!r}, p=nan"


@pytest.mark.parametrize("head, tail", [
    (b"\xff\xfe", b""),  # a UTF-16 byte-order mark: the header cannot be decoded
    (b"", b"\xff,0.5\n"),  # a bad byte far past the first chunk numpy reads
], ids=["header", "late-row"])
def test_certify_undecodable_csv_is_an_encoding_error(tmp_path, capsys, head, tail):
    bad = tmp_path / "bad.csv"
    rows = "".join(f"{i / 1000!r},0.5\n" for i in range(10000))
    bad.write_bytes(head + b"t,p\n" + rows.encode() + tail)
    assert main(["certify", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot decode {str(bad)!r} as UTF-8: 'utf-8' codec ")
    assert err.count("\n") == 1 and "malformed" not in err


def test_certify_csv_with_utf8_byte_order_mark(tmp_path):
    plain = write_samples_csv(tmp_path, lambda t: (3 + 4 * np.cos(t) + 2 * np.cos(2 * t)) / 9)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + open(plain, "rb").read())
    _, plain_doc, _ = run_cli(["certify", "--input", plain, "--dim", "3"], tmp_path)
    rc, bom_doc, _ = run_cli(["certify", "--input", str(bom), "--dim", "3"], tmp_path)
    assert rc == 0
    assert bom_doc["data"]["verdict"]["certified_level"] == 3
    for doc in (plain_doc, bom_doc):
        doc["data"]["pattern"].pop("input")
    assert bom_doc["data"] == plain_doc["data"]


def test_certify_malformed_csv(tmp_path):
    missing_header = tmp_path / "hdr.csv"
    missing_header.write_text("0.0,0.5\n1.0,0.7\n")
    rc = main(["certify", "--input", str(missing_header)])
    assert rc == 2


def test_certify_input_exclusivity(tmp_path):
    assert main(["certify"]) == 2
    path = write_samples_csv(tmp_path, lambda t: 0.5)
    assert main(["certify", "--state", "W:2", "--input", path]) == 2


def test_certify_projection_override(tmp_path):
    rc, doc, _ = run_cli(
        ["certify", "--state", "werner:3:0.0", "--projection", "vec:1,1,1"], tmp_path
    )
    assert rc == 0
    assert doc["data"]["ratios"]["R_3"] == pytest.approx(1.7407, abs=1e-4)
    assert main(["certify", "--state", "W:3", "--projection", "W:2"]) == 2


def test_certify_warns_when_fit_dim_reduced(tmp_path):
    path = write_samples_csv(tmp_path, lambda t: (1 + np.cos(t)) / 2, n=9)
    rc, doc, _ = run_cli(["certify", "--input", path], tmp_path)
    assert rc == 1
    assert any("reduced" in w for w in doc["warnings"])


def test_moments_command(tmp_path):
    rc, doc, _ = run_cli(["moments", "--state", "PSI:3"], tmp_path)
    assert rc == 0
    assert "verdict" not in doc["data"]
    assert doc["data"]["ratios"]["R_3"] == pytest.approx(1.7731, abs=1e-3)


def test_vec_spec_normalization(tmp_path):
    rc, doc, _ = run_cli(["certify", "--state", "vec:1,1"], tmp_path)
    assert rc == 0
    assert doc["data"]["ratios"]["R_3"] == pytest.approx(1.25, abs=1e-10)


def test_optimize_command(tmp_path):
    rc, doc, _ = run_cli(["optimize", "--n", "3", "--k", "2", "--restarts", "4"], tmp_path)
    assert rc == 0
    assert doc["data"]["max_value"] == pytest.approx(1.25, abs=1e-6)
    assert doc["params"]["restarts"] == 4


def test_dim_is_echoed_only_for_input(tmp_path):
    _, doc, _ = run_cli(["certify", "--state", "W:3"], tmp_path)
    assert "dim" not in doc["params"]
    path = write_samples_csv(tmp_path, lambda t: (1 + np.cos(t)) / 2)
    _, doc, _ = run_cli(["certify", "--input", path, "--dim", "3"], tmp_path)
    assert doc["params"]["dim"] == 3


def test_optimize_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["optimize", "--scan", "4", "--restarts", "3", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# schema_version:")
    header_idx = next(i for i, l in enumerate(lines) if l == "k,max_value")
    assert len(lines) - header_idx - 1 == 3  # k = 2, 3, 4


def test_vertex_check_command(tmp_path):
    rc, doc, _ = run_cli(["vertex-check"], tmp_path)
    assert rc == 0
    data = doc["data"]
    assert data["k3d3"]["published_maxima"] == [1.25, 1.58, 1.86]
    assert max(data["k3d3"]["abs_diffs"]) < 0.01
    assert data["k4d4"]["abs_diff_overall"] < 0.01
    for case in data.values():
        assert all(v["constraints_ok"] for v in case["vertices"])


def test_werner_sweep_command(tmp_path):
    rc, doc, _ = run_cli(["werner-sweep", "--k", "3", "--points", "11"], tmp_path)
    assert rc == 0
    data = doc["data"]
    assert data["r3"][0] == pytest.approx(940 / 540, abs=1e-9)
    assert data["r3"][-1] == pytest.approx(1 / 3, abs=1e-9)
    assert data["lambda_dec"]["2"] == pytest.approx(0.5)
    thr3 = next(row for row in data["thresholds"] if row["n"] == 3)
    assert thr3["lambda_thr"] == pytest.approx(0.1777, abs=1e-3)


@pytest.mark.parametrize("k", [2, 3, 5, 10])
def test_werner_sweep_matches_per_lambda_values(tmp_path, k):
    # per-lambda werner_rn, and the pattern of the validated density matrix
    from cohcert import WernerParams, pattern_from_states, ratio, w_state, werner_rn, werner_state

    _, doc, _ = run_cli(["werner-sweep", "--k", str(k), "--points", "21"], tmp_path)
    data = doc["data"]
    for n in (3, 4, 5):
        per_lambda = [werner_rn(k, lam, n) for lam in data["lambda_grid"]]
        assert data[f"r{n}"] == pytest.approx(per_lambda, rel=1e-13)
        from_matrix = [ratio(pattern_from_states(werner_state(WernerParams(k, lam)),
                                                 w_state(k).density()), n)
                       for lam in data["lambda_grid"]]
        assert data[f"r{n}"] == pytest.approx(from_matrix, rel=1e-13)


def test_werner_sweep_csv(tmp_path):
    out = tmp_path / "ws.csv"
    rc = main(["werner-sweep", "--k", "3", "--points", "5", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert "lambda,r3,r4,r5" in lines


def test_gue_sweep_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        rc = main(["gue-sweep", "--k", "3", "--samples", "5", "--seed", "42",
                   "--format", "csv", "--out", str(path)])
        assert rc in (0, 1)
    assert a.read_bytes() == b.read_bytes()


def test_gue_sweep_json_summary(tmp_path):
    rc, doc, _ = run_cli(["gue-sweep", "--k", "3", "--samples", "5", "--seed", "1"], tmp_path)
    assert rc in (0, 1)
    assert doc["data"]["summary"]["n_samples"] == 5
    assert len(doc["data"]["records"]) == 5 * 51


def test_gue_sweep_documents(tmp_path):
    argv = ["gue-sweep", "--k", "3", "--samples", "2", "--seed", "1"]
    _, _, text = run_cli(argv + ["--format", "csv"], tmp_path, name="sweep.csv")
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert rows[0] == "seed,tau,D,r3" and len(rows) == 1 + 2 * 51
    # the record table is written as a fill of each field's distinct values,
    # and the document equals json's own compact text
    _, _, text = run_cli(argv, tmp_path)
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_gue_sweep_anchors_every_sample_at_zero_drift(tmp_path):
    rc, doc, _ = run_cli(["gue-sweep", "--k", "4", "--samples", "40", "--seed", "7"], tmp_path)
    assert rc == 0
    data = doc["data"]
    anchors = [r for r in data["records"] if r["tau"] == 0.0]
    assert len(anchors) == 40
    assert all(r["D"] == 0.0 and r["r3"] == data["summary"]["drift_free_r3"] for r in anchors)


def test_approx_command(tmp_path):
    rc, doc, _ = run_cli(
        ["approx", "--target", "werner:3:0.54", "--q", "2", "--restarts", "8"], tmp_path
    )
    assert rc == 0
    assert doc["data"]["residual"] < 1e-8
    assert not doc["data"]["exceeds_q_coherence"]
    assert len(doc["data"]["components"]) == 3
    weights = [c["weight"] for c in doc["data"]["components"]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)


def test_approx_does_not_overclaim_above_decoherence(tmp_path):
    # lambda = 0.9 > lambda_dec(5, 2) = 3/4: the state is 2-coherent, and so is its pattern
    rc, doc, _ = run_cli(["approx", "--target", "werner:5:0.9", "--q", "2"], tmp_path)
    assert rc == 0
    data = doc["data"]
    assert not data["exceeds_q_coherence"]
    assert data["residual"] < 1e-8
    assert 0.0 <= data["residual_lower_bound"] <= data["residual"]


def test_approx_csv_series(tmp_path):
    out = tmp_path / "approx.csv"
    rc = main(["approx", "--target", "werner:3:0.54", "--q", "2", "--restarts", "4",
               "--plot-points", "16", "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = next(l for l in lines if l.startswith("t,"))
    assert header == "t,target_p,approx_p,component0_p,component1_p,component2_p"


def test_approx_csv_mixture_is_weighted_sum_of_component_columns(tmp_path):
    argv = ["approx", "--target", "werner:5:0.4", "--q", "3"]
    _, doc, _ = run_cli(argv, tmp_path)
    weights = [c["weight"] for c in doc["data"]["components"]]
    _, _, text = run_cli(argv + ["--plot-points", "16", "--format", "csv"], tmp_path, "out.csv")
    rows = [[float(v) for v in line.split(",")] for line in text.splitlines()
            if line[:1].isdigit()]
    assert len(rows) == 16 and len(rows[0]) == 3 + len(weights)
    for row in rows:
        assert row[2] == sum(w * p for w, p in zip(weights, row[3:]))


def test_tables_command(tmp_path):
    # Table 2 is reproduced from the uniform row and one seeded draw alone,
    # with no published profile among the starts
    rc, doc, _ = run_cli(["tables", "--restarts", "2"], tmp_path)
    assert rc == 0
    data = doc["data"]
    assert len(data["table2"]) == 12
    row_k2 = next(r for r in data["table1"] if r["k"] == 2)
    assert row_k2["threshold_exact"] == "5/4" and row_k2["threshold"] == 1.25
    cell_r4k4 = next(r for r in data["table2"] if (r["n"], r["k"]) == (4, 4))
    assert abs(cell_r4k4["max_computed"] - 8.02) <= 0.01
    cell_t3 = next(r for r in data["table3"] if (r["n"], r["k"]) == (3, 5))
    assert abs(cell_t3["lambda_thr_computed"] - 0.10) <= 0.01
    assert all(r["abs_diff_max"] <= 0.01 for r in data["table2"])
    assert all(r["abs_diff"] <= 0.01 for r in data["table3"])
    fit = data["fig1"]["linear_fit"]
    assert 0.5 < fit["slope"] < 0.6


def test_tables_w_values_are_table3_thresholds(tmp_path):
    # R_n of the uniform k-profile is both Table 2's W value at k and Table 3's
    # comparison threshold at k + 1: one value, from Table 3's moment pass
    from cohcert.optimize import rn_of_alpha

    for argv in (["--restarts", "1"], ["--restarts", "32", "--seed", "1"]):
        rc, doc, _ = run_cli(["tables", *argv], tmp_path)
        assert rc == 0
        used = {(row["n"], row["k"]): row["threshold_used"] for row in doc["data"]["table3"]}
        for row in doc["data"]["table2"]:
            n, k = row["n"], row["k"]
            assert row["w_value_computed"] == used[(n, k + 1)], (n, k)
            assert row["w_value_computed"] == pytest.approx(rn_of_alpha(np.full(k, 1 / k), n),
                                                            rel=1e-14)
        # every threshold is reachable inside (0, 1)
        assert all(0.0 < row["lambda_thr_computed"] < 1.0 for row in doc["data"]["table3"])
        assert len(doc["data"]["table3"]) == 24 and not doc["warnings"]


@pytest.mark.parametrize("argv", [
    ["approx", "--target", "werner:3:0.5", "--q", "0"],
    ["optimize", "--restarts", "0"],
    ["approx", "--target", "werner:3:0.5", "--q", "2", "--restarts", "0"],
    ["approx", "--target", "werner:3:0.5", "--q", "2", "--plot-points", "-1"],
    ["tables", "--restarts", "0"],
    ["tables", "--restarts", "nan"],
    ["optimize", "--k", "1"],
    ["optimize", "--scan", "1"],
    ["gue-sweep", "--samples", "0"],
    ["werner-sweep", "--k", "0"],
    ["werner-sweep", "--points", "-1"],
    ["certify", "--input", "samples.csv", "--dim", "0"],
    ["certify", "--input", "samples.csv", "--dim", "-4"],
    ["optimize", "--scan", "2"],
    ["optimize", "--seed", "-5"],
    ["tables", "--restarts", "1", "--seed", "-1"],
    ["gue-sweep", "--k", "3", "--samples", "1", "--seed", "-1"],
])
def test_out_of_range_numeric_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error: argument --" in captured.err and "Traceback" not in captured.err


def test_unwritable_out_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["certify", "--state", "W:3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}:")
    assert captured.err.count("\n") == 1 and not out.parent.exists()


def test_csv_rejected_for_non_series(tmp_path):
    assert main(["certify", "--state", "W:2", "--format", "csv"]) == 2


def test_read_pattern_csv_roundtrip(tmp_path):
    path = write_samples_csv(tmp_path, lambda t: 0.25)
    arr = read_pattern_csv(path)
    assert arr.shape == (32, 2)
    with pytest.raises(CliInputError):
        read_pattern_csv(str(tmp_path / "missing.csv"))


def test_document_reproducibility_json(tmp_path):
    _, _, text1 = run_cli(["optimize", "--n", "3", "--k", "3", "--restarts", "3",
                           "--seed", "7"], tmp_path, name="r1.json")
    _, _, text2 = run_cli(["optimize", "--n", "3", "--k", "3", "--restarts", "3",
                           "--seed", "7"], tmp_path, name="r2.json")
    assert text1 == text2


@pytest.mark.parametrize("argv", [
    ["certify", "--state", "W:3"],
    ["gue-sweep", "--k", "3", "--samples", "2", "--seed", "1"],
    ["werner-sweep", "--k", "3", "--points", "5", "--format", "csv"],
], ids=lambda argv: argv[0])
def test_timings_file_leaves_the_document_unchanged(tmp_path, argv):
    name = "out.csv" if "csv" in argv else "out.json"
    rc, _, plain = run_cli(argv, tmp_path, name=name)
    timings = tmp_path / "timings.json"
    assert run_cli(argv + ["--timings", str(timings)], tmp_path, name=name) == (rc, _, plain)
    record = json.loads(timings.read_text())
    assert record["command"] == argv[0]
    assert sorted(record["stages"]) == ["compute", "encode", "write"]
    assert all(isinstance(s, float) and s >= 0.0 for s in record["stages"].values())


def test_unwritable_timings_is_input_error(tmp_path, capsys):
    path = tmp_path / "missing" / "t.json"
    assert main(["certify", "--state", "W:3", "--timings", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}:")


def test_shared_parser_leaks_no_defaults(tmp_path):
    # one process alternates commands; each document must match the one a
    # freshly built parser produces for the same command line
    from cohcert import cli

    path = write_samples_csv(tmp_path, lambda t: (1 + np.cos(t)) / 2)
    commands = [
        ["certify", "--input", path, "--dim", "3"],
        ["gue-sweep", "--k", "3", "--samples", "2", "--seed", "5"],
        ["optimize", "--n", "4", "--k", "2", "--restarts", "2"],
        ["certify", "--state", "W:3"],
    ]
    shared = []
    for i, argv in enumerate(commands):
        shared.append(run_cli(argv, tmp_path, name=f"shared{i}.json")[2])
    for i, argv in enumerate(commands):
        cli._shared_parser.cache_clear()
        assert run_cli(argv, tmp_path, name=f"fresh{i}.json")[2] == shared[i]


@pytest.mark.parametrize("spec,level", [("W:1", 1), ("W:2", 2), ("PSI:1", 1)])
def test_certify_threshold_states_not_overclaimed(tmp_path, spec, level):
    rc, doc, _ = run_cli(["certify", "--state", spec], tmp_path)
    assert rc == 0
    assert doc["data"]["verdict"]["certified_level"] == level


@pytest.mark.parametrize("spec,level,used,nxt", [
    ("W:1", 1, None, "1"),
    ("W:2", 2, "1", "5/4"),
    ("W:3", 3, "5/4", "179/96"),
    ("PSI:5", 4, "179/96", None),
])
def test_certify_verdict_carries_exact_thresholds_and_margins(tmp_path, spec, level, used, nxt):
    rc, doc, _ = run_cli(["certify", "--state", spec], tmp_path)
    assert rc == 0
    verdict = doc["data"]["verdict"]
    value = verdict["value"]
    assert verdict["certified_level"] == level
    assert verdict["threshold_exact"] == used
    assert verdict["next_threshold_exact"] == nxt
    for exact, margin in ((used, verdict["margin_used"]), (nxt, verdict["margin_to_next"])):
        if exact is None:
            assert margin is None
        else:
            assert margin == value / float(Fraction(exact)) - 1.0
    if used is not None:
        assert float(Fraction(used)) == verdict["threshold_used"]
        assert verdict["margin_used"] > 0
    if nxt is not None:
        # a state at a threshold (W_k for k = 1, 2) sits on it, within round-off
        assert verdict["margin_to_next"] < 1e-14


def test_certify_verdict_renders_every_field_of_the_record(tmp_path):
    rc, doc, _ = run_cli(["certify", "--state", "W:3"], tmp_path)
    assert rc == 0
    fields = {f.name for f in dataclasses.fields(bounds.Verdict)}
    assert set(doc["data"]["verdict"]) == fields | {"n", "statement"}


@pytest.mark.parametrize("n,dim", [(16, 2), (32, 8), (63, 4), (100, 8), (256, 3)])
def test_certify_fitted_w2_fringe_stays_level_2(tmp_path, n, dim):
    # R_3 of (1 + cos t)/2 is exactly 5/4; round-off in the fit and the
    # moments must not certify 3-coherence
    path = write_samples_csv(tmp_path, lambda t: (1 + np.cos(t)) / 2, n=n)
    rc, doc, _ = run_cli(["certify", "--input", path, "--dim", str(dim)], tmp_path)
    assert rc == 0
    assert doc["data"]["ratios"]["R_3"] == pytest.approx(1.25, abs=1e-12)
    assert doc["data"]["verdict"]["certified_level"] == 2


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_certify_rejects_non_finite_rows(tmp_path, capsys, column, value):
    row = ["1.0", "0.5"]
    row[column] = value
    bad = tmp_path / "bad.csv"
    bad.write_text("t,p\n0.0,0.5\n0.5,0.6\n" + ",".join(row) + "\n2.0,0.4\n")
    rc = main(["certify", "--input", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "sample row 3" in captured.err and "not finite" in captured.err
    with pytest.raises(CliInputError):
        read_pattern_csv(str(bad))


def test_certify_dark_pattern_is_input_error(capsys):
    assert main(["certify", "--state", "vec:1,0", "--projection", "vec:0,1"]) == 2
    assert "dark pattern" in capsys.readouterr().err


def test_certify_dark_fit_names_its_input(tmp_path, capsys):
    path = write_samples_csv(tmp_path, lambda t: 0.0, n=64)
    assert main(["certify", "--input", path, "--dim", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: dark pattern: M_1 = 0, ratios undefined\n"


def test_moments_dark_fit_is_input_error(tmp_path, capsys):
    path = write_samples_csv(tmp_path, lambda t: 0.0, n=64)
    assert main(["moments", "--input", path, "--dim", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dark pattern: M_1 = 0, ratios undefined\n"


def test_certify_path_with_nul_byte_cannot_be_read(capsys):
    assert main(["certify", "--input", "a\x00b.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot read 'a\\x00b.csv': embedded null byte\n"


@pytest.mark.parametrize("func", [
    lambda t: 100 * (1 + np.cos(t)) / 2,  # percent
    lambda t: 2.0,  # R_3 = 2 would claim 4 levels
    lambda t: 3 * (1 + np.cos(t)) / 2,  # R_3 = 3.75
], ids=["percent-w2", "constant-2", "3x-w2"])
def test_certify_rejects_non_probability_fringe(tmp_path, capsys, func):
    path = write_samples_csv(tmp_path, func, n=64)
    assert main(["certify", "--input", path, "--dim", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: fitted p(t) leaves [-0.1, 1.1]; "
                            "p must be a probability\n")


def test_certify_rejects_fit_with_negative_third_moment(tmp_path, capsys):
    # a dark fringe whose fit stays inside [-0.1, 1.1] but dips below 0 far
    # enough that M_3 < 0, so R_3 = -20: not a probability, not a traceback
    path = write_samples_csv(
        tmp_path, lambda t: 0.002 + 0.06 * np.cos(t) - 0.035 * np.cos(2 * t), n=400)
    assert main(["certify", "--input", path, "--dim", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: {re.escape(path)}: fitted p\(t\) has R_3 = -20\.0\d* < 0; "
                        r"p must be a probability\n", captured.err)
    rc, doc, _ = run_cli(["moments", "--input", path, "--dim", "3"], tmp_path)
    assert rc == 0 and doc["data"]["ratios"]["R_3"] == pytest.approx(-20.0, rel=1e-3)


@pytest.mark.parametrize("func, level", [
    (lambda t: (3 + 4 * np.cos(t) + 2 * np.cos(2 * t)) / 9, 3),  # W_3
    (lambda t: (1 + np.cos(t)) / 2, 2),  # W_2
], ids=["w3", "w2"])
def test_certify_probability_fringe_keeps_its_level(tmp_path, func, level):
    path = write_samples_csv(tmp_path, func, n=64)
    rc, doc, _ = run_cli(["certify", "--input", path, "--dim", "3"], tmp_path)
    assert rc == 0
    assert doc["data"]["verdict"]["certified_level"] == level


def w3_fringe(t):
    return (3 + 4 * np.cos(t) + 2 * np.cos(2 * t)) / 9


def test_certify_rejects_ill_conditioned_fit(tmp_path, capsys):
    # on a quarter period, 15 unknowns (dimension 8) are nearly collinear; 5 are not
    path = write_samples_csv(tmp_path, w3_fringe, n=64, span=np.pi / 2)
    assert main(["certify", "--input", path, "--dim", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = re.fullmatch(r"error: pattern fit failed: ill-conditioned fit: design condition "
                         r"number (\S+) exceeds the limit 1e\+06; lower the fit dimension or "
                         r"spread the sample times over the period\n", captured.err)
    assert error and float(error[1]) > COND_LIMIT
    rc, doc, _ = run_cli(["certify", "--input", path, "--dim", "3"], tmp_path)
    assert rc == 0
    assert doc["data"]["verdict"]["certified_level"] == 3
    assert doc["data"]["pattern"]["fit_condition"] < COND_LIMIT


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_read_pattern_csv_keeps_a_text_file_named_like_an_archive(tmp_path, suffix):
    # np.loadtxt would decompress such a path by its name; the reader must not hand it over
    path = write_samples_csv(tmp_path, w3_fringe)
    named = tmp_path / f"samples.csv{suffix}"
    named.write_bytes((tmp_path / "samples.csv").read_bytes())
    assert read_pattern_csv(str(named)).tobytes() == read_pattern_csv(path).tobytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_certify_reads_a_pipe_like_a_file(tmp_path):
    # 4000 rows outgrow a pipe's buffer, so the reader must drain it while the writer runs
    path = write_samples_csv(tmp_path, w3_fringe, n=4000)
    data = b"# a W_3 fringe\n" + (tmp_path / "samples.csv").read_bytes()
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        rc, piped, _ = run_cli(["certify", "--input", f"/dev/fd/{read_end}", "--dim", "5"],
                               tmp_path, "piped.json")
    finally:
        os.close(read_end)
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert rc == 0
    _, plain, _ = run_cli(["certify", "--input", path, "--dim", "5"], tmp_path)
    for doc in (piped, plain):
        doc["params"].pop("input")
        doc["data"]["pattern"].pop("input")
    assert piped == plain


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_certify_reads_a_fringe_piped_to_standard_input(tmp_path):
    # `cat fringe.csv | cohcert certify --input /dev/stdin`: a pipe is read through
    # the open handle, not reopened by its path
    path = tmp_path / "fringe.csv"
    write_w3_fringe(path)
    rc, doc, _ = run_cli(["certify", "--input", str(path), "--dim", "3"], tmp_path)
    assert rc == 0 and doc["data"]["verdict"]["certified_level"] == 3
    read_end, write_end = os.pipe()
    with open(write_end, "wb") as pipe:  # the 64 rows fit in the pipe's buffer
        pipe.write(path.read_bytes())
    saved = os.dup(0)
    os.dup2(read_end, 0)
    os.close(read_end)
    try:
        rc, piped, _ = run_cli(["certify", "--input", "/dev/stdin", "--dim", "3"], tmp_path)
    finally:
        os.dup2(saved, 0)
        os.close(saved)
    assert rc == 0 and piped["data"]["verdict"]["certified_level"] == 3


def test_module_entry_point(tmp_path):
    # `python -m cohcert.cli` runs main through the module's __main__ guard
    proc = run_python(["-m", "cohcert.cli", "certify", "--state", "W:3"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["data"]["verdict"]["certified_level"] == 3
    proc = run_python(["-m", "cohcert.cli", "certify", "--state", "nope:3"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_ratios_derive_from_reported_moments(tmp_path):
    for spec in ("W:3", "PSI:4", "werner:4:0.3", "vec:0.3,0.9,0.5"):
        _, doc, _ = run_cli(["moments", "--state", spec], tmp_path)
        ms, rats = doc["data"]["moments"], doc["data"]["ratios"]
        for n in (3, 4, 5):
            assert rats[f"R_{n}"] == ms[f"M_{n}"] / ms["M_1"] ** (n - 1)


@pytest.mark.parametrize("argv", [
    ["certify", "--state", "vec:1,inf"],
    ["certify", "--state", "vec:1,nan"],
    ["approx", "--target", "vec:1,inf", "--q", "1"],
    ["approx", "--target", "vec:1,nan", "--q", "1"],
])
def test_non_finite_vec_spec_is_input_error(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "amplitudes must be finite" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec, plain", [("vec:3e-200,4e-200", "vec:0.6,0.8"),
                                         ("vec:1e308,1e308", "vec:1,1")])
def test_vec_spec_normalizes_past_under_and_overflow(tmp_path, spec, plain):
    # the plain sum of squares is 0 or inf, but the vector is finite and nonzero;
    # a warning, such as numpy's overflow in the norm, fails the test
    rc, doc, _ = run_cli(["certify", "--state", spec], tmp_path, "scaled.json")
    _, ref, _ = run_cli(["certify", "--state", plain], tmp_path)
    assert rc == 0
    assert doc["data"]["verdict"]["certified_level"] == ref["data"]["verdict"]["certified_level"]
    for name, value in ref["data"]["ratios"].items():
        assert doc["data"]["ratios"][name] == pytest.approx(value, rel=1e-12, abs=0)


@pytest.mark.parametrize("spec", ["vec:0,0", "vec:nan,1", "vec:inf,1"])
def test_unnormalizable_vec_spec_is_input_error(spec):
    assert main(["certify", "--state", spec]) == 2


SEARCH_FIELDS = {"nit", "n_agree", "spread", "kkt_gradient", "kkt_curvature"}


def assert_search(search, restarts):
    assert set(search) == SEARCH_FIELDS
    assert 1 <= search["n_agree"] <= restarts and search["spread"] >= 0.0
    assert search["kkt_gradient"] >= 0.0


def test_documents_embed_restart_diagnostics(tmp_path):
    _, doc, _ = run_cli(["tables", "--restarts", "3"], tmp_path)
    data = doc["data"]
    assert data["table1"][0]["search"] is None  # k = 1 needs no search
    for row in data["table1"][1:] + data["table2"] + data["fig1"]["rows"]:
        assert_search(row["search"], 3)
    _, doc, _ = run_cli(["optimize", "--n", "4", "--k", "3", "--restarts", "5"], tmp_path)
    assert_search(doc["data"]["search"], 5)
    _, doc, _ = run_cli(["optimize", "--scan", "4", "--restarts", "2"], tmp_path)
    for row in doc["data"]["rows"]:
        assert_search(row["search"], 2)


def test_document_booleans_are_json_booleans(tmp_path):
    _, doc, _ = run_cli(["optimize", "--n", "3", "--k", "4", "--restarts", "4"], tmp_path)
    assert doc["data"]["converged"] is True
    _, doc, _ = run_cli(["vertex-check"], tmp_path)
    assert all(v["constraints_ok"] is True
               for case in doc["data"].values() for v in case["vertices"])
    _, doc, _ = run_cli(["werner-sweep", "--k", "3", "--points", "5"], tmp_path)
    assert len(doc["data"]["thresholds"]) == 3
    assert all(row["reachable"] is True for row in doc["data"]["thresholds"])
    for lam, exceeds in (("0.1", True), ("0.54", False)):
        _, doc, _ = run_cli(["approx", "--target", f"werner:3:{lam}", "--q", "2"], tmp_path)
        assert doc["data"]["exceeds_q_coherence"] is exceeds
        assert doc["data"]["peak_bound_exceeded"] is exceeds


@pytest.mark.parametrize("projection", [None, "vec:1,1,1", "PSI:3", "vec:1,2,1"])
def test_approx_peak_bound_holds_for_every_projection(tmp_path, projection):
    argv = ["approx", "--target", "werner:3:0.1", "--q", "2"]
    _, doc, _ = run_cli(argv + (["--projection", projection] if projection else []), tmp_path)
    # a peak above q M_1 proves q + 1 levels under any projection, and the fit agrees
    assert doc["data"]["peak_bound_exceeded"] is True
    assert doc["data"]["exceeds_q_coherence"] is True


def test_approx_peak_test_splits_werner_at_lambda_dec(tmp_path):
    # the peak test shares the certification rule: it fires just below
    # lambda_dec(3, 2) = 0.5, and not on it
    for lam, exceeded in (("0.499999999", True), ("0.5", False)):
        rc, doc, _ = run_cli(["approx", "--target", f"werner:3:{lam}", "--q", "2"], tmp_path)
        assert rc == 0
        assert doc["data"]["peak_bound_exceeded"] is exceeded, lam


@pytest.mark.parametrize("spec, q", [
    ("werner:4:0.3", 2), ("werner:4:0.9", 2), ("werner:4:0.5", 3), ("werner:4:0.8", 3),
])
def test_approx_werner_targets_on_both_sides_of_lambda_patt(tmp_path, spec, q):
    # beyond reach of q-coherent mixtures below lambda_patt = (k - q) / (k - 1),
    # reproduced above it, with weights summing to 1
    rc, doc, _ = run_cli(["approx", "--target", spec, "--q", str(q)], tmp_path)
    assert rc == 0
    data = doc["data"]
    _, k, lam = spec.split(":")
    k, lam = int(k), float(lam)
    assert data["exceeds_q_coherence"] == (lam < (k - q) / (k - 1))
    assert abs(sum(c["weight"] for c in data["components"]) - 1.0) <= 1e-10


@pytest.mark.parametrize("command, flag", [
    ("certify", "--state"), ("moments", "--state"), ("approx", "--target"),
])
def test_mixed_projection_is_input_error(capsys, command, flag):
    # the default projection of a Werner spec must not stand in for the mixed state it names
    argv = [command, flag, "PSI:3", "--projection", "werner:3:0.9"]
    assert main(argv + (["--q", "2"] if command == "approx" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "pure state" in captured.err


def reference_form(obj):
    """The conversion documents went through before ``to_json``, booleans kept;
    a 1-d structured array becomes the list of its records, one dict per row."""
    if isinstance(obj, np.ndarray) and obj.dtype.names and obj.ndim == 1:
        return [dict(zip(obj.dtype.names, row)) for row in obj.tolist()]
    if isinstance(obj, np.ndarray):
        return [reference_form(x) for x in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: reference_form(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_form(x) for x in obj]
    return obj


def reference_encoding(obj):
    return json.dumps(reference_form(obj), sort_keys=True, separators=(",", ":"))


json_text = st.text(st.sampled_from(list('aZ0 "\\/\n\t\x00\x7féλ€😀')), max_size=6) | st.text(max_size=4)
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), json_text,
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.complex_numbers(),
    hnp.arrays(st.sampled_from([np.float64, np.complex128]),
               hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)),
)
Pair = namedtuple("Pair", "a b")
json_trees = st.recursive(
    json_leaves,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(json_text, kids, max_size=4)
                  | st.dictionaries(json_text, kids, max_size=2).map(OrderedDict)
                  | st.builds(Pair, kids, kids)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(json_trees)
@example([[], (), {}, [1.5, float("nan"), -float("inf")], {"k": np.float64(0.1)}])
def test_to_json_matches_reference_encoding(obj):
    assert to_json(obj) == reference_encoding(obj)


@contextlib.contextmanager
def without_c_encoder():
    """json with its pure-Python encoder, as where the C accelerator is missing."""
    c_make_encoder = json.encoder.c_make_encoder
    json.encoder.c_make_encoder = None
    try:
        yield
    finally:
        json.encoder.c_make_encoder = c_make_encoder


def test_to_json_without_c_encoder():
    from cohcert import tolerance_sweep

    sweep = tolerance_sweep(3, 2, seed=4)
    obj = {"records": sweep.records, "bins": sweep.bin_mean,
           "flat": {"b": True, "a": None, "c": "\u00e9"}, "10": [1, 2.5], "2": ()}
    expected = reference_encoding(obj)
    with without_c_encoder():
        assert to_json(obj) == expected
    assert to_json(obj) == expected


def test_to_json_encodes_record_tables(monkeypatch):
    # a drift-sized table: fields in unsorted order, names that are format
    # directives, a column of few distinct values and every special float
    from cohcert import cli

    calls = []
    scalar_texts = cli._scalar_texts
    monkeypatch.setattr(cli, "_scalar_texts", lambda values: calls.append(values)
                        or scalar_texts(values))
    specials = [0.1, float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 3.0, 1e-300]
    n = 2040
    i = np.arange(n)
    table = np.rec.fromarrays(
        [i.astype(np.uint32), (i % 51) / 7, np.array(specials)[i % 8], i / 3, i % 5 == 0,
         (i % 3 - 1).astype(np.int8), (i / 9).astype(np.float32)],
        names=("seed", "tau", "r3", "D", "a%%b", "%", "%s"))
    assert to_json(table) == reference_encoding(table)
    assert len(calls) == 7  # one encoder call per field
    # each call holds its field's distinct values once, -0.0 apart from 0.0
    assert [len(values) for values in calls] == [3, n, n, 2, 8, n, 51]  # sorted names
    for obj in ({"data": {"records": table, "last": [table[:1]]}}, (table[:2],)):
        assert to_json(obj) == reference_encoding(obj)
    # a string that reads as a table's place is refused, not filled with a table
    for obj in ({"records": table[:2], "note": cli._TABLE}, [cli._TABLE]):
        with pytest.raises(ValueError, match="table places"):
            to_json(obj)
    # structured arrays that are not tables are written as tolist() writes them
    complex_field = np.zeros(2, dtype=[("a", "f8"), ("z", "c16")])
    for obj in (table[:0], table[:4].reshape(2, 2), complex_field):
        assert to_json(obj) == json.dumps(obj.tolist(), sort_keys=True, separators=(",", ":"),
                                          default=lambda z: {"re": z.real, "im": z.imag})


table_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), json_text,
                         st.floats().map(np.float64))


@st.composite
def record_tables(draw):
    """Lists of 1-6 records sharing one key set, sometimes with one record perturbed."""
    keys = draw(st.lists(json_text, min_size=1, max_size=4, unique=True))
    row = st.lists(table_leaves, min_size=len(keys), max_size=len(keys))
    records = [dict(zip(draw(st.permutations(keys)), draw(row)))
               for _ in range(draw(st.integers(1, 6)))]
    i = draw(st.integers(0, len(records) - 1))
    perturb = draw(st.sampled_from(["none", "extra", "drop", "rename", "nested", "ordered",
                                    "float32"]))
    name = keys[0]
    if perturb == "extra":
        records[i] = {**records[i], draw(json_text): draw(table_leaves)}
    elif perturb == "drop":
        records[i] = {k: v for k, v in records[i].items() if k != name}
    elif perturb == "rename":
        records[i] = {(f"{k}'" if k == name else k): v for k, v in records[i].items()}
    elif perturb == "nested":
        records[i] = {**records[i], name: [records[i][name]]}
    elif perturb == "ordered":
        records[i] = OrderedDict(records[i])
    elif perturb == "float32":
        records[i] = {**records[i], name: np.float32(0.5)}
    return draw(st.sampled_from([records, tuple(records), {"records": records}]))


@settings(max_examples=200, deadline=None)
@given(record_tables())
@example([{"%": 1.0, "%s": "%s"}, {"%s": "},\n  {", "%": -0.0}])
def test_to_json_encodes_record_tables_like_the_reference(obj):
    expected = reference_encoding(obj)
    assert to_json(obj) == expected
    with without_c_encoder():
        assert to_json(obj) == expected


TABLE_NAMES = ["seed", "tau", "D", "r3", "%", "%s", "a%%b", "é"]
TABLE_DTYPES = [np.int64, np.int8, np.uint32, np.bool_, np.float32, np.float64, ">f8"]
# the last is a NaN with every bit set, a payload other than np.nan's
SPECIAL_FLOATS = np.concatenate([[-0.0, 0.0, np.nan, np.inf, -np.inf],
                                 np.full(1, -1).view(np.float64)])


@st.composite
def structured_tables(draw):
    """1-d structured arrays of 0-12 rows whose fields draw from a few values,
    so values repeat; float fields also from -0.0, 0.0, NaN (two payloads) and +-inf."""
    names = draw(st.lists(st.sampled_from(TABLE_NAMES), min_size=1, max_size=5, unique=True))
    dtype = np.dtype([(name, draw(st.sampled_from(TABLE_DTYPES))) for name in names])
    n = draw(st.integers(0, 12))
    table = np.zeros(n, dtype)
    for name in names:
        kind = dtype[name]
        pool = draw(hnp.arrays(kind, draw(st.integers(1, 4))))
        if kind.kind == "f":
            pool = np.concatenate([pool, SPECIAL_FLOATS.astype(kind)])
        table[name] = pool[draw(hnp.arrays(np.intp, n, elements=st.integers(0, len(pool) - 1)))]
    return table


@settings(max_examples=200, deadline=None)
@given(structured_tables(), st.integers(0, 2))
def test_to_json_encodes_structured_tables_like_the_reference(table, depth):
    obj = table
    for _ in range(depth):
        obj = {"records": obj, "n": [len(table)]}
    expected = reference_encoding(obj)
    assert to_json(obj) == expected
    with without_c_encoder():
        assert to_json(obj) == expected


SEEDED_COMMANDS = [
    ["certify", "--state", "W:3"],
    ["certify", "--input", "{csv}", "--dim", "4"],
    ["moments", "--state", "werner:4:0.3", "--projection", "vec:1,2,1,1"],
    ["tables", "--restarts", "2", "--seed", "3"],
    ["optimize", "--n", "4", "--k", "3", "--restarts", "3", "--seed", "5"],
    ["optimize", "--scan", "4", "--restarts", "2"],
    ["vertex-check"],
    ["werner-sweep", "--k", "3", "--points", "11"],
    ["gue-sweep", "--k", "4", "--samples", "3", "--seed", "3"],
    ["approx", "--target", "werner:3:0.1", "--q", "2"],
]


@pytest.mark.parametrize("argv", SEEDED_COMMANDS, ids=lambda argv: argv[0])
def test_seeded_documents_equal_reference_encoding(tmp_path, monkeypatch, argv):
    from cohcert import cli

    path = write_samples_csv(tmp_path, lambda t: 0.4 + 0.3 * np.cos(t) + 0.1 * np.sin(2 * t))
    docs = []
    build = cli.build_document
    monkeypatch.setattr(cli, "build_document", lambda *a: docs.append(build(*a)) or docs[-1])
    _, _, text = run_cli([path if a == "{csv}" else a for a in argv], tmp_path)
    assert text == reference_encoding(docs[0]) + "\n"


def test_gue_sweep_json_and_csv_rows_match_the_records():
    from argparse import Namespace

    from cohcert import cli, tolerance_sweep

    sweep = tolerance_sweep(4, 3, seed=8)
    data, rows, header = cli.cmd_gue_sweep(Namespace(k=4, samples=3, seed=8), [])
    assert header == ("seed", "tau", "D", "r3")
    # the sweep's record array, under its own names, written as a table
    doc_records = data["records"]
    assert doc_records.dtype.names == header and cli._is_table(doc_records)
    assert doc_records.tolist() == sweep.records.tolist()
    assert len(doc_records) == 3 * 51
    assert list(rows) == [(int(rec.seed), repr(float(rec.tau)), repr(float(rec.D)),
                           repr(float(rec.r3))) for rec in sweep.records]


def test_gue_sweep_builds_csv_rows_only_for_csv(tmp_path, monkeypatch):
    from cohcert import cli

    built = []
    gue_rows = cli._gue_rows

    def counting_rows(records):
        built.append(len(records))
        yield from gue_rows(records)

    monkeypatch.setattr(cli, "_gue_rows", counting_rows)
    argv = ["gue-sweep", "--k", "3", "--samples", "2", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "sweep.json")]) == 0
    assert built == []
    assert main(argv + ["--format", "csv", "--out", str(tmp_path / "sweep.csv")]) == 0
    assert built == [2 * 51]


def reference_read_pattern_csv(path):
    """The per-row csv.reader parser ``read_pattern_csv`` replaced, kept as the reference."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(row for row in fh if not row.startswith("#"))
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:2]] != ["t", "p"]:
                raise CliInputError(f"{path}: expected CSV header 't,p'")
            rows = [(float(r[0]), float(r[1])) for r in reader if r]
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise CliInputError(f"{path}: malformed sample row: {exc}") from exc
    if not rows:
        raise CliInputError(f"{path}: no sample rows")
    arr = np.array(rows)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise CliInputError(f"{path}: sample row {i + 1} is not finite: "
                            f"t={float(arr[i, 0])!r}, p={float(arr[i, 1])!r}")
    return arr


def csv_outcome(reader, path):
    """The array read, or the error message with numpy's and Python's parse errors merged."""
    try:
        return reader(path)
    except CliInputError as exc:
        text = str(exc)
        return text.split(": malformed sample row")[0] + ": malformed" if "malformed" in text else text


# The t and p cells hold no "#" and no "_": there the readers differ on purpose
# (a "#" after a value starts a comment, "1_0" is a Python-only literal; see the README).
# Repeated branches weight the draw towards files that parse.
number_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-10.0, 10.0).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["+1.5", ".5", "5.", "1e-3", "2E+2", "-0.0", "1e-400"]),
)
good_cells = st.one_of(
    number_cells, number_cells, number_cells,
    st.tuples(st.sampled_from([" ", "\t", "  "]), number_cells,
              st.sampled_from(["", " ", "\t"])).map("".join),
    number_cells.map(lambda c: f'"{c}"'),
)
odd_cells = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "",
                             "zero", "1.0.0", "1e", "0x10", "1 2", "--1", "'1'", "-"])
cells = st.one_of(*[good_cells] * 8, odd_cells)
extra_cells = st.text(st.sampled_from(list("ab x1.#-")), max_size=4) | st.just('"a,b"')
data_rows = st.tuples(cells, cells, st.lists(extra_cells, max_size=2)).map(
    lambda r: ",".join([r[0], r[1], *r[2]]))
rows = st.one_of(
    *[data_rows] * 6,
    st.tuples(cells, cells).map(lambda r: ",".join(r) + ","),
    st.sampled_from(["", "", "# a comment", "#", "#t,p", "1.0", "   ", "  # indented"]),
)
headers = st.sampled_from(["t,p", "T,P", " t , p ", '"t","p"', "t,p,weight", "t,p,"] * 3
                          + ["t", "p,t", "", "x,y", "t;p"])


@settings(max_examples=400, deadline=None)
@given(preamble=st.lists(st.sampled_from(["# fringe", "#", "# t,p"]), max_size=2),
       header=headers, body=st.lists(rows, max_size=6), eol=st.sampled_from(["\n", "\r\n"]),
       final_eol=st.booleans())
@example(preamble=[], header="t,p", body=[], eol="\n", final_eol=True)
@example(preamble=[], header="t,p", body=["1.0"], eol="\n", final_eol=True)
@example(preamble=["# x"], header='"t","p"', body=["", "# c", "1,2,3,4", "3,4", "5,6,"],
         eol="\r\n", final_eol=False)
def test_read_pattern_csv_matches_reference_parser(tmp_path_factory, preamble, header, body,
                                                   eol, final_eol):
    path = tmp_path_factory.mktemp("csv") / "samples.csv"
    path.write_bytes((eol.join([*preamble, header, *body]) + (eol if final_eol else "")).encode())
    got, want = csv_outcome(read_pattern_csv, str(path)), csv_outcome(
        reference_read_pattern_csv, str(path))
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("text, expected", [
    ("t,p\n0.0,0.5 # lamp on\n", [[0.0, 0.5]]),  # a comment may follow a value
    ("t,p\n1_0,0.5\n", None),  # Python-only literals are not numbers here
])
def test_read_pattern_csv_deliberate_differences(tmp_path, text, expected):
    path = tmp_path / "samples.csv"
    path.write_text(text)
    if expected is None:
        with pytest.raises(CliInputError, match="malformed sample row"):
            read_pattern_csv(str(path))
    else:
        assert read_pattern_csv(str(path)).tolist() == expected


@pytest.mark.parametrize("body", ["", "\n\n", "# only a comment\n"])
def test_certify_empty_csv_body_prints_one_error_line(tmp_path, capsys, body):
    path = tmp_path / "empty.csv"
    path.write_text("t,p\n" + body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # numpy's empty-input warning would print a second line
        assert main(["certify", "--input", str(path)]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: no sample rows\n"


def test_certify_rejects_projection_with_input(tmp_path, capsys):
    path = write_samples_csv(tmp_path, lambda t: (1 + np.cos(t)) / 2)
    assert main(["certify", "--input", path, "--projection", "W:3", "--dim", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--projection needs --state" in captured.err


def test_tables_maximizes_each_cell_once(tmp_path, monkeypatch):
    from cohcert import optimize

    cfg = optimize.OptimizationConfig(restarts=3, seed=2)
    widths, cells, minimize = [], [], optimize.minimize

    def counted(fun, x0, args=()):
        (orders,) = args
        widths.append(x0.shape[1])
        # one block of cfg.restarts start rows per cell, zero-padded to the solve's width
        blocks = len(x0) // cfg.restarts
        for block, block_orders in zip(np.split(x0, blocks), np.split(orders, blocks)):
            k, n = int(np.count_nonzero(block[0])), int(block_orders[0])
            padded = np.zeros_like(block)
            padded[:, :k] = optimize._start_points(k, cfg)
            assert np.array_equal(block, padded)
            assert np.all(block_orders == n)
            cells.append((n, k))
        return minimize(fun, x0, args)

    monkeypatch.setattr(optimize, "minimize", counted)
    rc, doc, _ = run_cli(["tables", "--restarts", "3", "--seed", "2"], tmp_path)
    assert rc == 0
    # two searches, grouped by width: every order at k = 2..5, then n = 3 at k = 6..8;
    # Fig. 1 scans n = 3, k = 2..8, and Table 2 adds n = 4, 5 for k = 2..5
    assert widths == [5, 8]
    assert cells == [(n, k) for n in (3, 4, 5) for k in range(2, 6)] + [(3, k) for k in range(6, 9)]
    data = doc["data"]
    fig1 = {row["k"]: row for row in data["fig1"]["rows"]}
    for row in data["table2"]:
        if row["n"] == 3:
            assert row["max_computed"] == fig1[row["k"]]["max_computed"]
            assert row["search"] == fig1[row["k"]]["search"]
    for row in data["table1"][1:]:
        assert row["best_known_computed"] == fig1[row["k"]]["max_computed"]
        assert row["search"] == fig1[row["k"]]["search"]


def test_tables_cells_match_single_cell_searches(tmp_path):
    # tables searches cells of several orders at once, and its (3, 4) cell at a
    # width of 5 levels rather than 8; each matches its single-cell search
    _, tables, _ = run_cli(["tables", "--restarts", "4"], tmp_path, name="tables.json")
    for n, k in ((5, 5), (3, 4)):
        argv = ["optimize", "--n", str(n), "--k", str(k), "--restarts", "4"]
        one = run_cli(argv, tmp_path, name="one.json")[1]["data"]
        row = next(r for r in tables["data"]["table2"] if (r["n"], r["k"]) == (n, k))
        assert abs(one["max_value"] - row["max_computed"]) <= 1e-12 * one["max_value"], (n, k)
        assert [one["search"][f] for f in ("nit", "n_agree")] == [
            row["search"][f] for f in ("nit", "n_agree")], (one["search"], row["search"])


def test_approx_csv_series_sums_components(tmp_path):
    from cohcert.patterns import pattern_from_states

    argv = ["approx", "--target", "werner:4:0.3", "--q", "2", "--plot-points", "32"]
    _, doc, _ = run_cli(argv, tmp_path)
    _, _, text = run_cli(argv + ["--format", "csv"], tmp_path, name="approx.csv")
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    series = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    weights = np.array([c["weight"] for c in doc["data"]["components"]])
    assert lines[0].split(",")[3:] == [f"component{i}_p" for i in range(len(weights))]
    rho, proj = parse_state_spec("werner:4:0.3")
    grid = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    assert series[:, 0].tolist() == grid.tolist()
    assert series[:, 1].tolist() == pattern_from_states(rho, proj.density()).evaluate(grid).tolist()
    assert np.abs(series[:, 2] - series[:, 3:] @ weights).max() <= 1e-15


def test_approx_json_builds_no_plot_series(tmp_path, monkeypatch):
    from cohcert import cli

    built = []
    pattern = cli.pattern_from_states
    monkeypatch.setattr(cli, "pattern_from_states", lambda *a: built.append(a) or pattern(*a))
    rc, doc, _ = run_cli(["approx", "--target", "werner:4:0.3", "--q", "2"], tmp_path)
    assert rc == 0 and len(doc["data"]["components"]) > 1
    assert len(built) == 1  # the target only
