import json

import numpy as np
import pytest

from cohcert.cli import main, parse_state_spec, read_pattern_csv, CliInputError


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    text = out.read_text()
    doc = json.loads(text) if name.endswith(".json") else None
    return rc, doc, text


def write_samples_csv(tmp_path, func, n=32, name="samples.csv"):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
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


def test_certify_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,p\n0.0,zero\n")
    rc = main(["certify", "--input", str(bad)])
    assert rc == 2
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


def test_tables_command(tmp_path):
    rc, doc, _ = run_cli(["tables", "--restarts", "8"], tmp_path)
    assert rc == 0
    data = doc["data"]
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


@pytest.mark.parametrize("spec,level", [("W:1", 1), ("W:2", 2)])
def test_certify_threshold_states_not_overclaimed(tmp_path, spec, level):
    rc, doc, _ = run_cli(["certify", "--state", spec], tmp_path)
    assert rc == 0
    assert doc["data"]["verdict"]["certified_level"] == level


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


def test_ratios_derive_from_reported_moments(tmp_path):
    for spec in ("W:3", "PSI:4", "werner:4:0.3", "vec:0.3,0.9,0.5"):
        _, doc, _ = run_cli(["moments", "--state", spec], tmp_path)
        ms, rats = doc["data"]["moments"], doc["data"]["ratios"]
        for n in (3, 4, 5):
            assert rats[f"R_{n}"] == ms[f"M_{n}"] / ms["M_1"] ** (n - 1)
