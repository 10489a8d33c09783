"""End-to-end command-line checks, via main(argv) and, where a command
could hang, via a subprocess under a timeout."""

import concurrent.futures
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from concurrent.futures.process import BrokenProcessPool

from twemac_jcf import cli
from twemac_jcf.cli import main
from twemac_jcf.de_core import SimplexError
from twemac_jcf.de_coupled import DeOutcome, Ensemble, nominal_rate
from twemac_jcf.threshold import sweep

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    meta = {}
    lines = [ln for ln in text.splitlines() if ln]
    body = []
    for ln in lines:
        if ln.startswith("# "):
            key, _, val = ln[2:].partition("=")
            meta[key] = val
        else:
            body.append(ln)
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return meta, rows


def test_rates_grid(capsys):
    code, out = run_cli(["rates", "--grid", "11"], capsys)
    assert code == 0
    meta, rows = parse_csv(out)
    assert meta["grid"] == "11"
    assert "version" in meta
    assert len(rows) == 11
    assert float(rows[0]["r_cf"]) == 1.0
    assert float(rows[0]["eps"]) == 0.0
    assert float(rows[-1]["r_jcf_target"]) == 0.0


def test_rates_json_format(capsys):
    code, out = run_cli(["rates", "--grid", "5", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 5
    assert doc["meta"]["config"]["grid"] == 5
    assert doc["rows"][0]["r_df"] == 0.5


def test_threshold_regular(capsys):
    code, out = run_cli(
        ["threshold", "--regular", "3", "6", "--channel", "xor-only", "--tol", "1e-4"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert abs(float(rows[0]["eps_thresh"]) - 0.4294) < 5e-4
    assert rows[0]["degenerate"] == "False"


def test_threshold_cap_limited_column(capsys):
    # the last column says whether the evaluation that set eps_hi hit the cap
    argv = ["threshold", "--coupled", "3", "6", "10", "3", "--channel", "xor-only",
            "--tol", "5e-3"]
    for extra, want in ((["--lmax", "30"], "True"), ([], "False")):
        code, out = run_cli(argv + extra, capsys)
        assert code == 0
        meta, rows = parse_csv(out)
        assert list(rows[0])[-1] == "cap_limited"
        assert rows[0]["cap_limited"] == want


def test_threshold_invalid_coupled_degree_exits_2(capsys):
    # a chain needs d_v >= 2 and L >= 1; the regular ensemble needs d_v >= 1
    for ensemble in (["--coupled", "1", "6", "5", "3"], ["--coupled", "3", "6", "0", "1"],
                     ["--regular", "0", "6"]):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", *ensemble])
        assert exc.value.code == 2


def test_coupled_commands_reject_bad_caps():
    # Caps checks l_max for chains as for the regular ensemble
    chains = (
        ["de", "--dv", "3", "--dc", "6", "--L", "4", "--w", "2", "--eps", "0.3"],
        ["threshold", "--coupled", "3", "6", "4", "2"],
        ["figure6", "--dv", "3", "--dc", "6", "--L", "4", "--w", "2"],
    )
    for argv in chains:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--lmax", "0"])
        assert exc.value.code == 2


def test_reruns_byte_identical(capsys):
    argv = ["threshold", "--regular", "3", "6", "--tol", "1e-3"]
    _, a = run_cli(argv, capsys)
    _, b = run_cli(argv, capsys)
    assert a == b


REGULAR_THRESHOLDS = [
    ["threshold", "--regular", str(d_v), str(d_c), "--channel", channel, "--tol", "1e-4"]
    for channel in ("primary", "xor-only", "full-reveal")
    for d_v, d_c in ((3, 6), (4, 8), (3, 10), (5, 10), (7, 10), (9, 10))
]
PINNED_OUTPUTS = {  # case: (commands, sha256 prefix of what they write)
    "regular-thresholds": (REGULAR_THRESHOLDS, "ffe95c97d0b2249d"),
    "threshold-punctured": ([["threshold", "--regular", "3", "6", "--channel", "primary",
                              "--p-pi", "0.2", "--tol", "1e-3"]], "acdaaea5d9ec4bc7"),
    "threshold-chain": ([["threshold", "--coupled", "3", "6", "100", "5", "--channel", "xor-only",
                          "--tol", "1e-3"]], "80c3f2b5bf5489ff"),
    "threshold-scan": ([["threshold", "--regular", "3", "6", "--channel", "xor-only",
                         "--tol", "1e-3", "--verify-scan", "9"]], "d8bbd3c1e56ff02e"),
    "threshold-chain-scan": ([["threshold", "--coupled", "3", "6", "10", "3",
                               "--channel", "xor-only", "--verify-scan", "9"]], "ed87d61cbc2e129c"),
    "de-profile": ([["de", "--dv", "3", "--dc", "6", "--L", "5", "--w", "3", "--eps", "0.45",
                     "--channel", "xor-only", "--profile", "profile.csv"]], "c75eae2a310215ca"),
    "de-trace": ([["de", "--dv", "3", "--dc", "6", "--eps", "0.42", "--channel", "xor-only",
                   "--lmax", "300", "--trace", "trace.csv"]], "7f2f239216c6c708"),
    "figure6": ([["figure6", "--dv", "3", "--dc", "6", "--L", "10", "--w", "3",
                  "--curve-grid", "5", "--channel", "xor-only"]], "6da193896c75fe06"),
    "figure6-punctured": ([["figure6", "--dv", "3", "--dc", "6", "--L", "10", "--w", "3",
                            "--p-pi", "0,0.2", "--curve-grid", "5", "--channel", "xor-only"]],
                          "b53f0451a7633ac9"),
    "simulate": ([["simulate", "--dv", "3", "--dc", "6", "--N", "2000", "--eps", "0.42",
                   "--channel", "xor-only", "--trials", "3"]], "d68706545af36a45"),
    "simulate-chain-punctured": ([["simulate", "--dv", "3", "--dc", "6", "--L", "5", "--w", "3",
                                   "--M", "100", "--eps", "0.3", "--p-pi", "0.1",
                                   "--trials", "3"]], "358d26af6f309f26"),
    "rates": ([["rates", "--grid", "11"]], "55aed190f96c1c78"),
}


@pytest.mark.parametrize("case", list(PINNED_OUTPUTS))
def test_outputs_are_pinned(case, tmp_path, monkeypatch):
    # every file the commands write, byte for byte but for the --out path
    # and the version in its header; a change that moves bits on purpose
    # updates the digest and says which output moved, by how much and why
    commands, digest = PINNED_OUTPUTS[case]
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for argv in commands:
        assert main([*argv, "--out", "out.csv"]) == 0
        for path in sorted(tmp_path.iterdir()):
            lines = path.read_text().splitlines(keepends=True)
            h.update(path.name.encode())
            h.update("".join(ln for ln in lines
                             if not ln.startswith(("# out=", "# version="))).encode())
            path.unlink()
    assert h.hexdigest()[:16] == digest


def test_de_regular_with_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out = run_cli(
        ["de", "--dv", "3", "--dc", "6", "--eps", "0.3",
         "--channel", "xor-only", "--trace", str(trace)],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert list(rows[0]) == ["min_p_dec", "iterations", "status", "nominal_rate"]
    assert rows[0]["status"] == "success"
    assert float(rows[0]["nominal_rate"]) == 0.5
    meta, trows = parse_csv(trace.read_text())
    assert set(trows[0]) == {"iter"} | {f"pvc{i}" for i in range(1, 6)} | {
        f"pcv{i}" for i in range(1, 6)
    } | {"p_dec"}
    assert int(trows[0]["iter"]) == 1
    decs = [float(r["p_dec"]) for r in trows]
    assert decs == sorted(decs)


RATE_COLUMNS = ["eps", "r_df", "r_df_prime", "r_cf", "r_jcf_target"]
DE_COLUMNS = ["min_p_dec", "iterations", "status", "nominal_rate"]
XOR = ["--channel", "xor-only"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, columns", [
    (["rates", "--grid", "3"], {"out": RATE_COLUMNS}),
    (["de", "--dv", "3", "--dc", "6", "--eps", "0.3", *XOR, "--trace", "SIDE"],
     {"out": DE_COLUMNS,
      "side": ["iter", *(f"pvc{i}" for i in range(1, 6)), *(f"pcv{i}" for i in range(1, 6)),
               "p_dec"]}),
    (["de", "--dv", "3", "--dc", "6", "--L", "10", "--w", "3", "--eps", "0.45", *XOR,
      "--lmax", "500", "--profile", "SIDE"],
     {"out": DE_COLUMNS,
      "side": ["position", *(f"p_dec_iter_{k}" for k in (1, 2, 4, 8, 16, 32, 48))]}),
    (["threshold", "--regular", "3", "6", *XOR, "--tol", "1e-3"],
     {"out": ["eps_thresh", "eps_lo", "eps_hi", "tol", "evals", "degenerate", "cap_limited"]}),
    (["figure6", "--dc", "6", "--dv", "3", "--L", "3", "--w", "2", "--tol", "5e-3",
      "--curve-grid", "3", *XOR],
     {"out": ["d_v", "d_c", "L", "w", "p_pi", "nominal_rate", "rate_pi", "eps_thresh", "eps_lo",
              "eps_hi", "evals", "cap_limited"],
      "curves": RATE_COLUMNS}),
    (["simulate", "--dv", "3", "--dc", "6", "--N", "120", "--eps", "0.2", *XOR,
      "--trials", "2", "--seed", "7"],
     {"out": ["bit_rate", "block_rate", "block_lo", "block_hi", "trials", "n_vars"]}),
], ids=["rates", "de-trace", "de-profile", "threshold", "figure6", "simulate"])
def test_output_columns_in_order(argv, columns, fmt, tmp_path, capsys):
    # every file names its columns in this order: the CSV header, and the
    # keys of each JSON row
    paths = {"out": tmp_path / f"out.{fmt}", "side": tmp_path / f"side.{fmt}",
             "curves": tmp_path / f"out.{fmt}.curves.{fmt}"}
    argv = [str(paths["side"]) if a == "SIDE" else a for a in argv]
    code, _ = run_cli([*argv, "--format", fmt, "--out", str(paths["out"])], capsys)
    assert code == 0
    for name, want in columns.items():
        text = paths[name].read_text()
        if fmt == "csv":
            assert [ln for ln in text.splitlines() if not ln.startswith("#")][0] == ",".join(want)
        else:
            rows = json.loads(text)["rows"]
            assert rows and all(list(row) == want for row in rows)


def test_header_echoes_settings_in_force(capsys):
    # without --lmax and --tol the header names the defaults that ran: 5000
    # iterations and 1e-4 for the regular ensemble, 20000 and 1e-3 for a chain
    chain = ["--L", "5", "--w", "2"]
    cases = (
        (["threshold", "--regular", "3", "6"], ("5000", "0.0001")),
        (["threshold", "--coupled", "3", "6", "5", "2"], ("20000", "0.001")),
        (["figure6", "--dv", "3", "--dc", "6", *chain, "--curve-grid", "3"], ("20000", "0.001")),
        (["de", "--dv", "3", "--dc", "6", "--eps", "0.4"], ("5000", None)),
        (["de", "--dv", "3", "--dc", "6", "--eps", "0.4", *chain], ("20000", None)),
    )
    for argv, (lmax, tol) in cases:
        code, out = run_cli([*argv, "--channel", "xor-only"], capsys)
        assert code == 0
        meta, _ = parse_csv(out)
        assert meta["lmax"] == lmax
        assert meta.get("tol") == tol  # `de` bisects nothing, so it has no tol


def test_de_coupled_with_profile(tmp_path, capsys):
    profile = tmp_path / "profile.csv"
    code, out = run_cli(
        ["de", "--dv", "3", "--dc", "6", "--L", "10", "--w", "3",
         "--eps", "0.45", "--channel", "xor-only", "--lmax", "500",
         "--profile", str(profile)],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["status"] == "success"
    assert abs(float(rows[0]["nominal_rate"]) - 0.5) < 0.1
    _, prows = parse_csv(profile.read_text())
    assert len(prows) == 21
    assert int(prows[0]["position"]) == -10
    assert int(prows[-1]["position"]) == 10


def test_de_profile_and_window_defaults(tmp_path, capsys):
    # the regular ensemble has one position; a chain without --w has w = 1
    # and the coupled cap of 20000 iterations
    profile = tmp_path / "profile.csv"
    base = ["de", "--dv", "3", "--dc", "6", "--eps", "0.3", "--channel", "xor-only"]
    code, _ = run_cli(base + ["--profile", str(profile)], capsys)
    assert code == 0
    _, prows = parse_csv(profile.read_text())
    assert [r["position"] for r in prows] == ["0"]
    code, out = run_cli(base + ["--L", "3"], capsys)
    assert code == 0
    meta, rows = parse_csv(out)
    assert meta["lmax"] == "20000"
    assert float(rows[0]["nominal_rate"]) == pytest.approx(0.5)


CONFIG = "[fixed]\nkind = fixed-table\ntable = 0 0 0 1 0\n"


def test_de_usage_errors_exit_2(tmp_path):
    # --w needs a chain; a trace of a chain would copy all of it every iteration
    base = ["de", "--dv", "3", "--dc", "6", "--eps", "0.3"]
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CONFIG)
    fixed = ["--channel", "fixed", "--channel-config", str(cfg)]
    for extra in (["--w", "2"], ["--L", "4", "--trace", str(tmp_path / "t.csv")],
                  ["--L", "0"],
                  ["--trace", str(tmp_path / "t.csv"), "--profile", str(tmp_path / "p.csv")],
                  ["--L", "5", "--w", "3", "--profile", str(tmp_path / "x.csv"),
                   "--out", f"{tmp_path}/./x.csv"],
                  [*fixed, "--out", str(cfg)], [*fixed, "--trace", str(cfg)],
                  [*fixed, "--L", "5", "--w", "3", "--profile", f"{tmp_path}/./cfg.ini"]):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
    # two outputs that name one file: the result rows would overwrite the profile
    assert not (tmp_path / "x.csv").exists()
    # an output that names the channel config would overwrite the input
    assert cfg.read_text() == CONFIG


def test_removed_commands_exit_2(tmp_path):
    # `de` replaces de-regular and de-coupled; the exhaustive comparison of
    # `oracle` lives on in the tests (tests/oracles.py, criterion 7)
    hfile = tmp_path / "h.txt"
    hfile.write_text("1 3\n111\n")
    ensemble = ["--dv", "3", "--dc", "6", "--eps", "0.3"]
    for argv in (["de-regular", *ensemble], ["de-coupled", *ensemble, "--L", "4", "--w", "2"],
                 ["oracle", "--H", str(hfile), "--exhaustive"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv, env", [
    (["--regular", "3", "6", "--tol", "0"], {}),
    (["--regular", "3", "6", "--tol", "-1"], {}),
    (["--regular", "3", "6", "--tol", "nan"], {}),
])
def test_threshold_rejects_nonpositive_tol(argv, env):
    # a bisection to tol <= 0 never ends, and tol = NaN ends at once with a
    # meaningless bracket; both are usage errors
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run_env = {**os.environ, **env, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "twemac_jcf.cli", "threshold", *argv,
         "--channel", "xor-only", "--lmax", "20"],
        capture_output=True, text=True, env=run_env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "tol" in proc.stderr


@pytest.mark.parametrize("tol", ["1e-17", "1e-300"])
def test_threshold_below_float_spacing_ends(tol):
    # a tol below the float spacing at the threshold cannot be met: the
    # bisection ends when its bracket is two adjacent floats
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "twemac_jcf.cli", "threshold", "--regular", "3", "6",
         "--channel", "xor-only", "--lmax", "200", "--tol", tol],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    row = next(csv.DictReader(line for line in proc.stdout.splitlines() if line[0] != "#"))
    assert float(row["eps_hi"]) == math.nextafter(float(row["eps_lo"]), 1)


def test_cli_start_does_not_import_the_process_pool():
    # only figure6 --jobs > 1 runs worker processes; every other command
    # would pay for importing concurrent.futures.process at start
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, twemac_jcf.cli; "
         "print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert proc.stdout.strip() == "False", proc.stderr


def test_nonmonotone_verify_scan_exits_3(tmp_path, capsys):
    # the bump family erases most at eps = 1/2 and least at both ends
    cfg = tmp_path / "bump.ini"
    cfg.write_text("[bump]\nkind = custom-polynomial\n"
                   "p1 = 0 4 -4\np2 = 0\np3 = 0\np4 = 1 -4 4\np5 = 0\n")
    code = main(["threshold", "--regular", "3", "6", "--channel", "bump",
                 "--channel-config", str(cfg), "--verify-scan", "9"])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "not monotone" in err


def test_only_numerical_failures_exit_3(monkeypatch, capsys):
    # a killed --jobs worker or a recursion overflow is a crash, not a
    # numerical verdict on the ensemble
    argv = ["de", "--dv", "3", "--dc", "6", "--eps", "0.3"]

    def raising(exc):
        def run(*args, **kwargs):
            raise exc
        return run

    monkeypatch.setattr(cli, "de_coupled", raising(SimplexError("entry -1e-3 below zero")))
    assert main(argv) == 3
    assert "numerical failure" in capsys.readouterr().err
    for exc in (RuntimeError("boom"), BrokenProcessPool("a worker died"), RecursionError()):
        monkeypatch.setattr(cli, "de_coupled", raising(exc))
        with pytest.raises(type(exc)):
            main(argv)


def test_simulate_regular(capsys):
    code, out = run_cli(
        ["simulate", "--dv", "3", "--dc", "6", "--N", "120", "--eps", "0.2",
         "--channel", "xor-only", "--trials", "3", "--seed", "7"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert int(rows[0]["trials"]) == 3
    assert int(rows[0]["n_vars"]) == 120
    assert 0.0 <= float(rows[0]["bit_rate"]) <= 1.0


def test_simulate_usage_errors_exit_2(capsys):
    base = ["simulate", "--dv", "3", "--dc", "6", "--eps", "0.2"]
    # size and window flags that do not fit the ensemble are rejected, not
    # dropped: --N sizes the regular ensemble, --w and --M a chain (--L)
    for extra in ([], ["--L", "2", "--w", "2"], ["--N", "120", "--trials", "0"],
                  ["--N", "600", "--L", "2", "--w", "2", "--M", "12"],
                  ["--N", "600", "--w", "3"], ["--N", "600", "--M", "12"],
                  ["--N", "0"], ["--L", "2", "--w", "2", "--M", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["threshold", "--regular", "3", "6", "--p-pi", "1"],
    ["threshold", "--coupled", "3", "6", "4", "2", "--p-pi", "nan"],
    ["simulate", "--dv", "3", "--dc", "6", "--N", "120", "--eps", "0.2", "--p-pi", "-0.1"],
    ["simulate", "--dv", "3", "--dc", "6", "--L", "2", "--M", "12", "--eps", "0.2",
     "--p-pi", "1.5"],
], ids=["threshold-1", "threshold-chain-nan", "simulate-negative", "simulate-chain-1.5"])
def test_p_pi_out_of_range_exits_2_before_any_work(argv, monkeypatch, capsys):
    # the punctured family rejects p_pi on construction, before any
    # evolution runs or any graph is sampled
    from twemac_jcf import simulate, threshold

    for module, name in ((threshold, "de_batch"), (threshold, "de_coupled"),
                         (simulate, "sample_coupled_graph")):
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("work ran"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "p_pi must be in [0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("p_pi", [["--p-pi", "-0.1,0.2"], ["--p-pi=-0.1,0.2"]],
                         ids=["separate", "equals"])
def test_figure6_negative_p_pi_list_exits_2_with_the_range_message(p_pi, monkeypatch, capsys):
    # a list that starts with a minus sign is --p-pi's value, not an option
    from twemac_jcf import threshold

    monkeypatch.setattr(threshold, "de_batch", lambda *a, **k: pytest.fail("work ran"))
    with pytest.raises(SystemExit) as exc:
        main(["figure6", "--dv", "3", "--dc", "6", "--L", "5", "--w", "2", *p_pi])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: p_pi must be in [0, 1), got -0.1\n")


def test_simulate_coupled_default_window(capsys):
    # --L without --w keeps the default w = 1
    code, out = run_cli(
        ["simulate", "--dv", "3", "--dc", "6", "--L", "2", "--M", "12", "--eps", "0.2",
         "--channel", "xor-only", "--trials", "2", "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert int(parse_csv(out)[1][0]["n_vars"]) == 5 * 12


def test_figure6_small_sweep(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _ = run_cli(
        ["figure6", "--dc", "6", "--dv", "3,4", "--L", "5", "--w", "2",
         "--tol", "5e-3", "--curve-grid", "11", "--out", str(out_path),
         "--channel", "xor-only"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out_path.read_text())
    assert [(r["d_v"], r["d_c"]) for r in rows] == [("3", "6"), ("4", "6")]
    assert all(0.0 < float(r["eps_thresh"]) < 1.0 for r in rows)
    assert list(rows[0])[-1] == "cap_limited"
    assert [r["cap_limited"] for r in rows] == ["False", "False"]
    curves = out_path.with_name(out_path.name + ".curves.csv")
    _, crows = parse_csv(curves.read_text())
    assert len(crows) == 11


def test_figure6_rows_carry_ensemble_and_punctured_rate(tmp_path, capsys):
    # each row names its ensemble and p_pi, and its rate after puncturing:
    # the nominal rate over the share of bits sent, 1 - p_pi
    out_path = tmp_path / "f6.csv"
    code, _ = run_cli(
        ["figure6", "--dc", "6", "--dv", "3", "--L", "10", "--w", "3", "--p-pi", "0,0.1,0.3",
         "--tol", "5e-3", "--curve-grid", "3", "--out", str(out_path), "--channel", "xor-only"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out_path.read_text())
    assert [(r["d_v"], r["d_c"], r["L"], r["w"], r["p_pi"]) for r in rows] == [
        ("3", "6", "10", "3", p_pi) for p_pi in ("0.0", "0.1", "0.3")]
    rate = nominal_rate(Ensemble(3, 6, 10, 3))
    assert 0.0 < rate < 0.5
    assert all(float(r["nominal_rate"]) == rate for r in rows)
    assert [float(r["rate_pi"]) for r in rows] == [rate, rate / 0.9, rate / 0.7]
    threshs = [float(r["eps_thresh"]) for r in rows]
    assert threshs == sorted(threshs, reverse=True)


def test_figure6_jobs_2_writes_the_rows_of_jobs_1(tmp_path, capsys, monkeypatch):
    # the pairs run on two real worker processes, no more, and their
    # results, evolution outcomes included, come back as the serial ones
    workers, results = [], []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __exit__(self, *exc):
            workers.append((self._max_workers, len(self._processes)))
            return super().__exit__(*exc)

    def recording_sweep(*args, **kwargs):
        results.append(sweep(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(cli, "sweep", recording_sweep)
    argv = ["figure6", "--dv", "3", "--dc", "6", "--L", "3", "--w", "2", "--p-pi", "0,0.2",
            "--curve-grid", "3", "--channel", "xor-only"]
    texts = []
    for jobs in ("1", "2"):
        out_path = tmp_path / f"jobs{jobs}.csv"
        assert main([*argv, "--jobs", jobs, "--out", str(out_path)]) == 0
        texts.append([ln for ln in out_path.read_text().splitlines()
                      if not ln.startswith(("# jobs=", "# out="))])
    assert texts[0] == texts[1]
    assert len(texts[0]) > 3  # the two rows, their column names and the header
    assert workers == [(2, 2)]
    serial, parallel = results
    assert parallel == serial
    assert all(isinstance(out, DeOutcome) for res in parallel for _, out in res.evals)


def test_figure6_json_curves_file(tmp_path, capsys):
    # the curves file is named after the format it holds
    out_path = tmp_path / "f6.json"
    code, _ = run_cli(
        ["figure6", "--dc", "6", "--dv", "3", "--L", "3", "--w", "2", "--tol", "5e-3",
         "--curve-grid", "5", "--format", "json", "--out", str(out_path),
         "--channel", "xor-only"],
        capsys,
    )
    assert code == 0
    assert len(json.loads(out_path.read_text())["rows"]) == 1
    assert not out_path.with_name("f6.json.curves.csv").exists()
    curves = json.loads(out_path.with_name("f6.json.curves.json").read_text())
    assert len(curves["rows"]) == 5


@pytest.mark.parametrize("extra", [
    ["--dv", "3..2"],
    ["--dv", "3", "--jobs", "0"],
    ["--dv", "3", "--jobs", "-4"],
    ["--dv", "3", "--p-pi", "0,1.5"],
    ["--dv", "3", "--channel", "fixed", "--channel-config", "CFG", "--out", "CFG"],
    ["--dv", "3", "--channel", "fixed", "--channel-config", "CFG", "--out", "OUT"],
])
def test_figure6_usage_errors_exit_2(extra, tmp_path, monkeypatch):
    # an empty --dv range would print no threshold rows, --jobs below 1
    # would run serially without a word, a p_pi out of range would stop the
    # sweep only after every row before it, and the rows or the curves
    # (OUT.curves.csv) would overwrite the channel config; each exits before it
    monkeypatch.setattr(cli, "sweep", lambda *a, **k: pytest.fail("the sweep ran"))
    cfg = tmp_path / "x.csv.curves.csv"
    cfg.write_text(CONFIG)
    paths = {"CFG": str(cfg), "OUT": str(tmp_path / "x.csv")}
    extra = [paths.get(a, a) for a in extra]
    with pytest.raises(SystemExit) as exc:
        main(["figure6", "--dc", "6", "--L", "3", "--w", "2", "--curve-grid", "3", *extra])
    assert exc.value.code == 2
    assert cfg.read_text() == CONFIG


@pytest.mark.parametrize("points", ["0", "1", "-3"])
def test_verify_scan_below_two_points_exits_2(points, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--regular", "3", "6", "--channel", "xor-only",
              "--verify-scan", points])
    assert exc.value.code == 2
    assert "verify_scan" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rates", "--grid"],
    ["figure6", "--dc", "6", "--dv", "3", "--L", "3", "--w", "2", "--curve-grid"],
])
@pytest.mark.parametrize("points", ["0", "1", "-2"])
def test_eps_grid_below_two_points_exits_2(argv, points, tmp_path, capsys):
    # a grid over [0, 1] needs both ends; fewer points gave a bare header
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + [points, "--out", str(out)])
    assert exc.value.code == 2
    assert "grid" in capsys.readouterr().err
    assert not out.exists()


def test_figure6_json_needs_out(capsys):
    # rows and curves are two JSON documents, which one stream cannot hold
    with pytest.raises(SystemExit) as exc:
        main(["figure6", "--dc", "6", "--dv", "3", "--L", "3", "--w", "2",
              "--curve-grid", "3", "--channel", "xor-only", "--format", "json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out" in captured.err


def test_channel_config_flag(tmp_path, capsys):
    cfg = tmp_path / "fams.ini"
    cfg.write_text("[const]\nkind = fixed-table\ntable = 0 0 0 1 0\n")
    code, out = run_cli(
        ["rates", "--grid", "3", "--channel", "const", "--channel-config", str(cfg)],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert all(float(r["r_cf"]) == 1.0 for r in rows)


def test_non_finite_table_exits_2(tmp_path, capsys):
    cfg = tmp_path / "nan.ini"
    cfg.write_text("[nan]\nkind = fixed-table\ntable = nan 0 0 0 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--regular", "3", "6", "--channel", "nan",
              "--channel-config", str(cfg)])
    assert exc.value.code == 2
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[a]\nkind = fixed-table\ngarbage line\n",
    "[a]\nkind = primary\n[a]\nkind = primary\n",
    "[a]\nkind = primary\nkind = xor-only\n",
    "kind = primary\n",
    "[a]\nkind = fixed-table\n",
    "[a]\nkind = custom-polynomial\np1 = 0 x\n",
    "[a]\nkind = fixed-table\ntable = 0.25 0.25 0.25 0.25\n",
    "[a]\nkind = custom-polynomial\np1 =\np4 = 1\n",
], ids=["syntax", "duplicate-section", "duplicate-option", "no-section", "no-table",
        "not-a-number", "four-entries", "empty-polynomial"])
def test_malformed_channel_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["de", "--dv", "3", "--dc", "6", "--eps", "0.3", "--channel", "a",
              "--channel-config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(cfg) in err or "'a'" in err  # names the file or the family
    if not err.startswith("error: malformed channel config"):  # a bad entry of a section
        assert str(cfg) in err and "family 'a'" in err
        assert err.count("'a'") == 1  # names the family once


@pytest.mark.parametrize("argv", [
    ["de", "--dv", "3", "--dc", "6"],
    ["simulate", "--dv", "3", "--dc", "6", "--N", "120", "--trials", "2"],
    ["simulate", "--dv", "3", "--dc", "6", "--N", "120", "--trials", "2", "--p-pi", "0.05"],
])
def test_channel_off_the_simplex_between_grid_points_exits_2(tmp_path, capsys, argv):
    # p2 = 1.5e-8 - 1e-4 eps + 0.1 eps^2 is 1.5e-8 at every point of the
    # 1001-point load grid but -1e-8 at eps 0.0005, midway between two: the
    # family loads, and the commands that read it there must reject it
    cfg = tmp_path / "gap.ini"
    cfg.write_text("[gap]\nkind = custom-polynomial\np1 = 0\np2 = 1.5e-8 -1e-4 0.1\n"
                   "p3 = 0\np4 = 0.999999985 1e-4 -0.1\np5 = 0\n")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--eps", "0.0005", "--channel", "gap", "--channel-config", str(cfg)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(
        "error: type distribution entries outside [0,1]: [ 0.00000000e+00 -1.00000000e-08")


FIGURE6 = ["figure6", "--dv", "3", "--dc", "6", "--L", "3", "--w", "2", "--curve-grid", "3",
           "--channel", "xor-only"]
OUTPUT_CASES = {  # case: (command, flag, suffix of the path it writes that is a directory)
    "rates": (["rates", "--grid", "3"], "--out", ""),
    "de": (["de", "--dv", "3", "--dc", "6", "--eps", "0.3"], "--out", ""),
    "de-trace": (["de", "--dv", "3", "--dc", "6", "--eps", "0.3"], "--trace", ""),
    "de-profile": (["de", "--dv", "3", "--dc", "6", "--L", "3", "--w", "2", "--eps", "0.3"],
                   "--profile", ""),
    "threshold": (["threshold", "--regular", "3", "6", "--channel", "xor-only"], "--out", ""),
    "figure6": (FIGURE6, "--out", ""),
    "figure6-curves": (FIGURE6, "--out", ".curves.csv"),
    "simulate": (["simulate", "--dv", "3", "--dc", "6", "--N", "120", "--eps", "0.3"],
                 "--out", ""),
}


@pytest.mark.parametrize("argv, flag, suffix", list(OUTPUT_CASES.values()),
                         ids=list(OUTPUT_CASES))
def test_output_in_a_missing_directory_exits_2(argv, flag, suffix, tmp_path, capsys,
                                               monkeypatch):
    # the path is checked before any evolution, sweep or simulation runs; a
    # path that is an existing directory cannot be written either, nor can
    # the curves file that figure6 derives from --out
    for name in ("rate_bounds", "de_coupled", "find_threshold", "sweep", "failure_rate"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("work ran before the check"))
    directory = tmp_path / f"x.csv{suffix}"
    directory.mkdir()
    missing = tmp_path / "missing" / "x.csv"
    for path, named in ((missing, missing), (tmp_path / "x.csv", directory)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(named) in err
    assert not (tmp_path / "missing").exists()
    assert [p.name for p in tmp_path.iterdir()] == [directory.name]
    assert not any(directory.iterdir())


def test_output_that_cannot_be_opened_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rates", "--grid", "3", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {tmp_path}")


def test_unknown_channel_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rates", "--channel", "no-such"])
    assert exc.value.code == 2
