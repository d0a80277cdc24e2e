"""CLI behavior: CSV format and stability, exit codes, command semantics."""

import hashlib
import subprocess
import sys
import warnings

import pytest

from twoway_impair import analytic, model, montecarlo
from twoway_impair.cli import main, parse_config, parse_coupling

FIG2_CFG = """\
# symmetric noise, 2:1 average channel gains
p1 = 1000
p2 = 1000
p3 = 500
n1 = 1
n2 = 1
n3 = 1
omega1 = 2
omega2 = 1
kappa3t = 0.1
kappa3r = 0.1
"""


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code)


def write_cfg(tmp_path, text, name="link.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def cfg_with(tmp_path, **overrides):
    lines = []
    for raw in FIG2_CFG.splitlines():
        if "=" in raw:
            key = raw.split("=")[0].strip()
            if key in overrides:
                lines.append(f"{key} = {overrides.pop(key)}")
                continue
        lines.append(raw)
    for key, value in overrides.items():
        lines.append(f"{key} = {value}")
    return write_cfg(tmp_path, "\n".join(lines) + "\n")


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# twoway-impair v1"
    data_start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[data_start].split(",")
    rows = [line.split(",") for line in lines[data_start + 1:]]
    return header, rows


def test_parse_config_round_trip(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, FIG2_CFG))
    assert cfg.p1 == 1000.0 and cfg.omega1 == 2.0
    assert cfg.kappa_t == 0.1 and cfg.kappa_r == 0.1 and cfg.assumed_kappa_r is None


def test_parse_config_unknown_key_has_line_number(tmp_path):
    path = write_cfg(tmp_path, FIG2_CFG + "bogus = 1\n")
    with pytest.raises(Exception) as info:
        parse_config(path)
    assert ":12:" in str(info.value) and "bogus" in str(info.value)


def test_parse_config_bad_number_has_line_number(tmp_path):
    path = write_cfg(tmp_path, FIG2_CFG.replace("p3 = 500", "p3 = five-hundred"))
    with pytest.raises(Exception) as info:
        parse_config(path)
    assert ":4:" in str(info.value)


@pytest.mark.parametrize("key,value,line", [("kappa3t", "nan", 10), ("p1", "inf", 2)])
def test_non_finite_config_value_exits_2_naming_key(tmp_path, capsys, key, value, line):
    cfg = cfg_with(tmp_path, **{key: value})
    assert run_cli(["op-curve", "--config", cfg, "--x", "31", "--p1-dbw", "0", "40",
                    "--points", "3", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert key in err and f":{line}:" in err and "finite" in err


def test_parse_coupling():
    assert parse_coupling("p2=p1, p3=p1/2") == (1.0, 0.5)
    assert parse_coupling("p2=p1*2,p3=p1*0.25") == (2.0, 0.25)
    with pytest.raises(ValueError):
        parse_coupling("p2=p1")
    with pytest.raises(ValueError):
        parse_coupling("p2=p1, p3=p2/2")
    with pytest.raises(ValueError):
        parse_coupling("p2=p1*0, p3=p1")


def test_op_curve_always_outage(tmp_path):
    cfg = cfg_with(tmp_path, kappa3t=0.2, kappa3r=0.2)
    out = tmp_path / "op.csv"
    assert run_cli(["op-curve", "--config", cfg, "--x", "31", "--p1-dbw", "0", "50",
                    "--points", "11", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["p1_dbw", "analytic", "asymptote"]
    assert all(row[1] == "1" for row in rows)
    assert all(row[2] == "1" for row in rows)


def test_op_curve_ideal_hardware_decreases(tmp_path):
    cfg = cfg_with(tmp_path, kappa3t=0, kappa3r=0)
    out = tmp_path / "op.csv"
    assert run_cli(["op-curve", "--config", cfg, "--x", "31", "--p1-dbw", "20", "80",
                    "--points", "7", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    analytic_col = [float(row[1]) for row in rows]
    assert all(a > b for a, b in zip(analytic_col, analytic_col[1:]))
    assert all(float(row[2]) == 0.0 for row in rows)


def test_op_curve_reaches_floor(tmp_path):
    cfg = cfg_with(tmp_path)
    out = tmp_path / "op.csv"
    assert run_cli(["op-curve", "--config", cfg, "--x", "31", "--p1-dbw", "0", "80",
                    "--points", "9", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    floor = float(rows[-1][2])
    assert abs(floor - 0.76779003142135420) < 1e-15
    assert abs(float(rows[-1][1]) - floor) <= 1e-3


def test_mismatched_config_runs_every_curve_command(tmp_path, capsys):
    # kappa3r = kappa3t = 0.1 with an assumed 0.05: the floors sit at the
    # ceiling coefficient B = kr^2 + kt^2 (1 + khat^2), not at c = 0.0201
    cfg = cfg_with(tmp_path, kappa3r_assumed=0.05)
    b = 0.1**2 + 0.1**2 * (1.0 + 0.05**2)
    sweep = ["--config", cfg, "--p1-dbw", "0", "40", "--points", "3"]
    for mc in ([], ["--mc", "--samples", "20000"]):
        out = tmp_path / "op.csv"
        assert run_cli(["op-curve", *sweep, "--x", "31", *mc, "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header[:3] == ["p1_dbw", "analytic", "asymptote"]
        floor = float(analytic.outage_asymptotic(2.0, 1.0, b, 31.0))
        assert all(abs(float(row[2]) - floor) <= 1e-15 for row in rows)
    out = tmp_path / "ser.csv"
    assert run_cli(["ser-curve", *sweep, "--out", str(out)]) == 0
    _, rows = read_rows(out)
    floor = analytic.ser_floor_quadrature(analytic.MODULATIONS["bpsk"], 2.0, 1.0, b)
    assert all(abs(float(row[2]) / floor - 1.0) <= 1e-12 for row in rows)
    assert run_cli(["validate", "--config", cfg, "--p1-dbw", "30", "60", "--points", "3",
                    "--x", "31", "--samples", "20000"]) == 0
    assert "3/3 points passed" in capsys.readouterr().out


def test_ser_curve_equal_split_floor(tmp_path):
    cfg = cfg_with(tmp_path, omega1=1, omega2=1)
    out = tmp_path / "ser.csv"
    assert run_cli(["ser-curve", "--config", cfg, "--modulation", "bpsk",
                    "--p1-dbw", "0", "40", "--points", "5", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["p1_dbw", "analytic", "asymptote"]
    assert all(abs(float(row[2]) - 0.005025) < 1e-12 for row in rows)


def test_ser_curve_near_ideal_relay_has_its_floor(tmp_path):
    # c ~ 2e-18 puts beta/c near 5e17, where the incomplete gamma of the floor
    # must still converge
    cfg = cfg_with(tmp_path, omega1=1, omega2=1, kappa3t=1e-9, kappa3r=1e-9)
    out = tmp_path / "ser.csv"
    assert run_cli(["ser-curve", "--config", cfg, "--p1-dbw", "0", "40",
                    "--points", "5", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["p1_dbw", "analytic", "asymptote"]
    c = model.derived_constants(parse_config(cfg), model.Direction(1)).c
    floor = analytic.ser_asymptotic(analytic.MODULATIONS["bpsk"], c)
    assert floor > 0.0
    assert all(float(row[2]) == floor for row in rows)


def test_ser_curve_uneven_split_doubles_floor(tmp_path):
    cfg = cfg_with(tmp_path, omega1=1, omega2=1, kappa3t=0, kappa3r=0.2)
    out = tmp_path / "ser.csv"
    assert run_cli(["ser-curve", "--config", cfg, "--p1-dbw", "0", "40",
                    "--points", "3", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    floor = float(rows[0][2])
    assert abs(floor - 0.01) <= 1e-4
    assert 1.97 <= floor / 0.005025 <= 2.01


def test_ser_curve_ideal_omits_asymptote(tmp_path):
    cfg = cfg_with(tmp_path, omega1=1, omega2=1, kappa3t=0, kappa3r=0)
    out = tmp_path / "ser.csv"
    assert run_cli(["ser-curve", "--config", cfg, "--p1-dbw", "0", "40",
                    "--points", "5", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["p1_dbw", "analytic"]
    values = [float(row[1]) for row in rows]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_ser_curve_asymmetric_gains_labels_extension(tmp_path):
    cfg = cfg_with(tmp_path)  # omega 2:1
    out = tmp_path / "ser.csv"
    assert run_cli(["ser-curve", "--config", cfg, "--p1-dbw", "0", "30",
                    "--points", "3", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# twoway-impair v1"
    assert "extension" in lines[1] and lines[1].startswith("#")


def test_ser_curve_rejects_unknown_modulation(tmp_path):
    cfg = cfg_with(tmp_path)
    assert run_cli(["ser-curve", "--config", cfg, "--modulation", "qam64",
                    "--p1-dbw", "0", "30", "--points", "3",
                    "--out", str(tmp_path / "x.csv")]) == 2


def test_ser_curve_signal_route_requires_bpsk(tmp_path):
    cfg = cfg_with(tmp_path)
    assert run_cli(["ser-curve", "--config", cfg, "--alpha", "2", "--beta", "0.5",
                    "--mc", "--mc-route", "signal", "--samples", "1000",
                    "--p1-dbw", "0", "30", "--points", "3",
                    "--out", str(tmp_path / "x.csv")]) == 2


def test_ser_curve_with_mc_columns(tmp_path):
    cfg = cfg_with(tmp_path, omega1=1, omega2=1)
    out = tmp_path / "ser.csv"
    assert run_cli(["ser-curve", "--config", cfg, "--mc", "--mc-route", "signal",
                    "--samples", "20000", "--seed", "5",
                    "--p1-dbw", "0", "20", "--points", "3", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["p1_dbw", "analytic", "asymptote", "mc_mean", "mc_ci_low", "mc_ci_high"]
    for row in rows:
        assert 0.0 <= float(row[4]) <= float(row[3]) <= float(row[5]) <= 1.0


@pytest.mark.parametrize("x, start, stop", [("1e-320", "0", "40"), ("1e-25", "1400", "1500"),
                                           ("-0", "0", "40")])
def test_op_curve_where_the_bessel_argument_underflows(tmp_path, x, start, stop):
    # the Bessel argument underflows to 0, where arg*K1(arg) takes its limit 1;
    # at x = -0 the outage and its floor are +0, printed without a sign
    out = tmp_path / "op.csv"
    assert run_cli(["op-curve", "--config", cfg_with(tmp_path), "--x", x, "--p1-dbw", start, stop,
                    "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert all(0.0 <= float(row[1]) <= 2.3e-16 for row in rows)
    assert not any(field.startswith("-") for row in rows for field in row[1:])


def test_invert_op_report(capsys):
    assert run_cli(["invert", "op", "--target", "0.201", "--x", "10"]) == 0
    line = capsys.readouterr().out.strip()
    fields = dict(part.rsplit(" = ", 1) for part in line.split("  "))
    assert abs(float(fields["c_max"]) - 0.0201) < 1e-15
    assert abs(float(fields["kappa3t = kappa3r"]) - 0.1) < 1e-12
    assert abs(float(fields["forward_check"]) - 0.201) < 1e-12


def test_invert_ser_report(capsys):
    assert run_cli(["invert", "ser", "--target", "0.005025"]) == 0
    line = capsys.readouterr().out.strip()
    fields = dict(part.rsplit(" = ", 1) for part in line.split("  "))
    assert abs(float(fields["c_max"]) / 0.0201 - 1.0) < 1e-4
    assert abs(float(fields["forward_check"]) / 0.005025 - 1.0) < 1e-6


def test_invert_infeasible_targets():
    assert run_cli(["invert", "op", "--target", "1.0", "--x", "10"]) == 2
    assert run_cli(["invert", "op", "--target", "0.5"]) == 2  # missing --x
    assert run_cli(["invert", "ser", "--target", "0.6"]) == 2
    assert run_cli(["invert", "op", "--target", "0.5", "--x", "1e-320"]) == 2  # c overflows


@pytest.mark.parametrize("argv,name", [
    (["ser-curve", "--alpha", "inf", "--beta", "1"], "alpha"),
    (["ser-curve", "--alpha", "1", "--beta", "inf"], "beta"),
    (["invert", "ser", "--target", "0.1", "--alpha", "inf", "--beta", "1"], "alpha"),
    (["invert", "op", "--target", "0.1", "--x", "inf"], "threshold x"),
    (["invert", "op", "--target", "0.1", "--x", "1", "--omega-i", "inf"], "omega_i"),
    (["invert", "op", "--target", "0.1", "--x", "1", "--omega-ri", "inf"], "omega_ri"),
])
def test_infinite_ser_layer_input_exits_2_naming_it(tmp_path, capsys, argv, name):
    if argv[0] == "ser-curve":
        argv = argv + ["--config", cfg_with(tmp_path), "--p1-dbw", "0", "30", "--points", "3",
                       "--out", str(tmp_path / "x.csv")]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert name in err and "finite" in err


def test_validate_passes(tmp_path, capsys):
    cfg = cfg_with(tmp_path)
    assert run_cli(["validate", "--config", cfg, "--x", "31", "--p1-dbw", "10", "40",
                    "--points", "4", "--samples", "1000000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 4
    assert "4/4 points passed" in out


def test_validate_low_sample_runs_are_permissive(tmp_path, capsys):
    # tiny sample counts widen the Wilson band; the gate should still pass
    cfg = cfg_with(tmp_path)
    assert run_cli(["validate", "--config", cfg, "--x", "31", "--p1-dbw", "10", "40",
                    "--points", "4", "--samples", "100", "--seed", "3"]) == 0
    assert "4/4 points passed" in capsys.readouterr().out


def test_validate_passes_on_a_saturated_sweep(tmp_path, capsys):
    # at 0 dBW every sample is in outage and so is the closed form: the
    # Wilson band must reach exactly 1
    cfg = cfg_with(tmp_path)
    assert run_cli(["validate", "--config", cfg, "--x", "31", "--p1-dbw", "0", "40",
                    "--points", "3", "--samples", "20000"]) == 0
    out = capsys.readouterr().out
    first = out.splitlines()[1].split()
    assert first[1:3] == ["1.00000000000000000", "1.00000000000000000"]
    assert first[4:] == ["1.00000000000000000", "PASS"]
    assert "3/3 points passed" in out


@pytest.mark.parametrize("argv, sweep", [
    (["op-curve", "--x", "31", "--mc"], "mc_outage_sweep"),
    (["ser-curve", "--mc"], "mc_ser_expectation_sweep"),
    (["ser-curve", "--mc", "--mc-route", "signal"], "mc_ser_signal_level_sweep"),
    (["validate", "--x", "31"], "mc_outage_sweep"),
])
def test_mc_commands_make_one_sweep_call(tmp_path, capsys, monkeypatch, argv, sweep):
    # the whole power grid goes to one sweep call; the one-point estimators are not used
    calls = []
    real = getattr(montecarlo, sweep)
    monkeypatch.setattr(montecarlo, sweep, lambda *args: calls.append(args) or real(*args))
    for one_point in ("mc_outage", "mc_ser_expectation", "mc_ser_signal_level"):
        monkeypatch.setattr(montecarlo, one_point, None)
    assert run_cli([*argv, "--config", cfg_with(tmp_path), "--p1-dbw", "0", "40",
                    "--points", "5", "--samples", "1000"]) == 0
    assert len(calls) == 1
    assert [len(p) for p in calls[0][-2]] == [5, 5, 5]


def test_csv_bytes_stable_across_runs(tmp_path):
    cfg = cfg_with(tmp_path)
    blobs = []
    for run in range(3):
        out = tmp_path / f"run{run}.csv"
        assert run_cli(["op-curve", "--config", cfg, "--x", "31", "--mc",
                        "--samples", "50000", "--seed", "11",
                        "--p1-dbw", "0", "40", "--points", "5", "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


# sha256 of the mc_mean,mc_ci_low,mc_ci_high text (header and 19 rows); a change
# that moves any Monte-Carlo byte has to update these on purpose
MC_COLUMN_DIGESTS = {
    ("op-curve", "1"):
        "3dd13f31a5eb38cbc303b3ff5dd1a1f7a455e3d5e18c11a3b9081a36def1fd4e",
    ("op-curve", "2"):
        "c664d0b8a33d3754bfd8ef95a8438f6e8d639523580a261268afc0fe8e162531",
    ("ser-curve", "1"):
        "9aff95ef69eb4a15f5e5fe9911731fbd0c21df30bbd6d343f9e8adfd3e627e67",
    ("ser-curve", "2"):
        "7442b25a5a107a2a79eb0fe2dc68fe335a5ad9f6890dc0a2ff82169ecde69242",
    ("ser-curve-expectation", "1"):
        "6d5aafda2030385bccf8aec3a3230591fc80494b523cbbbe6ddc6cebb731f556",
    ("ser-curve-expectation", "2"):
        "b44a81a0cbbf4b1d1f285c2a6b4b917a5137620f615026f5396b4621a08895b7",
}
# argv and sample count per command: ser-curve is the signal route; the
# expectation route's float block sums get three full blocks and a partial one
MC_COLUMN_RUNS = {
    "op-curve": (["op-curve", "--x", "3", "--mc"], "4097"),
    "ser-curve": (["ser-curve", "--mc", "--mc-route", "signal"], "4097"),
    "ser-curve-expectation": (["ser-curve", "--mc"], "12289"),
}


@pytest.mark.parametrize("command, direction", sorted(MC_COLUMN_DIGESTS))
def test_mc_column_bytes_are_pinned(tmp_path, capsys, command, direction):
    # 19 points and a partial last block; unlike the same-commit comparisons
    # above, this catches a change that moves every run alike
    argv, samples = MC_COLUMN_RUNS[command]
    assert run_cli([*argv, "--config", cfg_with(tmp_path), "--direction", direction,
                    "--p1-dbw", "0", "36", "--points", "19",
                    "--samples", samples, "--seed", "11"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    columns = "\n".join(",".join(line.split(",")[-3:]) for line in lines)
    assert columns.startswith("mc_mean,mc_ci_low,mc_ci_high\n") and len(lines) == 20
    assert hashlib.sha256(columns.encode()).hexdigest() == MC_COLUMN_DIGESTS[command, direction], columns


def test_db_conversion_only_at_boundary(tmp_path):
    # CSV analytic values must equal direct library evaluation at 10^(dBW/10)
    cfg_path = cfg_with(tmp_path)
    out = tmp_path / "op.csv"
    assert run_cli(["op-curve", "--config", cfg_path, "--x", "31",
                    "--p1-dbw", "10", "30", "--points", "3", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    base = parse_config(cfg_path)
    from twoway_impair.model import Direction, SystemConfig
    for row in rows:
        p1 = 10.0 ** (float(row[0]) / 10.0)
        config = SystemConfig(p1=p1, p2=p1, p3=p1 / 2, n1=base.n1, n2=base.n2, n3=base.n3,
                              omega1=base.omega1, omega2=base.omega2,
                              relay_impairments=base.relay_impairments)
        want = analytic.outage_probability(
            config, analytic.OutageQuery(31.0, Direction(1)))
        assert row[1] == format(want, ".17g")


def test_custom_coupling_honored(tmp_path):
    cfg_path = cfg_with(tmp_path)
    out = tmp_path / "op.csv"
    assert run_cli(["op-curve", "--config", cfg_path, "--x", "31",
                    "--coupling", "p2=p1*2, p3=p1/4",
                    "--p1-dbw", "20", "30", "--points", "2", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    base = parse_config(cfg_path)
    from twoway_impair.model import Direction, SystemConfig
    p1 = 10.0 ** (float(rows[0][0]) / 10.0)
    config = SystemConfig(p1=p1, p2=2 * p1, p3=p1 / 4, n1=base.n1, n2=base.n2, n3=base.n3,
                          omega1=base.omega1, omega2=base.omega2,
                          relay_impairments=base.relay_impairments)
    want = analytic.outage_probability(config, analytic.OutageQuery(31.0, Direction(1)))
    assert rows[0][1] == format(want, ".17g")


@pytest.mark.parametrize("flags, named", [
    (["--coupling", "p2=p3"], "'p2=p3'"),
    (["--coupling", "p2=p1/0, p3=p1/2"], "'p2=p1/0'"),
    (["--coupling", "p2=p1, p3=p1*inf"], "'p3=p1*inf'"),
    (["--p1-dbw", "0", "4000"], "stop 4000"),
    (["--p1-dbw", "-4000", "0"], "start -4000"),
    (["--coupling", "p2=p1, p2=p1*4, p3=p1/2"], "'p2=p1*4'"),
    (["--coupling", "p2=p1*1e300, p3=p1/2", "--p1-dbw", "0", "80", "--x", "3"], "coupling"),
    (["--coupling", "p2=p1*1e300, p3=p1/2", "--p1-dbw", "-40", "0", "--x", "3", "--direction", "2"],
     "coupling"),
], ids=["unparsable-coupling", "zero-divisor", "infinite-multiplier", "stop-overflows", "start-underflows",
        "repeated-clause", "coefficients-overflow", "coefficients-overflow-direction-2"])
def test_bad_sweep_flags_exit_2(tmp_path, capsys, flags, named):
    # rejected with a message naming the clause, bound or coupling, not as a
    # numerical failure, and without a numpy warning on the way
    argv = ["op-curve", "--config", cfg_with(tmp_path), "--x", "31", "--points", "3",
            "--p1-dbw", "0", "40", *flags]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv) == 2
    assert named in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert run_cli(["op-curve", "--config", str(tmp_path / "nope.cfg"), "--x", "31",
                    "--p1-dbw", "0", "40", "--points", "3",
                    "--out", str(tmp_path / "x.csv")]) == 2


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, twoway_impair; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_thread_pool():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, twoway_impair; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point(tmp_path):
    # end-to-end through `python -m`, the same path the installed script takes
    cfg = cfg_with(tmp_path)
    out = tmp_path / "op.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "twoway_impair.cli", "op-curve", "--config", cfg,
         "--x", "31", "--p1-dbw", "0", "40", "--points", "3", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8").startswith("# twoway-impair v1\n")
