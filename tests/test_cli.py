"""Config parsing, subcommands, emitted files, exit codes."""

import math
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import pytest

from slitsim import (
    ConfigurationError,
    Escaped,
    Histogram,
    ParticleState,
    TrajectoryRecord,
    Vec2,
    cli,
    find_extrema,
    normalize,
    run_ensemble,
)
from slitsim.cli import (
    analyze_distribution,
    build_parser,
    cmd_analyze,
    cmd_simulate,
    cmd_sweep_tau,
    cmd_trace,
    main,
)
from slitsim.config import (
    ExperimentConfig,
    build_emission,
    build_field,
    build_geometry,
    build_histogram_spec,
    build_step,
    config_echo,
    parse_config,
)
from slitsim.ensemble import CHUNK_SIZE
from slitsim.svg import sketch

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FAST = dict(v0=15.0, n=2000, seed=9, workers=1)
HEADER = "bin_center,count,frequency"


def write_config(path: Path, **overrides) -> Path:
    cfg = path / "run.cfg"
    lines = ["# test configuration", ""]
    lines += [f"{key} = {val}" for key, val in overrides.items()]
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


class TestConfigParsing:
    def test_defaults_are_canonical(self):
        cfg = ExperimentConfig()
        assert cfg.charge_product == -1.0
        assert cfg.screen_gap == 25.0
        assert cfg.v0 == 12.0
        assert cfg.bin_width == pytest.approx(2 * cfg.particle_radius)
        assert (cfg.alpha_min_deg, cfg.alpha_max_deg) == (-45.5, 45.5)

    def test_parse_and_types(self, tmp_path):
        path = write_config(tmp_path, v0=13.5, n=777, mode="sweep",
                            tau_list="0.05, 0.01, 0.001", seed=42)
        cfg = parse_config(path)
        assert cfg.v0 == 13.5
        assert cfg.n == 777
        assert cfg.mode == "sweep"
        assert cfg.tau_list == (0.05, 0.01, 0.001)
        assert cfg.seed == 42

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, speed=14.0)
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("v0 = 12\nv0 = 13\n")
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config(cfg)

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, n="many")
        with pytest.raises(ConfigurationError):
            parse_config(path)
        path.write_text("v0 = 15\n\nn 500\n")
        with pytest.raises(ConfigurationError, match=":3: expected 'key = value'"):
            parse_config(path)

    def test_invariants_revalidated(self, tmp_path):
        path = write_config(tmp_path, particle_radius=7.0)
        with pytest.raises(ConfigurationError):
            parse_config(path)

    def test_overrides(self, tmp_path):
        """A flag sets the key of its name; a key with no flag keeps its value."""
        path = write_config(tmp_path, seed=5, n=400, tau=0.02)
        args = build_parser().parse_args(
            ["simulate", "--config", str(path), "--seed", "77", "--n", "123",
             "--out", "o"])
        cfg = cli._load_config(args)
        assert (cfg.seed, cfg.n, cfg.tau, cfg.output_dir) == (77, 123, 0.02, "o")
        assert cli._load_config(build_parser().parse_args(["trace"])).n == 250

    @pytest.mark.parametrize("bad", [
        dict(tau_list=()), dict(tau_list=(0.05, math.inf)), dict(v0=math.nan),
        dict(y_max=math.inf), dict(workers=0), dict(window=4), dict(window=127),
        dict(k_sigma=0.0),
    ], ids=["empty-tau-list", "infinite-tau-list-entry", "nan-v0", "infinite-y-max",
            "no-workers", "even-window", "window-past-the-bins", "zero-k-sigma"])
    def test_invalid_config_cannot_be_built(self, bad):
        """Construction and replace both check every value."""
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**bad)
        with pytest.raises(ConfigurationError):
            replace(ExperimentConfig(), **bad)

    @pytest.mark.parametrize("key, flags", [
        ("v0", []), ("alpha_max_deg", []), ("y_max", []), ("tau", ["--tau", "inf"]),
    ], ids=["v0", "alpha_max_deg", "y_max", "tau-flag"])
    def test_non_finite_value_is_exit_2(self, tmp_path, capsys, key, flags):
        in_file = {} if flags else {key: "inf"}
        path = write_config(tmp_path, n=20, max_steps=200, **in_file)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), *flags, "--out", str(out)]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_echo_parses_back_to_the_same_config(self, tmp_path):
        cfg = ExperimentConfig(tau_list=(0.001000001, 0.001, 1e-05),
                               output_dir="out/a b=c")
        path = tmp_path / "echo.cfg"
        path.write_text(config_echo(cfg) + "\n")
        assert parse_config(path) == cfg

    @pytest.mark.parametrize("output_dir", ["out/run#1", " out/pad ", "out/a\nb"],
                             ids=["hash", "padded", "newline"])
    def test_output_dir_that_cannot_be_echoed_is_rejected(self, output_dir):
        """report.txt echoes output_dir as a config line: a '#' would start
        a comment, padding would be stripped and a line break would split it."""
        with pytest.raises(ConfigurationError, match="output_dir"):
            ExperimentConfig(output_dir=output_dir)

    def test_output_dir_with_a_hash_is_exit_2(self, tmp_path, capsys):
        out = tmp_path / "run#1"
        assert main(["simulate", "--n", "10", "--out", str(out)]) == 2
        assert "output_dir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_component_builders_convert_degrees(self):
        cfg = ExperimentConfig()
        emission = build_emission(cfg)
        assert emission.alpha_min == pytest.approx(math.radians(-45.5))
        assert emission.alpha_max == pytest.approx(math.radians(45.5))


class TestSimulate:
    def test_outputs_and_conservation(self, tmp_path):
        cfg = ExperimentConfig(output_dir=str(tmp_path / "out"), **FAST)
        out = cmd_simulate(cfg)
        csv = (out / "distribution.csv").read_text()
        lines = csv.strip().splitlines()
        assert lines[0] == "bin_center,count,frequency"
        counts = [int(ln.split(",")[1]) for ln in lines[1:]]
        assert sum(counts) <= cfg.n
        assert len(lines) - 1 == build_histogram_spec(cfg).n_bins
        report = (out / "report.txt").read_text()
        assert f"seed = {cfg.seed}" in report
        assert "n_detected" in report

    def test_report_lists_tallies_in_field_order(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(output_dir=str(tmp_path / "out"), **FAST)
        spec = build_histogram_spec(cfg)
        hist = Histogram.zero(spec)
        for value, name in enumerate(("n_emitted", "n_detected", "n_blocked", "n_escaped",
                                      "n_steplimit", "underflow", "overflow"), start=101):
            setattr(hist, name, value)
        monkeypatch.setattr(cli, "run_ensemble", lambda *args, **kwargs: hist)
        report = (cmd_simulate(cfg) / "report.txt").read_text().splitlines()
        start = report.index("n_emitted = 101")
        assert report[start:start + 8] == [
            "n_emitted = 101", "n_detected = 102", "n_blocked = 103", "n_escaped = 104",
            "n_steplimit = 105", "underflow = 106", "overflow = 107", ""]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg1 = ExperimentConfig(output_dir=str(tmp_path / "a"), **FAST)
        cfg2 = ExperimentConfig(output_dir=str(tmp_path / "b"), **FAST)
        d1 = (cmd_simulate(cfg1) / "distribution.csv").read_bytes()
        d2 = (cmd_simulate(cfg2) / "distribution.csv").read_bytes()
        assert d1 == d2

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        args = dict(FAST, n=40_000)
        outs = []
        for workers in (1, 4):
            cfg = ExperimentConfig(output_dir=str(tmp_path / f"w{workers}"),
                                   **{**args, "workers": workers})
            outs.append((cmd_simulate(cfg) / "distribution.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_cli_entry_and_exit_codes(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, v0=15.0, n=500,
                               output_dir=str(tmp_path / "out"))
        assert main(["simulate", "--config", str(cfgfile)]) == 0
        assert (tmp_path / "out" / "distribution.csv").exists()

        badfile = tmp_path / "bad.cfg"
        badfile.write_text("nonsense = 1\n")
        assert main(["simulate", "--config", str(badfile)]) == 2
        assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 3

    @pytest.mark.parametrize("exc, code", [
        (BrokenProcessPool("a worker ended abruptly"), 4),
        (KeyboardInterrupt(), 130),
    ], ids=["broken-pool", "interrupt"])
    def test_pool_failure_and_interrupt_exit_codes(self, tmp_path, monkeypatch,
                                                   capsys, exc, code):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_ensemble", fail)
        assert main(["simulate", "--n", "10", "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert err.startswith("slitsim: ") and err.count("\n") == 1

    def test_ctrl_c_stops_the_workers_at_once(self, tmp_path):
        """SIGINT to the whole process group mid-run: exit 130 within a
        second, one stderr line, and no worker process left behind."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "slitsim", "simulate",
             "--config", str(CONFIGS / "arrivals.cfg"), "--tau", "0.001",
             "--workers", "2", "--out", str(tmp_path)],
            env=env, stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            time.sleep(1.5)
            os.killpg(proc.pid, signal.SIGINT)
            t0 = time.monotonic()
            _, err = proc.communicate(timeout=30)
            waited = time.monotonic() - t0
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130
        assert err == "slitsim: interrupted\n"
        assert waited < 1.0
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


class TestOverrideFlags:
    def test_simulate_takes_all_five(self):
        args = build_parser().parse_args(
            ["simulate", "--seed", "3", "--workers", "2", "--out", "o", "--n", "5",
             "--tau", "0.01"])
        assert (args.seed, args.workers, args.output_dir, args.n, args.tau) == (
            3, 2, "o", 5, 0.01)

    @pytest.mark.parametrize("argv", [
        ["sweep-tau", "--tau", "0.01"],
        ["trace", "--workers", "2"],
        ["trace", "--seed", "3"],
    ], ids=["sweep-tau-tau", "trace-workers", "trace-seed"])
    def test_flag_the_subcommand_ignores_is_exit_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSweepTau:
    def test_sweep_outputs(self, tmp_path):
        cfg = ExperimentConfig(output_dir=str(tmp_path / "sweep"),
                               tau_list=(0.05, 0.025), **FAST)
        out = cmd_sweep_tau(cfg)
        assert (out / "distribution_tau0.05.csv").exists()
        assert (out / "distribution_tau0.025.csv").exists()
        sweep = (out / "sweep_report.csv").read_text().strip().splitlines()
        assert sweep[0] == "tau,n_maxima,oscillation_index"
        assert len(sweep) == 3
        tv = (out / "tv_report.csv").read_text().strip().splitlines()
        assert tv[0] == "tau_a,tau_b,total_variation"
        assert len(tv) == 2
        lines = [ln for ln in (out / "report.txt").read_text().splitlines()
                 if ln.startswith("tau=")]
        assert len(lines) == 2
        for tau, line in zip(cfg.tau_list, lines):
            hist = run_ensemble(build_emission(cfg), build_geometry(cfg),
                                build_field(cfg), build_step(cfg, tau=tau),
                                build_histogram_spec(cfg), workers=1)
            assert line.startswith(f"tau={tau!r}: detected=")
            tallies = dict(kv.split("=") for kv in line.split(": ")[1].split()[:4])
            assert tallies == {k: str(getattr(hist, f"n_{k}"))
                               for k in ("detected", "blocked", "escaped", "steplimit")}
            assert sum(map(int, tallies.values())) == cfg.n
            # perfbench's sweep reader takes n_detected this way
            assert int(line.split(" detected=")[1].split()[0]) == hist.n_detected

    def test_single_tau_degenerate(self, tmp_path):
        cfg = ExperimentConfig(output_dir=str(tmp_path / "one"),
                               tau_list=(0.05,), **FAST)
        out = cmd_sweep_tau(cfg)
        tv = (out / "tv_report.csv").read_text().strip().splitlines()
        assert tv == ["tau_a,tau_b,total_variation"]

    def test_repeated_tau_identical_rows(self, tmp_path):
        cfg = ExperimentConfig(output_dir=str(tmp_path / "rep"),
                               tau_list=(0.05, 0.05), **FAST)
        out = cmd_sweep_tau(cfg)
        rows = (out / "sweep_report.csv").read_text().strip().splitlines()[1:]
        a = rows[0].split(",")[1:]
        b = rows[1].split(",")[1:]
        assert a == b
        tv_rows = (out / "tv_report.csv").read_text().strip().splitlines()[1:]
        assert float(tv_rows[0].split(",")[2]) == 0.0

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        args = dict(FAST, n=CHUNK_SIZE + 3616, tau_list=(0.05, 0.025))
        names = ["distribution_tau0.05.csv", "distribution_tau0.025.csv",
                 "sweep_report.csv", "tv_report.csv"]
        outs = []
        for workers in (1, 2):
            cfg = ExperimentConfig(output_dir=str(tmp_path / f"w{workers}"),
                                   **{**args, "workers": workers})
            out = cmd_sweep_tau(cfg)
            outs.append([(out / name).read_bytes() for name in names])
        assert outs[0] == outs[1]

    def test_taus_alike_under_g_write_their_own_files(self, tmp_path):
        """Files and report lines spell each tau exactly, so 0.001000001 and
        0.001 (both 0.001 under %g) do not collide."""
        out = tmp_path / "close"
        path = write_config(tmp_path, v0=15, n=200, tau_list="0.001000001, 0.001")
        assert main(["sweep-tau", "--config", str(path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("distribution_tau*.csv")) == [
            "distribution_tau0.001.csv", "distribution_tau0.001000001.csv"]
        report = (out / "report.txt").read_text().splitlines()
        assert [ln.split(":")[0] for ln in report if ln.startswith("tau=")] == [
            "tau=0.001000001", "tau=0.001"]

    def test_window_wider_than_the_bins_is_exit_2(self, tmp_path, capsys):
        """Rejected before any tau runs: no output directory is made.  analyze
        states the rule in the same words."""
        out = tmp_path / "wide"
        path = write_config(tmp_path, v0=15, n=200, window=127)
        assert main(["sweep-tau", "--config", str(path), "--out", str(out)]) == 2
        assert "window 127 exceeds the 125 bins" in capsys.readouterr().err
        assert not out.exists()
        path = write_config(tmp_path, v0=15, n=200)
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out / "distribution.csv"), "--window", "127"]) == 2
        assert "window 127 exceeds the 125 bins" in capsys.readouterr().err

    def test_ascending_list_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="descending"):
            cmd_sweep_tau(ExperimentConfig(output_dir=str(tmp_path / "x"),
                                           tau_list=(0.01, 0.05), **FAST))


class TestTrace:
    def test_single_axial_trace(self, tmp_path):
        cfg = ExperimentConfig(output_dir=str(tmp_path / "trace"), v0=15.0, n=1, seed=1)
        out = cmd_trace(cfg)
        rows = (out / "trajectories.csv").read_text().strip().splitlines()
        assert rows[0] == "traj_id,t,x,y"
        ys = {float(r.split(",")[3]) for r in rows[1:]}
        assert ys == {0.0}, "midpoint sweep angle is axial: straight horizontal path"
        svg = (out / "trajectories.svg").read_text()
        assert svg.count("<polyline") == 1

    def test_report_echoes_the_run(self, tmp_path):
        """Without --n, trace runs 250 swept angles and its report says so."""
        path = write_config(tmp_path, v0=15.0, tau=0.5, n=100000, mode="random")
        out = tmp_path / "out"
        assert main(["trace", "--config", str(path), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text().splitlines()
        assert "trajectories = 250" in report
        assert {"  n = 250", "  mode = sweep"} <= set(report)
        # perfbench's trace reader parses these four lines as `key = <n>`
        tallies = {m[1]: int(m[2]) for ln in report if (m := re.fullmatch(
            r"(detected|blocked|escaped|steplimit) = (\d+)", ln))}
        assert len(tallies) == 4 and sum(tallies.values()) == 250
        assert main(["trace", "--config", str(path), "--n", "0",
                     "--out", str(tmp_path / "none")]) == 2

    def test_bundle_counts(self, tmp_path):
        cfg = ExperimentConfig(output_dir=str(tmp_path / "bundle"), v0=15.0,
                               n=40, seed=1)
        out = cmd_trace(cfg)
        svg = (out / "trajectories.svg").read_text()
        assert svg.count("<polyline") == 40
        rows = (out / "trajectories.csv").read_text().strip().splitlines()[1:]
        ids = {int(r.split(",")[0]) for r in rows}
        assert ids == set(range(40))


    def test_sketch_thins_a_long_path(self):
        """4,000 states at stride 2: every other state, then the end point;
        the extent still sees the dropped odd states."""
        ys = [0.01 * i for i in range(4000)]
        ys[1001] = -99.5
        path = [ParticleState(Vec2(0.01 * i, y), Vec2(1.0, 0.0), 0.01 * i)
                for i, y in enumerate(ys)]
        sk = sketch(TrajectoryRecord(Escaped(), path, 3999))
        assert len(sk.vertices) == 2001
        assert sk.vertices[0] == path[0].pos and sk.vertices[-1] == path[-1].pos
        assert sk.vertices[1:-1] == [s.pos for s in path[2:-1:2]]
        assert sk.y_extent == 99.5


class TestReport:
    def test_one_seed_line_and_one_wall_time(self, tmp_path):
        """simulate, sweep-tau and trace write report.txt through one writer:
        the seed appears once, in the parameter echo, with one wall time."""
        cfg = ExperimentConfig(tau_list=(0.05, 0.01), **dict(FAST, n=200))
        for cmd in (cmd_simulate, cmd_sweep_tau, cmd_trace):
            out = cmd(replace(cfg, output_dir=str(tmp_path / cmd.__name__)))
            report = (out / "report.txt").read_text().splitlines()
            assert [ln for ln in report if ln.strip().startswith("seed =")] == [
                f"  seed = {cfg.seed}"], cmd.__name__
            assert sum(ln.startswith("wall_time_s = ") for ln in report) == 1


class TestAnalyze:
    def test_single_peak_csv(self, tmp_path):
        lines = ["bin_center,count,frequency"]
        counts = [0, 2, 10, 40, 90, 40, 10, 2, 0]
        total = sum(counts)
        for i, c in enumerate(counts):
            center = -4.0 + i
            lines.append(f"{center},{c},{c / total}")
        csv = tmp_path / "dist.csv"
        csv.write_text("\n".join(lines) + "\n")
        report = cmd_analyze(csv, window=3, k_sigma=3.0, out_dir=tmp_path)
        assert len(report.maxima) == 1
        assert (tmp_path / "extrema.csv").exists()

    def test_empty_csv_is_exit_2(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("bin_center,count,frequency\n")
        assert main(["analyze", str(csv)]) == 2

    def test_malformed_csv_is_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        for rows, message in [
            (["x,y", "1,2"], "expected header"),
            ([HEADER, "-1.0,0,0.0", "0.0,1", "1.0,0,0.0"], ":3: expected 3 columns"),
            ([HEADER, "-1.0,0,0.0", "0.0,one,1.0", "1.0,0,0.0"], ":3: invalid literal"),
            ([HEADER, "-1.0,0,0.0", "0.0,1,1.0", "1.5,0,0.0"], "not evenly spaced"),
            # line numbers are the file's own, blank lines included
            ([HEADER, "-1.0,0,0.0", "", "", "0.0,x,1.0"], ":5: invalid literal"),
        ]:
            csv.write_text("\n".join(rows) + "\n")
            assert main(["analyze", str(csv)]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("k_sigma", ["0", "inf", "nan"])
    def test_k_sigma_out_of_range_is_exit_2(self, tmp_path, capsys, k_sigma):
        csv = tmp_path / "dist.csv"
        csv.write_text("\n".join([HEADER, "-2.0,0,0.0", "-1.0,1,0.25", "0.0,2,0.5",
                                  "1.0,1,0.25", "2.0,0,0.0"]) + "\n")
        assert main(["analyze", str(csv), "--k-sigma", k_sigma]) == 2
        assert "k_sigma must be > 0 and finite" in capsys.readouterr().err
        assert not (tmp_path / "extrema.csv").exists()

    def test_simulate_writes_only_what_analyze_reads(self, tmp_path, capsys):
        """One cell would give a one-row distribution.csv that analyze
        refuses, so simulate refuses the config (exit 2, naming the count);
        two cells run through both."""
        path = write_config(tmp_path, v0=15, n=200, bin_width=50, window=1)
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "one")]) == 2
        assert "1 bin is too few" in capsys.readouterr().err
        assert not (tmp_path / "one").exists()
        path = write_config(tmp_path, v0=15, n=200, bin_width=25, window=1)
        out = tmp_path / "two"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert len((out / "distribution.csv").read_text().splitlines()) == 3
        assert main(["analyze", str(out / "distribution.csv"), "--window", "1"]) == 0

    def test_closed_stdout_keeps_extrema_csv(self, tmp_path, monkeypatch, capsys):
        """extrema.csv is written before the table is printed, so a reader
        that closes the pipe early (`| head -1`) costs the table only: exit 3
        and the same file as a full run."""
        csv = tmp_path / "dist.csv"
        counts = [0, 2, 10, 40, 90, 40, 10, 30, 80, 30, 5, 0]
        csv.write_text("\n".join([HEADER] + [f"{i - 6.0},{c},{c / sum(counts)!r}"
                                              for i, c in enumerate(counts)]) + "\n")
        argv = ["analyze", str(csv), "--window", "1", "--k-sigma", "1", "--out"]
        assert main(argv + [str(tmp_path / "full")]) == 0

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(argv + [str(tmp_path / "cut")]) == 3
        assert "Broken pipe" in capsys.readouterr().err
        full = (tmp_path / "full" / "extrema.csv").read_bytes()
        assert len(full.splitlines()) > 2
        assert (tmp_path / "cut" / "extrema.csv").read_bytes() == full

    def test_missing_csv_is_exit_3(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.csv")]) == 3

    @pytest.mark.parametrize("counts, freqs, centers", [
        ([0, 0, -3, 5, 2, 0, 0], [0, 0, 0.5, 0.5, 0, 0, 0], None),
        ([0, 1, 2, 1, 0], [0, 0.5, 0.25, 0.25, 0], None),
        ([0, 1, 2, 1, 0], [0, 0.25, 0.5, 0.25, 1e-17], None),
        ([0, 0, 0, 0, 0], [0, 0.5, -0.5, 0, 0], None),
        ([0, 1, 2, 1, 0], [0, 0, 0, 0, 0], None),
        ([0, 4, 4, 4, 0], [0, 0.5, 0.5, 0.5, 0], None),
        ([0, 0, 1, 0, 0], [0, 0, 5e-324, 0, 0], None),
        ([0, 0, 10**20, 0, 0], [0, 0, 1, 0, 0], None),
        ([1, 1], [0.5, 0.5], [5e307, 1.5e308]),
    ], ids=["negative-count", "not-count-over-n", "empty-bin-frequency",
            "frequencies-without-detections", "counts-without-frequencies",
            "counts-above-n-detected", "subnormal-frequency", "count-past-int64",
            "bin-range-overflows"])
    def test_file_never_written_is_exit_2(self, tmp_path, counts, freqs, centers):
        centers = centers or [i - 2.0 for i in range(len(counts))]
        lines = ["bin_center,count,frequency"]
        lines += [f"{x!r},{c},{f!r}" for x, c, f in zip(centers, counts, freqs)]
        csv = tmp_path / "dist.csv"
        csv.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(csv)]) == 2
        assert not (tmp_path / "extrema.csv").exists()

    @pytest.mark.parametrize("config", ["arrivals.cfg", "canonical.cfg"])
    def test_simulated_distribution_is_exit_0(self, tmp_path, config):
        """Both shipped configs' histograms pass the checks; canonical.cfg's
        is empty, with all-zero frequencies."""
        cfg = CONFIGS / config
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert main(["analyze", str(tmp_path / "distribution.csv")]) == 0
        extrema = (tmp_path / "extrema.csv").read_text().splitlines()
        assert extrema[0] == "kind,bin_center,height,prominence"
        assert (len(extrema) > 1) == (config == "arrivals.cfg")

    def test_round_trip_matches_library(self, tmp_path):
        """Analyzing the emitted CSV reproduces the in-memory analysis."""
        cfg = ExperimentConfig(output_dir=str(tmp_path / "rt"), v0=15.0,
                               n=30_000, seed=4)
        out = cmd_simulate(cfg)
        hist = run_ensemble(build_emission(cfg), build_geometry(cfg),
                            build_field(cfg), build_step(cfg),
                            build_histogram_spec(cfg), workers=1)
        lib = find_extrema(normalize(hist), build_histogram_spec(cfg).bin_centers(),
                           hist.n_detected, window=cfg.window, k_sigma=cfg.k_sigma)
        csv_report, n_det = analyze_distribution(out / "distribution.csv",
                                                 cfg.window, cfg.k_sigma)
        assert n_det == hist.n_detected
        assert len(csv_report.maxima) == len(lib.maxima)
        for (c1, h1, p1), (c2, h2, p2) in zip(csv_report.maxima, lib.maxima):
            assert c1 == c2, "extrema.csv quotes the input's own bin centres"
            assert h1 == pytest.approx(h2, rel=1e-12)
            assert p1 == pytest.approx(p2, rel=1e-9, abs=1e-15)
