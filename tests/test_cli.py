"""Tests for the command-line surface."""

import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import rsmsim
from rsmsim.cli import ConfigError, main, parse_config_text
from rsmsim.simulate import FdConfig, RsmConfig

SMALL_CONFIG = """
# comment lines and blanks are ignored
system = rsm
n_tx = 16
n_rx = 4
n_active = 2
constellation = psk
order = 4
threshold_mode = hsa
threshold_source = perfect
snr_db = 4,8
trials_per_point = 40
channels_per_point = 6
seed = 5
selection = exhaustive
"""

SMALL_FD_CONFIG = """
system = fd_svd
n_tx = 16
n_rx = 4
n_modes = 2
constellation = qam
order = 16
snr_db = -4:0:2
trials_per_point = 40
channels_per_point = 6
seed = 5
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CONFIG)
    return path


class TestConfigParsing:
    def test_small_config(self):
        config = parse_config_text(SMALL_CONFIG)
        assert isinstance(config, RsmConfig)
        assert config.channel.n_tx == 16
        assert config.n_active == 2
        assert config.snr_grid_db == (4.0, 8.0)

    def test_fd_config(self):
        config = parse_config_text(SMALL_FD_CONFIG)
        assert isinstance(config, FdConfig)
        assert config.n_modes == 2
        assert config.snr_grid_db == (-4.0, -2.0, 0.0)

    def test_missing_required_key_names_it(self):
        broken = SMALL_CONFIG.replace("n_active = 2", "")
        with pytest.raises(ConfigError, match="n_active"):
            parse_config_text(broken)

    def test_unknown_key_names_it(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config_text(SMALL_CONFIG + "\nfrobnicate = 1\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="order"):
            parse_config_text(SMALL_CONFIG.replace("order = 4", "order = four"))

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(SMALL_CONFIG + "\nseed = 6\n")

    def test_empty_snr_grid_rejected(self):
        with pytest.raises(ConfigError, match="snr"):
            parse_config_text(SMALL_CONFIG.replace("snr_db = 4,8", "snr_db = "))

    def test_range_syntax(self):
        config = parse_config_text(SMALL_CONFIG.replace("snr_db = 4,8", "snr_db = 0:6:2"))
        assert config.snr_grid_db == (0.0, 2.0, 4.0, 6.0)


class TestCmdBer:
    def test_writes_csv_and_manifest(self, config_file, tmp_path):
        out = tmp_path / "result.csv"
        code = main(["ber", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "snr_db,ber_total,ber_spatial,ber_mod,abep_analytic,abep_estimated,ci95"
        assert len(lines) == 3  # header + one row per grid point
        manifest = json.loads((tmp_path / "result.csv.manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["n_active"] == 2
        assert manifest["output"] == str(out)
        assert manifest["threads"] == 1
        assert manifest["versions"] == {"numpy": np.__version__, "scipy": scipy.__version__}

    def test_manifest_counts_each_points_exclusions_and_failures(self, tmp_path, caplog):
        # fig3 at seed 1 leaves 3, 1, 1 and 1 links out of the estimated
        # ABEP (singular Fisher), then none; its perfect threshold loses no word.
        preset = Path(__file__).resolve().parents[1] / "presets" / "fig3.cfg"
        out = tmp_path / "fig3.csv"
        with caplog.at_level(logging.INFO, logger="rsmsim.simulate"):
            assert main(["ber", "--config", str(preset), "--out", str(out), "--seed", "1"]) == 0
        points = json.loads((tmp_path / "fig3.csv.manifest.json").read_text())["points"]
        logged = [
            int(re.search(r"with (\d+) of 200 links excluded", r.getMessage()).group(1))
            for r in caplog.records
            if r.name == "rsmsim.simulate"
        ]
        assert [p["excluded_links"] for p in points] == logged == [3, 1, 1, 1] + [0] * 7
        assert [p["snr_db"] for p in points] == [float(s) for s in range(0, 21, 2)]
        assert [p["failed_words"] for p in points] == [0] * 11

    def test_fd_manifest_has_no_excluded_count(self, tmp_path):
        config = tmp_path / "fd.cfg"
        config.write_text(SMALL_FD_CONFIG)
        out = tmp_path / "fd.csv"
        assert main(["ber", "--config", str(config), "--out", str(out)]) == 0
        points = json.loads((tmp_path / "fd.csv.manifest.json").read_text())["points"]
        assert points == [
            {"snr_db": s, "excluded_links": None, "failed_words": 0} for s in (-4.0, -2.0, 0.0)
        ]

    def test_missing_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CONFIG.replace("n_active = 2", ""))
        out = tmp_path / "result.csv"
        code = main(["ber", "--config", str(bad), "--out", str(out)])
        assert code == 2
        assert "n_active" in capsys.readouterr().err

    def test_zero_threads_exits_2(self, config_file, tmp_path, capsys):
        out = tmp_path / "result.csv"
        code = main(["ber", "--config", str(config_file), "--out", str(out), "--threads", "0"])
        assert code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_outside_design_domain_exits_2(self, tmp_path, capsys):
        # At -100 dB every link's design SNR is below the 1e-6 floor.
        path = tmp_path / "low.cfg"
        path.write_text(SMALL_CONFIG.replace("snr_db = 4,8", "snr_db = -100,8"))
        out = tmp_path / "result.csv"
        assert main(["ber", "--config", str(path), "--out", str(out)]) == 2
        assert "outside the supported range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ber", "abep"])
    def test_one_link_outside_design_domain_exits_3(self, tmp_path, capsys, command):
        # At 0 dB this draw leaves link 6 of 7 a design SNR below the 1e-6
        # floor: a failure of the channel draw, not of the config. The
        # same config at seed 1 runs.
        text = """
        system = rsm
        n_tx = 18
        n_rx = 8
        n_active = 4
        constellation = psk
        order = 8
        rx_omni = false
        n_clusters = 4
        n_rays = 8
        snr_db = 0,10
        trials_per_point = 700
        channels_per_point = 7
        threshold_mode = hsa
        threshold_source = perfect
        n_pilots = 2
        selection = all_antennas
        seed = 400079
        """
        path = tmp_path / "weak_link.cfg"
        path.write_text(text)
        out = tmp_path / "result.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "simulation failed: threshold design of link 6 at SNR point 0 dB: design SNR "
            "beta * alpha_p / sigma2 = 9.664e-07 is outside the supported range [1e-06, 1e+10], "
            "while the designs of 6 of the point's 7 links are inside it\n"
        )
        assert not out.exists()
        assert main([command, "--config", str(path), "--out", str(out), "--seed", "1"]) == 0

    def test_threads_do_not_change_bytes(self, config_file, tmp_path):
        out1, out8 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["ber", "--config", str(config_file), "--out", str(out1), "--threads", "1"]) == 0
        assert main(["ber", "--config", str(config_file), "--out", str(out8), "--threads", "8"]) == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_seed_override_changes_results(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["ber", "--config", str(config_file), "--out", str(out1)])
        main(["ber", "--config", str(config_file), "--out", str(out2), "--seed", "99"])
        assert out1.read_text() != out2.read_text()

    def test_fd_system(self, tmp_path):
        cfg = tmp_path / "fd.cfg"
        cfg.write_text(SMALL_FD_CONFIG)
        out = tmp_path / "fd.csv"
        assert main(["ber", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4


class TestCmdAbep:
    def test_matches_ber_analytic_columns(self, config_file, tmp_path):
        ber_out = tmp_path / "ber.csv"
        abep_out = tmp_path / "abep.csv"
        assert main(["ber", "--config", str(config_file), "--out", str(ber_out)]) == 0
        assert main(["abep", "--config", str(config_file), "--out", str(abep_out)]) == 0
        ber_rows = [line.split(",") for line in ber_out.read_text().strip().splitlines()[1:]]
        abep_rows = [line.split(",") for line in abep_out.read_text().strip().splitlines()[1:]]
        for ber_row, abep_row in zip(ber_rows, abep_rows):
            assert abep_row[0] == ber_row[0]
            assert abep_row[1] == ber_row[4]
            assert abep_row[2] == ber_row[5]
        manifest = json.loads((tmp_path / "abep.csv.manifest.json").read_text())
        assert manifest["versions"]["scipy"] == scipy.__version__
        assert "threads" not in manifest

    def test_empty_grid_exits_2(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(SMALL_CONFIG.replace("snr_db = 4,8", "snr_db ="))
        assert main(["abep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2


class TestNegativeSeed:
    # Every stream is keyed by the seed, and numpy rejects negative keys
    # only at the first draw; the CLI rejects them up front instead.
    @pytest.mark.parametrize("command", ["ber", "abep"])
    @pytest.mark.parametrize("text", [SMALL_CONFIG, SMALL_FD_CONFIG], ids=["rsm", "fd_svd"])
    def test_seed_flag_exits_2(self, command, text, tmp_path, capsys):
        cfg, out = tmp_path / "exp.cfg", tmp_path / "o.csv"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "-1" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ber", "abep"])
    @pytest.mark.parametrize("text", [SMALL_CONFIG, SMALL_FD_CONFIG], ids=["rsm", "fd_svd"])
    def test_seed_key_exits_2(self, command, text, tmp_path, capsys):
        cfg, out = tmp_path / "exp.cfg", tmp_path / "o.csv"
        cfg.write_text(text.replace("seed = 5", "seed = -1"))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestBadConfigValues:
    """A config value that no constellation or threshold design accepts, that
    asks for more streams than the arrays have, or more antenna subsets than
    exhaustive selection scores, is refused with exit 2 when the config is
    read, not with a traceback or after the channel draw."""

    @pytest.mark.parametrize("command", ["ber", "abep"])
    @pytest.mark.parametrize(
        "text,old,new,message",
        [
            (SMALL_CONFIG, "threshold_mode = hsa", "threshold_mode = median", "threshold_mode"),
            (SMALL_CONFIG, "constellation = psk", "constellation = pam", "'pam'"),
            (SMALL_CONFIG, "order = 4", "order = 3", "got 3"),
            (SMALL_CONFIG, "psk\norder = 4", "apsk\norder = 16", "ring_ratio"),
            (SMALL_FD_CONFIG, "constellation = qam", "constellation = pam", "'pam'"),
            (SMALL_FD_CONFIG, "order = 16", "order = 3", "got 3"),
            (SMALL_FD_CONFIG, "constellation = qam", "constellation = apsk", "ring_ratio"),
            (SMALL_CONFIG, "n_tx = 16", "n_tx = 1", "n_active"),
            (SMALL_CONFIG, "n_active = 2", "n_active = 5", "n_active"),
            (SMALL_FD_CONFIG, "n_modes = 2", "n_modes = 10", "n_modes"),
            (SMALL_FD_CONFIG, "n_tx = 16", "n_tx = 1", "n_modes"),
            (
                SMALL_CONFIG,
                "n_tx = 16\nn_rx = 4\nn_active = 2",
                "n_tx = 64\nn_rx = 64\nn_active = 8",
                "n_active = 8 of n_rx = 64 under selection = exhaustive",
            ),
        ],
        ids=[
            "rsm-threshold_mode",
            "rsm-constellation",
            "rsm-order",
            "rsm-apsk-no-ring_ratio",
            "fd_svd-constellation",
            "fd_svd-order",
            "fd_svd-apsk-no-ring_ratio",
            "rsm-n_active-above-n_tx",
            "rsm-n_active-above-n_rx",
            "fd_svd-n_modes-above-n_rx",
            "fd_svd-n_modes-above-n_tx",
            "rsm-exhaustive-subsets-above-cap",
        ],
    )
    def test_exits_2(self, command, text, old, new, message, tmp_path, capsys):
        cfg, out = tmp_path / "exp.cfg", tmp_path / "o.csv"
        cfg.write_text(text.replace(old, new))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and message in err
        assert not out.exists()


#: float config key -> the field that a non-finite value of it is refused as
FLOAT_KEYS = {
    "snr_db": "snr_grid_db",
    "gain_variance": "gain_variance",
    "antenna_spacing": "antenna_spacing_wavelengths",
    "angular_spread_deg": "angular_spread_deg",
    "sector_center_deg": "sector_center_deg",
    "sector_width_deg": "sector_width_deg",
    "ring_ratio": "ring_ratio",
}


class TestNonFiniteConfigValues:
    """A float config value of inf, -inf or nan is refused with exit 2 when
    the config is read. Such values once ran to a garbage CSV with exit 0,
    or ended in a traceback or in a simulation failure that named another
    cause."""

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", sorted(FLOAT_KEYS))
    @pytest.mark.parametrize(
        "text,constellation",
        [
            (SMALL_CONFIG, ("constellation = psk\norder = 4", "constellation = apsk\norder = 16")),
            (SMALL_FD_CONFIG, ("constellation = qam", "constellation = apsk")),
        ],
        ids=["rsm", "fd_svd"],
    )
    def test_exits_2_naming_the_field(self, text, constellation, key, value, tmp_path, capsys):
        if key == "snr_db":
            text = text.replace("snr_db = 4,8", "snr_db = 4,8,X").replace(
                "snr_db = -4:0:2", "snr_db = -4,X"
            )
        else:
            text += f"{key} = X\n"
        if key == "ring_ratio":
            text = text.replace(*constellation)
        cfg, out = tmp_path / "exp.cfg", tmp_path / "o.csv"
        cfg.write_text(text.replace("X", value))
        assert main(["ber", "--config", str(cfg), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), lines
        assert FLOAT_KEYS[key] in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:inf:2", "-inf:0:2", "inf:inf:1", "0:4:nan", "0:4:inf"])
    def test_range_parts_must_be_finite(self, grid, tmp_path, capsys):
        # An infinite stop once made the grid parser loop without end.
        cfg, out = tmp_path / "exp.cfg", tmp_path / "o.csv"
        cfg.write_text(SMALL_CONFIG.replace("snr_db = 4,8", f"snr_db = {grid}"))
        assert main(["ber", "--config", str(cfg), "--out", str(out)]) == 2
        assert "key 'snr_db': range bounds and step must be finite" in capsys.readouterr().err
        assert not out.exists()


OUT_COMMANDS = [
    ["ber", "--config", "exp.cfg", "--threads", "2"],
    ["abep", "--config", "exp.cfg"],
    ["power", "--n-rx", "16", "--p-ref", "20"],
]


class TestMissingOutDirectory:
    """An ``--out`` in a directory that does not exist, or one that names a
    directory, is refused with exit 2 before any work, instead of a
    traceback after the whole run."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        import rsmsim.cli as cli
        import rsmsim.power as power

        def unreachable(*args, **kwargs):
            raise AssertionError("the run started")

        for name in ("run", "run_fd", "analytic_curves", "analytic_curves_fd", "load_config"):
            monkeypatch.setattr(cli, name, unreachable)
        monkeypatch.setattr(power, "power_ratio", unreachable)

    @pytest.mark.parametrize("argv", OUT_COMMANDS, ids=["ber", "abep", "power"])
    def test_exits_2_naming_out(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "result.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and str(out.parent) in err
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "argv,directory",
        [
            *((argv, "result.csv") for argv in OUT_COMMANDS),
            # ber and abep also write a manifest sidecar beside the CSV.
            *((argv, "result.csv.manifest.json") for argv in OUT_COMMANDS[:2]),
        ],
        ids=["ber", "abep", "power", "ber-manifest", "abep-manifest"],
    )
    def test_exits_2_when_out_is_a_directory(self, argv, directory, tmp_path, capsys):
        out = tmp_path / "result.csv"
        (tmp_path / directory).mkdir()
        assert main([*argv, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"config error: --out: {str(tmp_path / directory)!r} is a directory"]

    def test_a_file_is_not_a_directory(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "result.csv"
        assert main(["abep", "--config", "exp.cfg", "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err


class TestLogLevel:
    """``RSM_SIM_LOG`` sets the log level by name; a value that names no
    level, even one that names another attribute of ``logging``, means
    WARNING instead of a traceback."""

    @pytest.mark.parametrize(
        "value,level",
        [
            ("info", "INFO"),
            ("Debug", "DEBUG"),
            ("basic_format", "WARNING"),
            ("_styles", "WARNING"),
            ("verbose", "WARNING"),
        ],
    )
    def test_level(self, value, level, monkeypatch):
        import logging

        levels = []
        monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
        monkeypatch.setenv("RSM_SIM_LOG", value)
        assert main(["power", "--n-rx", "8", "--p-ref", "20"]) == 0
        assert levels == [getattr(logging, level)]


class TestCmdPower:
    def test_published_row(self, tmp_path, capsys):
        code = main(["power", "--n-rx", "16", "--p-ref", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "16,1700,8640,0.1968" in out

    def test_ratio_column_monotone(self, tmp_path):
        out = tmp_path / "power.csv"
        code = main(["power", "--n-rx", "8,16,32,64", "--p-ref", "20", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        ratios = [float(r[3]) for r in rows]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 3.75 / 27.0 - 1e-4

    @pytest.mark.parametrize(
        "n_rx, p_ref",
        [("16", "0"), ("0", "1"), ("4", "inf"), ("4", "nan")],
        ids=["p-ref-zero", "n-rx-zero", "p-ref-inf", "p-ref-nan"],
    )
    def test_invalid_p_ref_exits_2(self, n_rx, p_ref, capsys):
        assert main(["power", "--n-rx", n_rx, "--p-ref", p_ref]) == 2
        assert capsys.readouterr().out == ""


class TestCmdThreshold:
    def test_three_designs_printed(self, capsys):
        code = main(["threshold", "--alpha-p", "100", "--sigma2", "1", "--beta", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert set(rows) == {"exact", "msa", "hsa"}
        assert float(rows["hsa"][1]) == pytest.approx(5.0, abs=1e-12)
        assert abs(float(rows["exact"][2])) < 1e-10
        gammas = [float(rows[m][1]) for m in ("exact", "msa", "hsa")]
        assert max(gammas) / min(gammas) < 1.05

    def test_low_snr_still_exit_0(self, capsys):
        code = main(["threshold", "--alpha-p", "0.316", "--sigma2", "1"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) >= 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--alpha-p", "1", "--beta", "2"],
            ["--alpha-p", "1e400"],
            ["--alpha-p", "10", "--sigma2", "nan"],
        ],
        ids=["beta-2", "alpha-p-overflow", "sigma2-nan"],
    )
    def test_bad_beta_exits_2(self, argv, capsys):
        assert main(["threshold", *argv]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--alpha-p", "1e300", "--sigma2", "1e-300"],
            ["--alpha-p", "1e300"],
            ["--alpha-p", "1e-300"],
        ],
        ids=["rho-overflows", "rho-1e300", "rho-1e-300"],
    )
    def test_outside_design_domain_exits_2(self, argv, capsys):
        # These once ended in a traceback, in an errno 34 failure, and in
        # an exact gamma of 2.2e137 against an HSA gamma of 5e-151.
        assert main(["threshold", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside the supported range" in captured.err


class TestPresets:
    @pytest.mark.parametrize(
        "name",
        [
            "fig3.cfg",
            "fig3_hsa.cfg",
            "fig3_hsa_estimated.cfg",
            "fig3_nr16.cfg",
            "fig2_psk.cfg",
            "fig2_qam.cfg",
            "fig2_noselection.cfg",
            "fig2_fd_svd.cfg",
        ],
    )
    def test_presets_parse(self, name):
        path = Path(__file__).resolve().parents[1] / "presets" / name
        config = parse_config_text(path.read_text())
        assert config.channel.n_tx == 32


# Runs in a fresh interpreter: imports the package, then every CLI command,
# and prints the modules of each unwanted group that got loaded, and
# whether a scipy.special package is left in sys.modules or on scipy.
_FOOTPRINT_SCRIPT = """
import sys
import rsmsim
from rsmsim import cli

root = sys.argv[1]
for name in ("exact_perfect", "hsa_estimated", "fd"):
    assert cli.main(["ber", "--config", f"{root}/{name}.cfg", "--out", f"{root}/{name}.csv"]) == 0
assert cli.main(["abep", "--config", f"{root}/hsa_estimated.cfg", "--out", f"{root}/abep.csv"]) == 0
assert cli.main(["threshold", "--alpha-p", "10"]) == 0
assert cli.main(["power", "--n-rx", "4,8", "--p-ref", "1", "--out", f"{root}/power.csv"]) == 0
import scipy
print("package:", "scipy.special" in sys.modules, "special" in vars(scipy))
array_api = ("scipy.special._support_alternative_backends", "numpy.f2py", "numpy.testing")
print("array-api:", *sorted(m for m in sys.modules if m.startswith(array_api)))
print("loaded:", *sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.optimize"))))
"""

# The scipy.special ufuncs rsmsim calls.
_UFUNCS = ("i0e", "i1e", "erfc", "chdtrc", "nctdtr", "gammaln", "_ncx2_sf", "_lambertw")


def run_python(script: str, *args: str) -> list[str]:
    """stdout lines of ``script`` run in a fresh interpreter that imports
    this rsmsim; fails the test unless it exits 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(rsmsim.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.fixture(scope="class")
def footprint(tmp_path_factory):
    root = tmp_path_factory.mktemp("footprint")
    (root / "exact_perfect.cfg").write_text(
        SMALL_CONFIG.replace("threshold_mode = hsa", "threshold_mode = exact")
    )
    (root / "hsa_estimated.cfg").write_text(
        SMALL_CONFIG.replace("threshold_source = perfect", "threshold_source = estimated")
        .replace("snr_db = 4,8", "snr_db = 10,14\nn_pilots = 4")
    )
    (root / "fd.cfg").write_text(SMALL_FD_CONFIG)
    return run_python(_FOOTPRINT_SCRIPT, str(root))


class TestImportFootprint:
    def test_cli_never_loads_scipy_stats_or_optimize(self, footprint):
        # Both cost ~0.7 s of start-up and are not needed: specfun calls
        # the scipy.special ufuncs and phy carries its own Brent solver.
        assert footprint[-1] == "loaded:"

    def test_cli_loads_only_the_compiled_ufuncs(self, footprint):
        # The scipy.special package __init__ loads scipy's array-API layer
        # (about 0.25 s); specfun loads the compiled ufuncs without it, and
        # the stand-in package it imports them through is gone afterwards.
        assert footprint[-2] == "array-api:"
        assert footprint[-3] == "package: False False"

    def test_later_scipy_special_import_shares_the_ufuncs(self):
        lines = run_python(f"""
import sys
import rsmsim.cli
from rsmsim import specfun
import scipy.special as sp
import scipy.special._ufuncs
from scipy.special import _gufuncs, _special_ufuncs, _ufuncs_cxx
from scipy import stats
assert sp._ufuncs is specfun._ufuncs is sys.modules["scipy.special._ufuncs"]
for name in {_UFUNCS!r}:
    assert getattr(sp._ufuncs, name) is getattr(specfun._ufuncs, name), name
    if not name.startswith("_"):
        assert getattr(sp, name) is getattr(specfun._ufuncs, name), name
assert stats.ncx2.sf(4.0, 2, 1.0) == specfun.marcum_q1(1.0, 2.0)
assert 0.0 < stats.norm.cdf(1.5) < 1.0
print("ok")
""")
        assert lines == ["ok"]

    def test_later_scipy_special_import_has_every_name(self):
        # The extension modules _ufuncs imports under the stand-in package
        # are bound on the real one, as a plain import binds them, also
        # after a bare spec lookup of the package; the hook that binds
        # them is gone once the package has executed.
        script = """
import importlib.util
import sys
if sys.argv[1] != "plain":
    import rsmsim.cli
if sys.argv[1] == "find_spec":
    assert importlib.util.find_spec("scipy.special").name == "scipy.special"
    assert "scipy.special" not in sys.modules
import scipy.special as sp
for name in ("_gufuncs", "_special_ufuncs", "_ufuncs_cxx", "_ellip_harm_2", "_ufuncs"):
    assert getattr(sp, name) is sys.modules["scipy.special." + name], name
assert not any(type(f).__module__ == "rsmsim.specfun" for f in sys.meta_path)
print(*sorted(vars(sp)))
"""
        plain = run_python(script, "plain")
        assert len(plain) == 1 and len(plain[0].split()) > 300
        assert run_python(script, "rsmsim") == plain
        assert run_python(script, "find_spec") == plain

    def test_earlier_scipy_special_import_is_used_as_it_is(self):
        lines = run_python(f"""
import sys
import scipy.special as sp
from rsmsim import specfun
import rsmsim.cli
assert sys.modules["scipy.special"] is sp
assert specfun._ufuncs is sp._ufuncs
for name in {_UFUNCS!r}:
    assert getattr(specfun._ufuncs, name) is getattr(sp._ufuncs, name), name
print("ok")
""")
        assert lines == ["ok"]

    def test_failed_stub_import_falls_back_to_the_package(self):
        # A finder that fails the first import of the ufuncs, as a scipy
        # with another layout would: specfun then imports the package.
        lines = run_python("""
import importlib.abc
import sys

class FailOnce(importlib.abc.MetaPathFinder):
    hits = 0

    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not self.hits:
            self.hits += 1
            raise ImportError("no ufuncs here")
        return None

finder = FailOnce()
sys.meta_path.insert(0, finder)
from rsmsim import specfun
assert finder.hits == 1
sp = sys.modules["scipy.special"]
assert "scipy.special._support_alternative_backends" in sys.modules
assert specfun._ufuncs is sp._ufuncs and sp.i0e is specfun._ufuncs.i0e
assert specfun.marcum_q1(1.0, 2.0) == sp._ufuncs._ncx2_sf(4.0, 2.0, 1.0)
print("ok")
""")
        assert lines == ["ok"]


class TestBlasThreadCount:
    """A block forms its noiseless rows without BLAS, but the channel
    draw, the antenna selection and the ZF precoder still call it; a
    run's CSV may not depend on how many threads BLAS splits that work
    over. The benchmark runs at one BLAS thread,
    the tests at the default. One config has the shape of the
    ``mc_estimated`` benchmark, the other eight active antennas, the
    widest rows a block forms."""

    TABLE = """
system = rsm
n_tx = 32
n_rx = 8
n_clusters = 16
n_active = 4
constellation = psk
order = 16
threshold_mode = hsa
threshold_source = estimated
n_pilots = 4
snr_db = 6,12
trials_per_point = 20000
channels_per_point = 3
seed = 1
"""
    DIRECT = """
system = rsm
n_tx = 32
n_rx = 8
n_clusters = 16
n_active = 8
constellation = psk
order = 64
threshold_mode = hsa
snr_db = 10
trials_per_point = 8000
channels_per_point = 2
seed = 1
"""

    @pytest.mark.parametrize("text", [TABLE, DIRECT], ids=["table", "direct"])
    def test_csv_bytes_at_one_and_two_blas_threads(self, text, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        written = []
        for n_threads in ("1", "2"):
            out = tmp_path / f"blas{n_threads}.csv"
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=n_threads,
                PYTHONPATH=str(Path(rsmsim.__file__).resolve().parents[1]),
            )
            argv = ["ber", "--config", str(cfg), "--out", str(out)]
            done = subprocess.run(
                [sys.executable, "-m", "rsmsim.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
            )
            assert done.returncode == 0, done.stderr
            written.append(out.read_bytes())
        assert written[0] == written[1]
