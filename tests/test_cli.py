import json
import random
import re

import numpy as np

import pytest

from macdecay import cli, decay
from macdecay.catalog import MAX_DEGREE

from util import draw_samples_reference


GOLDEN_CODE = {"K": "Q(i)", "U": 2, "n_t": 1, "p": [1, 1]}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestCatalogCommand:
    def test_lists_rows_and_writes_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["catalog", "--nmax", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "degree=2 m=5 H=<4>" in captured.out
        assert "f=-1 1 1" in captured.out
        rows = json.loads((out / "catalog.json").read_text())
        assert len(rows) == 1 and rows[0]["degree"] == 2
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["task"] == "catalog" and resolved["max_degree"] == 2

    @pytest.mark.parametrize("degree", [-3, 1, MAX_DEGREE + 1])
    def test_degree_outside_the_catalog_is_exit_2(self, tmp_path, capsys, degree):
        # -3 and 1 used to write an empty catalog and exit 0; degrees far
        # past the cap ran for minutes
        out = tmp_path / "out"
        rc = cli.main(["catalog", "--nmax", str(degree), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            f"invalid configuration: max degree {degree} is outside"
            f" 2..{MAX_DEGREE}\n"
        )


class TestInertSearchCommand:
    def test_lists_low_norm_primes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE)})
        rc = cli.main(["inert-search", "--config", cfg, "--nmax", "20"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "norm=2" in captured.out  # the ramified-over-2 prime is inert in L


class TestBuildCommand:
    def test_reports_code_parameters(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE)})
        out = tmp_path / "out"
        rc = cli.main(["build", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        info = json.loads((out / "build.json").read_text())
        assert info == {
            "U": 2,
            "n_t": 1,
            "degree": 2,
            "p": "1+1i",
            "norm_p": 2,
            "k": 1,
            "generators_per_user": 4,
            "rank_certified": True,
        }


class TestRankCheckCommand:
    def test_random_sweep_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE), "samples": 50})
        out = tmp_path / "out"
        rc = cli.main(
            ["rank-check", "--config", cfg, "--seed", "3", "--nmax", "2",
             "--out", str(out)]
        )
        capsys.readouterr()
        assert rc == 0
        result = json.loads((out / "rank_check.json").read_text())
        assert result["total"] == 50 and result["passed"] is True
        assert result["zero_failures"] == [] and result["tau_failures"] == []

    @pytest.mark.parametrize("seed, nmax", [(3, 2), (17, 1)])
    def test_boxes_follow_the_randint_reference(
        self, seed, nmax, tmp_path, capsys, monkeypatch
    ):
        # the sweep reads the drawn arrays; the stand-in flags the first
        # box as singular and the last as not tau-fixed
        swept = []

        def capture(ctx, coeffs):
            swept.append(coeffs.copy())
            zero = np.zeros(coeffs.shape[0], dtype=bool)
            unfixed = zero.copy()
            zero[0] = len(swept) == 1
            unfixed[-1] = True
            return zero, unfixed

        monkeypatch.setattr(decay, "_rank_sweep", capture)
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE), "samples": 300})
        out = tmp_path / "out"
        rc = cli.main(
            ["rank-check", "--config", cfg, "--seed", str(seed),
             "--nmax", str(nmax), "--out", str(out)]
        )
        capsys.readouterr()
        assert rc == 1
        want = draw_samples_reference(random.Random(seed), (nmax,) * 2, (4, 4), 300)
        got = np.concatenate(swept)
        assert got.dtype == np.int64 and got.shape == (300, 2, 4)
        assert got.tolist() == [list(vecs) for vecs in zip(*want)]
        result = json.loads((out / "rank_check.json").read_text())
        assert result["total"] == 300 and result["passed"] is False
        assert result["zero_failures"] == [want[0][0] + want[1][0]]
        assert result["tau_failures"] == [want[0][-1] + want[1][-1]]

    @pytest.mark.parametrize("nmax", ["0", "-1"])
    def test_nonpositive_nmax_is_exit_2(self, nmax, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE), "samples": 5})
        rc = cli.main(["rank-check", "--config", cfg, "--nmax", nmax])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "invalid configuration: nmax must be positive\n"

    @pytest.mark.parametrize("samples", [0, -3])
    def test_nonpositive_samples_is_exit_2(self, samples, tmp_path, capsys):
        # an empty sweep certifies nothing; it used to report a pass
        cfg = write_config(
            tmp_path, {"code": dict(GOLDEN_CODE), "samples": samples}
        )
        rc = cli.main(["rank-check", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "invalid configuration: samples must be positive\n"

    def test_nmax_beyond_int64_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE), "samples": 5})
        rc = cli.main(["rank-check", "--config", cfg, "--nmax", str(2**63)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (
            "invalid configuration: sampled coefficient bounds must be below 2**63\n"
        )

    @pytest.mark.parametrize(
        "config, argv, env, message",
        [
            # the default budget, 10**8
            ({"samples": 10**12}, [], None, "1000000000000 exceeds budget 100000000"),
            ({"samples": 50}, ["--budget", "49"], None, "50 exceeds budget 49"),
            # the environment over the config key
            ({"samples": 50, "budget": 20}, [], "30", "50 exceeds budget 30"),
            # the default 1,000 samples
            ({"budget": 999}, [], None, "1000 exceeds budget 999"),
        ],
    )
    def test_samples_over_budget_is_exit_3(
        self, config, argv, env, message, tmp_path, capsys, monkeypatch
    ):
        # the sweep is counted up front: it used to run 10**12 boxes
        def refused(*args):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(decay, "_rank_sweep", refused)
        if env is None:
            monkeypatch.delenv("MACDECAY_BUDGET", raising=False)
        else:
            monkeypatch.setenv("MACDECAY_BUDGET", env)
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE), **config})
        rc = cli.main(["rank-check", "--config", cfg, *argv])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == f"budget exceeded: sample count {message}\n"

    def test_nonpositive_budget_is_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(decay, "_rank_sweep", None)
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE), "samples": 5})
        rc = cli.main(["rank-check", "--config", cfg, "--budget", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "invalid configuration: budget must be positive\n"


class TestDecayCommand:
    def test_exhaustive_curve_passes_default_tolerance(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE)})
        out = tmp_path / "out"
        rc = cli.main(
            ["decay", "--config", cfg, "--nmax", "3", "--workers", "2",
             "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "verdict=PASS" in captured.out
        csv_text = (out / "decay.csv").read_text()
        lines = csv_text.splitlines()
        assert len(lines) == 4  # header + N = 1, 2, 3
        assert lines[1].startswith("1,0.2245139882897927,")
        decay_json = json.loads((out / "decay.json").read_text())
        assert decay_json["expected_slope"] == -1
        assert decay_json["slope_within_tolerance"] is True
        assert "wall time" in captured.err  # timing goes to stderr only
        assert "wall time" not in csv_text

    def test_tight_tolerance_flips_verdict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE)})
        rc = cli.main(
            ["decay", "--config", cfg, "--nmax", "3", "--workers", "1",
             "--tolerance", "0.001"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "verdict=FAIL" in captured.out

    @pytest.mark.parametrize("flag", ["nan", "-1", "inf"])
    def test_bad_tolerance_flag_is_exit_2(self, flag, tmp_path, capsys, monkeypatch):
        # nan and -1 used to fail every verdict and exit 1
        def no_curve(*args, **kwargs):
            raise AssertionError("a curve was measured")

        monkeypatch.setattr(cli, "decay_curve", no_curve)
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE)})
        rc = cli.main(["decay", "--config", cfg, "--nmax", "3", "--tolerance", flag])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "tolerance" in captured.err

    @pytest.mark.parametrize("value", [True, -0.5, float("nan"), float("inf")])
    def test_bad_tolerance_key_is_exit_2(self, value, tmp_path, capsys):
        # true used to run as a tolerance of 1.0
        cfg = write_config(
            tmp_path, {"code": dict(GOLDEN_CODE), "N_max": 3, "tolerance": value}
        )
        rc = cli.main(["decay", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "tolerance" in captured.err

    def test_zero_tolerance_is_accepted(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"code": dict(GOLDEN_CODE), "N_max": 3, "tolerance": 0}
        )
        rc = cli.main(["decay", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 1
        assert "tolerance=0.0 verdict=FAIL" in captured.out

    def test_budget_exhausted_is_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE)})
        rc = cli.main(
            ["decay", "--config", cfg, "--nmax", "1", "--budget", "10"]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert "budget exceeded" in captured.err

    def test_sampled_curve_over_budget_is_exit_3(
        self, tmp_path, capsys, monkeypatch
    ):
        # the budget covers N_max x samples: this run used to go on, its
        # report list growing with N_max
        def no_draw(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(decay, "_sample_chunks", no_draw)
        monkeypatch.delenv("MACDECAY_BUDGET", raising=False)
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE), "samples": 10})
        rc = cli.main(
            ["decay", "--config", cfg, "--mode", "sampled", "--nmax", "100000000"]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == (
            "budget exceeded: sampled curve needs 100000000 x 10 samples,"
            " budget is 100000000\n"
        )

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize("budget", [0, -5])
    def test_nonpositive_budget_is_exit_2(
        self, source, budget, tmp_path, capsys, monkeypatch
    ):
        # a budget below 1 used to run and end in exit 3, "budget exceeded"
        def no_curve(*args, **kwargs):
            raise AssertionError("a curve was measured")

        monkeypatch.setattr(cli, "decay_curve", no_curve)
        config = {"code": dict(GOLDEN_CODE)}
        argv = ["decay", "--nmax", "1"]
        if source == "flag":
            argv += ["--budget", str(budget)]
        elif source == "env":
            monkeypatch.setenv("MACDECAY_BUDGET", str(budget))
        else:
            config["budget"] = budget
        rc = cli.main(argv + ["--config", write_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "invalid configuration: budget must be positive\n"

    def test_oversized_grid_is_exit_3_without_allocating(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_grid(N, length):
            raise AssertionError("a coefficient grid was built")

        monkeypatch.setattr(decay, "coeff_grid", no_grid)
        # one user with 18 coordinates: 3^18 rows at N=1, over the grid row cap
        cfg = write_config(
            tmp_path, {"code": {"K": "Q(i)", "U": 1, "n_t": 3, "p": [2, 1]}}
        )
        rc = cli.main(
            ["decay", "--config", cfg, "--nmax", "1", "--budget", "1000000000",
             "--workers", "1"]
        )
        captured = capsys.readouterr()
        assert rc == 3
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("budget exceeded: coefficient grid of 387420489")

    def test_interrupt_is_exit_130(self, tmp_path, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "decay_curve", interrupted)
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE)})
        rc = cli.main(["decay", "--config", cfg, "--nmax", "1"])
        captured = capsys.readouterr()
        assert rc == 130
        assert captured.err.splitlines() == ["interrupted"]

    def test_env_budget_applies_and_flag_wins(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE)})
        monkeypatch.setenv("MACDECAY_BUDGET", "10")
        rc = cli.main(["decay", "--config", cfg, "--nmax", "1", "--workers", "1"])
        capsys.readouterr()
        assert rc == 3
        rc = cli.main(
            ["decay", "--config", cfg, "--nmax", "1", "--workers", "1",
             "--budget", "100000"]
        )
        capsys.readouterr()
        assert rc == 0

    def test_sampled_reruns_byte_identical_across_workers(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"code": dict(GOLDEN_CODE), "mode": "sampled", "samples": 150},
        )
        outs = []
        for w, name in ((1, "a"), (3, "b")):
            out = tmp_path / name
            rc = cli.main(
                ["decay", "--config", cfg, "--nmax", "2", "--seed", "7",
                 "--workers", str(w), "--out", str(out)]
            )
            capsys.readouterr()
            assert rc in (0, 1)  # few sampled points; the verdict may skip
            outs.append((out / "decay.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_exhaustive_reruns_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE)})
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = cli.main(
                ["decay", "--config", cfg, "--nmax", "1", "--workers", "2",
                 "--out", str(out)]
            )
            capsys.readouterr()
            assert rc == 0
            blobs.append((out / "decay.csv").read_bytes())
            blobs.append((out / "decay.json").read_bytes())
        assert blobs[0] == blobs[2] and blobs[1] == blobs[3]


@pytest.mark.parametrize("task", ["decay", "rank-check"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_exit_2(task, source, tmp_path, capsys):
    # random.Random reads |seed|: seeds 3 and -3 used to draw the same boxes
    config = {"code": dict(GOLDEN_CODE), "samples": 5, "mode": "sampled"}
    argv = [task, "--nmax", "1"]
    if source == "flag":
        argv += ["--seed", "-3"]
    else:
        config["seed"] = -3
    rc = cli.main(argv + ["--config", write_config(tmp_path, config)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "invalid configuration: seed must be non-negative\n"


class TestWitness2Command:
    def test_singular_quadruple_gets_witness(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "code": {"K": "Q(i)", "U": 2, "n_t": 1},
                "abcd": [[1, 0, 0, 0]] * 4,
            },
        )
        out = tmp_path / "out"
        rc = cli.main(["witness2", "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "zero-determinant matrix exists" in captured.out
        result = json.loads((out / "witness2.json").read_text())
        assert result["singular"] is True
        assert result["witness"]["verified"] is True

    def test_norm_mismatch_reports_none(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "code": {"K": "Q(i)", "U": 2, "n_t": 1},
                "abcd": [[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0]],
            },
        )
        out = tmp_path / "out"
        rc = cli.main(["witness2", "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "no zero determinant" in captured.out
        result = json.loads((out / "witness2.json").read_text())
        assert result["singular"] is False and "witness" not in result

    def test_higher_degree_tower_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "code": {"K": "Q(i)", "U": 3, "n_t": 1},
                "abcd": [[1, 0, 0, 0, 0, 0]] * 4,
            },
        )
        rc = cli.main(["witness2", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert "degree-2" in captured.err


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["build", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        capsys.readouterr()

    def test_config_directory_is_exit_2(self, tmp_path, capsys):
        # reading a directory used to end in an IsADirectoryError traceback
        rc = cli.main(["decay", "--config", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1 and str(tmp_path) in captured.err

    @pytest.mark.parametrize("task", ["decay", "rank-check"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_out_file_is_refused_before_the_run(
        self, task, below, tmp_path, capsys, monkeypatch
    ):
        # an --out that is a file, or lies under one, used to end in a
        # FileExistsError traceback after the whole run had printed
        def refused(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "decay_curve", refused)
        monkeypatch.setattr(cli, "sampled_rank_check", refused)
        blocker = tmp_path / "taken"
        blocker.write_text("kept")
        out = blocker / "out" if below else blocker
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE), "samples": 5})
        rc = cli.main([task, "--config", cfg, "--nmax", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            f"config error: --out needs a directory, and {str(blocker)!r}"
            " is not one\n"
        )
        assert blocker.read_text() == "kept"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = cli.main(["build", "--config", str(path)])
        assert rc == 2
        capsys.readouterr()

    def test_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        rc = cli.main(["build", "--config", str(path)])
        assert rc == 2
        capsys.readouterr()

    def test_unknown_base_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": {"K": "Q(7)", "U": 2, "n_t": 1}})
        rc = cli.main(["build", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown base field" in captured.err

    def test_invalid_exponent_k(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"code": {**GOLDEN_CODE, "k": 0}}
        )
        rc = cli.main(["build", "--config", cfg])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("value", [[1.9, 1], [1, True]])
    def test_non_integer_prime_refused(self, tmp_path, capsys, value):
        # 1.9 used to be truncated, building the code for p = 1+1i
        cfg = write_config(tmp_path, {"code": {**GOLDEN_CODE, "p": value}})
        rc = cli.main(["build", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "'p'" in captured.err

    @pytest.mark.parametrize("value", [1.0, True])
    def test_non_integer_exponent_k_refused(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {"code": {**GOLDEN_CODE, "k": value}})
        rc = cli.main(["build", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "'k'" in captured.err

    @pytest.mark.parametrize("entry", [1.5, False])
    def test_non_integer_abcd_refused(self, tmp_path, capsys, entry):
        # 1.5 used to be truncated to 1 and the run exited 0
        abcd = [[entry, 0, 0, 0]] + [[1, 0, 0, 0]] * 3
        cfg = write_config(
            tmp_path, {"code": {"K": "Q(i)", "U": 2, "n_t": 1}, "abcd": abcd}
        )
        rc = cli.main(["witness2", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "'abcd'" in captured.err

    NON_INTEGER_TOWER_KEYS = [
        ({"U": 2.9, "n_t": 1.5}, "U"),
        ({"U": 2, "n_t": 1.5}, "n_t"),
        ({"U": 2, "n_t": 1, "m": 5.0}, "m"),
        ({"U": 2, "n_t": 1, "m": 5, "H_generators": [4.0]}, "H_generators"),
    ]

    @pytest.mark.parametrize(
        "shorthand, key",
        NON_INTEGER_TOWER_KEYS,
        ids=[key for _, key in NON_INTEGER_TOWER_KEYS],
    )
    def test_non_integer_tower_shorthand_refused(
        self, tmp_path, capsys, shorthand, key
    ):
        # int() would truncate U = 2.9, n_t = 1.5 and build the U = 2, n_t = 1 code
        code = {"K": "Q(i)", "p": [1, 1], **shorthand}
        cfg = write_config(tmp_path, {"code": code})
        rc = cli.main(["build", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and repr(key) in captured.err

    NON_INTEGER_KEYS = [
        ("decay", {"N_max": 1.5}, "N_max"),
        ("decay", {"N_max": 1, "seed": True}, "seed"),
        ("decay", {"N_max": 1, "mode": "sampled", "samples": 150.9}, "samples"),
        ("decay", {"N_max": 1, "budget": 1e8}, "budget"),
        ("rank-check", {"samples": 5, "nmax": 1.5}, "nmax"),
        ("rank-check", {"samples": 5, "seed": False}, "seed"),
        ("rank-check", {"samples": 5.5}, "samples"),
        ("catalog", {"max_degree": 2.5}, "max_degree"),
        ("catalog", {"max_degree": 2, "norm_bound": 10.0}, "norm_bound"),
        ("inert-search", {"norm_bound": 20.5}, "norm_bound"),
    ]

    @pytest.mark.parametrize(
        "task, config, key",
        NON_INTEGER_KEYS,
        ids=[f"{t}-{k}={c[k]!r}" for t, c, k in NON_INTEGER_KEYS],
    )
    def test_non_integer_config_key_refused(
        self, tmp_path, capsys, task, config, key
    ):
        # each of these used to be truncated by int() and the run went on
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE), **config})
        rc = cli.main([task, "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and repr(key) in captured.err

    # (task, config key, wrong-typed value); "full." keys go to the
    # full-spec form of the golden code, which the build command echoes
    WRONG_TYPED = [
        ("decay", "mode", 5),
        ("decay", "pattern", ["first-user"]),
        ("decay", "tolerance", "0.5"),
        ("build", "code", 5),
        ("build", "code.K", 5),
        ("build", "code.p", "1+1i"),
        ("build", "code.m", [5]),
        ("witness2", "abcd", 5),
        ("build", "full.k", 1.5),
        ("build", "full.k", True),
        ("build", "full.tower.U", 2.0),
        ("build", "full.tower.n_t", True),
        ("inert-search", "full.tower.n_t", 1.5),
        ("build", "full.tower.theta_numeric_hint.m", 5.7),
        ("build", "full.tower.theta_numeric_hint.coset", [1.9, 4]),
        # not wrong-typed but too large: the prime sieve used to end in a
        # MemoryError traceback and exit 1
        ("inert-search", "norm_bound", 10**12),
        ("catalog", "norm_bound", 10**12),
    ]

    @pytest.mark.parametrize(
        "task, key, value",
        WRONG_TYPED,
        ids=[f"{t}-{k}={v!r}" for t, k, v in WRONG_TYPED],
    )
    def test_wrong_typed_config_value_is_exit_2(
        self, tmp_path, capsys, task, key, value
    ):
        # mode = 5 used to end in an AttributeError traceback, tolerance
        # "0.5" was read as 0.5, and int()
        # truncated the full form's integers: k = 1.5 or true built the
        # k = 1 code, m = 5.7 read as 5
        *path, last = key.split(".")
        code = dict(GOLDEN_CODE)
        if path[:1] == ["full"]:
            code = cli.resolve_spec(code).to_json_dict()
            path[0] = "code"
        config = {"code": code, "N_max": 1}
        target = config
        for step in path:
            target = target[step]
        target[last] = value
        rc = cli.main([task, "--config", write_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_full_form_builds_its_code(self, tmp_path, capsys):
        full = cli.resolve_spec(dict(GOLDEN_CODE)).to_json_dict()
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"code": full})
        rc = cli.main(["build", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        info = json.loads((out / "build.json").read_text())
        assert (info["U"], info["n_t"], info["k"]) == (2, 1, 1)

    def test_unknown_mode_string(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE), "mode": "psychic"})
        rc = cli.main(["decay", "--config", cfg, "--nmax", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown mode" in captured.err


# a valid value of every command-specific flag, and the flags each command
# reads besides --config and --out
FLAG_VALUES = {
    "--workers": "2", "--seed": "3", "--budget": "100", "--mode": "sampled",
    "--pattern": "all-users", "--nmax": "2", "--tolerance": "0.5",
}
READS = {
    "catalog": ["--nmax"],
    "inert-search": ["--nmax"],
    "build": [],
    "rank-check": ["--seed", "--budget", "--nmax"],
    "decay": [
        "--workers", "--seed", "--budget", "--mode", "--pattern", "--nmax",
        "--tolerance",
    ],
    "witness2": [],
}


@pytest.mark.parametrize("task", list(READS))
def test_command_takes_only_the_flags_it_reads(task, capsys):
    # every command used to take all nine flags, so `build --budget 0` ran
    # and exited 0 while `decay --budget 0` exited 2
    with pytest.raises(SystemExit) as exc:
        cli.main([task, "-h"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    assert listed == {"--help", "--config", "--out", *READS[task]}
    parser = cli._build_parser()
    for flag, value in FLAG_VALUES.items():
        argv = [task, "--config", "config.json", "--out", "out", flag, value]
        if flag in READS[task]:
            assert str(getattr(parser.parse_args(argv), flag[2:])) == value
            continue
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        # the command's own usage, not the top-level list of commands
        assert captured.err.startswith(f"usage: macdecay {task} [-h] [--config CONFIG]")
        assert captured.err.endswith(
            f"\nmacdecay {task}: error: unrecognized arguments: {flag} {value}\n"
        )
