import functools
import json
import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from macdecay import cli, decay

from util import draw_samples_reference


GOLDEN_CODE = {"K": "Q(i)", "U": 2, "n_t": 1, "p": [1, 1]}


def die(task):
    """A worker chunk that kills its process, as an out-of-memory kill would."""
    os._exit(9)


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
        swept = []

        def capture(spec, boxes):
            swept.extend(boxes)
            return decay.RankReport(len(swept), [], [])

        monkeypatch.setattr(cli, "rank_criterion_check", capture)
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE), "samples": 300})
        rc = cli.main(
            ["rank-check", "--config", cfg, "--seed", str(seed),
             "--nmax", str(nmax)]
        )
        capsys.readouterr()
        assert rc == 0
        want = draw_samples_reference(random.Random(seed), (nmax,) * 2, (4, 4), 300)
        assert [box.vectors for box in swept] == [
            tuple(map(tuple, vecs)) for vecs in zip(*want)
        ]
        assert {box.bounds for box in swept} == {(nmax, nmax)}

    @pytest.mark.parametrize("nmax", ["0", "-1"])
    def test_nonpositive_nmax_is_exit_2(self, nmax, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE), "samples": 5})
        rc = cli.main(["rank-check", "--config", cfg, "--nmax", nmax])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "invalid configuration: nmax must be positive\n"

    def test_nmax_beyond_int64_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE), "samples": 5})
        rc = cli.main(["rank-check", "--config", cfg, "--nmax", str(2**63)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (
            "invalid configuration: sampled coefficient bounds must be below 2**63\n"
        )


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

    def test_budget_exhausted_is_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE)})
        rc = cli.main(
            ["decay", "--config", cfg, "--nmax", "1", "--budget", "10"]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert "budget exceeded" in captured.err

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

    def test_dead_worker_is_exit_3(self, tmp_path, capsys, monkeypatch):
        # fork, so the worker finds the patched chunk function and this module
        fork_pool = functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        )
        monkeypatch.setattr(decay, "ProcessPoolExecutor", fork_pool)
        monkeypatch.setattr(decay, "_worker_chunk", die)
        cfg = write_config(
            tmp_path, {"code": dict(GOLDEN_CODE), "samples": 70000}
        )
        rc = cli.main(
            ["decay", "--config", cfg, "--mode", "sampled", "--nmax", "1",
             "--workers", "2"]
        )
        captured = capsys.readouterr()
        assert rc == 3
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("worker process died: ")

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

    def test_env_workers_must_be_integer(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE)})
        monkeypatch.setenv("MACDECAY_WORKERS", "plenty")
        rc = cli.main(["decay", "--config", cfg, "--nmax", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "MACDECAY_WORKERS" in captured.err

    def test_config_workers_used_when_no_flag_or_env(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"code": dict(GOLDEN_CODE), "workers": 2, "N_max": 1}
        )
        rc = cli.main(["decay", "--config", cfg])
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

    def test_unknown_mode_string(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"code": dict(GOLDEN_CODE), "mode": "psychic"})
        rc = cli.main(["decay", "--config", cfg, "--nmax", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown mode" in captured.err
