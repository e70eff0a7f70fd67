"""The command line the benchmark's sampled-cli workload builds parses.

bench/workloads.py drives `macdecay decay` through cli.main with flags of
its own, so a flag the decay command stops taking breaks only the
benchmark run.  This check catches that in the unit suite; it loads the
workloads module read-only and runs no scan."""

from macdecay import cli

from util import bench_workloads


def test_sampled_cli_argv_parses(tmp_path, monkeypatch):
    workloads = bench_workloads()
    argvs = []

    def recorded(argv):
        argvs.append(argv)
        return 0

    monkeypatch.setattr(cli, "main", recorded)
    wl = workloads.SampledCli(workloads.DEFAULT_SEED, False, tmp_path)
    wl.setup()
    wl.prepare(workloads.load_reference())
    _, outs = wl.run_pass(2)
    assert outs == [("cli", 0)]
    (argv,) = argvs
    args = cli._build_parser().parse_args(argv)
    assert (args.task, args.mode, args.workers) == ("decay", "sampled", 2)
