"""Command-line surface: reproducible experiments over the code family.

Every command is a pure function of (config, seed): identical inputs give
byte-identical stdout and files.  Wall-clock timing goes to stderr only.
Exit codes: 0 success / criteria met, 1 criteria violated, 2 usage or
config error, 3 enumeration budget exceeded or a worker process died,
130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool

from .catalog import (
    build_tower, catalog_rows, find_inert_primes, standard_generators,
)
from .construction import (
    CodeSpec, CoefficientBox, gamma_basis, gamma_elements, lattice_basis,
)
from .decay import (
    ALL_USERS, DEFAULT_BUDGET, EXHAUSTIVE, FIRST_USER, SAMPLED, BudgetExceeded,
    _sample_chunks, curve_csv_text, curve_json_obj, decay_curve,
    fit_decay_exponent, rank_criterion_check, two_user_singularity_test,
    zero_det_witness_2user,
)
from .number_field import Tower
from .quadratic import QuadElem, RingTag

DEFAULT_TOLERANCE = 0.6
DEFAULT_NORM_BOUND = 20
DEFAULT_SAMPLES = 1000


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config resolution


def _config_int(value, key: str) -> int:
    """value if it is a JSON integer; a float or a bool is refused, never
    truncated."""
    if type(value) is not int:
        raise ConfigError(f"config key {key!r} needs integers, got {value!r}")
    return value


def _tag_from_string(s: str) -> RingTag:
    try:
        return RingTag(s)
    except ValueError:
        raise ConfigError(
            f"unknown base field {s!r}; use 'Q(i)' or 'Q(sqrt-3)'"
        ) from None


def resolve_tower(code: dict) -> Tower:
    if "tower" in code:
        return Tower.from_json_dict(code["tower"])
    try:
        tag = _tag_from_string(code["K"])
        U = int(code["U"])
        n_t = int(code["n_t"])
    except KeyError as exc:
        raise ConfigError(f"code shorthand is missing {exc}") from None
    m = code.get("m")
    if m is None:
        return build_tower(tag, U, n_t)
    m = int(m)
    generators = code.get("H_generators")
    if generators is None:
        generators = standard_generators(m, U * n_t)
    return build_tower(tag, U, n_t, m, tuple(int(g) for g in generators))


def _auto_prime(tower: Tower) -> QuadElem:
    bound = 16
    while bound <= 65536:
        primes = find_inert_primes(tower, bound)
        if primes:
            return primes[0]
        bound *= 4
    raise ConfigError("no inert prime of norm up to 65536 found")


def resolve_spec(code: dict) -> CodeSpec:
    if "tower" in code:
        return CodeSpec.from_json_dict(code)
    tower = resolve_tower(code)
    p_cfg = code.get("p", "auto")
    if p_cfg == "auto":
        p = _auto_prime(tower)
    else:
        a, b = p_cfg
        p = QuadElem(_config_int(a, "p"), _config_int(b, "p"), tower.tag)
    k_cfg = code.get("k", "auto")
    k = None if k_cfg == "auto" else _config_int(k_cfg, "k")
    return CodeSpec(tower, p, k)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _pick(args_value, env_name: str, cfg: dict, cfg_key: str, default):
    if args_value is not None:
        return args_value
    env = os.environ.get(env_name) if env_name else None
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{env_name} must be an integer, got {env!r}")
    if cfg_key in cfg:
        return cfg[cfg_key]
    return default


def _default_workers() -> int:
    n = getattr(os, "process_cpu_count", os.cpu_count)()
    return max(1, n or 1)


# ---------------------------------------------------------------------------
# output helpers


def _emit(out_dir: str | None, name: str, text: str) -> None:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _resolved_config_obj(task: str, cfg: dict, spec=None, tower=None, **extra):
    out = {"task": task, "config": cfg}
    if spec is not None:
        out["resolved_code"] = spec.to_json_dict()
    elif tower is not None:
        out["resolved_code"] = {"tower": tower.to_json_dict()}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_catalog(args, cfg: dict) -> int:
    max_degree = int(_pick(args.nmax, "", cfg, "max_degree", 7))
    norm_bound = int(cfg.get("norm_bound", 10))
    rows = catalog_rows(max_degree, norm_bound)
    resolved = _resolved_config_obj(
        "catalog", cfg, max_degree=max_degree, norm_bound=norm_bound
    )
    print(_json_text(resolved), end="")
    for row in rows:
        f = " ".join(str(c) for c in row["f"])
        print(
            f"degree={row['degree']} m={row['m']} H=<{','.join(map(str, row['H_generators']))}>"
            f" f={f} Q(i)={','.join(row['primes_Q(i)']) or '-'}"
            f" Q(sqrt-3)={','.join(row['primes_Q(sqrt-3)']) or '-'}"
        )
    _emit(args.out, "resolved_config.json", _json_text(resolved))
    _emit(args.out, "catalog.json", _json_text(rows))
    return 0


def cmd_inert_search(args, cfg: dict) -> int:
    tower = resolve_tower(cfg.get("code", {}))
    norm_bound = int(_pick(args.nmax, "", cfg, "norm_bound", DEFAULT_NORM_BOUND))
    primes = find_inert_primes(tower, norm_bound)
    resolved = _resolved_config_obj(
        "inert-search", cfg, tower=tower, norm_bound=norm_bound
    )
    print(_json_text(resolved), end="")
    listing = [{"p": str(p), "norm": int(p.norm())} for p in primes]
    for item in listing:
        print(f"p={item['p']} norm={item['norm']}")
    _emit(args.out, "resolved_config.json", _json_text(resolved))
    _emit(args.out, "inert_primes.json", _json_text(listing))
    return 0


def cmd_build(args, cfg: dict) -> int:
    spec = resolve_spec(cfg.get("code", {}))
    for j in range(1, spec.U + 1):
        lattice_basis(spec, j)  # raises if numerically rank deficient
    resolved = _resolved_config_obj("build", cfg, spec=spec)
    info = {
        "U": spec.U,
        "n_t": spec.n_t,
        "degree": spec.d,
        "p": str(spec.p),
        "norm_p": spec.norm_p,
        "k": spec.k,
        "generators_per_user": spec.r_per_user,
        "rank_certified": True,
    }
    print(_json_text(resolved), end="")
    print(_json_text(info), end="")
    _emit(args.out, "resolved_config.json", _json_text(resolved))
    _emit(args.out, "build.json", _json_text(info))
    return 0


def cmd_rank_check(args, cfg: dict) -> int:
    spec = resolve_spec(cfg.get("code", {}))
    seed = int(_pick(args.seed, "", cfg, "seed", 0))
    samples = int(cfg.get("samples", DEFAULT_SAMPLES))
    bound = int(_pick(args.nmax, "", cfg, "nmax", 2))
    if bound < 1:
        raise ValueError("nmax must be positive")
    bounds = (bound,) * spec.U

    def boxes():
        lengths = (spec.r_per_user,) * spec.U
        for vecs in _sample_chunks(seed, bounds, lengths, samples):
            for row in zip(*(v.tolist() for v in vecs)):
                yield CoefficientBox(bounds, tuple(map(tuple, row)))

    report = rank_criterion_check(spec, boxes())
    resolved = _resolved_config_obj(
        "rank-check", cfg, spec=spec, seed=seed, samples=samples, nmax=bound
    )
    result = {
        "total": report.total,
        "zero_failures": [list(b.lex_key()) for b in report.zero_failures],
        "tau_failures": [list(b.lex_key()) for b in report.tau_failures],
        "passed": report.passed,
    }
    print(_json_text(resolved), end="")
    print(_json_text(result), end="")
    _emit(args.out, "resolved_config.json", _json_text(resolved))
    _emit(args.out, "rank_check.json", _json_text(result))
    return 0 if report.passed else 1


def cmd_decay(args, cfg: dict) -> int:
    spec = resolve_spec(cfg.get("code", {}))
    mode = (args.mode or cfg.get("mode", "exhaustive")).upper()
    if mode not in (EXHAUSTIVE, SAMPLED):
        raise ConfigError(f"unknown mode {mode!r}")
    pattern_raw = args.pattern or cfg.get("pattern", "first-user")
    pattern = {"first-user": FIRST_USER, "all-users": ALL_USERS}.get(pattern_raw)
    if pattern is None:
        raise ConfigError(f"unknown pattern {pattern_raw!r}")
    n_max = int(_pick(args.nmax, "", cfg, "N_max", 4))
    seed = int(_pick(args.seed, "", cfg, "seed", 0))
    samples = cfg.get("samples")
    if mode == SAMPLED:
        samples = int(samples if samples is not None else 10000)
    workers = int(
        _pick(args.workers, "MACDECAY_WORKERS", cfg, "workers", _default_workers())
    )
    budget = int(
        _pick(args.budget, "MACDECAY_BUDGET", cfg, "budget", DEFAULT_BUDGET)
    )
    tolerance = float(
        args.tolerance if args.tolerance is not None else cfg.get("tolerance", DEFAULT_TOLERANCE)
    )

    t0 = time.perf_counter()
    curve = decay_curve(
        spec,
        n_max,
        pattern=pattern,
        mode=mode,
        samples=samples,
        seed=seed,
        workers=workers,
        budget=budget,
    )
    elapsed = time.perf_counter() - t0

    target = -(spec.U - 1) * spec.n_t
    fit = None
    verdict = True
    usable = [r for r in curve if r.D_value > 0 and r.error_radius < r.D_value]
    if len(usable) >= 3:
        fit = fit_decay_exponent(usable)
        verdict = abs(fit["slope"] - target) <= tolerance

    resolved = _resolved_config_obj(
        "decay",
        cfg,
        spec=spec,
        N_max=n_max,
        pattern=pattern_raw,
        mode=mode,
        samples=samples,
        seed=seed,
        budget=budget,
        tolerance=tolerance,
    )
    csv_text = curve_csv_text(curve)
    json_obj = curve_json_obj(spec, curve)
    json_obj["fit"] = fit
    json_obj["expected_slope"] = target
    json_obj["slope_within_tolerance"] = verdict

    print(_json_text(resolved), end="")
    print(csv_text, end="")
    if fit is not None:
        print(
            f"fit: slope={fit['slope']!r} intercept={fit['intercept']!r}"
            f" residual={fit['residual']!r} target={target} tolerance={tolerance}"
            f" verdict={'PASS' if verdict else 'FAIL'}"
        )
    else:
        print("fit: skipped (need 3 or more usable points)")
    print(f"decay: wall time {elapsed:.2f}s", file=sys.stderr)

    _emit(args.out, "resolved_config.json", _json_text(resolved))
    _emit(args.out, "decay.csv", csv_text)
    _emit(args.out, "decay.json", _json_text(json_obj))
    return 0 if verdict else 1


def cmd_witness2(args, cfg: dict) -> int:
    tower = resolve_tower(cfg.get("code", {}))
    if tower.d != 2:
        raise ConfigError("witness2 needs a degree-2 tower ([L:K] = 2)")
    abcd = cfg.get("abcd")
    if not abcd or len(abcd) != 4:
        raise ConfigError("config key 'abcd' must hold four coordinate vectors")
    basis = gamma_basis(tower)
    for vec in abcd:
        if len(vec) != len(basis):
            raise ConfigError(
                f"each coordinate vector needs {len(basis)} integers"
            )
    coeffs = [_config_int(c, "abcd") for vec in abcd for c in vec]
    a, b, c, d = gamma_elements(basis, coeffs)
    singular = two_user_singularity_test(a, b, c, d)
    resolved = _resolved_config_obj("witness2", cfg, tower=tower, abcd=abcd)
    from .number_field import L_OVER_K

    norm_det = (
        a.rel_norm(L_OVER_K) * d.rel_norm(L_OVER_K)
        - b.rel_norm(L_OVER_K) * c.rel_norm(L_OVER_K)
    )
    result = {
        "norm_determinant": [[str(q.a), str(q.b)] for q in norm_det.coords],
        "singular": singular,
    }
    print(_json_text(resolved), end="")
    print(f"norm determinant: {norm_det.coords[0]}")
    if singular:
        x, y = zero_det_witness_2user(a, b, c, d)
        result["witness"] = {
            "x": [[str(q.a), str(q.b)] for q in x.coords],
            "y": [[str(q.a), str(q.b)] for q in y.coords],
            "verified": True,
        }
        print("verdict: zero-determinant matrix exists")
        print(f"witness x coords: {[str(q) for q in x.coords]}")
        print(f"witness y coords: {[str(q) for q in y.coords]}")
    else:
        print("verdict: no zero determinant")
    _emit(args.out, "resolved_config.json", _json_text(resolved))
    _emit(args.out, "witness2.json", _json_text(result))
    return 0


# ---------------------------------------------------------------------------
# argument surface


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output directory")
    common.add_argument("--workers", type=int, help="parallel worker count")
    common.add_argument("--seed", type=int, help="64-bit seed for all randomness")
    common.add_argument("--budget", type=int, help="codeword-count budget")
    common.add_argument("--mode", choices=["exhaustive", "sampled"])
    common.add_argument("--pattern", choices=["first-user", "all-users"])
    common.add_argument("--nmax", type=int, help="N_max / degree / bound knob")
    common.add_argument("--tolerance", type=float, help="slope tolerance")

    parser = argparse.ArgumentParser(
        prog="macdecay",
        description="multiuser lattice code construction and decay measurement",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    sub.add_parser("catalog", parents=[common])
    sub.add_parser("inert-search", parents=[common])
    sub.add_parser("build", parents=[common])
    sub.add_parser("rank-check", parents=[common])
    sub.add_parser("decay", parents=[common])
    sub.add_parser("witness2", parents=[common])
    return parser


_COMMANDS = {
    "catalog": cmd_catalog,
    "inert-search": cmd_inert_search,
    "build": cmd_build,
    "rank-check": cmd_rank_check,
    "decay": cmd_decay,
    "witness2": cmd_witness2,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.task](args, cfg)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except BrokenProcessPool as exc:
        print(f"worker process died: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
