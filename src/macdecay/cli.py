"""Command-line surface: reproducible experiments over the code family.

Every command is a pure function of (config, seed): identical inputs give
byte-identical stdout and files.  Wall-clock timing goes to stderr only.
Exit codes: 0 success / criteria met, 1 criteria violated, 2 usage or
config error, 3 enumeration budget exceeded, 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .catalog import (
    build_tower, catalog_rows, find_inert_primes, standard_generators,
)
from .construction import CodeSpec, gamma_basis, gamma_elements, lattice_basis
from .decay import (
    ALL_USERS, DEFAULT_BUDGET, EXHAUSTIVE, FIRST_USER, SAMPLED, BudgetExceeded,
    curve_csv_text, curve_json_obj, decay_curve, fit_decay_exponent,
    sampled_rank_check, two_user_singularity_test, zero_det_witness_2user,
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


def _tolerance(value) -> float:
    """value as a finite float >= 0; a bool or string is refused, not parsed."""
    if type(value) not in (int, float) or not 0 <= value < math.inf:
        raise ConfigError(f"tolerance must be a finite number >= 0, got {value!r}")
    return float(value)


def _tag_from_string(s: str) -> RingTag:
    try:
        return RingTag(s)
    except ValueError:
        raise ConfigError(
            f"unknown base field {s!r}; use 'Q(i)' or 'Q(sqrt-3)'"
        ) from None


def _full_tower(code: dict) -> dict:
    """The full form's tower dict, its integer keys refused unless integers."""
    tower = code["tower"]
    hint = tower["theta_numeric_hint"]
    for key, value in (("U", tower["U"]), ("n_t", tower["n_t"]), ("m", hint["m"])):
        _config_int(value, key)
    for c in hint["coset"]:
        _config_int(c, "coset")
    return tower


def resolve_tower(code: dict) -> Tower:
    if "tower" in code:
        return Tower.from_json_dict(_full_tower(code))
    try:
        tag = _tag_from_string(code["K"])
        U = _config_int(code["U"], "U")
        n_t = _config_int(code["n_t"], "n_t")
    except KeyError as exc:
        raise ConfigError(f"code shorthand is missing {exc}") from None
    m = code.get("m")
    if m is None:
        return build_tower(tag, U, n_t)
    m = _config_int(m, "m")
    generators = code.get("H_generators")
    if generators is None:
        generators = standard_generators(m, U * n_t)
    generators = tuple(_config_int(g, "H_generators") for g in generators)
    return build_tower(tag, U, n_t, m, generators)


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
        _full_tower(code)
        _config_int(code["k"], "k")
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
        return _config_int(cfg[cfg_key], cfg_key)
    return default


# ---------------------------------------------------------------------------
# output helpers


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


def _report(args, resolved: dict, text: str, files: dict[str, str]) -> None:
    """Every command's tail: print the resolved config and then text, and
    under --out write resolved_config.json and each of files (name -> text)."""
    print(_json_text(resolved), end="")
    print(text, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        files = {"resolved_config.json": _json_text(resolved), **files}
        for name, body in files.items():
            with open(os.path.join(args.out, name), "w", newline="") as fh:
                fh.write(body)


# ---------------------------------------------------------------------------
# commands


def cmd_catalog(args, cfg: dict) -> int:
    max_degree = _pick(args.nmax, "", cfg, "max_degree", 7)
    norm_bound = _pick(None, "", cfg, "norm_bound", 10)
    rows = catalog_rows(max_degree, norm_bound)
    resolved = _resolved_config_obj(
        "catalog", cfg, max_degree=max_degree, norm_bound=norm_bound
    )
    text = "".join(
        f"degree={row['degree']} m={row['m']} H=<{','.join(map(str, row['H_generators']))}>"
        f" f={' '.join(map(str, row['f']))} Q(i)={','.join(row['primes_Q(i)']) or '-'}"
        f" Q(sqrt-3)={','.join(row['primes_Q(sqrt-3)']) or '-'}\n"
        for row in rows
    )
    _report(args, resolved, text, {"catalog.json": _json_text(rows)})
    return 0


def cmd_inert_search(args, cfg: dict) -> int:
    tower = resolve_tower(cfg.get("code", {}))
    norm_bound = _pick(args.nmax, "", cfg, "norm_bound", DEFAULT_NORM_BOUND)
    primes = find_inert_primes(tower, norm_bound)
    resolved = _resolved_config_obj(
        "inert-search", cfg, tower=tower, norm_bound=norm_bound
    )
    listing = [{"p": str(p), "norm": int(p.norm())} for p in primes]
    text = "".join(f"p={item['p']} norm={item['norm']}\n" for item in listing)
    _report(args, resolved, text, {"inert_primes.json": _json_text(listing)})
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
    _report(args, resolved, _json_text(info), {"build.json": _json_text(info)})
    return 0


def cmd_rank_check(args, cfg: dict) -> int:
    spec = resolve_spec(cfg.get("code", {}))
    seed = _pick(args.seed, "", cfg, "seed", 0)
    samples = _pick(None, "", cfg, "samples", DEFAULT_SAMPLES)
    bound = _pick(args.nmax, "", cfg, "nmax", 2)
    budget = _pick(args.budget, "MACDECAY_BUDGET", cfg, "budget", DEFAULT_BUDGET)
    if budget < 1:
        raise ValueError("budget must be positive")
    if samples > budget:
        raise BudgetExceeded(f"sample count {samples} exceeds budget {budget}")
    report = sampled_rank_check(spec, bound, samples, seed)
    resolved = _resolved_config_obj(
        "rank-check", cfg, spec=spec, seed=seed, samples=samples, nmax=bound
    )
    result = {
        "total": report.total,
        "zero_failures": [list(b.lex_key()) for b in report.zero_failures],
        "tau_failures": [list(b.lex_key()) for b in report.tau_failures],
        "passed": report.passed,
    }
    _report(args, resolved, _json_text(result), {"rank_check.json": _json_text(result)})
    return 0 if report.passed else 1


def cmd_decay(args, cfg: dict) -> int:
    spec = resolve_spec(cfg.get("code", {}))
    # str(): a non-string mode is an unknown mode, not an AttributeError
    mode = str(args.mode or cfg.get("mode", "exhaustive")).upper()
    if mode not in (EXHAUSTIVE, SAMPLED):
        raise ConfigError(f"unknown mode {mode!r}")
    pattern_raw = args.pattern or cfg.get("pattern", "first-user")
    pattern = {"first-user": FIRST_USER, "all-users": ALL_USERS}.get(pattern_raw)
    if pattern is None:
        raise ConfigError(f"unknown pattern {pattern_raw!r}")
    n_max = _pick(args.nmax, "", cfg, "N_max", 4)
    seed = _pick(args.seed, "", cfg, "seed", 0)
    samples = _pick(None, "", cfg, "samples", 10000 if mode == SAMPLED else None)
    budget = _pick(args.budget, "MACDECAY_BUDGET", cfg, "budget", DEFAULT_BUDGET)
    if budget < 1:
        raise ValueError("budget must be positive")
    tolerance = _tolerance(
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
    if fit is not None:
        fit_line = (
            f"fit: slope={fit['slope']!r} intercept={fit['intercept']!r}"
            f" residual={fit['residual']!r} target={target} tolerance={tolerance}"
            f" verdict={'PASS' if verdict else 'FAIL'}"
        )
    else:
        fit_line = "fit: skipped (need 3 or more usable points)"
    _report(
        args, resolved, f"{csv_text}{fit_line}\n",
        {"decay.csv": csv_text, "decay.json": _json_text(json_obj)},
    )
    print(f"decay: wall time {elapsed:.2f}s", file=sys.stderr)
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
    norm_det = a.rel_norm() * d.rel_norm() - b.rel_norm() * c.rel_norm()
    result = {
        "norm_determinant": [[str(q.a), str(q.b)] for q in norm_det.coords],
        "singular": singular,
    }
    lines = [f"norm determinant: {norm_det.coords[0]}"]
    if singular:
        x, y = zero_det_witness_2user(a, b, c, d)
        result["witness"] = {
            "x": [[str(q.a), str(q.b)] for q in x.coords],
            "y": [[str(q.a), str(q.b)] for q in y.coords],
            "verified": True,
        }
        lines += [
            "verdict: zero-determinant matrix exists",
            f"witness x coords: {[str(q) for q in x.coords]}",
            f"witness y coords: {[str(q) for q in y.coords]}",
        ]
    else:
        lines.append("verdict: no zero determinant")
    text = "".join(line + "\n" for line in lines)
    _report(args, resolved, text, {"witness2.json": _json_text(result)})
    return 0


# ---------------------------------------------------------------------------
# argument surface


# what each flag parses to; a command takes only the flags it reads
_FLAG_KINDS = {
    "--workers": {"type": int},
    "--seed": {"type": int},
    "--budget": {"type": int},
    "--mode": {"choices": ["exhaustive", "sampled"]},
    "--pattern": {"choices": ["first-user", "all-users"]},
    "--nmax": {"type": int},
    "--tolerance": {"type": float},
}

# each command and the help of each flag it reads besides --config and --out
_COMMANDS = {
    "catalog": (cmd_catalog, {"--nmax": "largest tower degree"}),
    "inert-search": (cmd_inert_search, {"--nmax": "norm bound of the listed primes"}),
    "build": (cmd_build, {}),
    "rank-check": (cmd_rank_check, {
        "--seed": "seed for all randomness (>= 0)",
        "--budget": "bound on the sample count",
        "--nmax": "coefficient bound of every user",
    }),
    "decay": (cmd_decay, {
        "--workers": "accepted and ignored; every scan runs in-process",
        "--seed": "seed for all randomness (>= 0)",
        "--budget": "codeword-count budget",
        "--mode": "exhaustive search or sampled upper bound",
        "--pattern": "which users' boxes grow with N",
        "--nmax": "N_max, the curve's last N",
        "--tolerance": "slope tolerance",
    }),
    "witness2": (cmd_witness2, {}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macdecay",
        description="multiuser lattice code construction and decay measurement",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task, (_, flags) in _COMMANDS.items():
        command = sub.add_parser(task)
        # main refuses a flag the command does not take with its usage
        command.set_defaults(command_parser=command)
        command.add_argument("--config", help="JSON config file")
        command.add_argument("--out", help="output directory")
        for flag, text in flags.items():
            command.add_argument(flag, help=text, **_FLAG_KINDS[flag])
    return parser


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:
        args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        cfg = _load_config(args.config)
        # refuse up front an --out whose nearest existing path is no directory
        head = args.out
        while head and not os.path.exists(head):
            head = os.path.dirname(head)
        if head and not os.path.isdir(head):
            raise ConfigError(f"--out needs a directory, and {head!r} is not one")
        return _COMMANDS[args.task][0](args, cfg)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    # OSError: the config cannot be read, or --out cannot be written
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
