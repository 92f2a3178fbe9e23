"""Command line front end.

Subcommands: gen-env, simulate, decompose, bounds, corrector, helmholtz,
check-all.  Relative output paths are resolved under $RWRE_OUT when set.
The front end writes its own output files, every line ending in \n; the
environment, report, bounds and timings files are canonical JSON.
Ensembles split their replicas over worker processes by themselves
(`walker.worker_count`); `--threads N` is accepted by check-all alone, for
older scripts, and ignored.  Exit codes: 0 on success, 1 when a
computation or check fails, 2 for usage and config errors, unreadable
input files among them.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import corrector as cor
from . import helmholtz as hh
from . import mart, report
from .env import (DEFAULT_LAWS, GENERATORS, Environment, canonical_json, check_dist,
                  check_generator, curl, curl_gap, load_env, save_env)
from .errors import BistochError, ConfigError, InvalidEnvironment
from .torus import check_integer, check_positive, site_count
from .walker import check_grid, replica_key, run_ensemble, simulate

# the path components of a decomposition, in the column order of its CSV
_COMPONENTS = ("X", "M", "I", "J", "Z", "Y")


def _outpath(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("RWRE_OUT")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
    return path


# admissible range [least, limit) of each integer argument that has one
_RANGES = {**report.ENV_RANGES, "replicas": report.REPLICA_RANGE}


def _check_numbers(args) -> None:
    """Reject out-of-range numeric arguments before any work is done."""
    for name, (least, limit) in _RANGES.items():
        value = getattr(args, name, None)
        if value is not None:
            report.checked(f"--{name}", check_integer, value, name, least, limit)
    if getattr(args, "T", None) is not None:
        report.checked("--T", check_positive, args.T, "horizon T")


def _parse_dist(text: str) -> tuple:
    """The law `name,p1,...` as (name, *floats); ValueError unless check_dist accepts it."""
    name, *params = text.split(",")
    law = (name, *map(float, params))
    check_dist(law)
    return law


def _parse_grid(text: str, T: float) -> np.ndarray:
    """Comma-separated sample times as check_grid returns them; ValueError if bad."""
    return check_grid([float(p) for p in text.split(",")], T)


def _fmt_matrix(m: np.ndarray) -> str:
    rows = ["[" + ", ".join(f"{v: .6f}" for v in row) + "]" for row in m]
    return "[" + ", ".join(rows) + "]"


def _write_csv(path: str, header: list, rows) -> None:
    """Write the header and then each row as one line of comma-joined str() fields.

    Every line ends in \\n on every platform.  No field is quoted, so only a
    field that is a whole line, such as a JSON record, may hold a comma.
    """
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _decomposition_rows(ens: mart.MartingaleEnsemble):
    """One row per replica and grid time: replica, t, then each component's axes.

    The rows are formed one replica at a time, so only one replica's values
    are ever Python floats.
    """
    times = [repr(t) for t in ens.times.tolist()]
    for r in range(ens.n_replicas):
        table = np.concatenate([getattr(ens, c)[r] for c in _COMPONENTS], axis=1)
        for t, values in zip(times, table.tolist()):
            yield [r, t, *map(repr, values)]


def _add_common_env(p: argparse.ArgumentParser) -> None:
    p.add_argument("--env", required=True, help="environment JSON file")


# help of check-all's accepted, ignored thread-count flag
_THREADS_HELP = "accepted and ignored: ensembles choose their own worker count"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bistoch",
        description="doubly stochastic random environments and their walks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-env", help="draw a random environment and save it")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--generator", default=GENERATORS[0],
                   choices=GENERATORS)
    p.add_argument("--s-dist", default=",".join(map(str, DEFAULT_LAWS["s_dist"])),
                   help="conductance law, e.g. uniform,0.5,2.0 or two_point,1,4,0.5")
    p.add_argument("--h-dist", default=",".join(map(str, DEFAULT_LAWS["h_dist"])),
                   help="stream law, e.g. gaussian,0.3")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("simulate", help="run replicas and write a summary CSV")
    _add_common_env(p)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--x0", type=int, default=None,
                   help="start site (default: uniform per replica)")
    p.add_argument("--traj", default=None,
                   help="write replica 0 as a jump-record JSONL (needs --x0)")
    p.add_argument("-o", "--output", default=None, help="summary CSV path")

    p = sub.add_parser("decompose",
                       help="simulate and write per-replica path components")
    _add_common_env(p)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--replicas", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grid", default=None, help="comma-separated sample times")
    p.add_argument("--x0", type=int, default=None)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("bounds",
                       help="diffusivity bounds and corrector diffusivity")
    _add_common_env(p)
    p.add_argument("-o", "--output", default=None, help="JSON output path")

    p = sub.add_parser("corrector", help="solve harmonic coordinates")
    _add_common_env(p)
    p.add_argument("--axis", type=int, default=1, help="1-based axis to export")
    p.add_argument("--coo", default=None,
                   help="prefix for S/A/L operator dumps in row,col,value text")
    p.add_argument("-o", "--output", default=None, help="site,value CSV path")

    p = sub.add_parser("helmholtz",
                       help="reconstruct a stream tensor from the flow")
    _add_common_env(p)
    p.add_argument("-o", "--output", required=True,
                   help="environment JSON rewritten in stream form")

    p = sub.add_parser("check-all", help="run a configured check battery")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, metavar="N", help=_THREADS_HELP)
    p.add_argument("-o", "--output", default="report.json")
    p.add_argument("--timings", default=None,
                   help="timings sidecar path (default: <report>.timings.json)")

    return ap


def _cmd_gen_env(args) -> int:
    report.checked("--d/--L", site_count, args.d, args.L)
    report.checked("--generator", check_generator, args.generator, args.d)
    env, rep = report.draw_environment(
        args.d, args.L, args.seed, "--s-dist/--h-dist", generator=args.generator,
        s_dist=report.checked("--s-dist", _parse_dist, args.s_dist),
        h_dist=report.checked("--h-dist", _parse_dist, args.h_dist))
    out = _outpath(args.output)
    save_env(env, out)
    print(f"wrote {out} (d={args.d}, L={args.L}, {env.torus.n} sites, "
          f"max residual {rep.max_residual:.3e})")
    return 0


def _cmd_simulate(args) -> int:
    env = load_env(args.env)
    report.require_site(args.x0, env.torus.n, "--x0")
    if args.traj is not None:
        if args.x0 is None:
            raise ConfigError("--traj", "needs an explicit --x0")
        if args.replicas != 1:
            raise ConfigError("--traj", "writes a single trajectory; use --replicas 1")
        traj = simulate(env, args.x0, args.T, replica_key(args.seed, 0))
        out = _outpath(args.traj)
        # a header record, then one {"t": time, "k": direction index} per jump
        head = {"format": "bistoch-traj", "version": 1, "d": traj.d, "L": traj.L,
                "x0": traj.x0, "T": traj.T, "seed": traj.seed}
        _write_csv(out, [canonical_json(head)],
                   ([canonical_json({"t": t, "k": k})]
                    for t, k in zip(traj.times.tolist(), traj.dirs.tolist())))
        print(f"wrote {out} ({traj.n_jumps} jumps, final displacement "
              f"{traj.final_displacement.tolist()})")
        return 0
    res = run_ensemble(env, args.T, args.replicas, args.seed, x0=args.x0)
    mean2 = float((res.displacement[:, -1, :] ** 2).sum(axis=1).mean())
    print(f"{args.replicas} replicas to T={args.T}: mean |X|^2/T = "
          f"{mean2 / args.T:.6f}, mean jumps = {res.n_jumps.mean():.1f}")
    if args.output:
        out = _outpath(args.output)
        axes = [f"X_{i + 1}" for i in range(env.torus.d)]
        final = zip(res.displacement[:, -1].tolist(), res.n_jumps.tolist())
        _write_csv(out, ["seed", "T", *axes, "n_jumps"],
                   ([replica_key(args.seed, r), repr(args.T), *map(repr, x), jumps]
                    for r, (x, jumps) in enumerate(final)))
        print(f"wrote {out}")
    return 0


def _cmd_decompose(args) -> int:
    env = load_env(args.env)
    report.require_site(args.x0, env.torus.n, "--x0")
    grid = (None if args.grid is None
            else report.checked("--grid", _parse_grid, args.grid, args.T))
    ens = mart.run_decomposition_ensemble(env, args.T, args.replicas,
                                          args.seed, grid=grid, x0=args.x0)
    res = report.decompose_verdict(ens)
    out = _outpath(args.output)
    _write_csv(out, ["replica", "t", *(f"{c}_{i + 1}" for c in _COMPONENTS
                                       for i in range(env.torus.d))],
               _decomposition_rows(ens))
    print(f"wrote {out}; reconstruction residuals: "
          f"three-way {res['three_way']:.3e}, four-way {res['four_way']:.3e}")
    return 0 if res["passed"] else 1


def _cmd_bounds(args) -> int:
    res = report.bounds_verdict(cor.assemble(load_env(args.env)))
    print(f"lower trace {np.trace(res['lower']):.6f} <= trace sigma2 "
          f"{res['trace']:.6f} <= upper {res['upper_trace']:.6f}")
    print(f"sigma2 = {_fmt_matrix(res['sigma2'])}")
    if args.output:
        out = _outpath(args.output)
        report.write_report(res, out)
        print(f"wrote {out}")
    return 0 if res["passed"] else 1


def _cmd_corrector(args) -> int:
    env = load_env(args.env)
    report.checked("--axis", check_integer, args.axis, "axis", 1, env.torus.d + 1)
    ops = cor.assemble(env)
    dv = ops.diffusivity
    print(f"sigma2 = {_fmt_matrix(dv.sigma2)} "
          f"(max harmonic residual {max(sol.residual for sol in dv.solutions):.3e})")
    if args.output:
        out = _outpath(args.output)
        _write_csv(out, ["site", "value"],
                   enumerate(map(repr, dv.solutions[args.axis - 1].potential.tolist())))
        print(f"wrote {out}")
    if args.coo:
        for name, m in (("S", ops.S), ("A", ops.A), ("L", ops.L)):
            path = _outpath(f"{args.coo}_{name}.txt")
            coo = m.tocoo()
            order = np.lexsort((coo.col, coo.row))  # row-major
            _write_csv(path, ["row", "col", "value"],
                       zip(coo.row[order].tolist(), coo.col[order].tolist(),
                           map(repr, coo.data[order].tolist())))
            print(f"wrote {path}")
    return 0


def _cmd_helmholtz(args) -> int:
    env = load_env(args.env)
    recon = hh.stream_from_flow(env.b)
    gap = curl_gap(recon, env.b)
    params = dict(env.meta.get("params") or {})
    params["stream"] = "reconstructed"
    rebuilt = Environment(env.torus, env.s, b=curl(recon), h=recon,
                          weak_ellipticity=env.weak_ellipticity,
                          meta={**env.meta, "params": params})
    out = _outpath(args.output)
    save_env(rebuilt, out)
    print(f"wrote {out} (curl reconstruction gap {gap:.3e})")
    return 0


def _cmd_check_all(args) -> int:
    cfg = report.load_config(args.config)
    rep, timings = report.run_config(cfg)
    for name in cfg.checks:
        result = rep["checks"][name]
        status = "PASS" if result["passed"] else "FAIL"
        extra = ""
        if "attempts" in result:
            extra = f" (attempts: {len(result['attempts'])})"
        if "error" in result:
            extra = f" ({result['error']})"
        print(f"{status} {name}{extra}")
    out = _outpath(args.output)
    report.write_report(rep, out)
    timings_path = _outpath(args.timings) if args.timings else (
        out[:-5] + ".timings.json" if out.endswith(".json")
        else out + ".timings.json")
    report.write_report({k: round(v, 6) for k, v in timings.items()}, timings_path)
    print(f"wrote {out} and {timings_path}")
    print(f"config {cfg.config_hash[:12]}: "
          f"{'all checks passed' if rep['passed'] else 'FAILURES PRESENT'}")
    return 0 if rep["passed"] else 1


_COMMANDS = {
    "gen-env": _cmd_gen_env,
    "simulate": _cmd_simulate,
    "decompose": _cmd_decompose,
    "bounds": _cmd_bounds,
    "corrector": _cmd_corrector,
    "helmholtz": _cmd_helmholtz,
    "check-all": _cmd_check_all,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_numbers(args)
        return _COMMANDS[args.command](args)
    except (ConfigError, InvalidEnvironment, OSError) as e:  # OSError: an unreadable file
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BistochError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy's own subclass too, which refuses a huge array
        print(f"error: MemoryError: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
