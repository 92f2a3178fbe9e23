"""Command line front end.

Subcommands: gen-env, simulate, decompose, bounds, corrector, helmholtz,
check-all.  Relative output paths are resolved under $RWRE_OUT when set,
and $RWRE_THREADS supplies the default worker count.  Exit codes: 0 on
success, 1 when a computation or check fails, 2 for usage and config
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import corrector as cor
from . import helmholtz as hh
from . import mart, report
from .env import GENERATORS, check_dist, curl, load_env, random_environment, save_env
from .errors import BistochError, ConfigError, InvalidEnvironment
from .walker import (check_grid, ensemble_summary_csv, replica_key, run_ensemble,
                     simulate)


def _default_threads() -> int:
    raw = os.environ.get("RWRE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError("RWRE_THREADS", f"not an integer: {raw!r}")


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


def _parse_dist(text: str) -> tuple:
    parts = text.split(",")
    name = parts[0]
    try:
        args = [float(p) for p in parts[1:]]
    except ValueError:
        raise ConfigError("dist", f"non-numeric parameter in {text!r}")
    try:
        check_dist((name, *args))
    except ValueError as e:
        raise ConfigError("dist", str(e))
    return (name, *args)


def _parse_grid(text: str, T: float) -> np.ndarray:
    try:
        return check_grid([float(p) for p in text.split(",")], T)
    except ValueError as e:
        raise ConfigError("grid", str(e))


def _fmt_matrix(m: np.ndarray) -> str:
    rows = ["[" + ", ".join(f"{v: .6f}" for v in row) + "]" for row in m]
    return "[" + ", ".join(rows) + "]"


def _add_common_env(p: argparse.ArgumentParser) -> None:
    p.add_argument("--env", required=True, help="environment JSON file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bistoch",
        description="doubly stochastic random environments and their walks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-env", help="draw a random environment and save it")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--generator", default="conductance-stream",
                   choices=GENERATORS)
    p.add_argument("--s-dist", default="uniform,0.5,2.0",
                   help="conductance law, e.g. uniform,0.5,2.0 or two_point,1,4,0.5")
    p.add_argument("--h-dist", default="gaussian,0.3",
                   help="stream law, e.g. gaussian,0.3")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("simulate", help="run replicas and write a summary CSV")
    _add_common_env(p)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--x0", type=int, default=None,
                   help="start site (default: uniform per replica)")
    p.add_argument("--threads", type=int, default=None)
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
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("bounds",
                       help="diffusivity bounds and corrector diffusivity")
    _add_common_env(p)
    p.add_argument("-o", "--output", default=None, help="JSON output path")

    p = sub.add_parser("corrector", help="solve harmonic coordinates")
    _add_common_env(p)
    p.add_argument("--method", default="krylov", choices=["krylov", "spectral"])
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
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("-o", "--output", default="report.json")
    p.add_argument("--timings", default=None,
                   help="timings sidecar path (default: <report>.timings.json)")

    return ap


def _cmd_gen_env(args) -> int:
    env = random_environment(args.d, args.L, args.seed,
                             generator=args.generator,
                             s_dist=_parse_dist(args.s_dist),
                             h_dist=_parse_dist(args.h_dist))
    rep = env.validate()
    if not rep.passed:
        print(f"generated environment failed validation:\n{rep}",
              file=sys.stderr)
        return 1
    out = _outpath(args.output)
    save_env(env, out)
    print(f"wrote {out} (d={args.d}, L={args.L}, {env.torus.n} sites, "
          f"max residual {rep.max_residual:.3e})")
    return 0


def _cmd_simulate(args) -> int:
    env = load_env(args.env)
    report.require_site(args.x0, env.torus.n, "--x0")
    threads = args.threads if args.threads is not None else _default_threads()
    if args.traj is not None:
        if args.x0 is None:
            print("--traj needs an explicit --x0", file=sys.stderr)
            return 2
        if args.replicas != 1:
            print("--traj writes a single trajectory; use --replicas 1",
                  file=sys.stderr)
            return 2
        traj = simulate(env, args.x0, args.T, replica_key(args.seed, 0))
        out = _outpath(args.traj)
        traj.to_jsonl(out)
        print(f"wrote {out} ({traj.n_jumps} jumps, final displacement "
              f"{traj.final_displacement.tolist()})")
        return 0
    res = run_ensemble(env, args.T, args.replicas, args.seed, x0=args.x0,
                       threads=threads)
    mean2 = float((res.displacement[:, -1, :] ** 2).sum(axis=1).mean())
    print(f"{args.replicas} replicas to T={args.T}: mean |X|^2/T = "
          f"{mean2 / args.T:.6f}, mean jumps = {res.n_jumps.mean():.1f}")
    if args.output:
        out = _outpath(args.output)
        ensemble_summary_csv(res, out)
        print(f"wrote {out}")
    return 0


def _cmd_decompose(args) -> int:
    env = load_env(args.env)
    report.require_site(args.x0, env.torus.n, "--x0")
    threads = args.threads if args.threads is not None else _default_threads()
    grid = _parse_grid(args.grid, args.T) if args.grid else None
    ens = mart.run_decomposition_ensemble(env, args.T, args.replicas,
                                          args.seed, grid=grid, x0=args.x0,
                                          threads=threads)
    res = ens.identity_residuals()
    out = _outpath(args.output)
    mart.decomposition_csv(ens, out)
    print(f"wrote {out}; reconstruction residuals: "
          f"three-way {res['three_way']:.3e}, four-way {res['four_way']:.3e}")
    return 0 if max(res.values()) <= mart.IDENTITY_TOL else 1


def _cmd_bounds(args) -> int:
    env = load_env(args.env)
    bd = mart.bounds(env)
    dv = cor.effective_diffusivity(env)
    chk = bd.check(dv.sigma2, atol=1e-9)
    print(f"lower trace {bd.lower_trace:.6f} <= trace sigma2 "
          f"{chk['trace']:.6f} <= upper {bd.upper_trace:.6f}")
    print(f"sigma2 = {_fmt_matrix(dv.sigma2)}")
    ok = chk["lower_ok"] and chk["upper_ok"]
    if args.output:
        out = _outpath(args.output)
        payload = report._pyify({
            "lower": bd.lower, "upper_trace": bd.upper_trace,
            "sigma2": dv.sigma2, **chk})
        with open(out, "w") as f:
            f.write(report.canonical_json(payload) + "\n")
        print(f"wrote {out}")
    return 0 if ok else 1


def _cmd_corrector(args) -> int:
    env = load_env(args.env)
    if not 1 <= args.axis <= env.torus.d:
        print(f"--axis must be in 1..{env.torus.d}", file=sys.stderr)
        return 2
    dv = cor.effective_diffusivity(env, method=args.method)
    print(f"sigma2 = {_fmt_matrix(dv.sigma2)} "
          f"(max harmonic residual {dv.residuals.max():.3e})")
    if args.output:
        out = _outpath(args.output)
        cor.corrector_csv(dv.correctors[:, args.axis - 1], out)
        print(f"wrote {out}")
    if args.coo:
        ops = cor.assemble(env)
        for name, m in (("S", ops.S), ("A", ops.A), ("L", ops.L)):
            path = _outpath(f"{args.coo}_{name}.txt")
            cor.export_coo(m, path)
            print(f"wrote {path}")
    return 0


def _cmd_helmholtz(args) -> int:
    env = load_env(args.env)
    recon = hh.stream_from_flow(env.b)
    gap = float(np.max(np.abs(curl(recon).full - env.b.full)))
    from .env import Environment

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
    threads = args.threads if args.threads is not None else _default_threads()
    rep, timings = report.run_config(cfg, threads=threads)
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
    report.write_timings(timings, timings_path)
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
        return _COMMANDS[args.command](args)
    except (ConfigError, InvalidEnvironment) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BistochError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
