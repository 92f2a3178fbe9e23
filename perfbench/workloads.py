"""The benchmark's workloads: set-up, one measured pass, and their checks.

Each workload drives bistoch from outside through its public functions (and,
for ``check_all``, through ``bistoch.cli.main``), one caller at a time, with
``threads=1``.  A pass returns a ``Pass``: the operations it attempted, how
many failed, the correctness problems it found, per-layer numbers taken
from returned values, and the workload's own headline numbers (such as
Mjump/s).  Layer times come from the spans that the caller's tracer records
around each call.

Two kinds of gate decide an operation's outcome.  Exact gates (output
digests, identity residuals, solver residuals, route agreement) also decide
``correct``: when one fails, the program computed something wrong.  Verdict
gates (a check battery's PASS/FAIL, the analytic diffusivity bounds) only
count as failed operations, because the verdict is itself the program's
claim; NOTES.md lists the verdicts known to fail today.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from bistoch import cli, corrector, helmholtz, mart, report, walker
from bistoch import env as envmod

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")


def derived_seeds(seed: int, k: int) -> list:
    """k independent nonnegative seeds derived from the workload seed."""
    return [int(w) for w in np.random.SeedSequence(seed).generate_state(k)]


def ensemble_digest(res) -> str:
    """sha256 over an ensemble's outputs: every array, in a fixed dtype.

    For a plain ``EnsembleResult`` that is ``displacement``, ``n_jumps`` and
    ``final_site``.  A ``MartingaleEnsemble`` adds the decomposition
    components, whose float bits depend on every jump time.
    """
    if isinstance(res, mart.MartingaleEnsemble):
        floats = {name: getattr(res, name) for name in ("X", "M", "I", "J", "Z", "Y")}
    else:
        floats = {"displacement": res.displacement}
    h = hashlib.sha256()
    for name, arr, dtype in ([(k, v, np.float64) for k, v in floats.items()]
                             + [("n_jumps", res.n_jumps, np.int64),
                                ("final_site", res.final_site, np.int64)]):
        arr = np.ascontiguousarray(arr, dtype=dtype)
        h.update(f"{name}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def lockstep_counters(n_jumps, block: int) -> dict:
    """Work counters of the lockstep loop in ``walker.run_ensemble``.

    Derived from the returned jump counts; exact for one chunk (threads=1):

    - every step draws one event for each active replica, and replica r
      stays active for its n_jumps[r] jumps plus the one draw that crosses
      T, so the loop runs ``steps = max(n_jumps) + 1`` times;
    - each step takes two uniforms per replica from a buffer ``block`` wide
      that starts empty and is refilled when used up, so the Philox streams
      are refilled ``ceil(steps / (block / 2))`` times;
    - of the R * steps lanes the loop sweeps, sum(n_jumps) + R are active,
      so ``occupancy = (sum(n_jumps) + R) / (R * steps)``.
    """
    n_jumps = np.asarray(n_jumps, dtype=np.int64)
    R = len(n_jumps)
    jumps = int(n_jumps.sum())
    steps = int(n_jumps.max()) + 1
    return {"walker.jumps": jumps,
            "walker.lockstep_steps": steps,
            "walker.rng_refills": math.ceil(steps / (block // 2)),
            "walker.occupancy": (jumps + R) / (R * steps)}


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@dataclass
class Pass:
    """Outcome of one measured pass (or of a reference check)."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)   # every failed gate
    problems: list = field(default_factory=list)   # the failed exact gates
    layer: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    def gate(self, ok: bool, what: str, exact: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            if exact:
                self.problems.append(what)


# -- ensemble --------------------------------------------------------------------

class Ensemble:
    """Lockstep CTMC ensembles: plain walks, then martingale decompositions.

    d=2 L=8 env seed 7, 10^4 replicas from uniform starts.  Phase A runs
    ``walker.run_ensemble`` to T=1024; phase B runs
    ``mart.run_decomposition_ensemble`` to T=64 on the default dyadic grid.
    The workload seed sets the replicas' master seed.
    """

    ENV = (2, 8, 7)
    REPLICAS = 10_000
    PLAIN_T = 1024.0
    DECOMP_T = 64.0
    BLOCK = 512
    # reference inputs behind golden.json: README master seed, fewer replicas
    REFERENCE_SEED = 11
    REFERENCE_REPLICAS = 512

    def __init__(self, seed: int, workdir: str):
        (self.master,) = derived_seeds(seed, 1)
        self.first_digests: dict = {}  # later passes of the same input must match

    def _same(self, key: str, digest: str) -> bool:
        return self.first_digests.setdefault(key, digest) == digest

    def setup(self) -> None:
        env = envmod.random_environment(*self.ENV)
        walker.run_ensemble(env, 16.0, 1000, self.master, block=self.BLOCK)
        mart.run_decomposition_ensemble(env, 8.0, 1000, self.master)

    def run(self, tracer) -> Pass:
        p = Pass()
        with tracer.span("env.build"):
            env = envmod.random_environment(*self.ENV)
        with tracer.span("mart.field_tables"):
            mart.drift_fields(env)
            mart.jump_weight_tables(env)

        t0 = time.perf_counter()
        with tracer.span("walker.run_ensemble"):
            res = walker.run_ensemble(env, self.PLAIN_T, self.REPLICAS, self.master,
                                      block=self.BLOCK)
        plain_s = time.perf_counter() - t0
        p.layer.update(lockstep_counters(res.n_jumps, self.BLOCK))
        p.summary["plain_mjump_s"] = p.layer["walker.jumps"] / plain_s / 1e6
        digest = ensemble_digest(res)
        p.gate(self._same("plain", digest), "plain ensemble digest changed between passes")

        t0 = time.perf_counter()
        with tracer.span("mart.decomposition"):
            ens = mart.run_decomposition_ensemble(env, self.DECOMP_T, self.REPLICAS,
                                                  self.master)
        decomp_s = time.perf_counter() - t0
        p.summary["decomp_mjump_s"] = int(ens.n_jumps.sum()) / decomp_s / 1e6
        residual = max(ens.identity_residuals().values())
        digest = ensemble_digest(ens)
        p.gate(residual <= 1e-10 and self._same("decomposition", digest),
               f"decomposition: identity residual {residual:.3g} or digest changed")

        with tracer.span("mart.stats"):
            mart.variance_rate(ens)
            mart.zz_matrix(ens)
            mart.orthogonality_report(ens)
            for i in range(ens.X.shape[2]):
                mart.ks_gaussian(ens.X[:, -1, i])
        return p

    @classmethod
    def reference(cls, workdir: str) -> dict:
        env = envmod.random_environment(*cls.ENV)
        res = walker.run_ensemble(env, cls.PLAIN_T, cls.REFERENCE_REPLICAS,
                                  cls.REFERENCE_SEED, block=cls.BLOCK)
        ens = mart.run_decomposition_ensemble(env, cls.DECOMP_T, cls.REFERENCE_REPLICAS,
                                              cls.REFERENCE_SEED)
        return {"plain": ensemble_digest(res), "decomposition": ensemble_digest(ens)}


# -- check_all -------------------------------------------------------------------

README_CONFIG = {
    "seed": 11,
    "env": {"d": 2, "L": 8, "seed": 7},
    "T": 64.0,
    "replicas": 2000,
    "checks": ["validate", "bounds", "decompose", "orthogonality",
               "corrector", "spectral", "helmholtz", "clt"],
}


def run_check_all(config: dict, workdir: str, stem: str) -> tuple:
    """Write the config and run ``bistoch check-all`` on it.

    Returns the exit code, the printed output, and the paths of the report
    and of its timings sidecar.
    """
    cfg_path = os.path.join(workdir, f"{stem}.config.json")
    out = os.path.join(workdir, f"{stem}.report.json")
    timings = os.path.join(workdir, f"{stem}.timings.json")
    with open(cfg_path, "w") as f:
        json.dump(config, f)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["check-all", "--config", cfg_path, "-o", out,
                       "--timings", timings, "--threads", "1"])
    return rc, buf.getvalue(), out, timings


class CheckAll:
    """The README check battery run through ``cli.main(["check-all", ...])``.

    The config is the README example exactly, so every pass has the same
    input and its report must match the digest in golden.json.  The
    workload seed does not alter it: the cost of one check-all depends
    strongly on the config seed (NOTES.md, "check_all input"), enough to
    spread five seed-derived runs by 37% of their median.
    """

    def __init__(self, seed: int, workdir: str):
        self.config = README_CONFIG
        self.workdir = workdir
        self.golden = load_golden()["check_all"]["report"]

    def setup(self) -> None:
        run_check_all({**self.config, "T": 8.0, "replicas": 1000}, self.workdir, "warmup")

    def run(self, tracer) -> Pass:
        p = Pass()
        with tracer.span("cli.main"):
            rc, stdout, out, timings_path = run_check_all(self.config, self.workdir, "bench")
        with open(out, "rb") as f:
            data = f.read()
        with open(timings_path) as f:
            timings = json.load(f)
        rep = json.loads(data)
        checks = rep["checks"]

        names = self.config["checks"]
        printed = [line.split(" (")[0] for line in stdout.splitlines()[:len(names)]]
        verdicts = [f"{'PASS' if checks[n]['passed'] else 'FAIL'} {n}" for n in names]
        p.gate(rc == (0 if rep["passed"] else 1) and printed == verdicts,
               "exit code or printed verdicts disagree with the report")
        for name in names:
            p.gate(checks[name]["passed"], f"check {name} failed", exact=False)

        rewritten = out + ".rewrite"
        with tracer.span("report.write"):
            report.write_report(rep, rewritten)
        with open(rewritten, "rb") as f:
            canonical = f.read() == data
        p.gate(canonical and hashlib.sha256(data).hexdigest() == self.golden,
               "report bytes differ from golden.json or are not canonical")

        holding = [a["holding_samples"] for a in checks["clt"]["attempts"]]
        p.layer.update({
            "report.bytes": len(data),
            # every replica's completed holding times, summed over the clt
            # attempts; the bytes are those of the largest single array
            "walker.holding_samples": sum(holding),
            "walker.holding_bytes": 8 * max(holding),
        })
        for name in names:
            p.layer[f"report.check.{name}_s"] = timings[name]
            # deterministic checks run once and record no attempts
            p.layer[f"report.attempts.{name}"] = len(checks[name].get("attempts", [name]))
        return p

    @classmethod
    def reference(cls, workdir: str) -> dict:
        out = run_check_all(README_CONFIG, workdir, "reference")[2]
        with open(out, "rb") as f:
            return {"report": hashlib.sha256(f.read()).hexdigest()}


# -- operators -------------------------------------------------------------------

class Operators:
    """Sparse operators, Krylov correctors and Poisson streams; no walker.

    Two n=4096 environments (d=2 L=64 and d=3 L=16) go through build,
    validation, a save/load round trip, assembly, one Krylov solve per axis,
    the effective diffusivity and stream reconstruction; one n=1024
    environment (d=2 L=32) goes through the dense spectral certification.
    The workload seed sets the three environment seeds.
    """

    DIFFUSIVITY_SHAPES = ((2, 64), (3, 16))
    CERTIFY_SHAPE = (2, 32)

    def __init__(self, seed: int, workdir: str):
        self.seeds = derived_seeds(seed, 3)
        self.env_path = os.path.join(workdir, "env.json")
        self.assemble_rss_done = False

    def setup(self) -> None:
        for (d, L), s in zip(self.DIFFUSIVITY_SHAPES + (self.CERTIFY_SHAPE,), self.seeds):
            envmod.validate(envmod.random_environment(d, L, s))
        # warm every code path at n=64, far below the measured peak memory
        small = envmod.random_environment(2, 8, self.seeds[0])
        envmod.save_env(small, self.env_path)
        envmod.load_env(self.env_path)
        corrector.effective_diffusivity(small)
        helmholtz.stream_from_flow(small.b)
        spec = corrector.build_spectral_operator(small)
        corrector.riesz_certificate(small, spec)

    def run(self, tracer) -> Pass:
        p = Pass()
        iterations = 0
        krylov_residual = 0.0
        diffusivity_s = 0.0
        for (d, L), seed in zip(self.DIFFUSIVITY_SHAPES, self.seeds):
            tag = f"d={d} L={L}"
            env = self._build_and_validate(p, tracer, d, L, seed)
            with tracer.span("env.roundtrip"):
                envmod.save_env(env, self.env_path)
                back = envmod.load_env(self.env_path)
            p.gate(np.array_equal(back.p_full, env.p_full),
                   f"{tag}: round trip changed the rates")

            rss0 = peak_rss_mb()
            with tracer.span("corrector.assemble"):
                ops = corrector.assemble(env)
            if not self.assemble_rss_done:
                # only the first assembly in the process can raise the peak
                p.layer["corrector.assemble_rss_mb"] = peak_rss_mb() - rss0
                self.assemble_rss_done = True
            worst = max(ops.s_factorization, ops.a_factorization or 0.0,
                        ops.a_antisymmetry, ops.row_sums, ops.col_sums)
            p.gate(worst <= 1e-12, f"{tag}: assembly residual {worst:.3g}")

            with tracer.span("mart.field_tables"):
                f = mart.drift_fields(env)
            for i in range(d):
                with tracer.span("corrector.krylov"):
                    sol = corrector.solve_harmonic(env, -(f.phi[:, i] + f.psi[:, i]))
                iterations += sol.iterations
                krylov_residual = max(krylov_residual, sol.residual)
                p.gate(sol.residual <= 1e-8, f"{tag}: Krylov residual {sol.residual:.3g}")

            t0 = time.perf_counter()
            with tracer.span("corrector.effective_diffusivity"):
                dv = corrector.effective_diffusivity(env)
            diffusivity_s += time.perf_counter() - t0
            chk = mart.bounds(env).check(dv.sigma2, atol=1e-9)
            p.gate(chk["lower_ok"] and chk["upper_ok"],
                   f"{tag}: sigma2 outside the diffusivity bounds", exact=False)

            with tracer.span("helmholtz.stream_from_flow"):
                stream = helmholtz.stream_from_flow(env.b)
            gap = float(np.max(np.abs(envmod.curl(stream).full - env.b.full)))
            scale = max(1.0, float(np.abs(env.b.full).max()))
            p.gate(gap <= 1e-10 * scale, f"{tag}: curl gap {gap:.3g}")

        d, L = self.CERTIFY_SHAPE
        env = self._build_and_validate(p, tracer, d, L, self.seeds[2])
        with tracer.span("mart.field_tables"):
            f = mart.drift_fields(env)
        rhs = -(f.phi[:, 0] + f.psi[:, 0])
        t0 = time.perf_counter()
        with tracer.span("corrector.spectral_build"):
            spec = corrector.build_spectral_operator(env)
        p.gate(spec.skewness <= 1e-11 and spec.min_singular >= 1.0 - 1e-11,
               f"skewness {spec.skewness:.3g}, min singular value {spec.min_singular!r}")
        with tracer.span("corrector.spectral_solve"):
            dense = corrector.solve_harmonic_spectral(env, rhs, spec=spec)
        with tracer.span("corrector.krylov"):
            sparse = corrector.solve_harmonic(env, rhs)
        iterations += sparse.iterations
        krylov_residual = max(krylov_residual, sparse.residual)
        gap = float(np.max(np.abs(dense.potential - sparse.potential)))
        p.gate(gap <= 1e-8, f"route gap {gap:.3g}")
        with tracer.span("corrector.riesz"):
            riesz = corrector.riesz_certificate(env, spec)
        p.gate(max(riesz.values()) <= 1e-11, f"Riesz certificate {riesz}")
        certify_s = time.perf_counter() - t0

        p.layer.update({"corrector.krylov_iterations": iterations,
                         "corrector.krylov_residual": krylov_residual})
        p.summary.update({"diffusivity_s": diffusivity_s, "certify_s": certify_s})
        return p

    def _build_and_validate(self, p: Pass, tracer, d: int, L: int, seed: int):
        with tracer.span("env.build"):
            env = envmod.random_environment(d, L, seed)
        with tracer.span("env.validate"):
            rep = envmod.validate(env)
        p.gate(rep.passed, f"d={d} L={L}: validation failed\n{rep}")
        return env


WORKLOADS = {"ensemble": Ensemble, "check_all": CheckAll, "operators": Operators}


def check_reference(name: str, workdir: str) -> Pass:
    """Compare the ensemble's reference digests with golden.json.

    ``check_all`` compares its report with golden.json on every pass, and
    ``operators`` is gated by tolerances, so only ``ensemble`` needs this.
    """
    p = Pass()
    if name == "ensemble":
        got = Ensemble.reference(workdir)
        for key, digest in load_golden()[name].items():
            p.gate(got[key] == digest,
                   f"ensemble: reference digest {key!r} differs from golden.json")
    return p
