"""Benchmark for symbif: seeded workloads run in-process through the public
entry points, every answer checked against an exact oracle.

    python3 perfbench/run.py --workload sphere-verify --seed 1 --seconds 40 --trace 0

Workloads (one client, jobs in sequence):

* sphere-verify: `symbif verify` on the 2-sphere at truncation 12 for
  so2-ring (288 dof) and pitchfork-scalar, through symbif.cli.main.
* slice3-degree: `symbif jump` on a seeded rotated decoupled quartic with
  three components, through symbif.cli.main (the 3-D slice degree).
* disk-verify: build_problem -> predict -> detect_bifurcation ->
  switch_branch -> continue_branch on the disk (beta <= 200) for
  pitchfork-scalar and so2-ring.

With --trace 0 the run repeats passes over the jobs while the next pass fits
in --seconds (at least one) and prints the end-to-end metrics.  Their
timings are in reference seconds (see RefClock): the host's speed changes by
up to 2x within seconds, so each timed interval is scaled by the speed a
fixed piece of reference work ran at just before and just after it.  With
--trace 1 it runs one untraced pass and one traced pass, prints the
per-layer metrics and writes the spans to perfbench/out/ as JSON lines.  The
last line of stdout is the JSON result.  See perfbench/README.md for the
metric definitions.
"""

import os

# One BLAS thread, fixed before numpy loads, so a run does not depend on the
# caller's environment; the thread count is part of the answer fingerprint.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import importlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import oracles
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
# a fresh interpreter, so every repeat pays for symbif's whole import
IMPORT_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import symbif, symbif.cli"


# --------------------------------------------------------------------------
# reference speed

# The benchmark shares a few cores of a host with other tenants, and their
# load changes the speed of this process by up to 2x within seconds: a fixed
# pure-Python loop took from 22 ms to 61 ms over six minutes, and medians of
# runs minutes apart differed by up to 25%.  So each timed interval is
# reported in reference seconds.  The interval is cut into pieces by short
# calls to reference_work (every SAMPLE_EVERY seconds inside a job, from a
# SIGALRM handler, and at both ends), each piece counts as its measured time
# times REF_S over the mean time of the reference calls at its two ends, and
# the reference calls themselves are not counted.  REF_S is reference_work's
# median time on an idle 2-vCPU Xeon host at 2.1 GHz, so there a reference
# second is about a second.  The times as measured are printed too.
REF_S = 0.0048
REF_LOOP = 40_000
REF_MATRIX = np.random.default_rng(0).normal(size=(150, 150))
REF_MATRIX = REF_MATRIX + REF_MATRIX.T
SAMPLE_EVERY = 0.2


def reference_work():
    """Fixed work in the two shapes symbif's time goes to: interpreted
    Python (potential and polynomial evaluation) and dense LAPACK calls."""
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    np.linalg.eigvalsh(REF_MATRIX)
    return total


def reference_time():
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


class RefClock:
    """Times intervals in reference seconds and as measured.

        with clock.interval(sample=True) as iv:
            work()
        iv.scaled, iv.raw
    """

    def __init__(self):
        self.factors = []
        self.active = False
        self.previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous_handler)

    def _cut(self):
        end = perf_counter()
        now = reference_time()
        factor = REF_S / (0.5 * (self.last + now))
        self.last = now
        self.factors.append(factor)
        self.raw += end - self.mark
        self.scaled += (end - self.mark) * factor
        self.mark = perf_counter()

    def _on_alarm(self, signum, frame):
        # an alarm still pending when an interval ends finds it inactive
        if self.active:
            self.active = False
            try:
                self._cut()
            finally:
                self.active = True

    @contextlib.contextmanager
    def interval(self, sample=False):
        """sample=False takes reference calls at the ends only, for
        intervals that wait on a child process, which the calls would
        compete with for a core."""
        self.raw = self.scaled = 0.0
        self.last = reference_time()
        self.mark = perf_counter()
        if sample:
            self.active = True
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            yield self
        finally:
            self.active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._cut()


class JobError(RuntimeError):
    """A job ended without an answer (nonzero exit code)."""


# --------------------------------------------------------------------------
# jobs


def run_cli_job(mods, job):
    code = mods["cli"].main(job["argv"])
    if code != 0:
        raise JobError(f"symbif {job['argv'][0]} exited with code {code}")
    with open(job["report"]) as fh:
        return json.load(fh)


def run_disk_job(mods, job):
    continuation, potentials = mods["continuation"], mods["potentials"]
    domain = mods["spectral"].ball(2)
    spec = potentials.builtin(job["potential"])
    problem = continuation.build_problem(domain, spec, beta_cutoff=job["beta_cutoff"])
    cands = mods["predictor"].predict(spec, domain, job["predict_cutoff"])
    detected = continuation.detect_bifurcation(problem, tuple(job["window"]))
    branches = []
    for cand in cands:
        if cand.guarantee is None:
            continue
        inside = [d for d in detected if cand.guarantee.lo < d < cand.guarantee.hi]
        if not inside:
            continue
        lam = min(inside, key=lambda d: abs(d - cand.lambda0))
        seed = continuation.switch_branch(problem, lam)
        half = 0.25 * max(1.0, abs(lam))
        branch = continuation.continue_branch(problem, seed, (lam - half, lam + half))
        branches.append(
            {
                "lambda_star": float(lam),
                "points": len(branch.points),
                "termination": branch.termination,
                "max_sup_norm": max(bp.sup_norm for bp in branch.points),
            }
        )
    return {
        "n_dof": problem.n_dof,
        "quad_nodes": int(problem.quad.weights.size),
        "detected": [float(d) for d in detected],
        "degrees": [[c.b_minus, c.b_plus] for c in cands],
        "branches": branches,
    }


RUNNERS = {"cli": run_cli_job, "disk-pipeline": run_disk_job}


def fingerprint(job, answer):
    """The parts of an answer a speed-up must leave unchanged."""
    if answer is None:
        return None
    if job["oracle"] == "sphere-verify":
        return {
            "verdict": answer["verdict"],
            "detected": [round(x, 8) for x in answer["detected"]],
            "degrees": [[c["b_minus"], c["b_plus"]] for c in answer["predicted"]],
            "terminations": [lv.get("branch", {}).get("termination") for lv in answer["levels"]],
        }
    if job["oracle"] == "slice-jump":
        cand = answer["candidate"]
        return {"degrees": [cand["b_minus"], cand["b_plus"]], "jump": cand["jump"]}
    return {
        "n_dof": answer["n_dof"],
        "detected": [round(x, 8) for x in answer["detected"]],
        "degrees": answer["degrees"],
        "terminations": [b["termination"] for b in answer["branches"]],
    }


def run_pass(mods, jobs, clock, tracer=None):
    """Run every job once; returns (wall, job times, answers, problems) with
    the times in reference seconds and (wall, job times) as measured."""
    times, raw, answers, problems = [], [], [], []
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        # the reference calls would land in the traced pass's spans
        with clock.interval(sample=tracer is None) as iv:
            try:
                answer, errors = RUNNERS[job["kind"]](mods, job), []
            except Exception as exc:  # a job that raises is a failed job, not a crashed benchmark
                answer, errors = None, [f"{type(exc).__name__}: {exc}"]
        raw.append(iv.raw)
        times.append(iv.scaled)
        answers.append(answer)
        problems.append(errors)
    # the oracles run after the pass, outside the timed region
    for job, answer, errors in zip(jobs, answers, problems):
        if answer is not None:
            errors += oracles.CHECKS[job["oracle"]](answer, job)
    return sum(times), times, answers, problems, (sum(raw), raw)


# --------------------------------------------------------------------------
# environment


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
    }


# --------------------------------------------------------------------------
# main


def measure_setup(args, work, clock):
    """Median over SETUP_REPEATS of importing symbif in a fresh interpreter
    plus generating the workload's inputs, in reference seconds and as
    measured; returns both with the last inputs."""
    times, raw = [], []
    for i in range(SETUP_REPEATS):
        directory = work / f"inputs{i}"
        with clock.interval() as iv:
            subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)], check=True, cwd=ROOT)
            directory.mkdir()
            inputs.make_jobs(args.workload, args.seed, directory)
        raw.append(iv.raw)
        times.append(iv.scaled)
    return statistics.median(times), statistics.median(raw), directory


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("points_per_call"):
        return "points/call"
    if name.endswith("jacobian_per_point"):
        return "calls/point"
    return "count"


def run(args, work, clock):
    setup_s, setup_raw, directory = measure_setup(args, work, clock)
    jobs = inputs.load_jobs(directory)
    import symbif

    if not Path(symbif.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported symbif from {symbif.__file__}, not from {SRC}")
    mods = {layer: importlib.import_module(f"symbif.{layer}") for layer in tracing.LAYERS}
    env = environment(args)
    lines = ["env " + json.dumps(env, sort_keys=True)]

    passes = []
    tracer = None
    if args.trace:
        passes.append(run_pass(mods, jobs, clock))
        tracer = tracing.Tracer()
        tracer.install(mods)
        try:
            passes.append(run_pass(mods, jobs, clock, tracer))
        finally:
            tracer.uninstall()
    else:
        start = perf_counter()
        while True:
            passes.append(run_pass(mods, jobs, clock))
            typical = statistics.median(p[4][0] for p in passes)
            if perf_counter() - start + typical > args.seconds:
                break

    attempted = failed = 0
    for k, (wall, times, answers, problems, (_, raw)) in enumerate(passes):
        for job, t, r, errors in zip(jobs, times, raw, problems):
            attempted += 1
            failed += bool(errors)
            status = "ok" if not errors else "FAILED: " + "; ".join(errors)
            lines.append(f"job {job['id']} pass {k} {t:.3f} s ref {r:.3f} s measured {status}")
    prints = {job["id"]: fingerprint(job, a) for job, a in zip(jobs, passes[-1][2])}
    record = {"env": env, "answers": prints}
    lines.append("fingerprint " + json.dumps(record, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"fingerprint-{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    if args.trace:
        values = tracing.layer_metrics(tracer)
        values["trace.overhead_s"] = passes[1][4][0] - passes[0][4][0]
        tracer.write_jsonl(OUT / f"trace-{stem}.jsonl")
        metrics = {k: (v, layer_unit(k)) for k, v in values.items()}
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": (statistics.median(p[0] for p in passes), "s"),
            "job_max_s": (statistics.median(max(p[1]) for p in passes), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
        }
        lines.append(f"measured wall_s {statistics.median(p[4][0] for p in passes):.6g} s")
        lines.append(f"measured job_max_s {statistics.median(max(p[4][1]) for p in passes):.6g} s")
        lines.append(f"measured setup_s {setup_raw:.6g} s")
        lines.append(f"speed factor median {statistics.median(clock.factors):.4g}"
                     f" min {min(clock.factors):.4g} max {max(clock.factors):.4g}")
    lines.append(f"passes {len(passes)}")
    lines += [f"metric {k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"metric failed_frac {failed / attempted:.6g} ratio")
    for line in lines:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "symbif" / "__init__.py").is_file():
        print(f"symbif sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    clock = RefClock()
    try:
        return run(args, work, clock)
    finally:
        clock.close()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
