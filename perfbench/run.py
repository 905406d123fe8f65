"""cosetlab benchmark: runs the package's CLI the way users run it and
checks every output.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--save PATH]

Each job is a fresh ``python -m cosetlab.cli ...`` process started from the
checkout's ``src``; jobs run one after another from this process (a closed
loop with one client).  A pass runs all of a workload's jobs once; passes
repeat while another fits in ``--seconds`` (at least one).  With
``--trace 0`` the last stdout line carries the end-to-end metrics, each the
median over passes.  Pass i runs its jobs on the i-th of the usable CPUs,
in turn, and a few set-up probes run before each untraced pass.  With ``--trace 1`` untraced and traced passes
alternate; the traced jobs run under ``tracer.py`` and the last line carries
the per-layer metrics.  The process exits 1 if any output check failed and
2 if the checkout has no cosetlab source.  See README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from typing import Callable, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"

JOB_TIMEOUT_S = 120
SETUP_PROBES_PER_PASS = 3
# the host's CPUs change speed independently, in phases of seconds, so
# passes take each CPU in turn and the median spans all of them
CPUS = sorted(os.sched_getaffinity(0))
SEED_RANGE = 2**31
DIST_TOL = 1e-12
DIST_CEILING = 4.0  # largest possible distinguishability (cosetlab.sampling)
MC_STDERRS = 6

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "unit/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}
SAMPLING_CHECKS = (
    "schur_expectation_check", "variance_bound_check", "second_moment_check",
    "isotypic_vector_norms", "pg_invariance_error", "basis_average_error",
    "general_method_check",
)
SELF_TIME_MODULES = (
    "fields", "groups", "chartab", "symrep", "gl2rep", "wreathrep",
    "realize", "hsp", "sampling", "suites", "cli",
)
# name -> unit; "<f>.calls" counts calls, "<f>.s" is inclusive seconds,
# "<module>.self_s" is seconds in the module minus its wrapped callees
PER_LAYER = {
    "fields.mat_mul.calls": "count",
    "fields.mat_inv.calls": "count",
    "groups.mul_values.calls": "count",
    "groups.elements.enumerated": "count",
    "groups.subgroup_closure.s": "s",
    "chartab.class_index_of.calls": "count",
    "chartab.element_values.s": "s",
    "gl2rep.char_table.s": "s",
    "symrep.sn_character_table.s": "s",
    "symrep.YorRep.mat.calls": "count",
    "symrep.YorRep.mat.s": "s",
    "wreathrep.wreath_char_table.s": "s",
    "wreathrep.k_build.s": "s",
    "realize.realize_table.s": "s",
    "realize.mat_value.calls": "count",
    "realize.mat_value.hit_ratio": "ratio",
    "realize.eigh.calls": "count",
    "sampling.distinguishability.calls": "count",
    "sampling.distinguishability.s": "s",
    "sampling.projection_bundle.calls": "count",
    "sampling.distinguishability_bound.s": "s",
    **{f"sampling.{f}.s": "s" for f in SAMPLING_CHECKS},
    "hsp.random_instance.s": "s",
    "hsp.check_right_injective.s": "s",
    "hsp.hidden_subgroup_of.s": "s",
    "hsp.brute_stabilizer.s": "s",
    "suites.lemma_checks.s": "s",
    "suites.run_dist_suite.s": "s",
    "suites.subgroup_catalog.s": "s",
    "cli.main.s": "s",
    "cli.parse_group_table.s": "s",
    "cli.parse_subgroup.s": "s",
    **{f"{m}.self_s": "s" for m in SELF_TIME_MODULES},
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
}


# ---- jobs and output checks ----

@dataclass
class Job:
    argv: List[str]
    # parsed stdout -> reason it is wrong, or None
    check: Callable[[dict], Optional[str]]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(WORK),
    )
    return env


def weak_mismatch(report: dict, ref: dict) -> Optional[str]:
    weak = report["weak_distribution"]
    if weak.keys() != ref.keys():
        return "weak distribution labels differ from the reference"
    worst = max(abs(weak[k] - ref[k]) for k in ref)
    return None if worst <= DIST_TOL else f"weak distribution off by {worst:.3g}"


def check_lemmas(out: dict) -> Optional[str]:
    return None if out["checks"] == 5042 else f"{out['checks']} checks, expected 5042"


def check_gl2(ref: dict, out: dict) -> Optional[str]:
    report = out["report"]
    bad = weak_mismatch(report, ref["weak"])
    if bad:
        return bad
    ceiling = DIST_CEILING
    if "bound" in ref:
        if report.get("bound") != ref["bound"]:
            return "bound components differ from the reference"
        ceiling = ref["bound"]["value"]
    dist = report["distinguishability"]
    return None if 0.0 <= dist <= ceiling else f"distinguishability {dist} outside [0, {ceiling}]"


def check_s7(ref: dict, out: dict) -> Optional[str]:
    report = out["report"]
    dist = report["distinguishability"]
    if abs(dist - ref["distinguishability"]) > DIST_TOL:
        return f"distinguishability {dist!r}, reference {ref['distinguishability']!r}"
    return weak_mismatch(report, ref["weak"])


def check_mc(ref: dict, ref_value: float, out: dict) -> Optional[str]:
    report = out["report"]
    if report["weak_distribution"] != ref["weak"]:
        return "weak distribution differs from the reference"
    dist, err = report["distinguishability"], report["std_error"]
    if abs(dist - ref_value) > MC_STDERRS * err:
        return f"estimate {dist} is more than {MC_STDERRS} std errors ({err}) from {ref_value}"
    return None


def check_attack(expected_h0: Callable[[], int], out: dict) -> Optional[str]:
    res = out["result"]
    for key in ("right_injective", "k_formula_match", "size_match", "valid"):
        if res[key] is not True:
            return f"attack check {key} failed"
    if res["K_order"] != 2 * res["H0_order"] ** 2:
        return f"K_order {res['K_order']} != 2 * H0_order^2"
    want = expected_h0()
    return None if res["H0_order"] == want else f"H0_order {res['H0_order']}, formula {want}"


H0_FORMULA = (
    "import json, sys\n"
    "from cosetlab import hsp\n"
    "obj = json.load(open(sys.argv[1]))['instance']\n"
    "print(hsp.stabilizer_order_product(hsp.McElieceInstance.from_json(obj)))\n"
)


def h0_formula(instance: Path) -> Callable[[], int]:
    """|H0| by the closed form (code automorphisms times the GL_k
    stabilizer), computed once in its own process after the attack job's
    timing ends; the only place `goppa` runs."""
    memo: list = []

    def get() -> int:
        if not memo:
            out = subprocess.run(
                [sys.executable, "-c", H0_FORMULA, str(instance)],
                env=child_env(), cwd=ROOT, capture_output=True, text=True,
                timeout=JOB_TIMEOUT_S, check=True,
            )
            memo.append(int(out.stdout))
        return memo[0]

    return get


def seed_arg(rng: random.Random) -> List[str]:
    return ["--seed", str(rng.randrange(SEED_RANGE))]


def lemma_grid(rng, tmp, ref):
    return [Job(["verify-lemmas", "--suite", "all", *seed_arg(rng)], check_lemmas)], 5042


GL2_JOBS = (
    (5, ["--subgroup", "unipotent", "--S", "linear", "--D", "4"]),
    (4, ["--subgroup", "split-torus"]),
    (3, ["--subgroup", "unipotent", "--S", "linear", "--D", "2"]),
)


def gl2_dist(rng, tmp, ref):
    jobs, work = [], 0
    for q, rest in GL2_JOBS:
        group = f"gl2_{q}"
        argv = ["dist", "--group", group, *rest, *seed_arg(rng)]
        jobs.append(Job(argv, lambda out, r=ref[group]: check_gl2(r, out)))
        irreps = q * q - 1
        work += (q * q - 1) * (q * q - q) * irreps  # |G| * number of irreps
    return jobs, work


def partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


MC_SAMPLES = 200


def sn_dist(rng, tmp, ref):
    s7 = Job(
        ["dist", "--group", "s7", "--subgroup", "order-2", *seed_arg(rng)],
        lambda out: check_s7(ref["s7"], out),
    )
    # the Monte Carlo seed is one whose seed-commit estimate is pinned
    mc_ref = ref["s8_mc"]
    mc_seed = rng.choice(sorted(mc_ref["by_seed"], key=int))
    s8 = Job(
        ["dist", "--group", "s8", "--subgroup", "order-2",
         "--mc-samples", str(MC_SAMPLES), "--seed", mc_seed],
        lambda out: check_mc(mc_ref, mc_ref["by_seed"][mc_seed]["distinguishability"], out),
    )
    work = factorial(7) * partition_count(7) + MC_SAMPLES * partition_count(8)
    return [s7, s8], work


KEYREC_INSTANCES = 2
KEYREC_Q, KEYREC_K, KEYREC_N = 3, 2, 3


def keyrec(rng, tmp, ref):
    q, k, n = KEYREC_Q, KEYREC_K, KEYREC_N
    jobs = []
    for i in range(KEYREC_INSTANCES):
        out_dir = tmp / f"instance{i}"
        instance = out_dir / "mceliece_instance.json"
        jobs.append(Job(
            ["mceliece", "gen", "--q", str(q), "--k", str(k), "--n", str(n),
             "--min-rank", "2", "--out", str(out_dir), *seed_arg(rng)],
            lambda out: None,
        ))
        jobs.append(Job(
            ["mceliece", "attack", "--instance", str(instance)],
            lambda out, h0=h0_formula(instance): check_attack(h0, out),
        ))
    # |W| = 2 |GL_k(F_q) x S_n|^2 elements scanned per attack
    glk = 1
    for i in range(k):
        glk *= q**k - q**i
    wreath = 2 * (glk * factorial(n)) ** 2
    return jobs, KEYREC_INSTANCES * wreath


# each builds (jobs, work units per pass) from the seeded rng, the run's
# scratch directory and the workload's reference values
WORKLOADS = {
    "lemma-grid": lemma_grid,
    "gl2-dist": gl2_dist,
    "sn-dist": sn_dist,
    "keyrec": keyrec,
}


# ---- running jobs ----

@dataclass
class JobResult:
    argv: List[str]
    wall_s: float
    cpu_s: float
    rss_mib: float
    failure: Optional[str]
    trace: Optional[dict] = None


def spawn(cmd: List[str], stdout, stderr, cpu: Optional[int] = None):
    """Run cmd to completion, on CPU `cpu` if given; returns (exit code or
    None on timeout, wall seconds, rusage of the child)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=stdout, stderr=stderr,
    )
    if cpu is not None:
        try:
            os.sched_setaffinity(proc.pid, {cpu})
        except ProcessLookupError:
            pass  # already exited; wait4 below still reaps it
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    timer = threading.Timer(JOB_TIMEOUT_S, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if killed else proc.returncode), wall, usage


def run_job(job: Job, tmp: Path, traced: bool, job_id: int, cpu: int) -> JobResult:
    out_path, err_path = tmp / f"job{job_id}.out", tmp / f"job{job_id}.err"
    trace_path = tmp / f"job{job_id}.trace.json"
    if traced:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), str(job_id), "--", *job.argv]
    else:
        cmd = [sys.executable, "-m", "cosetlab.cli", *job.argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        code, wall, usage = spawn(cmd, out, err, cpu)
    failure = None
    if code is None:
        failure = f"timed out after {JOB_TIMEOUT_S} s"
    elif code != 0:
        failure = f"exit {code}: {err_path.read_text()[-400:]}"
    else:
        try:
            report = json.loads(out_path.read_text())
            failure = None if report.get("ok") is True else "report is not ok"
            failure = failure or job.check(report)
        except (ValueError, KeyError, TypeError, subprocess.SubprocessError) as exc:
            failure = f"output check could not run: {exc!r}"
    trace = None
    if traced and trace_path.exists():
        trace = json.loads(trace_path.read_text())
        trace_path.unlink()
    return JobResult(
        argv=job.argv,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        failure=failure,
        trace=trace,
    )


def run_pass(jobs: List[Job], tmp: Path, traced: bool, first_id: int, cpu: int) -> List[JobResult]:
    return [run_job(job, tmp, traced, first_id + i, cpu) for i, job in enumerate(jobs)]


def probe(code: str, tmp: Path, cpu: Optional[int] = None) -> tuple:
    """Run `python -c code` against the checkout; (stdout, wall seconds)."""
    with open(tmp / "probe.out", "w+b") as out:
        rc, wall, _ = spawn([sys.executable, "-c", code], out, subprocess.DEVNULL, cpu)
        out.seek(0)
        text = out.read().decode()
    if rc != 0:
        raise RuntimeError(f"probe {code!r} exited with {rc}")
    return text, wall


ENV_PROBE = (
    "import json, sys, numpy, cosetlab.cli\n"
    "cosetlab.cli.build_parser()\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,\n"
    "    'blas': f\"{blas.get('name')} {blas.get('version')}\", 'cosetlab': cosetlab.cli.__file__}))\n"
)
SETUP_PROBE = "import cosetlab.cli\ncosetlab.cli.build_parser()\n"


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(tmp: Path) -> dict:
    """Warm the bytecode cache and record what the numbers depend on."""
    text, _ = probe(ENV_PROBE, tmp)
    env = json.loads(text)
    env.update(
        commit=commit(),
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        blas_threads=1,
        loadavg_start=os.getloadavg(),
    )
    return env


# ---- metrics ----

def end_to_end(passes: List[List[JobResult]], work: int, setup: List[float]) -> dict:
    walls = [sum(r.wall_s for r in p) for p in passes]
    wall = statistics.median(walls)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "work_per_s": work / wall,
        "cpu_s": statistics.median(sum(r.cpu_s for r in p) for p in passes),
        "peak_rss_mb": statistics.median(max(r.rss_mib for r in p) for p in passes),
    }


def layer_values(results: List[JobResult]) -> dict:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    totals = {key: Counter() for key in ("calls", "incl_s", "self_s", "counters")}
    for r in results:
        for key, total in totals.items():
            total.update(r.trace[key])
    out = {}
    for name in PER_LAYER:
        base, stat = name.rsplit(".", 1)
        if name in totals["counters"]:
            out[name] = totals["counters"][name]
        elif stat == "calls":
            out[name] = totals["calls"][base]
        elif stat == "s":
            out[name] = float(totals["incl_s"][base])
        elif stat == "self_s":
            out[name] = float(totals["self_s"][base])
    mat_value = totals["calls"]["realize.mat_value"]
    out["realize.mat_value.hit_ratio"] = (
        1.0 - totals["counters"]["realize.matfun.calls"] / mat_value if mat_value else 0.0
    )
    out["trace.span_coverage"] = min(span_coverage(r.trace) for r in results)
    return out


def span_coverage(trace: dict) -> float:
    """Share of a job's post-import wall time inside its root spans."""
    roots = sum(end - start for _, parent, _, start, end, _ in trace["spans"] if parent is None)
    return roots / (trace["end"] - trace["ready"])


def per_layer(plain: List[List[JobResult]], traced: List[List[JobResult]]) -> dict:
    per_pass = [layer_values(p) for p in traced]
    out = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    out["trace.overhead_s"] = statistics.median(
        sum(r.wall_s for r in p) for p in traced
    ) - statistics.median(sum(r.wall_s for r in p) for p in plain)
    return {name: out[name] for name in PER_LAYER}


# ---- entry point ----

def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", default=None, help="write the full run record (JSON) here")
    args = p.parse_args(argv)

    if not (SRC / "cosetlab" / "cli.py").is_file():
        print(f"no cosetlab source under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    tmp = WORK / f"run-{os.getpid()}"
    tmp.mkdir()
    try:
        return measure(args, tmp)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, tmp: Path) -> int:
    env = environment(tmp)
    rng = random.Random(f"{args.workload}:{args.seed}")
    reference = json.loads(REFERENCE.read_text())
    jobs, work = WORKLOADS[args.workload](rng, tmp, reference.get(args.workload, {}))
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    setup: List[float] = []
    modes = (False, True) if args.trace else (False,)
    runs = {mode: [] for mode in modes}
    start = time.perf_counter()
    rounds = 0
    while True:
        cpu = CPUS[rounds % len(CPUS)]
        if not args.trace:
            setup += [probe(SETUP_PROBE, tmp, cpu)[1] for _ in range(SETUP_PROBES_PER_PASS)]
        for traced in modes:
            results = run_pass(jobs, tmp, traced, len(jobs) * len(runs[traced]), cpu)
            runs[traced].append(results)
            wall = sum(r.wall_s for r in results)
            bad = sum(r.failure is not None for r in results)
            print(f"pass {'traced' if traced else 'plain'} {len(runs[traced])} on cpu {cpu}: "
                  f"{wall:.3f} s, {len(results) - bad}/{len(results)} jobs ok", flush=True)
            for r in results:
                if r.failure:
                    print(f"  FAILED {' '.join(r.argv)}: {r.failure}", flush=True)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break

    everything = [r for passes in runs.values() for p in passes for r in p]
    attempted = len(everything)
    failed = sum(r.failure is not None for r in everything)
    ok = failed == 0
    if args.trace:
        metrics = per_layer(runs[False], runs[True]) if ok else {}
        units = PER_LAYER
    else:
        metrics = end_to_end(runs[False], work, setup)
        units = END_TO_END
    env["loadavg_end"] = os.getloadavg()
    print(f"env loadavg_end {env['loadavg_end']}")
    print(f"work {work} units per pass, failed_frac {failed / attempted:.6g} ratio "
          f"({failed}/{attempted} jobs)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if args.save:
        record = {
            "workload": args.workload, "seed": args.seed, "env": env, "work": work,
            "setup_s": setup, "metrics": metrics,
            "passes": {("traced" if m else "plain"): [[vars(r) for r in p] for p in ps]
                       for m, ps in runs.items()},
        }
        Path(args.save).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
