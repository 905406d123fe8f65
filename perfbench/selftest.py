"""Self-test of the benchmark itself (under a minute).

    python3 perfbench/selftest.py

Checks that
- one short dist job prints byte-identical stdout with and without tracing;
- the output checks reject wrong outputs;
- run.py prints every metric named in BENCHMARK.json with its unit, on one
  untraced and one traced run; the traced spans nest under one root span
  per job and cover at least 90% of each job's post-import wall time;
- run.py exits nonzero without printing a result in a directory that holds
  only BENCHMARK.json and the benchmark's files.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import run

SHORT_JOB = ["dist", "--group", "gl2_3", "--subgroup", "unipotent", "--S", "linear", "--D", "2"]


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def traced_stdout_identical(tmp) -> None:
    outs = []
    for cmd in (
        [sys.executable, "-m", "cosetlab.cli", *SHORT_JOB],
        [sys.executable, str(run.HERE / "tracer.py"), str(tmp / "t.json"), "0", "--", *SHORT_JOB],
    ):
        with open(tmp / "out", "w+b") as fh:
            code, _, _ = run.spawn(cmd, fh, subprocess.DEVNULL)
            fh.seek(0)
            outs.append((code, fh.read()))
    expect(outs[0][0] == 0 and outs[0] == outs[1], "traced and untraced stdout are byte-identical")


def checks_reject_wrong_outputs() -> None:
    ref = json.loads(run.REFERENCE.read_text())
    expect(run.check_lemmas({"checks": 5041}) is not None, "lemma-grid rejects a wrong check count")
    gl2 = ref["gl2-dist"]["gl2_3"]
    report = {"weak_distribution": dict(gl2["weak"]), "bound": dict(gl2["bound"]),
              "distinguishability": 0.18}
    expect(run.check_gl2(gl2, {"report": report}) is None, "gl2-dist accepts the reference")
    report["weak_distribution"]["U0"] += 1e-9
    expect(run.check_gl2(gl2, {"report": report}) is not None, "gl2-dist rejects a moved weak value")
    mc = ref["sn-dist"]["s8_mc"]
    far = {"report": {"weak_distribution": mc["weak"], "distinguishability": 0.5,
                      "std_error": 0.01}}
    expect(run.check_mc(mc, 0.26, far) is not None, "sn-dist rejects a Monte Carlo outlier")
    attack = {"result": {"right_injective": True, "k_formula_match": True, "size_match": True,
                         "valid": True, "K_order": 8, "H0_order": 2}}
    expect(run.check_attack(lambda: 2, attack) is None, "keyrec accepts a consistent attack")
    expect(run.check_attack(lambda: 4, attack) is not None, "keyrec rejects a wrong |H0|")


def spans_well_formed(record: dict) -> None:
    jobs = [job for p in record["passes"]["traced"] for job in p]
    for job in jobs:
        spans = job["trace"]["spans"]
        by_id = {s[0]: s for s in spans}
        roots = [s for s in spans if s[1] is None]
        nested = all(
            by_id[s[1]][3] <= s[3] <= s[4] <= by_id[s[1]][4] for s in spans if s[1] is not None
        )
        expect(len(roots) == 1 and roots[0][2] == "cli.main" and nested
               and {s[5] for s in spans} == {job["trace"]["job"]},
               f"spans of {' '.join(job['argv'][:3])} nest under one cli.main root")


def metrics_with_units(tmp) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "gl2-dist",
             "--seconds", "1", "--trace", str(trace), "--save", str(tmp / "record.json")],
            cwd=run.ROOT, capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(proc.returncode == 0 and result["correct"], f"--trace {trace} run is correct")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        expect(got == want, f"--trace {trace} prints every {key} metric with its unit")
        if trace:
            cover = result["metrics"]["trace.span_coverage"]["value"]
            expect(cover >= 0.9, f"spans cover {cover:.4f} of post-import wall time")
            spans_well_formed(json.loads((tmp / "record.json").read_text()))


def fails_without_source(tmp) -> None:
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / run.HERE.name / "run.py"), "--workload", "keyrec",
         "--seed", "0", "--seconds", "10", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the cosetlab source, run.py exits nonzero and prints no result")


def main() -> None:
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as name:
        tmp = run.Path(name)
        traced_stdout_identical(tmp)
        checks_reject_wrong_outputs()
        fails_without_source(tmp)
        metrics_with_units(tmp)
    try:
        run.WORK.rmdir()
    except OSError:
        pass  # a benchmark run in this checkout still uses it


if __name__ == "__main__":
    main()
