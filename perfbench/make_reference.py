"""Write reference.json: the outputs the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Run it only on the commit whose outputs are the reference (the commit that
added the benchmark); the checks then hold later commits to those values.
It records, with job seed 0 where the value does not depend on the seed:
the weak distribution and bound components of each gl2-dist job, the S7
distinguishability and weak distribution, and the S8 Monte Carlo weak
distribution and estimate for each of 16 pinned Monte Carlo seeds.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import GL2_JOBS, HERE, MC_SAMPLES, REFERENCE, ROOT, child_env

MC_SEEDS = range(16)


def cli(*argv: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "cosetlab.cli", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)["report"]


def main() -> None:
    gl2 = {}
    for q, rest in GL2_JOBS:
        report = cli("dist", "--group", f"gl2_{q}", *rest, "--seed", "0")
        entry = {"weak": report["weak_distribution"]}
        if "bound" in report:
            entry["bound"] = report["bound"]
        gl2[f"gl2_{q}"] = entry
    s7 = cli("dist", "--group", "s7", "--subgroup", "order-2", "--seed", "0")
    by_seed = {}
    weak = None
    for seed in MC_SEEDS:
        report = cli("dist", "--group", "s8", "--subgroup", "order-2",
                     "--mc-samples", str(MC_SAMPLES), "--seed", str(seed))
        if weak not in (None, report["weak_distribution"]):
            raise SystemExit("the S8 weak distribution depends on the seed")
        weak = report["weak_distribution"]
        by_seed[str(seed)] = {
            "distinguishability": report["distinguishability"],
            "std_error": report["std_error"],
        }
    reference = {
        "gl2-dist": gl2,
        "sn-dist": {
            "s7": {
                "distinguishability": s7["distinguishability"],
                "weak": s7["weak_distribution"],
            },
            "s8_mc": {"weak": weak, "by_seed": by_seed},
        },
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
