"""Command-line front end: character tables, dimension and partition
audits, rational Goppa construction and checks, key-recovery simulation,
distinguishability reports, and the full verification grids.  All output
is deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from . import __version__, goppa, hsp, sampling, suites, symrep
from .chartab import CharacterTable, WreathFamily, product_table
from .gl2rep import char_table as gl2_char_table
from .groups import (
    Group,
    Subgroup,
    element_from_json,
    product_group,
    subgroup_closure,
    trivial_subgroup,
)
from .fields import field_of_order
from .symrep import sn_character_table
from .wreathrep import wreath_char_table


def _json(obj: dict) -> str:
    """Report text; NaN and infinities are refused, not written."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(report: dict, out_dir: Optional[str], filename: str) -> None:
    text = _json(report)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, filename), "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _emit_csv(lines: List[str], out_dir: Optional[str], filename: str) -> None:
    text = "\n".join(lines) + "\n"
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, filename), "w") as fh:
            fh.write(text)


def _config_dict(args: argparse.Namespace, keys: Sequence[str]) -> dict:
    cfg = {
        k: getattr(args, k)
        for k in keys
        if k != "out" and getattr(args, k, None) is not None
    }
    cfg["seed"] = getattr(args, "seed", 0)
    return cfg


def _wrap(args: argparse.Namespace, keys: Sequence[str], body: dict) -> dict:
    return {
        "version": __version__,
        "config": _config_dict(args, keys),
        **body,
    }


def _config_error(flag: str, message: str) -> int:
    """Exit status 2 with a JSON diagnostic naming the offending flag."""
    diag = {"ok": False, "version": __version__, "flag": flag, "error": message}
    sys.stdout.write(_json(diag))
    return 2


def _fail(args, keys, filename, failed_records) -> int:
    _emit(
        _wrap(
            args,
            keys,
            {
                "ok": False,
                "failed": [r.as_json() for r in failed_records],
            },
        ),
        args.out,
        filename,
    )
    return 1


# ---- group and subgroup specs ----

def _read_json(path: str):
    """The parsed contents of a JSON file; ValueError if it is missing, a
    directory or not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read JSON from {path!r}: {exc}") from None


_ATOM_SN = re.compile(r"^s(\d+)$")
_ATOM_GL2 = re.compile(r"^gl2_(\d+)$")


def _atom_table(spec: str) -> CharacterTable:
    m = _ATOM_SN.match(spec)
    if m:
        return sn_character_table(int(m.group(1)))
    m = _ATOM_GL2.match(spec)
    if m:
        return gl2_char_table(int(m.group(1)))
    raise ValueError(f"unrecognized group spec {spec!r}")


def parse_group_table(spec: str) -> CharacterTable:
    """s<N>, gl2_<q>, a product a x b written '<a>x<b>', or any of those
    wrapped as 'wreath_<spec>'."""
    spec = spec.strip().lower()
    if spec.startswith("wreath_"):
        return wreath_char_table(parse_group_table(spec[len("wreath_"):]))
    if "x" in spec:
        left, right = spec.split("x", 1)
        t1 = parse_group_table(left)
        t2 = parse_group_table(right)
        G = product_group(t1.group, t2.group)
        return product_table(G, t1, t2)
    return _atom_table(spec)


_CYCLES = re.compile(r"^\[\s*(?:\([0-9, ]*\)\s*)*\]$")


def _parse_cycle_string(G, text: str) -> List:
    """Cycle notation with 1-indexed points, e.g. [(12)] or [(1,2)(3,4)];
    bare digit runs treat each digit as one point."""
    gens = []
    for grp in re.findall(r"\(([0-9, ]*)\)", text):
        grp = grp.strip()
        if not grp:
            continue
        if "," in grp:
            points = [int(p) for p in grp.split(",")]
        else:
            points = [int(ch) for ch in grp if ch.strip()]
        if any(p < 1 or p > G.n for p in points):
            raise ValueError(f"point out of range in cycle string {text!r}")
        image = list(range(G.n))
        for a, b in zip(points, points[1:] + points[:1]):
            image[a - 1] = b - 1
        gens.append(G.make(tuple(image)))
    return gens


def parse_subgroup(G: Group, spec: str) -> Subgroup:
    """A catalog label (trivial, order-2, unipotent, ...), a cycle string
    for symmetric groups, or a path to a JSON file with a generator list;
    an empty generator list means the trivial subgroup."""
    spec = spec.strip()
    if os.path.exists(spec):
        obj = _read_json(spec)
        try:
            gen_objs = obj["generators"] if isinstance(obj, dict) else obj
            gens = [element_from_json(G, o) for o in gen_objs]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"cannot read generators from {spec!r}: {exc!r}") from exc
        if not gens:
            return trivial_subgroup(G)
        return subgroup_closure(G, gens, label="from file")
    if _CYCLES.match(spec):
        gens = _parse_cycle_string(G, spec)
        if not gens:
            return trivial_subgroup(G)
        return subgroup_closure(G, gens, label=spec)
    for H in suites.subgroup_catalog(G):
        if H.label == spec:
            return H
    raise ValueError(f"unrecognized subgroup spec {spec!r}")


def _parse_rate(text: str) -> Fraction:
    try:
        c = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad fraction {text!r}") from None
    if not 0 < c < Fraction(1, 4):
        raise ValueError(f"cutoff must lie in (0, 1/4), got {c}")
    return c


# ---- chartable ----

def _complex_str(z: complex) -> str:
    re = 0.0 if abs(z.real) < 1e-10 else z.real
    im = 0.0 if abs(z.imag) < 1e-10 else z.imag
    return f"{re:.12g}{im:+.12g}i"


def _family_counts(table: CharacterTable) -> dict:
    counts: dict = {}
    for label in table.labels:
        if label[0] in "([0123456789":
            fam = "partition"
        else:
            m = re.match(r"^[A-Za-z]+", label)
            fam = m.group(0) if m else "irrep"
        counts[fam] = counts.get(fam, 0) + 1
    return counts


def cmd_chartable(args) -> int:
    flag = {"gl2": "--q", "sn": "--n", "wreath": "--base"}[args.kind]
    try:
        if args.kind == "gl2":
            table = gl2_char_table(args.q)
        elif args.kind == "sn":
            table = sn_character_table(args.n)
        else:
            table = wreath_char_table(parse_group_table(args.base))
    except ValueError as exc:
        return _config_error(flag, str(exc))

    def csv_row(cells: List[str]) -> str:
        return ",".join('"%s"' % c if "," in c else c for c in cells)

    def class_header(j: int) -> str:
        # wreath keys are base-class indices, which say little in a header;
        # a wreath class is named by its representative
        if isinstance(table.family, WreathFamily):
            return str(table.class_reps[j].value)
        return str(table.class_keys[j])

    lines = [csv_row(["irrep"] + [class_header(j) for j in range(len(table.class_keys))])]
    for i in range(table.n_irreps):
        lines.append(
            csv_row(
                [table.labels[i]]
                + [_complex_str(complex(v)) for v in table.values[i]]
            )
        )
    _emit_csv(lines, args.out, "chartable.csv")
    summary = _wrap(
        args,
        ("kind", "q", "n", "base", "out"),
        {
            "ok": True,
            "n_irreps": table.n_irreps,
            "dims": {table.labels[i]: table.dims[i] for i in range(table.n_irreps)},
            "sum_of_squares": int(sum(d * d for d in table.dims)),
            "group_order": table.group.order,
            "family_counts": _family_counts(table),
            "orthogonality_error": table.orthogonality_error(),
        },
    )
    _emit(summary, args.out, "chartable_summary.json")
    return 0


def cmd_dims(args) -> int:
    try:
        parts = symrep.partitions(args.n)
    except ValueError as exc:
        return _config_error("--n", str(exc))
    dims = {}
    total = 0
    for la in parts:
        d = symrep.dimension(la)
        dims[str(la)] = d
        total += d * d
    fact = 1
    for i in range(2, args.n + 1):
        fact *= i
    ok = total == fact
    _emit(
        _wrap(
            args,
            ("n", "out"),
            {"ok": ok, "dims": dims, "sum_of_squares": total, "factorial": fact},
        ),
        args.out,
        "dims.json",
    )
    return 0 if ok else 1


def cmd_lambda_audit(args) -> int:
    try:
        c = _parse_rate(args.c)
    except ValueError as exc:
        return _config_error("--c", str(exc))
    if not 1 <= args.n <= symrep.PARTITION_CAP:
        return _config_error("--n", f"must lie in [1, {symrep.PARTITION_CAP}], got {args.n}")
    audit = symrep.lambda_c_audit(args.n, c)
    ok = audit.size_ok and audit.dim_ok
    _emit(
        _wrap(args, ("n", "c", "out"), {"ok": ok, "audit": audit.as_json()}),
        args.out,
        "lambda_audit.json",
    )
    return 0 if ok else 1


def cmd_roichman(args) -> int:
    try:
        c = _parse_rate(args.c)
    except ValueError as exc:
        return _config_error("--c", str(exc))
    if not 1 <= args.n <= symrep.ROICHMAN_CAP:
        return _config_error("--n", f"must lie in [1, {symrep.ROICHMAN_CAP}], got {args.n}")
    report = symrep.roichman_report(args.n, c)
    _emit(
        _wrap(args, ("n", "c", "out"), {"ok": True, "report": report.as_json()}),
        args.out,
        "roichman.json",
    )
    return 0


# ---- goppa ----

def _load_goppa_spec(path: str) -> goppa.RationalGoppaSpec:
    obj = _read_json(path)
    if isinstance(obj, dict) and "spec" in obj:
        obj = obj["spec"]
    try:
        return goppa.RationalGoppaSpec.from_json(obj)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path!r} holds no Goppa spec: missing {exc}") from None


def cmd_goppa(args) -> int:
    if args.spec:
        try:
            spec = _load_goppa_spec(args.spec)
        except ValueError as exc:
            return _config_error("--spec", str(exc))
    elif args.action != "build":
        return _config_error("--spec", f"goppa {args.action} needs a spec file")
    else:
        try:
            field_of_order(args.q)
        except ValueError as exc:
            return _config_error("--q", str(exc))
        n = len(args.gamma.split(",")) if args.gamma is not None else args.n
        if not 0 <= args.r < n:
            return _config_error("--r", f"need 0 <= r < n = {n}, got {args.r}")
        try:
            if args.gamma is None:
                spec = goppa.random_spec(random.Random(args.seed), args.q, args.n, args.r)
            else:
                gamma = tuple(int(x) for x in args.gamma.split(","))
                g = tuple(int(x) for x in args.g.split(",")) if args.g else (1,)
                h = tuple(int(x) for x in args.h.split(",")) if args.h else (1,)
                spec = goppa.RationalGoppaSpec(q=args.q, gamma=gamma, r=args.r, g=g, h=h)
                spec.validate()
        except ValueError as exc:
            return _config_error("--gamma" if args.gamma is not None else "--n", str(exc))
    code = goppa.build_goppa(spec)
    if args.action == "build":
        body = {
            "ok": True,
            "spec": spec.as_json(),
            "generator_matrix": [list(r) for r in code.generator],
            "k": code.k,
            "n": code.n,
        }
        if code.field.q**code.k <= goppa.CODEWORD_CAP:
            body["min_distance"] = code.min_distance()
            body["distance_floor"] = code.n - spec.r
            body["ok"] = body["min_distance"] >= body["distance_floor"]
        _emit(
            _wrap(args, ("q", "n", "r", "gamma", "g", "h", "spec", "out"), body),
            args.out,
            "goppa_build.json",
        )
        return 0 if body["ok"] else 1
    report = goppa.automorphisms(code)
    if args.action == "aut":
        body = {
            "ok": True,
            "spec": spec.as_json(),
            "order": report.order,
            "minimal_degree": report.minimal_degree,
            "automorphisms": [list(p) for p in report.automorphisms],
        }
        _emit(_wrap(args, ("spec", "out"), body), args.out, "goppa_aut.json")
        return 0
    try:
        ok = goppa.stichtenoth_check(spec, report)
    except ValueError as exc:
        return _config_error("--spec", str(exc))
    body = {
        "ok": ok,
        "spec": spec.as_json(),
        "order": report.order,
        "failed_check": None if ok else "moebius-induced-automorphisms",
    }
    _emit(_wrap(args, ("spec", "out"), body), args.out, "goppa_check.json")
    return 0 if ok else 1


# ---- mceliece ----

def cmd_mceliece(args) -> int:
    if args.action == "gen":
        for flag, value in (("--k", args.k), ("--n", args.n)):
            if value < 1:
                return _config_error(flag, f"must be at least 1, got {value}")
        if args.min_rank > min(args.k, args.n):
            return _config_error(
                "--min-rank",
                f"{args.min_rank} exceeds min(k, n) = {min(args.k, args.n)}: "
                "no message matrix has that rank",
            )
        try:
            F = field_of_order(args.q)
        except ValueError as exc:
            return _config_error("--q", str(exc))
        inst = hsp.random_instance(F, args.k, args.n, args.seed, min_rank=args.min_rank)
        _emit(
            _wrap(
                args,
                ("k", "n", "q", "min_rank", "out"),
                {"ok": True, "instance": inst.as_json()},
            ),
            args.out,
            "mceliece_instance.json",
        )
        return 0
    if not args.instance:
        return _config_error("--instance", "mceliece attack needs an instance file")
    try:
        obj = _read_json(args.instance)
    except ValueError as exc:
        return _config_error("--instance", str(exc))
    if isinstance(obj, dict) and "instance" in obj:
        obj = obj["instance"]
    try:
        inst = hsp.McElieceInstance.from_json(obj)
    except (KeyError, TypeError) as exc:
        return _config_error("--instance", f"no McEliece instance: missing {exc}")
    res = hsp.attack(inst, cap=args.cap) if args.cap else hsp.attack(inst)
    checks = {
        "right-injective": res.right_injective,
        "hidden-subgroup-formula": res.k_formula_match,
        "hidden-subgroup-size": res.size_match,
        "recovered-key-valid": res.valid,
    }
    ok = all(checks.values())
    body = {
        "ok": ok,
        "result": res.as_json(),
        "failed_check": None if ok else [k for k, v in checks.items() if not v][0],
    }
    _emit(_wrap(args, ("instance", "cap", "out"), body), args.out, "mceliece_attack.json")
    return 0 if ok else 1


# ---- dist ----

def cmd_dist(args) -> int:
    if args.mc_samples is not None and args.mc_samples < 2:
        return _config_error(
            "--mc-samples",
            f"need at least 2 samples for a standard error, got {args.mc_samples}",
        )
    try:
        table = parse_group_table(args.group)
        ctx = sampling.sampling_context(table)
    except ValueError as exc:
        return _config_error("--group", str(exc))
    S_indices = None
    if args.S is not None:
        if args.S == "linear":
            S_indices = [i for i in range(table.n_irreps) if table.dims[i] == 1]
        else:
            labels = args.S.split(",")
            unknown = [lbl for lbl in labels if lbl not in table.labels]
            if unknown:
                return _config_error(
                    "--S", f"no irrep labelled {unknown[0]!r} in {table.group}"
                )
            S_indices = [table.index_of(lbl) for lbl in labels]
        d_S = max((table.dims[i] for i in S_indices), default=0)
        if args.D is not None and args.D <= d_S**2:
            return _config_error("--D", f"must exceed d_S^2 = {d_S**2}, got {args.D}")
    try:
        H = parse_subgroup(table.group, args.subgroup)
    except ValueError as exc:
        return _config_error("--subgroup", str(exc))
    report = sampling.sampling_report(
        ctx,
        H,
        S_indices=S_indices,
        D=args.D,
        mc_samples=args.mc_samples,
        seed=args.seed,
    )
    lines = ["irrep,dim,weak_probability,mean_l1sq"]
    for i in range(table.n_irreps):
        lbl = table.labels[i]
        lines.append(
            f"{lbl},{table.dims[i]},{report.weak[lbl]:.12g},{report.per_irrep[lbl]:.12g}"
        )
    _emit_csv(lines, args.out, "dist_weak.csv")
    ok = -1e-12 < report.dist <= sampling.DIST_CEILING + 1e-12
    failed = None if ok else "dist-range"
    if ok and report.bound is not None:
        ok = report.dist <= report.bound.value + 1e-7
        failed = None if ok else "dist-bound"
    _emit(
        _wrap(
            args,
            ("group", "subgroup", "S", "D", "mc_samples", "out"),
            {"ok": ok, "failed_check": failed, "report": report.as_json()},
        ),
        args.out,
        "dist_report.json",
    )
    return 0 if ok else 1


# ---- verify-lemmas ----

def _slack_summary(records: Sequence[suites.CheckRecord]) -> dict:
    out: dict = {}
    for r in records:
        entry = out.setdefault(
            r.check,
            {"count": 0, "failures": 0, "max_abs_diff": 0.0, "min_margin": None},
        )
        entry["count"] += 1
        if not r.ok:
            entry["failures"] += 1
        entry["max_abs_diff"] = max(entry["max_abs_diff"], abs(r.lhs - r.rhs))
        margin = r.rhs - r.lhs
        if entry["min_margin"] is None or margin < entry["min_margin"]:
            entry["min_margin"] = margin
    return out


def cmd_verify_lemmas(args) -> int:
    if args.suite == "dist":
        records = suites.run_dist_suite()
    elif args.suite == "all":
        records = suites.run_lemma_suite("all") + suites.run_dist_suite()
    else:
        records = suites.run_lemma_suite(args.suite)
    bad = suites.failed(records)
    if bad:
        return _fail(args, ("suite", "out"), "verify_lemmas.json", bad)
    _emit(
        _wrap(
            args,
            ("suite", "out"),
            {
                "ok": True,
                "checks": len(records),
                "by_check": _slack_summary(records),
            },
        ),
        args.out,
        "verify_lemmas.json",
    )
    return 0


# ---- parser ----

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cosetlab",
        description="exact coset-state Fourier sampling over small finite groups",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="report directory")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("chartable", help="emit a character table as CSV + JSON")
    sp.add_argument("kind", choices=["gl2", "sn", "wreath"])
    sp.add_argument("--q", type=int, default=3)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--base", default="s3", help="base group for wreath")
    common(sp)
    sp.set_defaults(func=cmd_chartable)

    sp = sub.add_parser("dims", help="irrep dimensions")
    sp.add_argument("kind", choices=["sn"])
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_dims)

    sp = sub.add_parser("lambda-audit", help="long-row partition set audit")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--c", required=True, help="rate, e.g. 1/6")
    common(sp)
    sp.set_defaults(func=cmd_lambda_audit)

    sp = sub.add_parser("roichman", help="character decay ratio survey")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--c", required=True)
    common(sp)
    sp.set_defaults(func=cmd_roichman)

    sp = sub.add_parser("goppa", help="rational Goppa codes")
    sp.add_argument("action", choices=["build", "aut", "check"])
    sp.add_argument("--spec", default=None, help="spec JSON path")
    sp.add_argument("--q", type=int, default=5)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--gamma", default=None, help="comma-separated points")
    sp.add_argument("--g", default=None, help="numerator coefficients")
    sp.add_argument("--h", default=None, help="denominator coefficients")
    common(sp)
    sp.set_defaults(func=cmd_goppa)

    sp = sub.add_parser("mceliece", help="key generation and simulated attack")
    sp.add_argument("action", choices=["gen", "attack"])
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--min-rank", type=int, default=1, dest="min_rank")
    sp.add_argument("--instance", default=None, help="instance JSON path")
    sp.add_argument("--cap", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_mceliece)

    sp = sub.add_parser("dist", help="distinguishability report")
    sp.add_argument("--group", required=True)
    sp.add_argument("--subgroup", required=True)
    sp.add_argument("--S", default=None, help="'linear' or comma-separated labels")
    sp.add_argument("--D", type=int, default=None)
    sp.add_argument("--mc-samples", type=int, default=None, dest="mc_samples")
    common(sp)
    sp.set_defaults(func=cmd_dist)

    sp = sub.add_parser("verify-lemmas", help="run a verification grid")
    sp.add_argument(
        "--suite",
        required=True,
        choices=["small", "gl2", "wreath", "big-wreath", "dist", "all"],
    )
    common(sp)
    sp.set_defaults(func=cmd_verify_lemmas)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, AssertionError) as exc:
        diag = {
            "ok": False,
            "version": __version__,
            "error": str(exc) or exc.__class__.__name__,
        }
        sys.stdout.write(_json(diag))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
