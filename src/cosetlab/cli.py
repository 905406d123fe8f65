"""Command-line front end: character tables, dimension and partition
audits, rational Goppa construction and checks, key-recovery simulation,
distinguishability reports, and the full verification grids.  All output
is deterministic for a fixed config and seed.

Each command returns (report file name, config keys, report body); `main`
writes the report and is the only place that writes a diagnostic.  At module
level this imports only the stdlib that the parser and `main` need, so
building the parser loads no cosetlab layer.  Each command imports the layers
it runs: `goppa` and `mceliece gen` load no numpy, only `goppa` loads the code
layer, and `mceliece attack` loads no character tables.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from . import __version__

if TYPE_CHECKING:
    from fractions import Fraction


class ConfigError(Exception):
    """A bad input, charged to the flag that carried it; `main` turns it
    into exit status 2 with a JSON diagnostic naming the flag."""

    def __init__(self, flag: str, message: str):
        super().__init__(message)
        self.flag = flag


@contextlib.contextmanager
def _flag(flag: str):
    """Charge a ValueError raised by the library inside the block to `flag`.
    Only ValueError: any other exception is a bug and is not a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(flag, str(exc)) from None


def _json(obj: dict) -> str:
    """Report text; NaN and infinities are refused, not written."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write(text: str, out_dir: Optional[str], filename: str) -> None:
    """Write one report file into the --out directory, if one is given."""
    if out_dir:
        try:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, filename), "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError("--out", str(exc)) from None


def _read_json(flag: str, path: str, parse, key: Optional[str] = None):
    """parse() of the JSON in `path`, unwrapped from obj[key] when the file is
    a report that holds it there.  A missing, unreadable or non-JSON file, or
    one without the keys or shape that parse reads, is charged to `flag`; a
    ValueError that parse raises on a well-formed object passes through."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(flag, f"cannot read JSON from {path!r}: {exc}") from None
    if key is not None and isinstance(obj, dict) and key in obj:
        obj = obj[key]
    try:
        return parse(obj)
    except (KeyError, TypeError, IndexError) as exc:
        raise ConfigError(flag, f"{path!r} has the wrong shape: {exc!r}") from None


# ---- group and subgroup specs ----

_ATOM_SN = re.compile(r"^s(\d+)$")
_ATOM_GL2 = re.compile(r"^gl2_(\d+)$")


def _parse_group(spec: str):
    """(group, table builder) for s<N>, gl2_<q>, a product written '<a>x<b>',
    or any of those wrapped as 'wreath_<spec>'; no table is built yet."""
    from . import chartab, gl2rep, groups, symrep, wreathrep
    spec = spec.strip().lower()
    if spec.startswith("wreath_"):
        base, table = _parse_group(spec[len("wreath_"):])
        return groups.wreath_z2(base), lambda: wreathrep.wreath_char_table(table())
    if "x" in spec:
        left, right = spec.split("x", 1)
        (G1, t1), (G2, t2) = _parse_group(left), _parse_group(right)
        G = groups.product_group(G1, G2)
        return G, lambda: chartab.product_table(G, t1(), t2())
    m = _ATOM_SN.match(spec)
    if m:
        n = int(m.group(1))
        return symrep.sn_table_group(n), lambda: symrep.sn_character_table(n)
    m = _ATOM_GL2.match(spec)
    if m:
        q = int(m.group(1))
        return groups.general_linear_group(2, q), lambda: gl2rep.char_table(q)
    raise ValueError(f"unrecognized group spec {spec!r}")


def parse_group_table(spec: str, check=lambda G: None):
    """The character table of a group spec (see _parse_group); check(G)
    runs on the group before any table is built."""
    G, build = _parse_group(spec)
    check(G)
    return build()


_CYCLES = re.compile(r"^\[\s*(?:\([0-9, ]*\)\s*)*\]$")


def _parse_cycle_string(G, text: str) -> List:
    """Cycle notation with 1-indexed points, e.g. [(12)] or [(1,2)(3,4)];
    bare digit runs treat each digit as one point."""
    from .groups import SymmetricGroup
    if not isinstance(G, SymmetricGroup):
        raise ValueError(f"cycle string {text!r} names permutations, and {G} is not S_n")
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
        gens.append(tuple(image))
    return gens


def parse_subgroup(G, spec: str):
    """A catalog label (trivial, order-2, unipotent, ...), a cycle string
    for symmetric groups, or a path to a JSON file with a generator list;
    an empty generator list means the trivial subgroup."""
    from . import groups, suites
    spec = spec.strip()
    if os.path.exists(spec):
        gens = _read_json("--subgroup", spec, lambda obj: [
            groups.element_from_json(G, o)
            for o in (obj["generators"] if isinstance(obj, dict) else obj)
        ])
        label = "from file"
    elif _CYCLES.match(spec):
        gens, label = _parse_cycle_string(G, spec), spec
    else:
        for H in suites.subgroup_catalog(G):
            if H.label == spec:
                return H
        raise ValueError(f"unrecognized subgroup spec {spec!r}")
    return groups.subgroup_closure(G, gens, label=label) if gens else groups.trivial_subgroup(G)


def _parse_rate(args, n_min: int, n_cap: int) -> Fraction:
    """The --c cutoff of lambda-audit and roichman; also checks --n."""
    from fractions import Fraction
    try:
        c = Fraction(args.c)
    except (ValueError, ZeroDivisionError):
        raise ConfigError("--c", f"bad fraction {args.c!r}") from None
    if not 0 < c < Fraction(1, 4):
        raise ConfigError("--c", f"cutoff must lie in (0, 1/4), got {c}")
    if not n_min <= args.n <= n_cap:
        raise ConfigError("--n", f"must lie in [{n_min}, {n_cap}], got {args.n}")
    return c


# ---- chartable ----

def _complex_str(z: complex) -> str:
    re = 0.0 if abs(z.real) < 1e-10 else z.real
    im = 0.0 if abs(z.imag) < 1e-10 else z.imag
    return f"{re:.12g}{im:+.12g}i"


def _family_counts(table) -> dict:
    counts: dict = {}
    for label in table.labels:
        if label[0] in "([0123456789":
            fam = "partition"
        else:
            m = re.match(r"^[A-Za-z]+", label)
            fam = m.group(0) if m else "irrep"
        counts[fam] = counts.get(fam, 0) + 1
    return counts


def cmd_chartable(args):
    from . import chartab, gl2rep, symrep, wreathrep
    with _flag({"gl2": "--q", "sn": "--n", "wreath": "--base"}[args.kind]):
        if args.kind == "gl2":
            table = gl2rep.char_table(args.q)
        elif args.kind == "sn":
            table = symrep.sn_character_table(args.n)
        else:
            table = wreathrep.wreath_char_table(parse_group_table(args.base))

    def csv_row(cells: List[str]) -> str:
        return ",".join('"%s"' % c if "," in c else c for c in cells)

    def class_header(j: int) -> str:
        # wreath keys are base-class indices, which say little in a header;
        # a wreath class is named by its representative
        if isinstance(table.family, chartab.WreathFamily):
            return str(table.class_reps[j])
        return str(table.class_keys[j])

    lines = [csv_row(["irrep"] + [class_header(j) for j in range(len(table.class_keys))])]
    for i in range(table.n_irreps):
        lines.append(
            csv_row(
                [table.labels[i]]
                + [_complex_str(complex(v)) for v in table.values[i]]
            )
        )
    _write("\n".join(lines) + "\n", args.out, "chartable.csv")
    return "chartable_summary.json", ("kind", "q", "n", "base"), {
        "ok": True,
        "n_irreps": table.n_irreps,
        "dims": {table.labels[i]: table.dims[i] for i in range(table.n_irreps)},
        "sum_of_squares": int(sum(d * d for d in table.dims)),
        "group_order": table.group.order,
        "family_counts": _family_counts(table),
        "orthogonality_error": table.orthogonality_error(),
    }


def cmd_dims(args):
    import math
    from . import symrep
    with _flag("--n"):
        parts = symrep.partitions(args.n)
    dims = {str(la): symrep.dimension(la) for la in parts}
    total = sum(d * d for d in dims.values())
    fact = math.factorial(args.n)
    body = {"ok": total == fact, "dims": dims, "sum_of_squares": total, "factorial": fact}
    return "dims.json", ("n",), body


def cmd_lambda_audit(args):
    from . import symrep
    # from n = 2 on: at n = 1 no irrep has dimension below the strict bound 1^cn
    audit = symrep.lambda_c_audit(args.n, _parse_rate(args, 2, symrep.PARTITION_CAP))
    body = {"ok": audit.size_ok and audit.dim_ok, "audit": audit.as_json()}
    return "lambda_audit.json", ("n", "c"), body


def cmd_roichman(args):
    from . import symrep
    report = symrep.roichman_report(args.n, _parse_rate(args, 1, symrep.ROICHMAN_CAP))
    return "roichman.json", ("n", "c"), {"ok": True, "report": report.as_json()}


# ---- goppa ----

def cmd_goppa(args):
    import random
    from . import goppa
    from .fields import field_of_order
    if args.spec:
        with _flag("--spec"):
            spec = _read_json("--spec", args.spec, goppa.RationalGoppaSpec.from_json, "spec")
    elif args.action != "build":
        raise ConfigError("--spec", f"goppa {args.action} needs a spec file")
    else:
        with _flag("--q"):
            field_of_order(args.q)
        n = len(args.gamma.split(",")) if args.gamma is not None else args.n
        if not 0 <= args.r < n:
            raise ConfigError("--r", f"need 0 <= r < n = {n}, got {args.r}")
        with _flag("--gamma" if args.gamma is not None else "--n"):
            if args.gamma is None:
                spec = goppa.random_spec(random.Random(args.seed), args.q, args.n, args.r)
            else:
                gamma = tuple(int(x) for x in args.gamma.split(","))
                g = tuple(int(x) for x in args.g.split(",")) if args.g else (1,)
                h = tuple(int(x) for x in args.h.split(",")) if args.h else (1,)
                spec = goppa.RationalGoppaSpec(q=args.q, gamma=gamma, r=args.r, g=g, h=h)
                spec.validate()
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
        return "goppa_build.json", ("q", "n", "r", "gamma", "g", "h", "spec"), body
    report = goppa.automorphisms(code)
    if args.action == "aut":
        return "goppa_aut.json", ("spec",), {
            "ok": True,
            "spec": spec.as_json(),
            "order": report.order,
            "minimal_degree": report.minimal_degree,
            "automorphisms": [list(p) for p in report.automorphisms],
        }
    with _flag("--spec"):
        ok = goppa.stichtenoth_check(spec, report)
    return "goppa_check.json", ("spec",), {
        "ok": ok,
        "spec": spec.as_json(),
        "order": report.order,
        "failed_check": None if ok else "moebius-induced-automorphisms",
    }


# ---- mceliece ----

def cmd_mceliece(args):
    from . import mceliece
    from .fields import GROUP_ENUM_CAP, field_of_order
    # from k = 18 or n = 18 on, GL_k(F_q) (at least 2^k - 1 elements) or S_n
    # alone has more elements than the attack can enumerate
    shape_cap = GROUP_ENUM_CAP.bit_length() - 1
    if args.action == "gen":
        for flag, value in (("--k", args.k), ("--n", args.n)):
            if not 1 <= value <= shape_cap:
                raise ConfigError(flag, f"must lie in [1, {shape_cap}], got {value}")
        if args.min_rank > min(args.k, args.n):
            raise ConfigError(
                "--min-rank",
                f"{args.min_rank} exceeds min(k, n) = {min(args.k, args.n)}: "
                "no message matrix has that rank",
            )
        with _flag("--q"):
            F = field_of_order(args.q)
        inst = mceliece.random_instance(F, args.k, args.n, args.seed, min_rank=args.min_rank)
        body = {"ok": True, "instance": inst.as_json()}
        return "mceliece_instance.json", ("k", "n", "q", "min_rank"), body
    from . import groups, hsp
    if not args.instance:
        raise ConfigError("--instance", "mceliece attack needs an instance file")
    def instance(obj):  # a bad q is the file's fault; from_json's ValueErrors are failed checks
        with _flag("--instance"):
            field_of_order(int(obj["q"]))
        return mceliece.McElieceInstance.from_json(obj)
    inst = _read_json("--instance", args.instance, instance, "instance")
    shape_ok = all(1 <= v <= shape_cap for v in (inst.k, inst.n))
    if not shape_ok or groups.wreath_z2(inst.base_group()).order > GROUP_ENUM_CAP:
        raise ConfigError(
            "--instance",
            f"the attack needs k, n >= 1 and (GL_k(F_q) x S_n) wr Z2 within the "
            f"enumeration cap {GROUP_ENUM_CAP}; got q={inst.q}, k={inst.k}, n={inst.n}",
        )
    res = hsp.attack(inst)
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
    return "mceliece_attack.json", ("instance",), body


# ---- dist ----

def cmd_dist(args):
    from . import sampling
    from .fields import GROUP_ENUM_CAP
    if args.mc_samples is not None:
        # a standard error needs 2 samples, and no Monte Carlo run gathers
        # more rows than the largest exhaustive one
        if not 2 <= args.mc_samples <= GROUP_ENUM_CAP:
            raise ConfigError(
                "--mc-samples", f"must lie in [2, {GROUP_ENUM_CAP}], got {args.mc_samples}"
            )
        if args.seed < 0:
            raise ConfigError("--seed", f"a Monte Carlo run needs a seed >= 0, got {args.seed}")
    with _flag("--group"):
        table = parse_group_table(args.group, sampling.require_samplable)
        ctx = sampling.sampling_context(table)
    S_indices = None
    if args.S is not None:
        if args.S == "linear":
            S_indices = [i for i in range(table.n_irreps) if table.dims[i] == 1]
        else:
            labels = args.S.split(",")
            unknown = [lbl for lbl in labels if lbl not in table.labels]
            if unknown:
                raise ConfigError("--S", f"no irrep labelled {unknown[0]!r} in {table.group}")
            S_indices = [table.index_of(lbl) for lbl in labels]
        d_S = max((table.dims[i] for i in S_indices), default=0)
        if args.D is not None and args.D <= d_S**2:
            raise ConfigError("--D", f"must exceed d_S^2 = {d_S**2}, got {args.D}")
    if (args.S is None) != (args.D is None):
        missing = "--D" if args.D is None else "--S"
        raise ConfigError(missing, "the bound needs both --S and --D")
    with _flag("--subgroup"):
        H = parse_subgroup(table.group, args.subgroup)
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
    _write("\n".join(lines) + "\n", args.out, "dist_weak.csv")
    ok = -1e-12 < report.dist <= sampling.DIST_CEILING + 1e-12
    failed = None if ok else "dist-range"
    if ok and report.bound is not None:
        ok = report.dist <= report.bound.value + 1e-7
        failed = None if ok else "dist-bound"
    body = {"ok": ok, "failed_check": failed, "report": report.as_json()}
    return "dist_report.json", ("group", "subgroup", "S", "D", "mc_samples"), body


# ---- verify-lemmas ----

def _slack_summary(records) -> dict:
    out: dict = {}
    for r in records:
        entry = out.setdefault(r.check, {"count": 0, "failures": 0, "max_abs_diff": 0.0})
        entry["count"] += 1
        entry["failures"] += not r.ok
        entry["max_abs_diff"] = max(entry["max_abs_diff"], abs(r.lhs - r.rhs))
        margin = r.rhs - r.lhs
        entry["min_margin"] = min(entry.get("min_margin", margin), margin)
    return out


def cmd_verify_lemmas(args):
    from . import suites
    if args.suite == "dist":
        records = suites.run_dist_suite()
    elif args.suite == "all":
        records = suites.run_lemma_suite("all") + suites.run_dist_suite()
    else:
        records = suites.run_lemma_suite(args.suite)
    bad = suites.failed(records)
    if bad:
        body = {"ok": False, "failed": [r.as_json() for r in bad]}
    else:
        body = {"ok": True, "checks": len(records), "by_check": _slack_summary(records)}
    return "verify_lemmas.json", ("suite",), body


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
    """Run one command and write its report.  This is the CLI's one error
    boundary: a ConfigError exits 2 naming its flag, and a ValueError or
    AssertionError from an internal check exits 1; each prints a JSON
    diagnostic on stdout."""
    args = build_parser().parse_args(argv)
    try:
        filename, keys, body = args.func(args)
        config = {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
        text = _json({"version": __version__, "config": {**config, "seed": args.seed}, **body})
        _write(text, args.out, filename)
        sys.stdout.write(text)
        return 0 if body["ok"] else 1
    except ConfigError as exc:
        diag, status = {"flag": exc.flag, "error": str(exc)}, 2
    except (ValueError, AssertionError) as exc:
        diag, status = {"error": str(exc) or exc.__class__.__name__}, 1
    sys.stdout.write(_json({"ok": False, "version": __version__, **diag}))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
