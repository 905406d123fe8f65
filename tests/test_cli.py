from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosetlab import cli, gl2rep, hsp, sampling, symrep
from cosetlab.chartab import CharacterTable
from cosetlab.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"


def run_cli(argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)


def run_cli_captured(argv):
    """Exit status and stdout of one in-process run.  Any exception other
    than SystemExit escapes and fails the test: the in-process form of "no
    traceback"."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run_cli(argv)
    return rc, out.getvalue()


def assert_config_error(argv, flag):
    rc, out = run_cli_captured(argv)
    assert rc == 2
    diag = json.loads(out)
    assert diag["ok"] is False and diag["flag"] == flag
    return diag


def read_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_dist_golden_s3(tmp_path, capsys):
    rc = run_cli(["dist", "--group", "s3", "--subgroup", "[(12)]", "--out", str(tmp_path)])
    assert rc == 0
    body = read_json(capsys)
    assert body["ok"] is True
    rep = body["report"]
    assert abs(rep["distinguishability"] - 1 / 3) < 1e-10
    weak = rep["weak_distribution"]
    assert abs(weak["(3,)"] - 1 / 3) < 1e-10
    assert abs(weak["(2, 1)"] - 2 / 3) < 1e-10
    assert abs(weak["(1, 1, 1)"]) < 1e-10
    assert (tmp_path / "dist_report.json").exists()
    csv_lines = (tmp_path / "dist_weak.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "irrep,dim,weak_probability,mean_l1sq"
    assert len(csv_lines) == 4


def test_dist_reports_are_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["dist", "--group", "s3", "--subgroup", "[(12)]", "--seed", "5", "--out", str(d1)]) == 0
    assert run_cli(["dist", "--group", "s3", "--subgroup", "[(12)]", "--seed", "5", "--out", str(d2)]) == 0
    capsys.readouterr()
    assert (d1 / "dist_report.json").read_bytes() == (d2 / "dist_report.json").read_bytes()
    assert (d1 / "dist_weak.csv").read_bytes() == (d2 / "dist_weak.csv").read_bytes()


def test_dist_with_subgroup_file(tmp_path, capsys):
    sub = tmp_path / "sub.json"
    sub.write_text('{"generators": []}')
    rc = run_cli(["dist", "--group", "s3", "--subgroup", str(sub)])
    assert rc == 0
    body = read_json(capsys)
    assert body["report"]["subgroup_order"] == 1
    assert body["report"]["distinguishability"] < 1e-10


def test_a_catalog_label_wins_over_a_file_in_the_cwd(tmp_path, monkeypatch):
    # --subgroup tries a catalog label, then a cycle string, then a path,
    # so a file named like a label is read as ./<name>
    monkeypatch.chdir(tmp_path)
    (tmp_path / "order-2").write_text('{"generators": []}')
    rc, out = run_cli_captured(["dist", "--group", "s3", "--subgroup", "order-2"])
    assert rc == 0
    report = json.loads(out)["report"]
    assert (report["subgroup"], report["subgroup_order"]) == ("order-2", 2)
    rc, out = run_cli_captured(["dist", "--group", "s3", "--subgroup", "./order-2"])
    assert rc == 0
    report = json.loads(out)["report"]
    assert (report["subgroup"], report["subgroup_order"]) == ("trivial", 1)


def test_dist_with_linear_small_set(capsys):
    rc = run_cli(["dist", "--group", "gl2_3", "--subgroup", "unipotent", "--S", "linear", "--D", "2"])
    assert rc == 0
    body = read_json(capsys)
    assert body["ok"] is True
    bound = body["report"]["bound"]
    assert bound["S"] == ["U0", "U1"]
    assert body["report"]["distinguishability"] <= bound["value"]


@pytest.mark.parametrize(
    "group, subgroup, S, D, labels",
    [
        ("s4", "order-2", "(4,)", "2", ["(4,)"]),
        ("s3", "order-2", "(3,),(2, 1)", "5", ["(3,)", "(2, 1)"]),
        ("gl2_3", "unipotent", "W0,1", "17", ["W0,1"]),
        ("gl2_3", "unipotent", "U1,W0,1,U0", "17", ["U0", "U1", "W0,1"]),
    ],
)
def test_dist_S_reads_labels_that_hold_commas(group, subgroup, S, D, labels):
    # each item is the longest label up to a comma or the end, so S_n's
    # partitions and GL2's W labels can be named
    rc, out = run_cli_captured(["dist", "--group", group, "--subgroup", subgroup, "--S", S, "--D", D])
    assert rc == 0
    assert json.loads(out)["report"]["bound"]["S"] == labels


# stdout of four dist runs, kept byte for byte since they were first written
PINNED_DIST_REPORTS = {
    "dist_s3_order-2.json": ["--group", "s3", "--subgroup", "order-2"],
    "dist_gl2_3_unipotent_S-linear_D2.json": [
        "--group", "gl2_3", "--subgroup", "unipotent", "--S", "linear", "--D", "2",
    ],
    "dist_wreath_s4_K-type_mc50_seed1.json": [
        "--group", "wreath_s4", "--subgroup", "K-type", "--mc-samples", "50", "--seed", "1",
    ],
    "dist_gl2_3xs2_cyclic_mc20.json": ["--group", "gl2_3xs2", "--subgroup", "cyclic", "--mc-samples", "20"],
}


@pytest.mark.parametrize("name", sorted(PINNED_DIST_REPORTS))
def test_dist_reports_keep_their_bytes(name):
    rc, out = run_cli_captured(["dist", *PINNED_DIST_REPORTS[name]])
    assert rc == 0
    assert out == (DATA / name).read_text()


# every report record is written by cli._json's one encoder; SHA-256 of
# each run's exit status, stdout and --out files (the tmp directory written
# as <tmp>), taken while each record still listed its own JSON keys
PINNED_REPORT_RUNS = {
    "lambda-audit": ["lambda-audit", "--n", "12", "--c", "1/6"],
    "roichman": ["roichman", "--n", "8", "--c", "1/6"],
    "goppa-build": ["goppa", "build", "--q", "7", "--n", "6", "--r", "2", "--seed", "3"],
    "goppa-aut": ["goppa", "aut", "--spec", "<tmp>/goppa-build/goppa_build.json"],
    "goppa-check": ["goppa", "check", "--spec", "<tmp>/goppa-build/goppa_build.json"],
    "mceliece-gen": [
        "mceliece", "gen", "--q", "3", "--k", "2", "--n", "3", "--min-rank", "2", "--seed", "1",
    ],
    "mceliece-attack": ["mceliece", "attack", "--instance", "<tmp>/mceliece-gen/mceliece_instance.json"],
    "dist-gl2_5": ["dist", "--group", "gl2_5", "--subgroup", "unipotent", "--S", "linear", "--D", "4"],
    "dist-wreath_s4": [
        "dist", "--group", "wreath_s4", "--subgroup", "K-type", "--mc-samples", "50", "--seed", "1",
        "--S", "linear", "--D", "2",
    ],
    "verify-lemmas-dist": ["verify-lemmas", "--suite", "dist"],
}
PINNED_REPORT_DIGESTS = {
    "dist-gl2_5": "9c86964645cda0e3ed152376d7b311e026bba44b985fc6f449fb713afad0d88f",
    "dist-wreath_s4": "f5fccc5e9ba46ed8a03681d9ea4adaaea842aef9d8ef4b1367bb74a5c35b1e37",
    "goppa-aut": "749aee9196654c9285b8b38082da062bccadc3858d57f61b3b65765bde4ca21a",
    "goppa-build": "a2fd93e7a94bb4c79bb0005731643b68bf6d53a80340e9fd12d86251a0c70108",
    "goppa-check": "4e904fa528e408b0cc684f7c1f75907edc49889ee44af68e70ce5d375ce2727c",
    "lambda-audit": "8fc87ebcabcad686a4dabf7ab6213567e433f2ad7327138d04a3e0c5cd7d8a63",
    "mceliece-attack": "910f1b0e048620e7b665f5a28de895e5793c72254783a375686f9bb2abb9a4e7",
    "mceliece-gen": "a2b711decc98173bf7744b29fbad06531236523c58b8f1ad2959176f45e28749",
    "roichman": "9df4e94180e12a5f5a81c0515f7107d24db3fbe4d4808a183ef3a08b53c74524",
    "verify-lemmas-dist": "aeb5af60dfcb7c0d386e9e54d2e9a132b5c4623f86b628dc758a97a472bb7905",
    "verify-lemmas-failing": "5e87662ab918c04d890f7224b9479b7771f90fa388219ad03e8bf16fbcacdb25",
}


def test_report_bytes_are_pinned(tmp_path, monkeypatch):
    tmp = str(tmp_path).encode()

    def digest(name, argv):
        out_dir = tmp_path / name
        argv = [a.replace("<tmp>", str(tmp_path)) for a in argv]
        rc, out = run_cli_captured([*argv, "--out", str(out_dir)])
        h = hashlib.sha256(b"%d\0" % rc + out.encode().replace(tmp, b"<tmp>"))
        for path in sorted(out_dir.iterdir()):
            h.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes().replace(tmp, b"<tmp>"))
        return h.hexdigest()

    digests = {name: digest(name, argv) for name, argv in PINNED_REPORT_RUNS.items()}
    # a failing verify-lemmas body lists its failed records: the weak-sum
    # bend of test_a_weak_sum_off_by_a_millionth_fails_its_record_and_stops_dist
    weak = sampling.weak_distribution

    def bent(table, H):
        probs = weak(table, H)
        probs[0] += 1e-6
        return probs

    monkeypatch.setattr(sampling, "weak_distribution", bent)
    digests["verify-lemmas-failing"] = digest("verify-lemmas-failing", ["verify-lemmas", "--suite", "small"])
    assert digests == PINNED_REPORT_DIGESTS


@pytest.mark.parametrize("value", [np.int64(1), object()])
def test_the_report_encoder_refuses_other_types(value):
    # a dataclass is written as its fields and a Fraction as "p/q"; nothing
    # else falls back to its str()
    with pytest.raises(TypeError):
        cli._json({"value": value})


def test_dist_failures_come_from_the_shared_verdict(monkeypatch):
    # the first failing record of suites.dist_records names the failed check
    argv = ["dist", "--group", "s3", "--subgroup", "order-2", "--S", "linear", "--D", "2"]
    bound = sampling.distinguishability_bound
    monkeypatch.setattr(
        sampling, "distinguishability_bound", lambda *a: dataclasses.replace(bound(*a), value=0.3)
    )
    rc, out = run_cli_captured(argv)
    body = json.loads(out)
    assert rc == 1 and body["ok"] is False and body["failed_check"] == "dist-bound"
    assert body["report"]["distinguishability"] > body["report"]["bound"]["value"] == 0.3
    # a value past the ceiling also fails the bound; the range record comes first
    dist = sampling.distinguishability
    monkeypatch.setattr(
        sampling, "distinguishability", lambda *a, **k: dataclasses.replace(dist(*a, **k), value=4.5)
    )
    rc, out = run_cli_captured(argv)
    assert rc == 1 and json.loads(out)["failed_check"] == "dist-range"


def test_dist_past_the_ceiling_is_a_failed_range_record_with_its_report(monkeypatch):
    # the range has one verdict, dist_records, and no raise inside
    # distinguishability: a value past 4 + 1e-8 still writes its report
    distortions = sampling.CosetKernel.distortions
    monkeypatch.setattr(sampling.CosetKernel, "distortions", lambda self: distortions(self) + 5.0)
    rc, out = run_cli_captured(["dist", "--group", "s3", "--subgroup", "order-2"])
    body = json.loads(out)
    assert rc == 1 and body["ok"] is False and body["failed_check"] == "dist-range"
    assert body["report"]["distinguishability"] > sampling.DIST_CEILING + 1e-8


def test_chartable_gl2_summary(tmp_path, capsys):
    rc = run_cli(["chartable", "gl2", "--q", "3", "--out", str(tmp_path)])
    assert rc == 0
    body = read_json(capsys)
    assert body["n_irreps"] == 8
    assert body["sum_of_squares"] == 48
    assert body["family_counts"] == {"U": 2, "V": 2, "W": 1, "X": 3}
    assert body["orthogonality_error"] < 1e-9
    lines = (tmp_path / "chartable.csv").read_text().strip().splitlines()
    assert len(lines) == 9
    cells = lines[1].split(",")
    assert cells[1].endswith("i")


def test_chartable_other_kinds(tmp_path, capsys):
    assert run_cli(["chartable", "sn", "--n", "4", "--out", str(tmp_path)]) == 0
    assert run_cli(["chartable", "wreath", "--base", "s3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["chartable", "gl2", "--q", "2"], {"kind": "gl2", "q": 2, "seed": 0}),
        (["chartable", "sn", "--n", "3"], {"kind": "sn", "n": 3, "seed": 0}),
        (["chartable", "wreath", "--base", "s2"], {"kind": "wreath", "base": "s2", "seed": 0}),
    ],
)
def test_chartable_config_records_only_the_flag_it_read(argv, config):
    # the other kinds' flags have defaults, which played no part in the table
    rc, out = run_cli_captured(argv)
    assert rc == 0
    assert json.loads(out)["config"] == config


@pytest.mark.parametrize("base, order", [("gl2_5", 2 * 480**2), ("s6", 2 * 720**2)])
def test_chartable_wreath_past_the_enumeration_cap(tmp_path, capsys, base, order):
    # |W| exceeds GROUP_ENUM_CAP: the closed-form table never enumerates W
    assert run_cli(["chartable", "wreath", "--base", base, "--out", str(tmp_path)]) == 0
    body = read_json(capsys)
    assert body["group_order"] == order
    assert body["orthogonality_error"] <= 1e-9


def test_dims_factorial(capsys):
    rc = run_cli(["dims", "sn", "--n", "6"])
    assert rc == 0
    body = read_json(capsys)
    assert body["ok"] is True
    assert body["factorial"] == 720
    assert sum(d * d for d in body["dims"].values()) == 720


def test_lambda_audit(capsys):
    rc = run_cli(["lambda-audit", "--n", "8", "--c", "1/6"])
    assert rc == 0
    body = read_json(capsys)
    assert body["ok"] is True
    assert body["audit"]["size"] == 4


def test_lambda_audit_bad_fraction():
    assert run_cli(["lambda-audit", "--n", "6", "--c", "zebra"]) == 2


def test_roichman(capsys):
    rc = run_cli(["roichman", "--n", "5", "--c", "1/6"])
    assert rc == 0
    body = read_json(capsys)
    assert body["report"]["rows"]


def test_goppa_roundtrip(tmp_path, capsys):
    rc = run_cli([
        "goppa", "build", "--q", "5", "--gamma", "0,1,2,3", "--r", "1",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    build = read_json(capsys)
    assert build["ok"] is True
    assert build["k"] == 2 and build["n"] == 4
    assert build["min_distance"] == 3
    spec_path = str(tmp_path / "goppa_build.json")
    assert run_cli(["goppa", "aut", "--spec", spec_path, "--out", str(tmp_path)]) == 0
    aut = read_json(capsys)
    assert aut["order"] == 4 and aut["minimal_degree"] == 4
    assert run_cli(["goppa", "check", "--spec", spec_path, "--out", str(tmp_path)]) == 0
    check = read_json(capsys)
    assert check["ok"] is True and check["failed_check"] is None


def test_goppa_build_rejects_bad_spec():
    assert run_cli(["goppa", "build", "--q", "5", "--gamma", "0,0,1", "--r", "1"]) == 2


def test_mceliece_gen_and_attack(tmp_path, capsys):
    rc = run_cli([
        "mceliece", "gen", "--q", "2", "--k", "2", "--n", "3", "--seed", "3",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    capsys.readouterr()
    inst_path = str(tmp_path / "mceliece_instance.json")
    rc = run_cli(["mceliece", "attack", "--instance", inst_path, "--out", str(tmp_path)])
    assert rc == 0
    body = json.loads((tmp_path / "mceliece_attack.json").read_text())
    assert body["ok"] is True
    assert body["failed_check"] is None
    capsys.readouterr()


def test_mceliece_attack_tampered_instance(tmp_path, capsys):
    assert run_cli([
        "mceliece", "gen", "--q", "2", "--k", "2", "--n", "3", "--seed", "4",
        "--out", str(tmp_path),
    ]) == 0
    capsys.readouterr()
    obj = json.loads((tmp_path / "mceliece_instance.json").read_text())
    obj["instance"]["Mstar"][0][0] ^= 1
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    rc = run_cli(["mceliece", "attack", "--instance", str(bad)])
    assert rc == 1
    body = read_json(capsys)
    assert body["ok"] is False
    assert "error" in body


def test_mceliece_attack_fails_right_injective_before_extraction(tmp_path, monkeypatch):
    assert run_cli_captured([
        "mceliece", "gen", "--q", "2", "--k", "2", "--n", "3", "--seed", "3",
        "--out", str(tmp_path),
    ])[0] == 0

    class Bent(hsp.LiftedLabels):
        # the last id takes the identity's label, so K's level set gains an
        # element outside K and is no longer a subgroup
        def __getitem__(self, a):
            labels = super().__getitem__(a)
            last, k_label = self.group.order - 1, super().__getitem__(self.group.ids().identity)
            if isinstance(a, slice):
                if a.start <= last < a.stop:
                    labels[last - a.start] = k_label
            else:
                labels[np.asarray(a) == last] = k_label
            return labels

    monkeypatch.setattr(hsp, "LiftedLabels", Bent)
    monkeypatch.setattr(hsp, "extract_shift", lambda K: pytest.fail("extracted"))
    rc, out = run_cli_captured(["mceliece", "attack", "--instance", str(tmp_path / "mceliece_instance.json")])
    body = json.loads(out)
    assert rc == 1 and body["ok"] is False and body["failed_check"] == "right-injective"
    assert body["result"]["right_injective"] is False
    assert body["result"]["K_order"] is None and body["result"]["valid"] is None


def test_mceliece_attack_requires_instance():
    assert run_cli(["mceliece", "attack"]) == 2


def test_verify_lemmas_small(tmp_path, capsys):
    rc = run_cli(["verify-lemmas", "--suite", "small", "--out", str(tmp_path)])
    assert rc == 0
    body = read_json(capsys)
    assert body["ok"] is True
    assert body["checks"] > 100
    assert all(v["failures"] == 0 for v in body["by_check"].values())


# SHA-256 of the `verify-lemmas --suite all` stdout
ALL_SUITE_DIGEST = "826fce71a68f6766fdf33b98dc143dbfa4eb51363f553d8bd4febc6a4d4ad46c"


def test_verify_lemmas_runs_the_whole_grid():
    # every lemma grid, the big wreath included, plus the distinguishability
    # suite; 5,042 checks is the count the lemma-grid benchmark pins
    rc, out = run_cli_captured(["verify-lemmas", "--suite", "all"])
    assert rc == 0
    body = json.loads(out)
    assert body["ok"] is True and body["checks"] == 5042
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_SUITE_DIGEST
    from cosetlab import suites
    records = suites.run_suite("big-wreath")
    assert records and not suites.failed(records)
    assert {r.group for r in records} == {"(GL2(F2)xS3)wrZ2"}


def test_a_failing_lemma_check_exits_1_with_json_records(monkeypatch):
    # no mean equals its rhs within a negative tolerance, so every Schur
    # record fails; np.bool_ or np.float64 fields would not serialize as these
    from cosetlab import suites
    monkeypatch.setattr(suites, "SCHUR_TOL", -1.0)
    rc, out = run_cli_captured(["verify-lemmas", "--suite", "small"])
    assert rc == 1
    body = json.loads(out)
    assert body["ok"] is False and body["failed"]
    assert {r["check"] for r in body["failed"]} >= {"schur-expectation"}
    for r in body["failed"]:
        assert type(r["lhs"]) is float and type(r["rhs"]) is float
        assert type(r["ok"]) is bool


def test_unknown_group_spec_exits_config_error():
    assert run_cli(["dist", "--group", "qq7", "--subgroup", "trivial"]) == 2


def test_unknown_subgroup_spec_exits_config_error():
    assert run_cli(["dist", "--group", "s3", "--subgroup", "nonsense"]) == 2


def test_unknown_suite_is_config_error():
    assert run_cli(["verify-lemmas", "--suite", "giant"]) == 2


def test_suite_choices_are_the_lemma_suites_dist_and_all():
    # the parser may not import suites, so its choices are written out
    from cosetlab import suites
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (suite,) = [a for a in sub.choices["verify-lemmas"]._actions if a.dest == "suite"]
    assert suite.choices == [*suites.LEMMA_SUITES, "dist", "all"]


def test_version_flag(capsys):
    rc = run_cli(["--version"])
    assert rc == 0
    assert capsys.readouterr().out.strip()


def run_cli_process(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "cosetlab.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )


def test_python_m_executes_the_cli_module_once():
    # the suites reach cli.parse_group_table by a relative import, which
    # finds the running __main__ rather than importing cosetlab.cli again
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cosetlab.cli", "verify-lemmas", "--suite", "small"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "cosetlab.suites" in imported and "cosetlab.cli" not in imported


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["mceliece", "gen", "--q", "6"], "--q"),
        (["dist", "--group", "s3", "--subgroup", "order-2", "--S", "nope"], "--S"),
        (["dist", "--group", "s3", "--subgroup", "order-2", "--mc-samples", "0"], "--mc-samples"),
        (["dist", "--group", "s3", "--subgroup", "order-2", "--mc-samples", "1"], "--mc-samples"),
        (
            ["dist", "--group", "gl2_3", "--subgroup", "unipotent", "--S", "linear", "--D", "1"],
            "--D",
        ),
        (["dist", "--group", "qq7", "--subgroup", "trivial"], "--group"),
        (["dist", "--group", "s3", "--subgroup", "bogus"], "--subgroup"),
        (["dist", "--group", "s3", "--subgroup", "[(19)]"], "--subgroup"),
        (["chartable", "wreath", "--base", "qq7"], "--base"),
        (["lambda-audit", "--n", "6", "--c", "zebra"], "--c"),
        (["roichman", "--n", "5", "--c", "1/0"], "--c"),
        (["mceliece", "attack", "--instance", "/nonexistent"], "--instance"),
        (["mceliece", "attack"], "--instance"),
        (["goppa", "aut", "--spec", "/nonexistent"], "--spec"),
        (["goppa", "aut"], "--spec"),
        (["goppa", "check", "--spec", str(SRC)], "--spec"),
        (["goppa", "build", "--q", "6"], "--q"),
        (["goppa", "build", "--q", "5", "--n", "4", "--r", "9"], "--r"),
        (["chartable", "gl2", "--q", "6"], "--q"),
        (["chartable", "sn", "--n", "0"], "--n"),
        (["dims", "sn", "--n", "-1"], "--n"),
        # over the enumeration cap (s7 and s8 now have products and tables)
        (["chartable", "wreath", "--base", "s9"], "--base"),
        # past the enumeration cap (these exited 1 naming no flag) and, for
        # gl2_11, past the GL2 group cap q <= 9
        (["dist", "--group", "wreath_s6", "--subgroup", "trivial"], "--group"),
        (
            ["dist", "--group", "wreath_gl2_5", "--subgroup", "trivial", "--mc-samples", "10"],
            "--group",
        ),
        (["dist", "--group", "gl2_11", "--subgroup", "trivial"], "--group"),
        # --n 0 raised an IndexError; the others exited 1
        (["lambda-audit", "--n", "0", "--c", "1/6"], "--n"),
        (["roichman", "--n", "0", "--c", "1/6"], "--n"),
        (["lambda-audit", "--n", "-3", "--c", "1/6"], "--n"),
        (["roichman", "--n", "-3", "--c", "1/6"], "--n"),
        (["lambda-audit", "--n", "6", "--c", "0"], "--c"),
        (["roichman", "--n", "6", "--c", "2"], "--c"),
        # over the partition and decay-report caps; these exited 1
        (["lambda-audit", "--n", "41", "--c", "1/6"], "--n"),
        (["roichman", "--n", "11", "--c", "1/6"], "--n"),
        # a wreath generator without its swap bit raised an IndexError, and
        # the third part of a product generator was dropped (exit 0)
        (
            ["dist", "--group", "wreath_s3", "--subgroup", str(DATA / "wreath_s3_two_part_generator.json")],
            "--subgroup",
        ),
        (
            ["dist", "--group", "gl2_2xs3", "--subgroup", str(DATA / "gl2_2xs3_three_part_generator.json")],
            "--subgroup",
        ),
        # infeasible shapes used to sample message matrices forever
        (["mceliece", "gen", "--k", "2", "--n", "3", "--min-rank", "3"], "--min-rank"),
        (["mceliece", "gen", "--k", "3", "--n", "2", "--min-rank", "3"], "--min-rank"),
        (["mceliece", "gen", "--k", "0"], "--k"),
        (["mceliece", "gen", "--n", "0"], "--n"),
        # cycle strings on groups that are not S_n raised an AttributeError
        (["dist", "--group", "gl2_3", "--subgroup", "[(12)]"], "--subgroup"),
        (["dist", "--group", "gl2_2xs3", "--subgroup", "[(12)]"], "--subgroup"),
        (["dist", "--group", "wreath_s3", "--subgroup", "[(12)]"], "--subgroup"),
        # |W| = 16,588,800 is past the attack cap (exit 1, no flag)
        (["mceliece", "attack", "--instance", str(DATA / "mceliece_q5_k2_n3.json")], "--instance"),
        # --S or --D alone recorded the flag and computed no bound (exit 0)
        (["dist", "--group", "gl2_3", "--subgroup", "unipotent", "--S", "linear"], "--D"),
        (["dist", "--group", "gl2_3", "--subgroup", "unipotent", "--D", "2"], "--S"),
        # a 745 GiB allocation (exit 1, MemoryError traceback)
        (["dist", "--group", "s3", "--subgroup", "order-2", "--mc-samples", "99999999999"], "--mc-samples"),
        # numpy refuses a negative seed (exit 1 naming no check)
        (["dist", "--group", "s3", "--subgroup", "order-2", "--mc-samples", "5", "--seed", "-1"], "--seed"),
        # these hung: trial division of a large prime, 10^12!, and a
        # 10^8 x 3 message matrix
        (["mceliece", "gen", "--q", str(2**61 - 1)], "--q"),
        (["chartable", "sn", "--n", str(10**12)], "--n"),
        (["mceliece", "gen", "--k", str(10**8)], "--k"),
        # an --out that is a file raised FileExistsError
        (["dims", "sn", "--n", "3", "--out", str(DATA / "mceliece_q2_k2_n5.json")], "--out"),
        # an instance whose q is not a prime power (exit 1, no flag)
        (["mceliece", "attack", "--instance", str(DATA / "mceliece_q6_k2_n5.json")], "--instance"),
        # the strict dimension bound 1^cn cannot hold at n = 1 (exit 1)
        (["lambda-audit", "--n", "1", "--c", "1/6"], "--n"),
        # full tables of p(n)^2 characters: n = 22 took 24.5 s, s26 did not finish
        (["chartable", "sn", "--n", "22"], "--n"),
        (["dist", "--group", "s26", "--subgroup", "trivial"], "--group"),
        # an --S item must be a whole label: a cut label, or a trailing comma
        (["dist", "--group", "s4", "--subgroup", "order-2", "--S", "(4", "--D", "2"], "--S"),
        (["dist", "--group", "s4", "--subgroup", "order-2", "--S", "(4,),", "--D", "2"], "--S"),
        # the GL2 group cap q <= 9 holds for a wreath base too (gl2_9 took 18 s)
        (["chartable", "wreath", "--base", "gl2_11"], "--base"),
    ],
)
def test_bad_inputs_are_config_errors(argv, flag):
    # these used to exit 1, with a traceback or with NaN in the report, or
    # (the spec errors) exit 2 with a plain line on stderr and no JSON
    assert_config_error(argv, flag)


@pytest.mark.parametrize("group, order", [("s16", 20922789888000), ("s9", 362880), ("wreath_s6", 1036800)])
def test_dist_refuses_a_group_past_the_sampling_cap_before_any_table(monkeypatch, group, order):
    # s16 built its 231 x 231 table (1.2 s) before this refusal; every
    # table, under any binding, is a CharacterTable
    monkeypatch.setattr(symrep, "sn_character_table", lambda n: pytest.fail("table built"))
    monkeypatch.setattr(CharacterTable, "__init__", lambda *a: pytest.fail("table built"))
    diag = assert_config_error(["dist", "--group", group, "--subgroup", "trivial"], "--group")
    assert diag["error"].endswith(f"| = {order} exceeds the sampling cap 200000")


def test_dist_on_a_product_with_a_factor_past_the_table_cap():
    # S7 multiplies by composing image arrays; this exited 1 with
    # "|S7| = 5040 exceeds the Cayley table cap 2048"
    rc, out = run_cli_captured(["dist", "--group", "s7xs2", "--subgroup", "cyclic", "--mc-samples", "20"])
    assert rc == 0
    report = json.loads(out)["report"]
    assert report["subgroup_order"] == 2 and report["mc_samples"] == 20


@pytest.mark.parametrize("group", ["wreath_s1", "wreath_s2"])
def test_dist_on_wreath_products_of_tiny_bases(group):
    # building the catalog raised IndexError (S1) or StopIteration (S2): the
    # K-type subgroups need a base element outside H0
    rc, out = run_cli_captured(["dist", "--group", group, "--subgroup", "order-2"])
    assert rc == 0 and json.loads(out)["report"]["subgroup_order"] == 2


def test_dist_with_two_mc_samples_writes_finite_json():
    rc, out = run_cli_captured(["dist", "--group", "s3", "--subgroup", "order-2", "--mc-samples", "2"])
    assert rc == 0
    assert "NaN" not in out and "Infinity" not in out
    assert json.loads(out)["report"]["mc_samples"] == 2


def test_dist_computes_distinguishability_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = sampling.distinguishability
    monkeypatch.setattr(
        sampling, "distinguishability", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    assert run_cli(["dist", "--group", "s3", "--subgroup", "order-2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    rows = (tmp_path / "dist_weak.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3 and rows[0].startswith("(3,),1,")


def test_subgroup_directory_is_config_error(tmp_path):
    # this used to exit 1 with an IsADirectoryError traceback; run as
    # `python -m cosetlab.cli`, it also covers the module's exit status
    proc = run_cli_process("dist", "--group", "s3", "--subgroup", str(tmp_path))
    assert proc.returncode == 2
    diag = json.loads(proc.stdout)
    assert diag["ok"] is False and diag["flag"] == "--subgroup"
    assert "directory" in diag["error"]
    assert "Traceback" not in proc.stderr


def test_goppa_check_outside_its_range_is_config_error(tmp_path):
    # r = 0 is a valid code but outside the check's range 1 <= r <= n-3;
    # this used to print a plain line on stderr
    assert run_cli_captured(
        ["goppa", "build", "--q", "5", "--gamma", "0,1,2,3", "--r", "0", "--out", str(tmp_path)]
    )[0] == 0
    diag = assert_config_error(["goppa", "check", "--spec", str(tmp_path / "goppa_build.json")], "--spec")
    assert "1 <= r <= n-3" in diag["error"]


@pytest.mark.parametrize(
    "argv, flag",
    [(["mceliece", "attack", "--instance"], "--instance"), (["goppa", "aut", "--spec"], "--spec")],
)
def test_json_file_of_the_wrong_shape_is_config_error(tmp_path, argv, flag):
    # valid JSON without the expected keys used to end in a KeyError traceback
    bad = tmp_path / "bad.json"
    bad.write_text('{"foo": 1}')
    assert_config_error([*argv, str(bad)], flag)


# ---- the exit-status contract, property-tested in-process ----

HOSTILE_INTS = st.sampled_from([-(2**63), -1, 0, 1, 2, 3, 5, 2**61 - 1, 10**12])
HOSTILE_TEXT = st.sampled_from(["", " ", "x", "-1", "0", "1e400", "nan", "1/0", "é"])
FRACTIONS = st.sampled_from(
    ["1/6", "1/5", "0", "1/4", "-1/6", "3", "1/0", "zebra", "nan", "1e400", ""]
)
GROUPS = st.sampled_from(
    ["s3", "gl2_2", "gl2_3", "s3xs2", "wreath_s2", "s0", "gl2_6", "qq7", "x", "wreath_", "s" + "9" * 12]
)
SUBGROUPS = st.sampled_from(
    ["trivial", "order-2", "unipotent", "cyclic", "[(12)]", "[(1,9)]", "[()]", "bogus"]
)
S_SPECS = st.sampled_from(["linear", "U0", "U0,U1", "(3,),(2, 1)", "W0,1", "nope"])
GAMMAS = st.sampled_from(["0,1,2,3", "0,1,2", "0,0,1", "0,1,99999999999", "a,b"])


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """Paths the grammar draws from: good files, missing paths, a directory,
    a regular file as --out, and JSON of the wrong shape."""
    root = tmp_path_factory.mktemp("contract")
    good = root / "good"
    for argv in (["mceliece", "gen", "--seed", "1"], ["goppa", "build", "--gamma", "0,1,2,3"]):
        assert run_cli_captured([*argv, "--out", str(good)])[0] == 0
    wrong = {
        "object.json": '{"foo": 1}',
        "list.json": "[]",
        "string.json": '"s"',
        "number.json": "3",
        "instance.json": '{"instance": {"q": 2}}',
        "spec.json": '{"spec": []}',
        "generators.json": '{"generators": 5}',
        "nested.json": '{"generators": [[1, [2]]]}',
        "empty.json": "",
        "text.json": "not json",
    }
    for name, text in wrong.items():
        (root / name).write_text(text)
    (root / "binary.json").write_bytes(b"\xff\xfe\x00")
    (root / "empty_generators.json").write_text('{"generators": []}')
    paths = [str(root / name) for name in [*wrong, "binary.json", "empty_generators.json"]]
    paths += [str(good / "mceliece_instance.json"), str(good / "goppa_build.json")]
    paths += [str(root / "missing.json"), str(root), str(DATA / "mceliece_q2_k2_n5.json")]
    return {"paths": paths, "outs": [str(root / "out"), str(root / "object.json")]}


def word(flag, values):
    """One --flag=value word, so that a value that starts with '-' is not
    read as an option."""
    return values.map(lambda v: [f"{flag}={v}"])


def opt(flag, values):
    return st.just([]) | word(flag, values)


def command_argv(paths, outs):
    path = st.sampled_from(paths)
    ints, text = HOSTILE_INTS, HOSTILE_TEXT
    commands = st.one_of(
        st.tuples(
            st.sampled_from([["chartable", kind] for kind in ("gl2", "sn", "wreath")]),
            opt("--q", ints), opt("--n", ints), opt("--base", GROUPS | text),
        ),
        st.tuples(st.just(["dims", "sn"]), word("--n", ints)),
        st.tuples(
            st.sampled_from([["lambda-audit"], ["roichman"]]),
            word("--n", ints), word("--c", FRACTIONS),
        ),
        st.tuples(
            st.just(["goppa", "build"]),
            opt("--q", ints), opt("--n", ints), opt("--r", ints), opt("--gamma", GAMMAS | text),
            opt("--g", text), opt("--h", text), opt("--spec", path),
        ),
        st.tuples(
            st.sampled_from([["goppa", "aut"], ["goppa", "check"]]), opt("--spec", path | text),
        ),
        st.tuples(
            st.just(["mceliece", "gen"]),
            opt("--q", ints), opt("--k", ints), opt("--n", ints), opt("--min-rank", ints),
        ),
        st.tuples(st.just(["mceliece", "attack"]), opt("--instance", path | text)),
        # dist draws valid groups and sample counts more often, to get past
        # the first refusal; --S and --D come together or not at all, but
        # either may be left out
        st.tuples(
            st.just(["dist"]),
            word("--group", st.sampled_from(["s3", "gl2_3"]) | GROUPS),
            word("--subgroup", SUBGROUPS | path | text),
            st.just([]) | st.tuples(opt("--S", S_SPECS | text), opt("--D", ints)).map(
                lambda t: t[0] + t[1]
            ),
            opt("--mc-samples", st.sampled_from([2, 20]) | ints),
        ),
        # "giant" is no suite: argparse's usage error
        st.tuples(word("--suite", st.sampled_from(["small", "dist", "giant"])).map(
            lambda w: ["verify-lemmas", *w]
        )),
    )
    common = st.tuples(opt("--seed", ints), opt("--out", st.sampled_from(outs)))
    return st.tuples(commands, common).map(
        lambda t: [w for part in (*t[0], *t[1]) for w in part]
    )


@pytest.fixture(scope="module")
def argv_strategy(contract_files):
    return command_argv(contract_files["paths"], contract_files["outs"])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_input_keeps_the_exit_status_contract(argv_strategy, data):
    # exit 0, exit 1 with a JSON report or diagnostic, or exit 2 with a JSON
    # diagnostic naming a flag; argparse's own usage errors (exit 2, usage on
    # stderr, nothing on stdout) are the one exit without JSON
    argv = data.draw(argv_strategy, label="argv")
    rc, out = run_cli_captured(argv)
    assert rc in (0, 1, 2)
    if rc == 2 and not out:
        return
    body = json.loads(out)
    assert body["ok"] is (rc == 0)
    if rc == 2:
        assert body["flag"].startswith("--") and body["error"]


def test_a_library_bug_is_not_a_config_error(monkeypatch):
    # only a ValueError is charged to a flag; a TypeError from table building
    # is a bug, and it escapes main instead of exiting 2
    def broken(q):
        raise TypeError("bug")

    monkeypatch.setattr(gl2rep, "char_table", broken)
    with pytest.raises(TypeError, match="bug"):
        main(["chartable", "gl2", "--q", "3"])


def test_commands_hold_no_error_handling():
    # main is the one error boundary: no cmd_* function catches anything
    tree = ast.parse((SRC / "cosetlab" / "cli.py").read_text())
    defs = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
    commands = [f for f in defs if f.name.startswith("cmd_")]
    assert commands
    for fn in commands:
        assert not [node for node in ast.walk(fn) if isinstance(node, ast.Try)], fn.name
    writers = {
        fn.name
        for fn in defs
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "stdout"
    }
    assert writers == {"main"}


IMPORT_PROBE = """
import contextlib, io, json, os, sys
from cosetlab import cli

WATCHED = {"numpy", "numpy.ma", "dataclasses", "fractions", "inspect"}

def loaded():
    return sorted(m for m in sys.modules if m in WATCHED or m.startswith("cosetlab."))

cli.build_parser()
seen = {"import": loaded()}
out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["mceliece", "gen", "--q", "3", "--out", out])
    seen["gen"] = loaded()
    cli.main(["mceliece", "attack", "--instance", os.path.join(out, "mceliece_instance.json")])
    seen["attack"] = loaded()
    cli.main(["verify-lemmas", "--suite", "gl2"])
    seen["lemmas"] = loaded()
print(json.dumps(seen))
"""


def test_each_command_imports_only_the_layers_it_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", *argv],
            capture_output=True, text=True, timeout=60, env=env, check=True,
        )
        return json.loads(proc.stdout)

    # a module that a bare interpreter already holds (a site .pth may load
    # one) is not charged to the command
    bare = set(run("import json, sys; print(json.dumps(list(sys.modules)))"))
    seen = {command: set(mods) - bare for command, mods in run(IMPORT_PROBE, str(tmp_path)).items()}
    # building the parser loads no layer, no numpy, and neither the records'
    # dataclasses (with inspect) nor the rate parser's fractions
    assert not seen["import"] - {"cosetlab.cli"}, seen["import"]
    assert not seen["gen"] & {"numpy", "dataclasses", "fractions"}, seen["gen"]
    assert "numpy" in seen["attack"]
    # the keyrec records are NamedTuples, and the attack's report reaches
    # no dataclass or Fraction in the encoder
    assert not seen["attack"] & {"dataclasses", "fractions"}, seen["attack"]
    # only the goppa command and the closed form for |H0| read the code layer
    for command in ("gen", "attack", "lemmas"):
        assert "cosetlab.goppa" not in seen[command], command
    # the attack builds K on ids and reads no character table
    for layer in ("chartab", "realize", "sampling", "suites", "symrep", "gl2rep"):
        assert f"cosetlab.{layer}" not in seen["attack"], layer
    # a plain np.unique imports numpy.ma; the lemma path runs without it
    assert "cosetlab.suites" in seen["lemmas"] and "numpy.ma" not in seen["lemmas"]


RSS_PROBE = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


# ru_maxrss is in KiB on Linux only (bytes on macOS, absent on Windows)
@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux-only")
def test_attack_peak_rss_stays_near_the_import_floor(tmp_path):
    # the attack's working memory is one scan chunk plus its labels, so the
    # process peaks within a few MiB of one that only imports its layers
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def peak_kib(*argv):
        # ru_maxrss of the probe's only child, in KiB
        proc = subprocess.run(
            [sys.executable, "-c", RSS_PROBE, sys.executable, *argv],
            capture_output=True, text=True, timeout=120, env=env, check=True,
        )
        return int(proc.stdout)

    run_cli_captured([
        "mceliece", "gen", "--q", "3", "--k", "2", "--n", "3", "--min-rank", "2",
        "--seed", "1", "--out", str(tmp_path),
    ])
    instance = str(tmp_path / "mceliece_instance.json")
    floor = peak_kib("-c", "import numpy, cosetlab.cli, cosetlab.hsp")
    used = peak_kib("-m", "cosetlab.cli", "mceliece", "attack", "--instance", instance,
                    "--out", str(tmp_path))
    assert used - floor <= 6 * 1024, (used, floor)


def _module_level_imports(name):
    """(module, imported name) for every import at the top level of a
    cosetlab module, with relative imports resolved to cosetlab.*."""
    tree = ast.parse((SRC / "cosetlab" / f"{name}.py").read_text())
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "cosetlab" + (f".{module}" if module else "")
            out += [(module, alias.name) for alias in node.names]
    return out


# the layers that load no numpy, so `goppa` and `mceliece gen` never do
NUMPY_FREE = ("cli", "fields", "goppa", "mceliece")
# the layers `mceliece gen` and `mceliece attack` load
KEYREC = ("fields", "mceliece", "groups", "hsp", "wreathrep")


def test_numpy_free_layers_import_only_the_stdlib_and_each_other():
    # a start-up gain from importing inside commands comes back one
    # module-level import at a time; this catches the first one
    for name in NUMPY_FREE:
        for module, attr in _module_level_imports(name):
            if module == "cosetlab" and attr != "__version__":
                module = f"cosetlab.{attr}"
            if module.startswith("cosetlab."):
                assert module.split(".")[1] in NUMPY_FREE, (name, module)
            else:
                top = module.split(".")[0]
                assert top == "cosetlab" or top in sys.stdlib_module_names, (name, module)


def test_keyrec_layers_import_no_more_than_they_run():
    # a start-up gain comes back one module-level import at a time: the
    # parser needs only the stdlib, the keyrec records are NamedTuples, and
    # the attack builds K without the character-table layers
    for module, attr in _module_level_imports("cli"):
        if module.split(".")[0] == "cosetlab":
            assert (module, attr) == ("cosetlab", "__version__"), module
        else:
            assert module.split(".")[0] in sys.stdlib_module_names, module
    for name in KEYREC:
        for module, _ in _module_level_imports(name):
            assert module not in ("dataclasses", "fractions"), (name, module)
    for module, attr in _module_level_imports("wreathrep"):
        assert {module, f"{module}.{attr}"}.isdisjoint(
            {"cosetlab.chartab", "cosetlab.realize"}
        ), module
