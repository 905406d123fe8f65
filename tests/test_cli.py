from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cosetlab import sampling
from cosetlab.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"


def run_cli(argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)


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


def test_dist_with_linear_small_set(capsys):
    rc = run_cli(["dist", "--group", "gl2_3", "--subgroup", "unipotent", "--S", "linear", "--D", "2"])
    assert rc == 0
    body = read_json(capsys)
    assert body["ok"] is True
    bound = body["report"]["bound"]
    assert bound["S"] == ["U0", "U1"]
    assert body["report"]["distinguishability"] <= bound["value"]


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


def test_mceliece_attack_requires_instance():
    assert run_cli(["mceliece", "attack"]) == 2


def test_verify_lemmas_small(tmp_path, capsys):
    rc = run_cli(["verify-lemmas", "--suite", "small", "--out", str(tmp_path)])
    assert rc == 0
    body = read_json(capsys)
    assert body["ok"] is True
    assert body["checks"] > 100
    assert all(v["failures"] == 0 for v in body["by_check"].values())


def test_unknown_group_spec_exits_config_error():
    assert run_cli(["dist", "--group", "qq7", "--subgroup", "trivial"]) == 2


def test_unknown_subgroup_spec_exits_config_error():
    assert run_cli(["dist", "--group", "s3", "--subgroup", "nonsense"]) == 2


def test_unknown_suite_is_config_error():
    assert run_cli(["verify-lemmas", "--suite", "giant"]) == 2


def test_version_flag(capsys):
    rc = run_cli(["--version"])
    assert rc == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--k", "2", "--n", "3", "--min-rank", "3"], "--min-rank"),
        (["--k", "3", "--n", "2", "--min-rank", "3"], "--min-rank"),
        (["--k", "0"], "--k"),
        (["--n", "0"], "--n"),
    ],
)
def test_mceliece_gen_rejects_infeasible_shape(flags, flag):
    # these inputs used to sample message matrices forever
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "cosetlab.cli", "mceliece", "gen", *flags],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2
    diag = json.loads(proc.stdout)
    assert diag["ok"] is False and diag["flag"] == flag
    assert "Traceback" not in proc.stderr


def run_cli_process(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "cosetlab.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )


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
        # gl2_8, past the Cayley table cap that its realization needs
        (["dist", "--group", "wreath_s6", "--subgroup", "trivial"], "--group"),
        (
            ["dist", "--group", "wreath_gl2_5", "--subgroup", "trivial", "--mc-samples", "10"],
            "--group",
        ),
        (["dist", "--group", "gl2_8", "--subgroup", "trivial"], "--group"),
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
    ],
)
def test_bad_inputs_are_config_errors(argv, flag):
    # these used to exit 1, with a traceback or with NaN in the report, or
    # (the spec errors) exit 2 with a plain line on stderr and no JSON
    proc = run_cli_process(*argv)
    assert proc.returncode == 2
    diag = json.loads(proc.stdout)
    assert diag["ok"] is False and diag["flag"] == flag
    assert "Traceback" not in proc.stderr


def test_dist_on_a_product_with_a_factor_past_the_table_cap():
    # S7 multiplies by composing image arrays; this exited 1 with
    # "|S7| = 5040 exceeds the Cayley table cap 2048"
    proc = run_cli_process("dist", "--group", "s7xs2", "--subgroup", "cyclic", "--mc-samples", "20")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)["report"]
    assert report["subgroup_order"] == 2 and report["mc_samples"] == 20


def test_dist_with_two_mc_samples_writes_finite_json():
    proc = run_cli_process("dist", "--group", "s3", "--subgroup", "order-2", "--mc-samples", "2")
    assert proc.returncode == 0
    assert "NaN" not in proc.stdout and "Infinity" not in proc.stdout
    assert json.loads(proc.stdout)["report"]["mc_samples"] == 2


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
    # this used to exit 1 with an IsADirectoryError traceback
    proc = run_cli_process("dist", "--group", "s3", "--subgroup", str(tmp_path))
    assert proc.returncode == 2
    diag = json.loads(proc.stdout)
    assert diag["ok"] is False and diag["flag"] == "--subgroup"
    assert "directory" in diag["error"]
    assert "Traceback" not in proc.stderr


def test_goppa_check_outside_its_range_is_config_error(tmp_path):
    # r = 0 is a valid code but outside the check's range 1 <= r <= n-3;
    # this used to print a plain line on stderr
    assert run_cli_process(
        "goppa", "build", "--q", "5", "--gamma", "0,1,2,3", "--r", "0", "--out", str(tmp_path)
    ).returncode == 0
    proc = run_cli_process("goppa", "check", "--spec", str(tmp_path / "goppa_build.json"))
    assert proc.returncode == 2
    diag = json.loads(proc.stdout)
    assert diag["ok"] is False and diag["flag"] == "--spec"
    assert "1 <= r <= n-3" in diag["error"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, flag",
    [(["mceliece", "attack", "--instance"], "--instance"), (["goppa", "aut", "--spec"], "--spec")],
)
def test_json_file_of_the_wrong_shape_is_config_error(tmp_path, argv, flag):
    # valid JSON without the expected keys used to end in a KeyError traceback
    bad = tmp_path / "bad.json"
    bad.write_text('{"foo": 1}')
    proc = run_cli_process(*argv, str(bad))
    assert proc.returncode == 2
    diag = json.loads(proc.stdout)
    assert diag["ok"] is False and diag["flag"] == flag
    assert "Traceback" not in proc.stderr
