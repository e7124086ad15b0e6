"""CLI integration: exit codes, file determinism, report reproducibility."""

import json
import os
import subprocess
import sys

import pytest

import normlogic

PY = [sys.executable, "-m", "normlogic.cli"]
# the directory holding the imported package, so the subprocesses run the
# same normlogic as this test process, installed or not
SRC = os.path.dirname(os.path.dirname(os.path.abspath(normlogic.__file__)))


def run(*args, env=None, **kw):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return subprocess.run(PY + list(args), capture_output=True, text=True,
                          env=env, **kw)


@pytest.fixture(scope="module")
def params_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "params.json"
    res = run("construct", "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


def test_construct_deterministic(params_file, tmp_path):
    other = tmp_path / "params2.json"
    res = run("construct", "--out", str(other))
    assert res.returncode == 0
    assert other.read_bytes() == params_file.read_bytes()


def test_construct_impossible_q_fails():
    res = run("construct", "--q", "1/2", "--out", "/tmp/never.json")
    assert res.returncode == 1
    assert "q" in res.stderr


def test_compile_writes_sentences_and_manifest(params_file, tmp_path):
    out = tmp_path / "sent"
    res = run("compile", "x1*x1 = 2", "--params", str(params_file),
              "--out-dir", str(out))
    assert res.returncode == 0, res.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["m"] == 1 and manifest["k"] == 1
    assert manifest["shape_ok"] is True
    assert (out / "A.lnp").exists() and (out / "B.lnp").exists()
    assert "params_hash" in manifest


def test_compile_dimension_three(params_file, tmp_path):
    out = tmp_path / "sent3"
    res = run("compile", "x1*x1 = 2", "-d", "3", "--params",
              str(params_file), "--out-dir", str(out))
    assert res.returncode == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (out / manifest["files"]["A_prime"]).exists()
    assert (out / manifest["files"]["B_prime"]).exists()


def test_compile_parse_error_exit_2(params_file, tmp_path):
    res = run("compile", "x1 = = 2", "--params", str(params_file),
              "--out-dir", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "parse error" in res.stderr


@pytest.mark.parametrize("text", ["(= a 1/0)", "(veq (vscale 0/0 v) w)"],
                         ids=["constant", "coefficient"])
def test_eval_zero_denominator_exit_2(params_file, tmp_path, text):
    f = tmp_path / "f.lnp"
    f.write_text(text)
    res = run("eval", str(f), "--params", str(params_file),
              "--assignment", "canonical")
    assert res.returncode == 2
    assert "parse error: zero denominator" in res.stderr


def test_compile_deterministic_bytes(params_file, tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        res = run("compile", "x1*x2 = 6", "--params", str(params_file),
                  "--out-dir", str(d))
        assert res.returncode == 0
    for name in ("A.lnp", "B.lnp", "manifest.json"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_eval_pw_canonical_true(params_file, tmp_path):
    out = tmp_path / "sent"
    run("compile", "x1 = 2", "--params", str(params_file),
        "--out-dir", str(out))
    res = run("eval", str(out / "pW.lnp"), "--params", str(params_file),
              "--assignment", "canonical")
    assert res.returncode == 0
    assert res.stdout.strip() == "true"


def test_eval_search_counterexample(params_file, tmp_path):
    bad = tmp_path / "bad.lnp"
    bad.write_text("(forall ((v vec)) (= (norm v) 1))")
    res = run("eval", str(bad), "--params", str(params_file),
              "--search", "2000")
    assert res.returncode == 0
    assert "Counterexample" in res.stdout


def test_eval_search_holds(params_file, tmp_path):
    good = tmp_path / "good.lnp"
    good.write_text("(forall ((v vec)) (<= 0 (norm v)))")
    res = run("eval", str(good), "--params", str(params_file),
              "--search", "500")
    assert res.returncode == 0
    assert "HoldsOnSamples" in res.stdout


def test_eval_search_compiled_sentence(params_file, tmp_path):
    out = tmp_path / "sent"
    run("compile", "x1 = 2", "--params", str(params_file),
        "--out-dir", str(out))
    res = run("eval", str(out / "A.lnp"), "--params", str(params_file),
              "--search", "2000")
    assert res.returncode == 0
    assert "HoldsOnSamples" in res.stdout


def test_eval_search_reports_vacuous_depth(params_file, tmp_path):
    out = tmp_path / "sent"
    run("compile", "x1 = 2", "--params", str(params_file),
        "--out-dir", str(out))
    res = run("eval", str(out / "B.lnp"), "--params", str(params_file),
              "--search", "1000")
    assert res.returncode == 0
    assert res.stdout.splitlines() == [
        "HoldsOnSamples (tried 1000)",
        # the stock sampler never gets past the five-point conjunct
        "antecedent depth (of 3 conjuncts): 0:1000 vacuous"]


def test_eval_search_depth_line_without_vacuity(params_file, tmp_path):
    f = tmp_path / "f.lnp"
    f.write_text("(forall ((v vec)) (=> (<= (norm v) 2) (<= 0 (norm v))))")
    res = run("eval", str(f), "--params", str(params_file), "--search", "300")
    assert res.returncode == 0
    first, second = res.stdout.splitlines()
    assert first == "HoldsOnSamples (tried 300)"
    assert second.startswith("antecedent depth (of 1 conjuncts): 0:")
    assert " 1:" in second and "vacuous" not in second


@pytest.mark.parametrize("flags", [
    ["--search", "0"], ["--search", "-5"],
    ["--search", "10", "--tol", "-1e-6"], ["--search", "10", "--tol", "nan"],
    ["--search", "10", "--tol", "inf"], ["--assignment", "canonical",
                                         "--tol", "-1"],
])
def test_eval_rejects_bad_budget_and_tolerance(params_file, tmp_path, flags):
    good = tmp_path / "good.lnp"
    good.write_text("(forall ((v vec)) (<= 0 (norm v)))")
    res = run("eval", str(good), "--params", str(params_file), *flags)
    assert res.returncode == 2
    assert "HoldsOnSamples" not in res.stdout


def test_env_var_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qCandidates": ["1/2"]}))
    res = run("construct", "--out", str(tmp_path / "p.json"),
              env={"NORMLOGIC_CONFIG": str(cfg)})
    assert res.returncode == 1
    assert "q" in res.stderr


def test_eval_missing_assignment_variable(params_file, tmp_path):
    f = tmp_path / "f.lnp"
    f.write_text("(= (norm q7) 1)")
    res = run("eval", str(f), "--params", str(params_file),
              "--assignment", "canonical")
    assert res.returncode == 2


def test_dump_boundary(params_file):
    res = run("eval", "--params", str(params_file), "--dump-boundary", "16")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 16
    x, y = map(float, lines[0].split())
    assert (x, y) == (1.0, 0.0)


def test_verify_single_suite_exit_zero_and_reproducible(params_file,
                                                        tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    res1 = run("verify", "--suite", "construction", "--seed", "7",
               "--report", str(r1))
    res2 = run("verify", "--suite", "construction", "--seed", "7",
               "--report", str(r2))
    assert res1.returncode == 0 and res2.returncode == 0
    assert r1.read_bytes() == r2.read_bytes()
    payload = json.loads(r1.read_text())
    assert payload[0]["schema"] == 1
    assert all(c["status"] == "pass" for c in payload[0]["cases"])


def test_verify_unknown_suite_exit_2():
    res = run("verify", "--suite", "nope")
    assert res.returncode == 2


def test_verify_construction_failure_exit_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qCandidates": ["1/2"]}))
    res = run("verify", "--suite", "construction", "--config", str(cfg))
    assert res.returncode == 1
