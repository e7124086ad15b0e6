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


def test_compile_parse_error_exit_2(params_file, tmp_path, capsys):
    res = run("compile", "x1 = = 2", "--params", str(params_file),
              "--out-dir", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "parse error" in res.stderr
    # so is a dimension below 2: argparse's usage, then one error line
    from normlogic.cli import main
    assert main(["compile", "x1 = 1", "-d", "1", "--params",
                 str(params_file), "--out-dir", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.endswith("normlogic compile: error: argument --dimension/-d: "
                        "need a dimension of at least 2, got 1\n")
    assert "Traceback" not in err
    # so are a numeral and a variable index past Python's limit on the
    # digits of a decimal string (4,300 by default), at their token
    ones = "1" * 5000
    for formula, what in ((f"{ones} = x1", "numeral"),
                          (f"x{ones} = 1", "variable index")):
        assert main(["compile", formula, "--params", str(params_file),
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == \
            f"parse error: {what} too long (5000 digits) (at offset 0)\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text", ["(= a 1/0)", "(veq (vscale 0/0 v) w)"],
                         ids=["constant", "coefficient"])
def test_eval_zero_denominator_exit_2(params_file, tmp_path, text):
    f = tmp_path / "f.lnp"
    f.write_text(text)
    res = run("eval", str(f), "--params", str(params_file),
              "--assignment", "canonical")
    assert res.returncode == 2
    assert "parse error: zero denominator" in res.stderr


def test_eval_long_numeral_exit_2(params_file, tmp_path, capsys):
    # a constant past Python's limit on the digits of a decimal string
    from normlogic.cli import main
    f = tmp_path / "long.lnp"
    f.write_text("(forall ((v vec)) (<= (norm v) " + "1" * 5000 + "))")
    assert main(["eval", str(f), "--params", str(params_file),
                 "--search", "10"]) == 2
    assert capsys.readouterr().err == \
        "parse error: number too long (5000 characters) (at offset 31)\n"


@pytest.mark.parametrize("which, content", [
    ("sentence", None), ("sentence", b"(= a \xff b)"),
    ("params", None), ("params", b"\xff{}"),
    ("assignment", None), ("assignment", b'{"a": \xff}'),
], ids=["missing-sentence", "non-utf8-sentence", "missing-params",
        "non-utf8-params", "missing-assignment", "non-utf8-assignment"])
def test_eval_unreadable_file_exit_2(params_file, tmp_path, which, content):
    files = {"sentence": tmp_path / "f.lnp", "params": params_file,
             "assignment": "canonical"}
    files["sentence"].write_text("(= a a)")
    bad = files[which] = tmp_path / f"bad-{which}"
    if content is not None:
        bad.write_bytes(content)
    res = run("eval", str(files["sentence"]), "--params",
              str(files["params"]), "--assignment", str(files["assignment"]))
    assert res.returncode == 2
    assert res.stderr.splitlines() == [
        f"error: cannot read {bad}: " + ("No such file or directory"
                                  if content is None else
                                  f"not UTF-8 text (byte 0xff at offset "
                                  f"{content.index(0xff)})")]


_NOT_JSON = ("not JSON (Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1))")
_NOT_NUMBERS = "'v' is not a number or a list of numbers"


@pytest.mark.parametrize("which, content, reason", [
    pytest.param(which, content, reason, id=f"{which}-{case}")
    for which in ("config", "params", "assignment")
    for case, content, reason in [
        ("missing", None, "No such file or directory"),
        ("malformed", "{", _NOT_JSON),
        # past Python's stack: json.loads raised RecursionError
        ("deep", "[" * 100_000, "JSON nested too deep")]
] + [
    pytest.param("params", '{"schema": 1}',
                 "not a params document (no key 'M')",
                 id="params-missing-key"),
    pytest.param("params", "[1, 2]",
                 "not a params document (expected a JSON object)",
                 id="params-not-an-object"),
    pytest.param("params", '{"schema": 1, "M": [1]}',
                 "not a params document (int() argument must be a string, "
                 "a bytes-like object or a real number, not 'list')",
                 id="params-wrong-type"),
    pytest.param("params", '{"schema": 1, "M": 1.5}',
                 "not a params document (need an integer M of at least 1, "
                 "got 1.5)",
                 id="params-fractional-m"),
    # construct's output with the top-level M edited
    pytest.param("params", lambda text: text.replace('"M": 1,', '"M": 2,'),
                 "not a params document (M is 2 but the gamma_graph piece "
                 "has M 1)",
                 id="params-m-differs-from-curve"),
    pytest.param("assignment", "[1, 2]", "not a JSON object",
                 id="assignment-not-an-object"),
    pytest.param("assignment", '{"v": "ab"}', _NOT_NUMBERS,
                 id="assignment-string"),
    pytest.param("assignment", '{"v": [1, true]}', _NOT_NUMBERS,
                 id="assignment-bool"),
])
def test_unreadable_json_input_exit_2(params_file, tmp_path, capsys, which,
                                      content, reason):
    from normlogic.cli import main
    bad = tmp_path / f"bad-{which}.json"
    if callable(content):
        content = content(params_file.read_text())
    if content is not None:
        bad.write_text(content)
    sentence = tmp_path / "f.lnp"
    sentence.write_text("(= a a)")
    argv = {
        "config": ["construct", "--config", str(bad), "--out",
                   str(tmp_path / "p.json")],
        "params": ["eval", str(sentence), "--params", str(bad),
                   "--assignment", "canonical"],
        "assignment": ["eval", str(sentence), "--params", str(params_file),
                       "--assignment", str(bad)],
    }[which]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot read {bad}: {reason}\n"
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("raw, reason", [
    ({"bogus": 1}, "unknown config keys: ['bogus']"),
    ({"sampleBudget": 0}, "sampleBudget must be at least 1, got 0"),
    ({"rGridStep": "1/0"}, "Fraction(1, 0)"),
    ([1], "expected a JSON object"),
    ({"M": 1.5}, "need an integer M of at least 1, got 1.5"),
    ({"M": True}, "need an integer M of at least 1, got True"),
    ({"M": "a"}, "need an integer M of at least 1, got 'a'"),
    ({"M": 0}, "need an integer M of at least 1, got 0"),
    ({"rGridStep": "0"}, "need a radius step greater than 0, got '0'"),
    ({"rGridStep": "-1/64"},
     "need a radius step greater than 0, got '-1/64'"),
    # int() would have read these as 1, 1 and 2
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"sampleBudget": 2.5}, "sampleBudget must be an integer, got 2.5"),
    ({"sampleBudget": "100"}, "sampleBudget must be an integer, got '100'"),
], ids=["unknown-key", "zero-budget", "zero-denominator", "not-an-object",
        "fractional-m", "bool-m", "string-m", "zero-m", "zero-step",
        "negative-step", "fractional-seed", "bool-seed", "fractional-budget",
        "string-budget"])
def test_bad_config_exit_2(tmp_path, capsys, raw, reason):
    from normlogic.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["verify", "--suite", "construction", "--config",
                 str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg}: ") and reason in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag, value, reason", [
    ("--q", "1/0", "Fraction(1, 0)"),
    ("--q", "abc", "Invalid literal for Fraction: 'abc'"),
    ("--r-step", "0", "need a radius step greater than 0, got '0'"),
    ("--m", "0", "need an integer M of at least 1, got '0'"),
    ("--m", "-3", "need an integer M of at least 1, got '-3'"),
], ids=["q-zero-denominator", "q-not-rational", "zero-step", "zero-m",
        "negative-m"])
def test_construct_bad_flag_exit_2(tmp_path, capsys, flag, value, reason):
    # argparse's usage, then one error line; nothing is built or written
    from normlogic.cli import main
    out = tmp_path / "p.json"
    assert main(["construct", f"{flag}={value}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"normlogic construct: error: argument {flag}: "
                        f"{reason}\n")
    assert len([line for line in err.splitlines() if "error" in line]) == 1
    assert "Traceback" not in err and not out.exists()


def test_eval_deep_nesting_exit_2(params_file, tmp_path, capsys):
    from normlogic.cli import main
    f = tmp_path / "deep.lnp"
    f.write_text("(not " * 2999 + "(= a b)" + ")" * 2999)
    code = main(["eval", str(f), "--params", str(params_file),
                 "--assignment", "canonical"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: nesting too deep")
    assert len(err.splitlines()) == 1


#: levels -> a sentence nesting that many nodes deep, true when a = b = 0
#: and v = w = 0v, so every level is evaluated
_CHAINS = {
    "not": lambda n: "(not " * (n - 1) + ("(= a b)" if n % 2 else "(< a b)")
    + ")" * (n - 1),
    "and": lambda n: "(and " * (n - 1) + "(= a b)" + " (= b a))" * (n - 1),
    "implies": lambda n: "(=> (= a b) " * (n - 1) + "(= a b)" + ")" * (n - 1),
    "sadd": lambda n: "(= " + "(+ " * (n - 1) + "a" + " b)" * (n - 1) + " a)",
    "vneg": lambda n: "(veq " + "(vneg " * (n - 1) + "v" + ")" * (n - 1)
    + " w)",
    "vadd": lambda n: "(= (norm " + "(vadd " * (n - 2) + "v" + " w)" * (n - 2)
    + ") a)",
}


@pytest.mark.parametrize("mode", ["assignment", "search"])
@pytest.mark.parametrize("chain", list(_CHAINS))
def test_eval_at_max_depth(params_file, tmp_path, capsys, chain, mode):
    # the deepest sentence the parser takes is evaluated in full, with
    # room to spare under the default recursion limit
    from normlogic.cli import main
    from normlogic.logic.sexpr import MAX_DEPTH
    f = tmp_path / "deep.lnp"
    if mode == "assignment":
        text = _CHAINS[chain](MAX_DEPTH)
        zeros = tmp_path / "zeros.json"
        zeros.write_text('{"a": 0, "b": 0, "v": [0, 0], "w": [0, 0]}')
        args = ["--assignment", str(zeros)]
        expect = "true"
    else:
        text = _CHAINS[chain](MAX_DEPTH - 1)
        text = f"(forall ((a scalar) (b scalar) (v vec) (w vec)) {text})"
        args = ["--search", "50"]
        expect = None
    f.write_text(text)
    assert sys.getrecursionlimit() == 1000
    code = main(["eval", str(f), "--params", str(params_file)] + args)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    if expect:
        assert out == expect + "\n"


def _sum_of_ones(terms):
    return "+".join(["1"] * terms) + " = x1"


def test_compile_writes_only_what_eval_reads(params_file, tmp_path, capsys):
    # B of a sum of n terms nests n + 3 deep: MAX_DEPTH - 3 terms make the
    # deepest B a sentence file may hold, one more term is refused
    from normlogic.cli import main
    from normlogic.logic import parse_sentence
    from normlogic.logic.sexpr import MAX_DEPTH, nesting_depth
    ok, big = tmp_path / "ok", tmp_path / "big"
    assert main(["compile", _sum_of_ones(MAX_DEPTH - 3), "--params",
                 str(params_file), "--out-dir", str(ok)]) == 0
    b = ok / "B.lnp"
    assert nesting_depth(parse_sentence(b.read_text())) == MAX_DEPTH
    capsys.readouterr()
    assert main(["eval", str(b), "--params", str(params_file),
                 "--search", "20"]) == 0
    assert capsys.readouterr().out.startswith("HoldsOnSamples")
    assert main(["compile", _sum_of_ones(MAX_DEPTH - 2), "--params",
                 str(params_file), "--out-dir", str(big)]) == 2
    assert capsys.readouterr().err == (
        f"error: formula too large: B would nest {MAX_DEPTH + 1} nodes "
        f"deep, and eval reads at most {MAX_DEPTH}\n")
    assert not big.exists()


@pytest.mark.parametrize("formula, error", [
    (_sum_of_ones(1600), "parse error: nesting too deep (1600 operators, "
                         "more than 400) (at offset 0)"),
    ("(" * 400 + "x1 = 2" + ")" * 400, "parse error: parentheses nest too "
                                       "deep (more than 200 levels) (at "
                                       "offset 200)"),
    (" and ".join(["x1*x1 = x1"] * 300), "error: formula too large: B would "
                                         "nest 903 nodes deep, and eval "
                                         "reads at most 400"),
], ids=["sum", "parentheses", "products"])
def test_compile_deep_formula_exit_2(params_file, tmp_path, capsys, formula,
                                     error):
    # each overflowed the stack before the depth check could refuse it
    from normlogic.cli import main
    out = tmp_path / "out"
    assert main(["compile", formula, "--params", str(params_file),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == error + "\n"
    assert not out.exists()


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


def test_eval_search_counterexample_is_pinned(params_file, tmp_path):
    # the sampler's stream, block draws included, decides this output to
    # the last digit
    f = tmp_path / "f.lnp"
    f.write_text("(forall ((v vec) (s scalar)) "
                 "(=> (<= s 1) (<= (norm v) 2)))")
    res = run("eval", str(f), "--params", str(params_file),
              "--search", "500", "--seed", "3")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "Counterexample",
        "  s = -2.043600361426313",
        "  v = (-2.9091195760036346, 1.6634080885662783)"]


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
