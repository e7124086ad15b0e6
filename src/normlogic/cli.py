"""Command-line interface: construct | compile | eval | verify.

Exit codes: 0 success / all suites pass, 1 run or suite failure, 2 usage or
parse errors.  A config file can be supplied with --config or the
NORMLOGIC_CONFIG environment variable; flags override its fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .config import (load_config, parse_m, parse_q_candidates, parse_r_step,
                     read_input)
from .errors import (ConstructionFailed, FormulaTooLarge, InputError,
                     NormLogicError, ParseError)
from .geometry import (construct_l1, params_from_json, params_hash,
                       params_to_json, summarize)
from .logic import (Counterexample, Sampler, VVar, eval_bounded, eval_qf,
                    free_vars, is_quantifier_free, mk_Def, mk_pG, mk_pMult,
                    mk_pN, mk_pNNMult, mk_pOK, mk_pPar, mk_pPi, mk_pSD,
                    mk_pSIN, mk_pW, mk_Periodic, pair_var, parse_sentence,
                    print_sentence)
from .logic.evaluate import strip_universal_prefix
from .reduction import (canonical_assignment, compile_formula, macro_env,
                        parse_arith)
from .verify import (SUITES, SuiteContext, format_table, report_to_json,
                     run_suite)


def _load_params(path: str):
    try:
        return read_input(path, lambda text: (*params_from_json(text),
                                              params_hash(text)))
    except InputError:
        raise  # not readable as JSON text; read_input said why
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        # a document of the wrong shape: a missing key, not an object, a
        # field of the wrong type or value, or pieces that trace no boundary
        reason = f"no key {exc}" if isinstance(exc, KeyError) else exc
        raise InputError(f"cannot read {path}: not a params document "
                         f"({reason})") from None


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def cmd_construct(args) -> int:
    config = load_config(args.config).override(
        m=args.m, q_candidates=args.q, r_grid_step=args.r_step)
    try:
        params, space = construct_l1(config=config)
    except ConstructionFailed as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    text = params_to_json(params, space.boundary)
    out = Path(args.out)
    _write(out, text)
    sys.stdout.write(summarize(params))
    print(f"params -> {out} (hash {params_hash(text)})")
    return 0


def _formula_library(env):
    """Named reusable formulas with documented free variables."""
    s, t, u = pair_var("S"), pair_var("T"), pair_var("U")
    u1, u2, u3 = pair_var("U1"), pair_var("U2"), pair_var("U3")
    a, x = pair_var("A"), pair_var("X")
    return {
        "pSD": mk_pSD(VVar("v"), VVar("w")),
        "pPar": mk_pPar(VVar("v"), VVar("w")),
        "pOK": mk_pOK(s),
        "pW": mk_pW(VVar("p1"), VVar("p2"), VVar("u1"), VVar("u2"),
                    VVar("u3"), env),
        "Def": mk_Def(),
        "pNNMult": mk_pNNMult(s, t, u),
        "pMult": mk_pMult(s, t, u),
        "pG": mk_pG(s, t, u1),
        "pSIN": mk_pSIN(s, t, u1, u2, env),
        "Periodic": mk_Periodic(a, s, t, pair_var("V1"), pair_var("V2"),
                                pair_var("V3"), pair_var("V4"),
                                pair_var("V5"), env),
        "pN": mk_pN(x, u1, u2, u3, a, env),
        "pPi": mk_pPi(x, u1, u2, env),
    }


def cmd_compile(args) -> int:
    q = parse_arith(args.formula)
    params, _, phash = _load_params(args.params)
    out = compile_formula(q, args.dimension, params)
    sentences = {"A": out.a, "B": out.b}
    if out.a_prime is not None:
        sentences["A_prime"] = out.a_prime
        sentences["B_prime"] = out.b_prime
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, formula in sentences.items():
        fname = f"{name}.lnp"
        _write(out_dir / fname, print_sentence(formula) + "\n")
        files[name] = fname
    for name, formula in _formula_library(macro_env(params)).items():
        fname = f"{name}.lnp"
        _write(out_dir / fname, print_sentence(formula) + "\n")
        files[name] = fname
    manifest = {"schema": 1, **out.manifest, "files": files,
                "params_hash": phash}
    _write(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    print(f"m={out.m} k={out.k} dimension={out.dimension} "
          f"shape_ok={out.shape_ok}")
    print(f"sentences -> {out_dir}")
    return 0


def _canonical_assignment(params):
    a = canonical_assignment(params)
    # five-point arguments under their library names
    a.update({"p1": a["e1"], "p2": a["e2"], "u1": a["w1"], "u2": a["w2"],
              "u3": a["w3"]})
    # the circle-constant pair under the library's argument name
    a.update({"X.1": a["A.1"], "X.2": a["A.2"]})
    return a


def _load_assignment(spec: str, params):
    if spec == "canonical":
        return _canonical_assignment(params)
    raw = read_input(spec)
    if not isinstance(raw, dict):
        raise InputError(f"cannot read {spec}: not a JSON object")
    out = {}
    for name, value in raw.items():
        if _is_number(value):
            out[name] = float(value)
        elif isinstance(value, list) and all(map(_is_number, value)):
            out[name] = tuple(float(c) for c in value)
        else:
            raise InputError(f"cannot read {spec}: {name!r} is not a "
                             f"number or a list of numbers")
    return out


def _is_number(value) -> bool:
    # JSON true and false load as bools, which are ints to Python
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _depth_line(depths) -> str:
    """The antecedent-depth histogram of a search that held: how many
    samples passed d top-level antecedent conjuncts, for each d reached."""
    counts = " ".join(f"{d}:{n}" for d, n in enumerate(depths) if n)
    line = f"antecedent depth (of {len(depths) - 1} conjuncts): {counts}"
    if len(depths) > 1 and depths[0] == sum(depths):
        line += " vacuous"  # no sample reached the consequent
    return line


def cmd_eval(args) -> int:
    params, space, _ = _load_params(args.params)
    if args.dump_boundary:
        n = args.dump_boundary
        for i in range(n):
            theta = 2.0 * math.pi * i / n
            p = space.unit_point(theta)
            print(f"{p.x!r} {p.y!r}")
        return 0
    if args.sentence is None:
        print("need a sentence file (or --dump-boundary)", file=sys.stderr)
        return 2
    sentence = parse_sentence(read_input(args.sentence, str))
    if args.search is not None:
        sampler = Sampler(space, seed=args.seed,
                          special_vectors=[params.w1, params.w2, params.w3])
        result = eval_bounded(space, sentence, sampler, args.search,
                              tol=args.tol)
        if isinstance(result, Counterexample):
            print("Counterexample")
            for name, value in sorted(result.assignment.items()):
                print(f"  {name} = {value}")
            return 0
        print(f"HoldsOnSamples (tried {result.samples_tried})")
        if result.ante_depth:
            print(_depth_line(result.ante_depth))
        return 0
    if args.assignment is None:
        print("need --assignment or --search", file=sys.stderr)
        return 2
    assignment = _load_assignment(args.assignment, params)
    formula = sentence
    if not is_quantifier_free(formula):
        _, formula = strip_universal_prefix(formula)
        if not is_quantifier_free(formula):
            print("sentence has inner quantifiers; use --search",
                  file=sys.stderr)
            return 2
    missing = [n for n in free_vars(formula) if n not in assignment]
    if missing:
        print(f"assignment misses variables: {sorted(missing)}",
              file=sys.stderr)
        return 2
    value = eval_qf(space, formula, assignment, args.tol)
    print("true" if value else "false")
    return 0


def cmd_verify(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = config.override(seed=args.seed)
    names = list(SUITES) if args.suite in (None, "all") else [args.suite]
    if args.suite not in (None, "all") and args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; have {', '.join(SUITES)}",
              file=sys.stderr)
        return 2
    params, space = construct_l1(config=config)
    context = SuiteContext(config=config, params=params, space=space,
                           seed=config.seed)
    reports = [run_suite(n, context) for n in names]
    all_ok = True
    payload = []
    for report in reports:
        print(format_table(report))
        payload.append(json.loads(report_to_json(report)))
        all_ok = all_ok and report.all_pass
    if args.report:
        _write(Path(args.report), json.dumps(payload, indent=2) + "\n")
        print(f"report -> {args.report}")
    return 0 if all_ok else 1


def _flag(parse):
    """parse as an argparse type, whose rejections exit 2 with the usage."""
    def convert(text: str):
        try:
            return parse(text)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _budget(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 sample, got {n}")
    return n


def _dimension(text: str) -> int:
    d = int(text)
    if d < 2:
        raise argparse.ArgumentTypeError(
            f"need a dimension of at least 2, got {d}")
    return d


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(
            f"need a finite tolerance of at least 0, got {text}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normlogic",
        description="Reduction compiler and verification harness for "
                    "additive normed-space sentences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the plane and write params")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="params.json")
    p.add_argument("--m", type=_flag(parse_m), default=None,
                   help="curve stiffness, an integer >= 1 (default: "
                        "smallest concave)")
    p.add_argument("--q", type=_flag(parse_q_candidates), default=None,
                   help="comma-separated rational candidates, e.g. 1/8,1/10")
    p.add_argument("--r-step", type=_flag(parse_r_step), default=None,
                   help="rational radius grid step (> 0)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("compile", help="compile arithmetic to sentences")
    p.add_argument("formula", help="e.g. 'x1*x1 = 2'")
    p.add_argument("--dimension", "-d", type=_dimension, default=2,
                   help="dimension of the target spaces (>= 2)")
    p.add_argument("--params", required=True)
    p.add_argument("--out-dir", default="sentences")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("eval", help="evaluate or search a sentence file")
    p.add_argument("sentence", nargs="?", default=None)
    p.add_argument("--params", required=True)
    p.add_argument("--assignment", default=None,
                   help="JSON file or the literal 'canonical'")
    p.add_argument("--search", type=_budget, default=None,
                   help="bounded refutation with this sample budget (>= 1)")
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-boundary", type=int, default=None, metavar="N",
                   help="print N unit-circle points and exit")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default=None,
                   help=f"one of: {', '.join(SUITES)} (default: all)")
    p.add_argument("--all", dest="suite", action="store_const", const="all")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--report", default=None, help="write JSON report here")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (InputError, FormulaTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NormLogicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
