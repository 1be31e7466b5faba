"""Command-line front end for the addition-law toolkit.

Subcommands
  check            residual of an (f, g) pair against an equation
  chars            enumerate the multiplicative functions of a carrier
  additive         additive-function basis attached to one character
  rho              admissible rho space attached to one character
  construct        build one solution case from a parameter file
  classify         identify the case of a solution pair
  oracle           grid-scan equations and classify every solution
  report-examples  verify the bundled windowed carriers end to end

Semigroups are given either as a bundled name (Z1, Z2, Z3, Z2xZ2, N3) or a
path to a JSON file with fields name/elements/table/sigma.  All artifacts
are UTF-8 JSON with sorted keys, reproducible byte for byte.

Exit codes: 0 success, 1 validation failure or unclassified event,
2 usage error, 3 candidate-pair budget exceeded.
"""

from __future__ import annotations

import argparse
import cmath
import sys
from pathlib import Path

from .characters import (additive_basis, additive_residual,
                         check_condition_I, check_condition_II,
                         enumerate_characters, parity_residual, rho_space)
from .classify import (NotASolutionError, Unclassified, classify)
from .core import (EPS, FiniteSemigroup, FnTable, SemigroupError, cnum,
                   load_semigroup, stable_json, validate_tolerance)
from .dsl import (EquationSyntaxError, builtin, equation_symbols,
                  evaluate_residual, print_equation, resolve_equation)
from .families import (ALPHA_EQUATIONS, CASE_COUNTS, CaseId, CaseParams,
                       ConstraintError, construct)
from .oracle import (DEFAULT_ALPHABET, BudgetError, GridInputError,
                     PAIR_BUDGET, coverage_report)

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET = 0, 1, 2, 3


class CliError(Exception):
    """Validation failure with a message; the command exits with EXIT_FAIL."""


def _resolve_semigroup(value: str):
    from .examples import example_semigroups
    named = example_semigroups()
    if value in named:
        return named[value]
    path = Path(value)
    if not path.is_file():
        known = ", ".join(sorted(named))
        raise CliError(f"no bundled semigroup or file {value!r} "
                       f"(bundled: {known})")
    try:
        return load_semigroup(path.read_text(encoding="utf-8"))
    except SemigroupError as exc:
        raise CliError(f"{value}: {exc}") from exc


def _finite(S) -> FiniteSemigroup:
    if not isinstance(S, FiniteSemigroup):
        raise CliError(f"{S.name} is a windowed carrier; this command "
                       "needs a finite semigroup")
    return S


def _as_complex(value, name: str) -> complex:
    """`value`, the number `name`, as a finite complex number (not a bool)."""
    z = None
    if type(value) in (int, float):
        z = complex(value)
    elif (isinstance(value, list) and len(value) == 2
          and all(type(v) in (int, float) for v in value)):
        z = complex(value[0], value[1])
    elif isinstance(value, str):
        try:
            z = complex(value.replace(" ", ""))
        except ValueError:
            pass
    if z is None:
        raise CliError(f"{name}: cannot read {value!r} as a complex number "
                       "(use a number, [re, im], or 'a+bj')")
    if not cmath.isfinite(z):
        raise CliError(f"{name} must be finite, got {value!r}")
    return z


def _read_json(path: str):
    import json
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise CliError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _typed(path: str, name: str, value, kind: type):
    """`value`, the field `name` of the JSON file `path`, if it is a
    `kind` (dict or list)."""
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "an array"
        raise CliError(f"{path}: field {name!r} must be {what}")
    return value


def _read_pair(S: FiniteSemigroup, path: str) -> tuple[FnTable, FnTable]:
    data = _read_json(path)
    if not isinstance(data, dict) or "f" not in data or "g" not in data:
        raise CliError(f"{path}: expected an object with fields 'f' and 'g'")
    norm = {side: {name: cnum(_as_complex(v, f"{side}[{name!r}]"))
                   for name, v in _typed(path, side, data[side], dict).items()}
            for side in ("f", "g")}
    try:
        f = FnTable.from_json_dict(S, norm["f"])
        g = FnTable.from_json_dict(S, norm["g"])
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return f, g


def _emit(args, payload: dict, lines) -> None:
    text = stable_json(payload)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        for line in lines:
            print(line)
        print(f"wrote {args.output}")
    else:
        for line in lines:
            print(line)
        print(text)


def _char_payload(S: FiniteSemigroup, chars) -> list[dict]:
    names = S.elements
    out = []
    for chi in chars:
        out.append({
            "values": {names[i]: cnum(chi.values[i]) for i in range(S.n)},
            "even": chi.even,
            "ideal": sorted(names[i] for i in chi.null_ideal),
            "ideal_square": sorted(names[i] for i in chi.null_square),
            "prime_part": sorted(names[i] for i in chi.prime_part),
        })
    return out


def _pick_char(S: FiniteSemigroup, chars, index: int):
    if not 0 <= index < len(chars):
        raise CliError(f"character index {index} out of range; "
                       f"{S.name} has {len(chars)} character(s)")
    return chars[index]


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    S = _resolve_semigroup(args.semigroup)
    try:
        ast = resolve_equation(args.equation)
    except EquationSyntaxError as exc:
        raise CliError(str(exc)) from exc
    if not isinstance(S, FiniteSemigroup):
        raise CliError("check reads dense tables; windowed carriers are "
                       "exercised through report-examples")
    f, g = _read_pair(S, args.fn)
    alpha = _as_complex(1.0 if args.alpha is None else args.alpha, "alpha")
    binding = {"f": f, "g": g}
    _, _, uses_a = equation_symbols(ast)
    if uses_a:
        binding["a"] = alpha
    residual = evaluate_residual(ast, binding, S)
    ok = residual <= args.tol
    payload = {"equation": print_equation(ast), "semigroup": S.name,
               "residual": residual, "tolerance": args.tol, "ok": ok}
    _emit(args, payload, [f"residual {residual:.3g} "
                          f"({'ok' if ok else 'too large'})"])
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_chars(args) -> int:
    S = _finite(_resolve_semigroup(args.semigroup))
    chars = enumerate_characters(S)
    payload = {"semigroup": S.name, "count": len(chars),
               "characters": _char_payload(S, chars)}
    _emit(args, payload, [f"{len(chars)} non-zero multiplicative "
                          f"function(s) on {S.name}"])
    return EXIT_OK


def _cmd_additive(args) -> int:
    S = _finite(_resolve_semigroup(args.semigroup))
    chars = enumerate_characters(S)
    chi = _pick_char(S, chars, args.char)
    basis = additive_basis(S, chi, args.parity)
    names = S.elements
    payload = {
        "semigroup": S.name, "character": args.char, "parity": args.parity,
        "dimension": len(basis),
        "basis": [{names[i]: cnum(A.values[i]) for i in range(S.n)}
                  for A in basis],
        "domain": sorted(names[i] for i in range(S.n)
                         if i not in chi.null_ideal),
    }
    _emit(args, payload, [f"additive dimension {len(basis)} "
                          f"({args.parity}) for character {args.char}"])
    return EXIT_OK


def _cmd_rho(args) -> int:
    S = _finite(_resolve_semigroup(args.semigroup))
    chars = enumerate_characters(S)
    chi = _pick_char(S, chars, args.char)
    space = rho_space(chi, S, args.parity)
    names = S.elements
    payload = {
        "semigroup": S.name, "character": args.char, "parity": args.parity,
        "dimension": space.dimension,
        "orbits": [{
            "representative": names[o.representative],
            "members": {names[x]: cnum(complex(w))
                        for x, w in o.members.items()},
            "zero_forced": o.zero_forced,
        } for o in space.orbits],
    }
    _emit(args, payload, [f"rho space dimension {space.dimension} "
                          f"({args.parity}) for character {args.char}"])
    return EXIT_OK


def _params_from_file(S: FiniteSemigroup, case: CaseId, path: str,
                      chars) -> CaseParams:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise CliError("parameter file must hold a JSON object")
    fields: dict = {}
    for name in ("alpha", "beta", "delta", "c", "c1", "c2"):
        if name in data:
            fields[name] = _as_complex(data[name], name)
    for name in ("chi", "chi1", "chi2"):
        if name in data:
            idx = data[name]
            if type(idx) is not int:        # a JSON bool is no index
                raise CliError(f"{name} must be a character index")
            fields[name] = _pick_char(S, chars, idx)
    if "free" in data:
        values = {name: cnum(_as_complex(v, f"free[{name!r}]"))
                  for name, v in
                  _typed(path, "free", data["free"], dict).items()}
        try:
            fields["free"] = FnTable.from_json_dict(S, values)
        except ValueError as exc:
            raise CliError(f"free: {exc}") from exc
    parity = ("odd" if (case.equation, case.case) == ("alpha-skew", 6)
              else "even")
    if "A" in data or "rho" in data:
        if "chi" not in fields:
            raise CliError("A/rho need the supporting character index 'chi'")
        chi = fields["chi"]
        from .families import combine_additive
        basis = additive_basis(S, chi, parity)
        A = _typed(path, "A", data.get("A", {}), dict)
        coeffs = [_as_complex(v, "A.coeffs") for v in
                  _typed(path, "A.coeffs", A.get("coeffs", []), list)]
        if len(coeffs) != len(basis):
            raise CliError(f"A.coeffs must give {len(basis)} value(s) for "
                           "this character's additive basis")
        fields["A"] = combine_additive(S, basis, coeffs, chi, parity)
        space = rho_space(chi, S, parity)
        rho = _typed(path, "rho", data.get("rho", {}), dict)
        free = [_as_complex(v, "rho.free") for v in
                _typed(path, "rho.free", rho.get("free", []), list)]
        if len(free) != space.dimension:
            raise CliError(f"rho.free must give {space.dimension} value(s) "
                           "for this character's rho space")
        fields["rho"] = space.instance(free, S.n)
    return CaseParams(**fields)


def _cmd_construct(args) -> int:
    S = _finite(_resolve_semigroup(args.semigroup))
    if args.equation not in CASE_COUNTS:
        known = ", ".join(sorted(CASE_COUNTS))
        raise CliError(f"construct needs a built-in equation id "
                       f"({known}), got {args.equation!r}")
    try:
        case = CaseId(args.equation, args.case, args.branch)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    chars = enumerate_characters(S)
    params = _params_from_file(S, case, args.params, chars)
    try:
        f, g = construct(case, params, S)
    except (ConstraintError, ValueError) as exc:
        raise CliError(f"{case}: {exc}") from exc
    binding = {"f": f, "g": g}
    if case.equation in ALPHA_EQUATIONS:
        binding["a"] = complex(params.alpha)
    residual = evaluate_residual(builtin(case.equation), binding, S)
    payload = {"case": str(case), "semigroup": S.name,
               "f": f.to_json_dict(), "g": g.to_json_dict(),
               "residual": residual, "ok": residual <= args.tol}
    _emit(args, payload, [f"{case}: residual {residual:.3g}"])
    return EXIT_OK if residual <= args.tol else EXIT_FAIL


def _cmd_classify(args) -> int:
    S = _finite(_resolve_semigroup(args.semigroup))
    if args.equation not in CASE_COUNTS:
        known = ", ".join(sorted(CASE_COUNTS))
        raise CliError(f"classification covers the built-in ids ({known}), "
                       f"got {args.equation!r}")
    f, g = _read_pair(S, args.fn)
    alpha = None if args.alpha is None else _as_complex(args.alpha, "alpha")
    try:
        hit = classify(args.equation, f, g, S, alpha=alpha, tol=args.tol)
    except ValueError as exc:       # not a solution, or alpha within tol of 0
        raise CliError(str(exc)) from exc
    if isinstance(hit, Unclassified):
        _emit(args, hit.to_json_dict(),
              [f"unclassified: {hit.reason}"])
        return EXIT_FAIL
    payload = hit.to_json_dict()
    payload["semigroup"] = S.name
    _emit(args, payload, [f"case {hit.case} "
                          f"(reconstruction residual {hit.residual:.3g})"])
    return EXIT_OK


def _parse_alphabet(text: str | None):
    if text is None:
        return DEFAULT_ALPHABET
    return tuple(_as_complex(part, "alphabet entry")
                 for part in text.split(",") if part)


def _cmd_oracle(args) -> int:
    S = _finite(_resolve_semigroup(args.semigroup))
    equations = [args.equation] if args.equation else None
    if args.equation and args.equation not in CASE_COUNTS:
        known = ", ".join(sorted(CASE_COUNTS))
        raise CliError(f"oracle scans the built-in ids ({known}), "
                       f"got {args.equation!r}")
    alpha = 1.0 if args.alpha is None else _as_complex(args.alpha, "alpha")
    report = coverage_report(
        S, alphabet=_parse_alphabet(args.alphabet), alpha=alpha,
        equations=equations, tol=args.tol, budget=args.budget)
    lines = []
    clean = True
    for eq, block in report["equations"].items():
        n_un = len(block["unclassified"])
        clean = clean and n_un == 0
        lines.append(f"{eq}: {block['solutions']} solution(s) in "
                     f"{block['pairs_scanned']} pair(s), "
                     f"{len(block['cases'])} case label(s), "
                     f"{n_un} unclassified")
    _emit(args, report, lines)
    return EXIT_OK if clean else EXIT_FAIL


def _example1_report(args) -> dict:
    from .examples import example1
    W = example1(window_max=args.window)
    chi = W.extras["chi"]
    mul, sig, win = W.mul, W.sig, W.window

    chi_mult = max(abs(chi(mul(x, y)) - chi(x) * chi(y))
                   for x in win for y in win)
    chi_even = max(abs(chi(sig(x)) - chi(x)) for x in win)

    primes = W.extras["primes"]
    A = W.extras["additive_family"]({r: 1 for r in primes[:4]})
    rng_pairs = [(x, y) for x in win for y in win]
    a_res = additive_residual(A, W, rng_pairs)
    a_even = parity_residual(A, W)

    rho = W.extras["rho_family"](1.0, "even")
    cond1 = check_condition_I(rho, chi, W)

    case = CaseId("cos-sub", 5, "+")
    params = CaseParams(chi=chi, A=A, rho=rho)
    f, g = construct(case, params, W)
    sub = range(2, min(args.window, 60) + 1)
    residual = evaluate_residual(builtin("cos-sub"), {"f": f, "g": g}, W,
                                 window=sub)
    cond2 = check_condition_II(f, chi, W)

    ok = (chi_mult <= args.tol and chi_even <= args.tol
          and a_res <= args.tol and a_even <= args.tol and cond1
          and residual <= args.tol and cond2)
    return {
        "example": 1, "window": [2, args.window], "ok": ok,
        "chi": {"multiplicative_residual": chi_mult,
                "even_residual": chi_even},
        "additive": {"pairs": len(rng_pairs), "residual": a_res,
                     "even_residual": a_even},
        "rho_condition_I": cond1,
        "end_to_end": {"case": str(case), "window": [sub[0], sub[-1]],
                       "residual": residual, "condition_II": cond2},
    }


def _example2_report(args) -> dict:
    from .examples import example2
    W = example2()
    chars = W.extras["chars"]
    pairs = W.extras["sample_pairs"](args.pairs, args.seed)
    mul, sig = W.mul, W.sig

    char_block = {}
    chars_ok = True
    for name, chi in chars.items():
        mult = max(abs(chi(mul(u, v)) - chi(u) * chi(v))
                   for u, v in pairs)
        even = max(abs(chi(sig(u)) - chi(u)) for u in W.window)
        chars_ok = chars_ok and mult <= args.tol and even <= args.tol
        char_block[name] = {"multiplicative_residual": mult,
                            "even_residual": even}

    add_block = {}
    add_ok = True
    for parity in ("even", "odd"):
        basis = W.extras["additive_basis"](chars["chi_abs"], parity)
        for k, A in enumerate(basis):
            res = additive_residual(A, W, pairs)
            par = parity_residual(A, W)
            add_ok = add_ok and res <= args.tol and par <= args.tol
            add_block[f"{parity}[{k}]"] = {"pairs": len(pairs),
                                           "residual": res,
                                           "parity_residual": par}

    ok = chars_ok and add_ok
    return {"example": 2, "window_points": len(W.window), "ok": ok,
            "characters": char_block, "additive": add_block,
            "prime_part": "empty (the ideal equals its own square)"}


def _cmd_report_examples(args) -> int:
    if args.example == 1:
        payload = _example1_report(args)
    else:
        payload = _example2_report(args)
    state = "ok" if payload["ok"] else "FAILED"
    _emit(args, payload, [f"example {args.example}: {state}"])
    return EXIT_OK if payload["ok"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _at_least_one(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addlaws",
        description="Trigonometric addition-law solution families on "
                    "semigroups: construct, classify, and brute-force "
                    "verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fn=False, equation=False):
        p.add_argument("--semigroup", "-s", required=True,
                       help="bundled name or path to a semigroup JSON file")
        if equation:
            p.add_argument("--equation", "-e", required=True,
                           help="built-in id or literal equation text")
        if fn:
            p.add_argument("--fn", required=True,
                           help="JSON file with fields 'f' and 'g'")
        p.add_argument("--tol", type=float, default=EPS,
                       help="acceptance tolerance (default 1e-9)")
        p.add_argument("--output", "-o", help="write the JSON artifact "
                       "to this path")

    p = sub.add_parser("check", help="evaluate an equation residual")
    common(p, fn=True, equation=True)
    p.add_argument("--alpha", help="value for the constant 'a'")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("chars", help="enumerate multiplicative functions")
    common(p)
    p.set_defaults(handler=_cmd_chars)

    p = sub.add_parser("additive", help="additive basis for a character")
    common(p)
    p.add_argument("--char", type=int, required=True,
                   help="character index from the chars listing")
    p.add_argument("--parity", choices=("even", "odd"), default="even")
    p.set_defaults(handler=_cmd_additive)

    p = sub.add_parser("rho", help="rho space for a character")
    common(p)
    p.add_argument("--char", type=int, required=True,
                   help="character index from the chars listing")
    p.add_argument("--parity", choices=("even", "odd"), default="even")
    p.set_defaults(handler=_cmd_rho)

    p = sub.add_parser("construct", help="build one solution case")
    common(p, equation=True)
    p.add_argument("--case", type=int, required=True)
    p.add_argument("--branch", help="branch label for branched cases")
    p.add_argument("--params", required=True,
                   help="JSON parameter file (constants, character "
                        "indexes, free tables, A/rho coefficients)")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("classify", help="identify a solution's case")
    common(p, fn=True, equation=True)
    p.add_argument("--alpha", help="value for the constant 'a'")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("oracle", help="grid scan + classification report")
    common(p)
    p.add_argument("--equation", "-e",
                   help="one built-in id (default: all five)")
    p.add_argument("--alpha", help="constant for the alpha equations "
                                   "(default 1)")
    p.add_argument("--alphabet",
                   help="comma-separated grid values (default bundled)")
    p.add_argument("--budget", type=int, default=PAIR_BUDGET,
                   help="candidate-pair budget (default 1e8)")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("report-examples",
                       help="verify a bundled windowed carrier")
    p.add_argument("--example", type=int, choices=(1, 2), required=True)
    p.add_argument("--window", type=int, default=200,
                   help="window upper bound for example 1")
    p.add_argument("--pairs", type=_at_least_one, default=1000,
                   help="sampled pair count for example 2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=EPS)
    p.add_argument("--output", "-o")
    p.set_defaults(handler=_cmd_report_examples)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        validate_tolerance(args.tol, GridInputError)
        return args.handler(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CliError, SemigroupError, EquationSyntaxError, NotASolutionError,
            ConstraintError, GridInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
