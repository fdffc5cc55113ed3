"""Command-line driver.

Commands: ``factor``, ``analyze``, ``enumerate``, ``search``,
``paper-suite``.  Every command accepts ``--format {text,json,csv}``;
``analyze``, ``enumerate`` and ``search --verify`` also take
``--max-size`` (word-count budget for enumeration), and
``search --verify`` takes ``--workers`` (default 1); ``search`` without
``--verify`` rejects both.  Exit codes: 0 success, 1 a check or fixture
failed, 2 invalid input, 3 a resource guard tripped, 4 an internal error
(any other exception; its traceback goes to stderr).  ``search --verify``
prints a spec whose cross-check raised as an ``error`` row naming the
exception, finishes the sweep, and then exits 4.

Each command prints a JSON record or a text or CSV view of it: ``analyze``
renders ``_analysis``, ``search`` and ``paper-suite`` the records of
``verify``.  Spec and type texts are ``cyclic._spec_text`` and
``code._type_text``.

Polynomial arguments use the shared text grammar (``3 + x + 2x^2``);
binary and quaternary positions are fixed per argument, never inferred
from the coefficients.  No environment variable is read.
"""

import argparse
import csv
import io
import json
import sys
import traceback

from .code import DEFAULT_MAX_WORDS, Word, _type_text, gray_array
from .cyclic import (
    CyclicSpec,
    _pair_text,
    _spec_text,
    cardinality,
    cyclic_spec,
    kernel_dim_candidates,
    kernel_spec,
    materialize,
    gray_linear,
    rank_candidates,
    rank_spec,
    spec_to_dict,
    type_from_degrees,
)
from .errors import SizeGuardError, SpecError
from .gf2 import BinPoly, factor_xn1_gf2, xn_minus_1
from .verify import (
    CSV_HEADER,
    CheckReport,
    _mark,
    _verdict,
    cross_check,
    csv_row,
    paper_suite,
    suite_text,
    sweep,
    sweep_rows_csv,
    sweep_rows_json,
    sweep_text,
    tabulate,
)
from .z4 import QuatPoly, factor_xn1_z4, xn_minus_1_z4

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def _odd_int(text: str) -> int:
    n = int(text)
    if n < 1 or n % 2 == 0:
        raise argparse.ArgumentTypeError(f"{n} is not an odd positive integer")
    return n


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not a positive integer")
    return n


def _format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default text)",
    )


def _max_size_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-size", type=_positive_int, default=DEFAULT_MAX_WORDS,
        metavar="N", help="refuse to enumerate more than N words (exit 3)",
    )


def _spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=_positive_int, required=True,
                   help="number of binary coordinates")
    p.add_argument("--beta", type=_odd_int, required=True,
                   help="number of quaternary coordinates (odd)")
    p.add_argument("--b", default="1", metavar="POLY",
                   help="binary generator, a divisor of x^alpha - 1 (default 1)")
    p.add_argument("--ell", default="0", metavar="POLY",
                   help="binary mixing polynomial, degree below deg b (default 0)")
    p.add_argument("--f", required=True, metavar="POLY",
                   help="quaternary cofactor f, with f h g = x^beta - 1")
    p.add_argument("--h", required=True, metavar="POLY",
                   help="quaternary cofactor h")
    p.add_argument("--g", required=True, metavar="POLY",
                   help="quaternary cofactor g")


def _spec_from_args(args: argparse.Namespace) -> CyclicSpec:
    try:
        b, ell = BinPoly.parse(args.b), BinPoly.parse(args.ell)
        f, h, g = (QuatPoly.parse(t).monic() for t in (args.f, args.h, args.g))
    except ValueError as exc:
        raise SpecError("polynomial", str(exc)) from exc
    return cyclic_spec(args.alpha, args.beta, b, ell, f, h, g)


def _print(view: str | dict | list) -> None:
    """Print a text or CSV view, which ends in its own newline, or a JSON record."""
    print(view if isinstance(view, str) else json.dumps(view) + "\n", end="")


# ---------------------------------------------------------------------------
# factor


def cmd_factor(args: argparse.Namespace) -> int:
    n = args.n
    factor, modulus, ring = {"gf2": (factor_xn1_gf2, xn_minus_1, "Z2"),
                             "z4": (factor_xn1_z4, xn_minus_1_z4, "Z4")}[args.ring]
    pairs, whole = factor(n), modulus(n)
    if args.format == "json":
        print(json.dumps({
            "n": n,
            "ring": args.ring,
            "modulus": str(whole),
            "factors": [
                {"coset": list(coset), "poly": str(q)} for coset, q in pairs
            ],
        }))
    elif args.format == "csv":
        print("coset_leader,coset,poly")
        for coset, q in pairs:
            orbit = ";".join(str(e) for e in coset)
            print(f"{coset[0]},{orbit},{q}".replace(" ", ""))
    else:
        product = "".join(f"({q})" for _, q in pairs)
        print(f"x^{n} - 1 = {product}  over {ring}")
        for coset, q in pairs:
            orbit = "{" + ", ".join(str(e) for e in coset) + "}"
            print(f"  coset {orbit}: {q}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _analysis(spec: CyclicSpec, rep: CheckReport | None) -> dict:
    """The JSON record of ``analyze``; ``rep`` is the ``--verify`` report."""
    kres, rres = ((rep.kernel_result, rep.rank_result) if rep
                  else (kernel_spec(spec), rank_spec(spec)))
    t = type_from_degrees(spec)
    a = {
        "spec": spec_to_dict(spec),
        "type": [t.alpha, t.beta, t.gamma, t.delta, t.kappa],
        "kappa_split": [t.kappa1, t.kappa2],
        "log2_size": t.gamma + 2 * t.delta,
        "size": cardinality(spec),
        "gray_linear": gray_linear(spec),
        "kernel": {
            "dim": kres.dimension,
            "k_prime": str(kres.k_prime),
            "minimal_divisors": [str(k) for k in kres.minimal_divisors],
            "spec": spec_to_dict(kres.spec),
            "candidates": list(kernel_dim_candidates(t)),
        },
        "rank": {
            "rank": rres.rank,
            "r": str(rres.r),
            "spec": spec_to_dict(rres.spec),
            "candidates": list(rank_candidates(t)),
        },
    }
    if rep:
        a["verify"] = {
            "passed": rep.passed,
            "checks": [{"name": n, "passed": ok} for n, ok in rep.checks],
            "witness": rep.witness,
        }
    return a


def _analysis_text(a: dict) -> str:
    k, r = a["kernel"], a["rank"]
    lines = [
        "spec: " + _spec_text(**a["spec"]),
        f"type {_type_text(*a['type'])}"
        f"  kappa split {a['kappa_split'][0]} + {a['kappa_split'][1]}",
        f"size 2^{a['log2_size']} = {a['size']} words",
        f"gray image linear: {'yes' if a['gray_linear'] else 'no'}",
        f"kernel dim {k['dim']}, k' = ({k['k_prime']}), minimal divisors "
        + ", ".join(f"({d})" for d in k["minimal_divisors"]),
        "kernel pair: " + _pair_text(**k["spec"]),
        f"rank {r['rank']}, r = ({r['r']})",
        "span pair: " + _pair_text(**r["spec"]),
        "kernel dim candidates: " + ", ".join(str(d) for d in k["candidates"]),
        "rank candidates: " + ", ".join(str(d) for d in r["candidates"]),
    ]
    if "verify" in a:
        v = a["verify"]
        lines += [f"  {_mark(_verdict(c['passed']))}  {c['name']}" for c in v["checks"]]
        if v["witness"]:
            lines.append(f"  witness: {v['witness']}")
        lines.append("verify: all checks passed" if v["passed"] else "verify: FAILED")
    return "\n".join(lines) + "\n"


def _analysis_csv(a: dict) -> str:
    row = {**a["spec"], "type": a["type"], "kernel_dim": a["kernel"]["dim"],
           "rank": a["rank"]["rank"], "k_prime": a["kernel"]["k_prime"], "r": a["rank"]["r"]}
    if "verify" in a:
        v = a["verify"]
        row["verdict"] = _verdict(v["passed"])
        if not v["passed"]:
            row["failures"] = [c["name"] for c in v["checks"] if not c["passed"]]
    return f"{CSV_HEADER}\n{csv_row(row)}\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    rep = cross_check(spec, max_words=args.max_size) if args.verify else None
    a = _analysis(spec, rep)
    _print(a if args.format == "json"
           else {"text": _analysis_text, "csv": _analysis_csv}[args.format](a))
    return EXIT_CHECK_FAILED if rep and not rep.passed else EXIT_OK


# ---------------------------------------------------------------------------
# enumerate


def _gray_bits(mask: int, width: int) -> str:
    return "".join(str((mask >> i) & 1) for i in range(width))


def cmd_enumerate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    code = materialize(spec, max_words=args.max_size)
    packed = code.words()
    grays = gray_array(packed, code.alpha, code.beta)
    width = code.alpha + 2 * code.beta
    # made one at a time as they print: the texts take about 220 bytes a word
    rows = ((str(Word.from_packed(int(p), code.alpha, code.beta)), _gray_bits(int(m), width))
            for p, m in zip(packed, grays))
    if args.format == "json":
        head = json.dumps({"spec": spec_to_dict(spec), "size": len(packed), "words": []})
        print(head[:-2], end="")
        for i, (w, g) in enumerate(rows):
            print(", " * (i > 0) + json.dumps({"word": w, "gray": g}), end="")
        print("]}")
    elif args.format == "csv":
        print("word,gray")
        for w, g in rows:
            print(f"{w},{g}")
    else:
        print(f"{len(packed)} words of {spec}")
        for w, g in rows:
            print(f"  {w}  ->  {g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# search


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise SpecError("type-filter-shape", f"expected integers, got {text!r}") from exc


def _parse_type_filter(text: str, alpha: int, beta: int) -> tuple[int, ...]:
    """Accept ``G,D``, ``G,D,K`` or the prefixed ``A,B:G,D[,K]`` form."""
    body = text
    if ":" in text:
        prefix, body = text.split(":", 1)
        stated = _int_list(prefix)
        if stated != (alpha, beta):
            raise SpecError(
                "type-filter-prefix",
                f"filter names lengths {stated}, search runs at ({alpha}, {beta})",
            )
    parts = _int_list(body)
    if len(parts) not in (2, 3) or any(p < 0 for p in parts):
        raise SpecError(
            "type-filter-shape",
            "expected gamma,delta or gamma,delta,kappa",
        )
    return parts


def cmd_search(args: argparse.Namespace) -> int:
    type_filter = None
    if args.type is not None:
        type_filter = _parse_type_filter(args.type, args.alpha, args.beta)
    if args.verify:
        summary = sweep(
            alpha_max=args.alpha, alpha_min=args.alpha, betas=(args.beta,),
            max_words=args.max_size or DEFAULT_MAX_WORDS, workers=args.workers or 1,
            type_filter=type_filter,
        )
    else:
        summary = tabulate(args.alpha, args.beta, type_filter=type_filter)
    render = {"json": sweep_rows_json, "csv": sweep_rows_csv, "text": sweep_text}
    _print(render[args.format](summary))
    if summary.errors:
        return EXIT_INTERNAL
    return EXIT_OK if summary.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# paper-suite


def _suite_csv(doc: dict) -> str:
    """The CSV view of ``paper_suite``'s record."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("id", "title", "passed", "flagged"))
    for f in doc["fixtures"]:
        writer.writerow((f["id"], f["title"], json.dumps(f["passed"]), json.dumps(f["flagged"])))
    return buf.getvalue()


def cmd_paper_suite(args: argparse.Namespace) -> int:
    doc = paper_suite(strict=args.strict_erratum)
    _print(doc if args.format == "json"
           else {"text": suite_text, "csv": _suite_csv}[args.format](doc))
    return EXIT_OK if doc["ok"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z2z4",
        description="Additive codes over Z2 x Z4: Gray images, kernels, ranks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor x^n - 1 over Z2 or Z4")
    p.add_argument("--n", type=_odd_int, required=True,
                   help="length (odd positive)")
    p.add_argument("--ring", choices=("gf2", "z4"), required=True,
                   help="coefficient ring")
    _format_flag(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("analyze", help="type, kernel and rank of one code")
    _spec_flags(p)
    p.add_argument("--verify", action="store_true",
                   help="also run every enumeration cross-check")
    _format_flag(p)
    _max_size_flag(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("enumerate",
                       help="list all codewords with their Gray images")
    _spec_flags(p)
    _format_flag(p)
    _max_size_flag(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("search", help="tabulate every code at one length pair")
    p.add_argument("--alpha", type=_positive_int, required=True)
    p.add_argument("--beta", type=_odd_int, required=True)
    p.add_argument("--type", default=None, metavar="FILTER",
                   help="keep only types gamma,delta[,kappa]; "
                        "an alpha,beta: prefix is accepted")
    p.add_argument("--verify", action="store_true",
                   help="cross-check every row against enumeration")
    _format_flag(p)
    _max_size_flag(p)
    p.add_argument("--workers", type=_positive_int, metavar="K",
                   help="worker processes for --verify (default 1)")
    # None marks an unset flag: main rejects either flag set without --verify
    p.set_defaults(func=cmd_search, max_size=None)

    p = sub.add_parser("paper-suite", help="run the pinned regression fixtures")
    p.add_argument("--strict-erratum", action="store_true",
                   help="fail if any fixture is flagged, not just failed")
    _format_flag(p)
    p.set_defaults(func=cmd_paper_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "search" and not args.verify:
        unread = [flag for flag, v in (("--max-size", args.max_size),
                                       ("--workers", args.workers)) if v is not None]
        if unread:
            parser.error(f"unrecognized arguments: {' '.join(unread)} "
                         "(search reads them only with --verify)")
    try:
        return args.func(args)
    except (SizeGuardError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD if isinstance(exc, SizeGuardError) else EXIT_INVALID
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
