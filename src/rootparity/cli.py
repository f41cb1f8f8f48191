"""Command-line surface: generate, analyze, patterns, czcheck, tables, scan.

Output formats, for every command: human text (no stability guarantee),
json-lines (one object per row; integers above 2^53 serialized as
decimal strings) and csv (fixed header, ratios as 6-place decimals plus
an exact num/den column).

Exit codes: 0 success, 1 usage error, 2 table discrepancy, 3 internal
inconsistency.
"""

import argparse
import csv
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import product

from . import bounds, complexity, search, sequence
from .numtheory import is_prime

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISCREPANCY = 2
EXIT_INCONSISTENT = 3

_JSON_INT_MAX = 2 ** 53


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _json_int(n):
    # str(Decimal(n)) is exact and, unlike str(n), not capped at 4300 digits
    return str(Decimal(n)) if abs(n) > _JSON_INT_MAX else n


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def row_to_json(row: search.SearchRow) -> dict:
    return {
        "T": row.T,
        "p": row.p,
        "ord": row.ord_T_2,
        "q": _json_int(row.q) if row.q is not None else None,
        "log2q": row.log2q,
        "ratio": _frac_str(row.ratio),
        "mersenne": row.mersenne,
        "flags": sorted(row.flags),
        "q_source": row.q_source,
    }


ROW_CSV_HEADER = [
    "T", "p", "ord", "q", "log2q", "ratio", "ratio_frac",
    "mersenne", "flags", "q_source",
]

ANALYZE_CSV_HEADER = [
    "p", "T", "eta", "eta_frac", "regime", "n0", "n1",
    "predicted_frac1", "predicted_frac0", "L", "L_lower", "s1", "epsilon",
    "S2", "C", "C_lower",
]


def _emit(out, fmt, docs, text, csv_header, csv_rows=None):
    """Write flat records as json-lines, csv or text (one text(doc) each).

    The csv header is written before the first record, so an empty input
    still prints it. A record is one csv row of its values unless
    csv_rows(doc) gives the rows; csv writes None as an empty field.
    """
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(csv_header)
    for doc in docs:
        if fmt == "json-lines":
            print(json.dumps(doc), file=out)
        elif fmt == "csv":
            writer.writerows(csv_rows(doc) if csv_rows else [doc.values()])
        else:
            print(text(doc), file=out)


def _kv_text(doc: dict) -> str:
    return "\n".join(f"{k} = {v}" for k, v in doc.items())


def _row_text(doc: dict) -> str:
    q = "-" if doc["mersenne"] else "?" if doc["q"] is None else doc["q"]
    log2q = "-" if doc["mersenne"] else "?" if doc["log2q"] is None else doc["log2q"]
    return (
        f"T={doc['T']} p={doc['p']} ord={doc['ord']} q={q} "
        f"log2q={log2q} ratio={doc['ratio']} "
        f"(~{float(Fraction(doc['ratio'])):.3f}) mersenne={doc['mersenne']} "
        f"flags={','.join(doc['flags']) or '-'}"
    )


def _row_csv(doc: dict) -> list:
    return [[
        doc["T"], doc["p"], doc["ord"], doc["q"], doc["log2q"],
        f"{float(Fraction(doc['ratio'])):.6f}", doc["ratio"],
        int(doc["mersenne"]), "|".join(doc["flags"]), doc["q_source"],
    ]]


def _emit_rows(out, fmt, rows):
    _emit(out, fmt, map(row_to_json, rows), _row_text, ROW_CSV_HEADER, _row_csv)


def _cmd_generate(args, out):
    ctx = sequence.build_context(args.p)
    build = sequence.build_t_sequence if args.variant == "t" else sequence.build_s_sequence
    doc = {
        "p": ctx.p,
        "T": ctx.T,
        "eta": _frac_str(ctx.eta),
        "regime": bounds.classify_eta(ctx.eta).regime,
        "variant": args.variant,
        # index-ascending; bit n carries weight 2^n in S(2)
        "bits": "".join(map(str, build(ctx).bits)),
    }
    _emit(out, args.format, [doc], _kv_text, list(doc))
    return EXIT_OK


def _analyze_doc(p: int, factor_k_max: int) -> dict:
    ctx = sequence.build_context(p)
    seq = sequence.build_s_sequence(ctx)
    bal = sequence.balance(seq, ctx)
    rep = complexity.full_report(ctx, factor_budget=factor_k_max)
    return {
        "p": ctx.p,
        "T": ctx.T,
        "eta": _frac_str(ctx.eta),
        "regime": bounds.classify_eta(ctx.eta).regime,
        "n0": bal.n0,
        "n1": bal.n1,
        "predicted_frac1": _frac_str(bal.predicted_frac1),
        "predicted_frac0": _frac_str(bal.predicted_frac0),
        "L": rep.L,
        "L_lower": rep.L_lower,
        "s1": rep.s1,
        "epsilon": rep.epsilon,
        "S2": _json_int(rep.S2),
        "C": rep.C,
        "C_lower": rep.C_lower,
    }


def _analyze_csv(doc: dict) -> list:
    # the eta column carries a 6-place decimal ahead of the exact fraction
    p, T, *rest = doc.values()
    return [[p, T, f"{float(Fraction(doc['eta'])):.6f}", *rest]]


def _cmd_analyze(args, out):
    if args.p is not None:
        primes = [args.p]
    else:
        lo, hi = args.p_range
        primes = [p for p in range(max(lo, 11), hi + 1) if is_prime(p)]
    docs = (_analyze_doc(p, args.factor_k_max) for p in primes)
    _emit(out, args.format, docs, lambda doc: _kv_text(doc) + "\n",
          ANALYZE_CSV_HEADER, _analyze_csv)
    return EXIT_OK


def _pattern_rows(doc: dict) -> list:
    rows = []
    for pat, count in sorted(doc["counts"].items()):
        w = str(pat.count("1"))
        rows.append([pat, w, count, doc["predicted_per_pattern"][w]])
    return rows


def _patterns_text(doc: dict) -> str:
    lines = [f"p = {doc['p']}, T = {doc['T']}, ell = {doc['ell']}, "
             f"windows = {doc['windows']}"]
    for pat, _, count, predicted in _pattern_rows(doc):
        lines.append(f"  {pat}  count={count}  "
                     f"predicted~{float(Fraction(predicted)):.4f}")
    return "\n".join(lines)


def _cmd_patterns(args, out):
    ctx = sequence.build_context(args.p)
    seq = sequence.build_s_sequence(ctx)
    rep = sequence.pattern_stats(seq, ctx, args.ell)
    doc = {
        "p": ctx.p,
        "T": ctx.T,
        "ell": rep.ell,
        "windows": seq.period - args.ell + 1,
        "counts": rep.counts,
        "weight_counts": {str(w): c for w, c in rep.weight_counts.items()},
        "predicted_per_pattern": {
            str(w): _frac_str(f) for w, f in rep.predicted.items()
        },
    }
    header = ["pattern", "weight", "count", "predicted_per_pattern"]
    _emit(out, args.format, [doc], _patterns_text, header, _pattern_rows)
    return EXIT_OK


def _signs(epsilons: list[int]) -> str:
    return "".join("+" if e == 1 else "-" for e in epsilons)


def _czcheck_text(doc: dict) -> str:
    return (f"p={doc['p']} eps={_signs(doc['epsilons'])} M={doc['m']} "
            f"main={doc['main_term']:.2f} bound={doc['bound']:.2f} "
            f"holds={doc['holds']}")


def _czcheck_csv(doc: dict) -> list:
    p, epsilons, *rest = doc.values()
    return [[p, _signs(epsilons), *rest]]


def _cmd_czcheck(args, out):
    docs = []
    for s in range(1, args.s_max + 1):
        for eps in product((1, -1), repeat=s):
            chk = sequence.cz_bound_check(args.p, list(eps))
            docs.append({
                "p": args.p,
                "epsilons": list(eps),
                "m": chk.m,
                "main_term": chk.main_term,
                "bound": chk.bound,
                "holds": chk.holds,
            })
    header = ["p", "epsilons", "m", "main_term", "bound", "holds"]
    _emit(out, args.format, docs, _czcheck_text, header, _czcheck_csv)
    return EXIT_OK if all(doc["holds"] for doc in docs) else EXIT_INCONSISTENT


def _cmd_tables(args, out):
    if args.which == 1:
        rows, issues = search.reproduce_table1()
    else:
        rows, issues = search.reproduce_table2(factor_k_max=args.factor_k_max)
    _emit_rows(out, args.format, rows)
    for d in issues:
        print(
            f"DISCREPANCY T={d.T} field={d.field} "
            f"expected={d.expected} actual={d.actual}",
            file=sys.stderr,
        )
    return EXIT_DISCREPANCY if issues else EXIT_OK


def _cmd_scan(args, out):
    criteria = search.ScanCriteria(
        require_t_prime=args.t_prime,
        require_no_flags=args.no_flags,
        require_two_primitive_root_mod_t=args.two_primitive_root,
        factor_k_max=args.factor_k_max,
        workers=args.workers,
    )
    _emit_rows(out, args.format, search.scan(args.p_min, args.p_max, criteria))
    return EXIT_OK


def _p_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like 11..100")
    lo, hi = int(lo), int(hi)
    if hi < lo:
        raise argparse.ArgumentTypeError("empty range")
    return lo, hi


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    return int(raw) if raw else fallback


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rootparity")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["text", "json-lines", "csv"],
                       default="text")

    default_k_max = _env_int("ROOTPARITY_FACTOR_K_MAX", search.DEFAULT_FACTOR_K_MAX)
    default_workers = _env_int("ROOTPARITY_WORKERS", 1)

    gen = sub.add_parser("generate", help="emit one period of the sequence")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--variant", choices=["s", "t"], default="s")
    add_format(gen)
    gen.set_defaults(func=_cmd_generate)

    ana = sub.add_parser("analyze", help="balance + complexity report")
    grp = ana.add_mutually_exclusive_group(required=True)
    grp.add_argument("--p", type=int)
    grp.add_argument("--p-range", type=_p_range)
    ana.add_argument("--factor-k-max", type=int, default=default_k_max)
    add_format(ana)
    ana.set_defaults(func=_cmd_analyze)

    pat = sub.add_parser("patterns", help="pattern distribution for one p")
    pat.add_argument("--p", type=int, required=True)
    pat.add_argument("--ell", type=int, required=True)
    add_format(pat)
    pat.set_defaults(func=_cmd_patterns)

    cz = sub.add_parser("czcheck", help="block-statistic bound check")
    cz.add_argument("--p", type=int, required=True)
    cz.add_argument("--s-max", type=int, default=3)
    add_format(cz)
    cz.set_defaults(func=_cmd_czcheck)

    tab = sub.add_parser("tables", help="regenerate the reference tables")
    tab.add_argument("--which", type=int, choices=[1, 2], required=True)
    tab.add_argument("--factor-k-max", type=int, default=default_k_max)
    add_format(tab)
    tab.set_defaults(func=_cmd_tables)

    sc = sub.add_parser("scan", help="scan a prime range for candidates")
    sc.add_argument("--p-min", type=int, required=True)
    sc.add_argument("--p-max", type=int, required=True)
    sc.add_argument("--t-prime", action="store_true")
    sc.add_argument("--no-flags", action="store_true")
    sc.add_argument("--two-primitive-root", action="store_true")
    sc.add_argument("--factor-k-max", type=int,
                    default=search.DEFAULT_SCAN_FACTOR_K_MAX)
    sc.add_argument("--workers", type=int, default=default_workers)
    add_format(sc)
    sc.set_defaults(func=_cmd_scan)

    return parser


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_OK
    try:
        return args.func(args, out)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except complexity.InconsistencyError as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
