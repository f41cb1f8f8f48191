"""Command-line surface: generate, analyze, patterns, czcheck, tables, scan.

Output formats, for every command: human text (no stability guarantee),
json-lines (one object per row; an integer above 2^53, S2 among them, is an
exact decimal string, even past Python's 4300-digit limit) and csv (fixed
header; fractions as num/den, plus a 6-place decimal for ratio and analyze's eta).

A record holds the library's values, Fractions and int-keyed dicts among
them, until a writer renders them: text and csv print str(Fraction) and json
_frac_str, both num/den, as every such fraction lies in (0, 1).  Only big
integers are rendered as a record is built, by _json_int, since text and csv
meet str(int)'s 4300-digit limit too.  A scan or table row's record is
SearchRow.record().

Where `analyze --p-range` runs: run as its own process (main()), on two CPUs
with os.fork, the command forks once, and each period's records are made in
one of the two processes (_analyze_docs); this one writes them all, in
ascending p.  A child's fault is raised here as itself, so stderr and the
exit code are those of one process.  `analyze --p`, one CPU, a platform
without os.fork and an in-process call of run() make every record here.
At p up to 2000, the two shares took 0.13 and 0.17 s where one process took
0.30 s (Python 3.11.7, 2 vCPU, in one process each).

Exit codes: 0 success, 1 usage error, 2 table discrepancy, 3 internal
inconsistency or any other fault after the arguments were accepted.
"""

import argparse
import csv
import json
import sys
from contextlib import contextmanager, redirect_stdout
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from itertools import product

from . import bounds, complexity, search, sequence
from .numtheory import (
    DEFAULT_FACTOR_K_MAX, DEFAULT_SCAN_FACTOR_K_MAX, PSI_12, euler_phi, is_prime,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISCREPANCY = 2
EXIT_INCONSISTENT = 3

# czcheck holds its 2^(s_max + 1) - 2 sign vectors before printing, fewer
# than 2^16 records, as patterns holds 2^ell <= 2^sequence.MAX_ELL.
MAX_S_MAX = sequence.MAX_ELL - 1
# analyze's ceiling on p: T <= (p - 3)/2 keeps its periods within MAX_LC_T
MAX_ANALYZE_P = 2 * complexity.MAX_LC_T + 3


class _UsageError(Exception):
    """A bad argument that only the command can see, since it depends on p."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _json_int(n):
    # exact and, unlike str(n), not capped at 4300 digits
    if n is None or abs(n) <= 2 ** 53:
        return n
    with localcontext() as ctx:  # wide enough that every join is exact
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        return str(_decimal(n))


def _decimal(n: int) -> Decimal:
    """Decimal(n) in near-linear time, where Decimal(n) alone is quadratic in
    the bit length: n = hi * 2^k + lo, each half converted the same way down
    to 3000-bit leaves and joined by one fused multiply-add."""
    if n.bit_length() <= 3000:
        return Decimal(n)
    k = n.bit_length() // 2
    return _decimal(n >> k).fma(Decimal(2) ** k, _decimal(n & ((1 << k) - 1)))


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _row_doc(row: search.SearchRow) -> dict:
    doc = row.record()
    return doc | {k: _json_int(doc[k]) for k in ("T", "p", "ord", "q")}


ROW_CSV_HEADER = [
    "T", "p", "ord", "q", "log2q", "ratio", "ratio_frac",
    "mersenne", "flags", "q_source",
]

# a prime's header, eta_frac after eta, then the reports' fields
ANALYZE_CSV_HEADER = [
    "p", "T", "eta", "eta_frac", "regime", *sequence.BalanceReport._fields,
    *complexity.ComplexityReport._fields,
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
            print(json.dumps(doc, default=_frac_str), file=out)
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
        f"(~{float(doc['ratio']):.3f}) mersenne={doc['mersenne']} "
        f"flags={','.join(doc['flags']) or '-'}"
    )


def _row_csv(doc: dict) -> list:
    return [[
        doc["T"], doc["p"], doc["ord"], doc["q"], doc["log2q"],
        f"{float(doc['ratio']):.6f}", doc["ratio"],
        None if doc["mersenne"] is None else int(doc["mersenne"]),
        "|".join(doc["flags"]), doc["q_source"],
    ]]


def _emit_rows(out, fmt, rows):
    _emit(out, fmt, map(_row_doc, rows), _row_text, ROW_CSV_HEADER, _row_csv)


def _prime_header(ctx: sequence.PrimeContext) -> dict:
    return {
        "p": ctx.p,
        "T": ctx.T,
        "eta": ctx.eta,
        "regime": bounds.classify_eta(ctx.eta).regime,
    }


def _cmd_generate(args, out):
    ctx = sequence.build_context(args.p)
    build = sequence.build_t_sequence if args.variant == "t" else sequence.build_s_sequence
    # bits are index-ascending; bit n carries weight 2^n in S(2)
    doc = _prime_header(ctx) | {"variant": args.variant, "bits": build(ctx).bits}
    _emit(out, args.format, [doc], _kv_text, list(doc))
    return EXIT_OK


def _analyze_doc(p: int, factor_k_max: int) -> dict:
    ctx = sequence.build_context(p)
    seq = sequence.build_s_sequence(ctx)
    bal = sequence.balance(seq, ctx)
    rep = complexity.full_report(ctx, factor_budget=factor_k_max, seq=seq)
    return {**_prime_header(ctx), **bal._asdict(), **rep._asdict(), "S2": _json_int(rep.S2)}


def _analyze_csv(doc: dict) -> list:
    # the eta column carries a 6-place decimal ahead of the exact fraction
    p, T, *rest = doc.values()
    return [[p, T, f"{float(doc['eta']):.6f}", *rest]]


def _by_period(primes):
    """(p, share) for each prime: each new period T = phi(p - 1) - 1 takes the
    share, 0 or 1, that the last new one did not, and keeps it for every p."""
    shares = {}
    for p in primes:
        yield p, shares.setdefault(euler_phi(p - 1) - 1, len(shares) % 2)


@contextmanager
def _analyze_docs(primes, factor_k_max: int, split: bool):
    """The records of primes, in order.

    With split, where complexity._can_fork(), the command forks once and both
    processes walk the primes: this one makes the records of share 0 and the
    child those of share 1, which it sends here pickled.  So each period's
    factor hunt runs, and is cached, in one process, and inside a share the
    linear-complexity pair runs serially.
    """
    def doc(p):
        return _analyze_doc(p, factor_k_max)

    if not (split and complexity._can_fork()):
        yield map(doc, primes)
        return
    shares = _by_period(primes)
    with complexity._forked(lambda: (doc(p) for p, share in shares if share)) as theirs:
        yield (next(theirs) if share else doc(p) for p, share in shares)


def _cmd_analyze(args, out):
    if args.p is not None:
        primes, split = [args.p], False
    else:
        lo, hi = args.p_range
        primes = filter(is_prime, range(lo | 1, hi + 1, 2))  # lo >= 11
        split = args.own_process
    with _analyze_docs(primes, args.factor_k_max, split) as docs:
        _emit(out, args.format, docs, lambda doc: _kv_text(doc) + "\n",
              ANALYZE_CSV_HEADER, _analyze_csv)
    return EXIT_OK


def _pattern_rows(doc: dict) -> list:
    rows = []
    for pat, count in sorted(doc["counts"].items()):
        w = pat.count("1")
        rows.append([pat, w, count, doc["predicted_per_pattern"][w]])
    return rows


def _patterns_text(doc: dict) -> str:
    lines = [f"p = {doc['p']}, T = {doc['T']}, ell = {doc['ell']}, "
             f"windows = {doc['windows']}"]
    for pat, _, count, predicted in _pattern_rows(doc):
        lines.append(f"  {pat}  count={count}  "
                     f"predicted~{float(predicted):.4f}")
    return "\n".join(lines)


def _cmd_patterns(args, out):
    ctx = sequence.build_context(args.p)
    if args.ell > ctx.T:
        raise _UsageError(f"ell must lie in [1, {ctx.T}], got {args.ell}")
    seq = sequence.build_s_sequence(ctx)
    rep = sequence.pattern_stats(seq, ctx, args.ell)
    doc = {
        "p": ctx.p,
        "T": ctx.T,
        "ell": rep.ell,
        "windows": seq.period - args.ell + 1,
        "counts": rep.counts,
        "weight_counts": rep.weight_counts,
        "predicted_per_pattern": rep.predicted,
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
    if args.s_max >= args.p:
        raise _UsageError(f"s_max must lie in [1, {args.p - 1}], got {args.s_max}")
    docs = []
    for s in range(1, args.s_max + 1):
        for eps in product((1, -1), repeat=s):
            chk = sequence.cz_bound_check(args.p, list(eps))
            docs.append({"p": args.p, "epsilons": list(eps), **chk._asdict()})
    header = ["p", "epsilons", *sequence.CzCheck._fields]
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
    )
    _emit_rows(out, args.format, search.scan(args.p_min, args.p_max, criteria))
    return EXIT_OK


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _at_least(lo: int, cap: int | None = None):
    """An argparse type for integers >= lo and, given a cap, <= cap."""
    def parse(text: str) -> int:
        n = _int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        if cap is not None and n > cap:
            raise argparse.ArgumentTypeError(f"must be <= {cap}, got {n}")
        return n
    return parse


def _prime_p(text: str, cap: int = sequence.MAX_P) -> int:
    p = _int(text)
    if not 11 <= p <= cap or not is_prime(p):
        raise argparse.ArgumentTypeError(f"must be a prime in [11, {cap}], got {p}")
    return p


def _analyze_p(text: str) -> int:
    return _prime_p(text, MAX_ANALYZE_P)


def _range_end(text: str) -> int:
    """The upper end of a scan: below psi_12, where is_prime stops."""
    n = _int(text)
    if n >= PSI_12:
        raise argparse.ArgumentTypeError(f"must be below psi_12 ~ 3.19e23, got {n}")
    return n


def _p_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like 11..100")
    lo, hi = _int(lo), _int(hi)
    if lo < 11:
        raise argparse.ArgumentTypeError(f"lower end must be >= 11, got {lo}")
    if hi > MAX_ANALYZE_P:
        raise argparse.ArgumentTypeError(f"upper end must be <= {MAX_ANALYZE_P}, got {hi}")
    if hi < lo:
        raise argparse.ArgumentTypeError("empty range")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rootparity")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, budget=None):
        cmd = sub.add_parser(name, help=help)
        cmd.add_argument("--format", choices=["text", "json-lines", "csv"],
                         default="text")
        if budget is not None:
            cmd.add_argument("--factor-k-max", type=_at_least(0), default=budget)
        cmd.set_defaults(func=func)
        return cmd

    gen = command("generate", _cmd_generate, "emit one period of the sequence")
    gen.add_argument("--p", type=_prime_p, required=True)
    gen.add_argument("--variant", choices=["s", "t"], default="s")

    ana = command("analyze", _cmd_analyze, "balance + complexity report",
                  DEFAULT_FACTOR_K_MAX)
    grp = ana.add_mutually_exclusive_group(required=True)
    grp.add_argument("--p", type=_analyze_p)
    grp.add_argument("--p-range", type=_p_range)

    pat = command("patterns", _cmd_patterns, "pattern distribution for one p")
    pat.add_argument("--p", type=_prime_p, required=True)
    pat.add_argument("--ell", type=_at_least(1, sequence.MAX_ELL), required=True,
                     help=f"window length, 1 to {sequence.MAX_ELL} and at most "
                     f"T; all 2^ell patterns are held and printed, at most "
                     f"2^{sequence.MAX_ELL}")

    cz = command("czcheck", _cmd_czcheck, "block-statistic bound check")
    cz.add_argument("--p", type=_prime_p, required=True)
    cz.add_argument("--s-max", type=_at_least(1, MAX_S_MAX), default=3,
                    help=f"longest block, 1 to {MAX_S_MAX} and below p (default "
                    f"3); all 2^(s_max + 1) - 2 sign vectors are held and "
                    f"printed, fewer than 2^{MAX_S_MAX + 1}")

    tab = command("tables", _cmd_tables, "regenerate the reference tables",
                  DEFAULT_FACTOR_K_MAX)
    tab.add_argument("--which", type=int, choices=[1, 2], required=True)

    sc = command("scan", _cmd_scan, "scan a prime range for candidates",
                 DEFAULT_SCAN_FACTOR_K_MAX)
    sc.add_argument("--p-min", type=_at_least(11), required=True)
    sc.add_argument("--p-max", type=_range_end, required=True)
    sc.add_argument("--t-prime", action="store_true")
    sc.add_argument("--no-flags", action="store_true")
    sc.add_argument("--two-primitive-root", action="store_true")

    return parser


def run(argv=None, out=None, own_process=False) -> int:
    """Run one command on argv (default sys.argv[1:]), writing its records to
    out (default sys.stdout), and return its exit code.

    own_process says that the command has the process to itself, as under
    main(): only then does `analyze --p-range` fork it to split the records.
    An in-process caller, such as a tracer that wraps the layers, sees every
    call in this process, except the gcd of a forked linear-complexity pair.
    """
    out = out if out is not None else sys.stdout
    try:
        with redirect_stdout(out):  # --help; usage errors go to stderr
            args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_OK
    args.own_process = own_process
    try:
        return args.func(args, out)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except complexity.InconsistencyError as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except BrokenPipeError:
        raise  # a closed stdout is not a fault: left to an in-process caller
    except Exception as e:  # a fault, not the user's input: say so in one line
        print(f"internal error in {args.command}: {e!r}", file=sys.stderr)
        return EXIT_INCONSISTENT


def main() -> None:
    # A write to a closed stdout, as in `rootparity scan ... | head`, ends the
    # command as it ends `cat`: killed by SIGPIPE with nothing on stderr (POSIX).
    import signal

    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(run(own_process=True))


if __name__ == "__main__":
    main()
