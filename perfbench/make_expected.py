"""Write perfbench/expected.json: every input a seed can choose, with its expected output.

    PYTHONPATH=src python3 perfbench/make_expected.py

Values come from the library functions (search.build_row,
complexity.full_report, sequence.pattern_stats, ...), not from the CLI, so
rows the CLI cannot print today are still stored.  Run it again only when a
workload's inputs change; a run takes about two minutes.
"""

import json
import math
from itertools import product

from rootparity import bounds, complexity, search, sequence
from rootparity.numtheory import euler_phi, is_prime, smallest_mersenne_factor

import workloads as wl

WINDOW = 0.03  # seeds move an input by at most this share of its default
LADDER_T_WINDOW = 0.01  # a ladder prime's T stays this close to the rung's T
LADDER_CANDIDATES = 8


def _frac(f) -> str:
    return f"{f.numerator}/{f.denominator}"


def _row(row: search.SearchRow) -> dict:
    return {
        "T": row.T, "p": row.p, "ord": row.ord_T_2, "q": row.q, "log2q": row.log2q,
        "ratio": _frac(row.ratio), "flags": sorted(row.flags), "mersenne": row.mersenne,
    }


def _period(p: int) -> int:
    return euler_phi(p - 1) - 1


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 11), hi + 1) if is_prime(p)]


def _window(default: int, breaks: list[int]) -> list[int]:
    """The stretch of upper ends around `default` that includes the same breaks.

    A break is a prime within WINDOW of the default whose inclusion changes
    the expensive work; without breaks the stretch is the whole WINDOW.
    """
    lo = max([b for b in breaks if b <= default], default=math.ceil(default * (1 - WINDOW)))
    hi = min([b - 1 for b in breaks if b > default], default=math.floor(default * (1 + WINDOW)))
    return [lo, hi]


def _analyze(ctx: sequence.PrimeContext) -> dict:
    seq = sequence.build_s_sequence(ctx)
    bal = sequence.balance(seq, ctx)
    rep = complexity.full_report(ctx, factor_budget=wl.ANALYZE_FACTOR_K_MAX)
    return {
        "p": ctx.p, "T": ctx.T, "n0": bal.n0, "n1": bal.n1, "L": rep.L,
        "L_lower": rep.L_lower, "s1": rep.s1, "epsilon": rep.epsilon,
        "S2": wl.s2_digest(rep.S2), "C": rep.C, "C_lower": rep.C_lower,
    }


def _ladder_entry(p: int) -> dict:
    ctx = sequence.build_context(p)
    seq = sequence.build_s_sequence(ctx)
    pat = sequence.pattern_stats(seq, ctx, wl.PATTERN_ELL)
    cz = []
    for s in range(1, wl.CZ_S_MAX + 1):
        for eps in product((1, -1), repeat=s):
            chk = sequence.cz_bound_check(p, list(eps))
            cz.append({"p": p, "epsilons": list(eps), "m": chk.m,
                       "main_term": chk.main_term, "bound": chk.bound, "holds": chk.holds})
    return {
        "p": p,
        "T": ctx.T,
        "generate": {
            "p": p, "T": ctx.T, "eta": _frac(ctx.eta),
            "regime": bounds.classify_eta(ctx.eta).regime, "variant": "s",
            "bits_sha256": wl.digest("".join(map(str, seq.bits))),
        },
        "analyze": _analyze(ctx),
        "patterns": {
            "p": p, "T": ctx.T, "ell": pat.ell, "windows": ctx.T - pat.ell + 1,
            "counts": pat.counts,
            "weight_counts": {str(w): c for w, c in pat.weight_counts.items()},
            "predicted_per_pattern": {str(w): _frac(f) for w, f in pat.predicted.items()},
        },
        "czcheck": cz,
    }


def ladder_candidates(p0: int) -> list[int]:
    """Primes near a rung whose period is composite and close to the rung's.

    A composite T keeps Lucas-Lehmer and the factor hunt out of the ladder.
    """
    T0 = _period(p0)
    if is_prime(T0):
        raise ValueError(f"rung {p0} has prime period {T0}")
    near = [
        p for p in _primes(math.ceil(p0 * (1 - WINDOW)), math.floor(p0 * (1 + WINDOW)))
        if not is_prime(T := _period(p)) and abs(T - T0) <= LADDER_T_WINDOW * T0
    ]
    return sorted(near, key=lambda p: (abs(p - p0), p))[:LADDER_CANDIDATES]


def main() -> None:
    around = lambda d: _primes(math.ceil(d * (1 - WINDOW)), math.floor(d * (1 + WINDOW)))
    # scan cost: one Lucas-Lehmer test per prime period
    scan_breaks = [p for p in around(wl.SCAN_P_MAX) if is_prime(_period(p))]
    scan_window = _window(wl.SCAN_P_MAX, scan_breaks)
    # analyze-range cost: one exhausted factor hunt per prime period without a small factor
    range_breaks = [
        p for p in around(wl.RANGE_HI)
        if is_prime(T := _period(p)) and smallest_mersenne_factor(T, wl.ANALYZE_FACTOR_K_MAX) is None
    ]
    range_window = _window(wl.RANGE_HI, range_breaks)
    data = {
        "tables": {
            "1": [_row(r) for r in search.reproduce_table1()[0]],
            "2": [_row(r) for r in search.reproduce_table2(factor_k_max=wl.TABLE2_FACTOR_K_MAX)[0]],
        },
        "scan": {
            "p_max_window": scan_window,
            "rows": [_row(search.build_row(p, search.DEFAULT_SCAN_FACTOR_K_MAX))
                     for p in _primes(11, scan_window[1])],
        },
        "analyze_range": {
            "hi_window": range_window,
            "rows": [_analyze(sequence.build_context(p)) for p in _primes(11, range_window[1])],
        },
        "ladder": [
            {"rung": p0, "candidates": [_ladder_entry(p) for p in ladder_candidates(p0)]}
            for p0 in wl.LADDER_RUNGS
        ],
    }
    with open(wl.EXPECTED_PATH, "w") as f:
        json.dump(data, f, separators=(",", ":"))
        f.write("\n")


if __name__ == "__main__":
    main()
