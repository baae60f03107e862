"""Workloads: seeded inputs, the timed jobs, and their untimed checks.

Each workload runs four jobs in a fixed order, one after another, from one
caller.  A repetition draws its inputs from (workload, run seed, repetition
index), so the same seed gives the same inputs and every repetition of a
run gets inputs of its own.  The package sees only those inputs and is
reached only through its public functions and `cli.main(argv)`.

Sizes are chosen so that one repetition takes a second or two and the draw
does not change the cost: window lengths vary by about 1%, and the `scan`
slopes are quadratic surds with 1/alpha between 0.69 and 0.72, since Beatty
work grows with the member density 1/alpha.  What leaves the cost alone
(window positions, the `sweep` and `certify` slopes, offsets, sampled
progressions, the order of the M_k dimensions) varies freely.

Checks run after all four jobs and return a list of failure messages per
job.  A negative finding (no pair found, a trend flag of False with exit 1)
is an outcome, not a failure.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
import warnings
from fractions import Fraction

from beattysieve import (arith, beatty, buchstab, chars, cli, equidist,
                         maynard, tuples, variational)

import oracle

SIZES = {
    "full": {"find_n": 125_000, "member_w": 6_000, "s1s2_n": 125_000,
             "regcond_n": 12_500, "sweep_n": 2_500, "q_cap": 6, "r_cap": 8,
             "mk_degree": 5, "r2": 300, "r3": 150, "chain_n": 15_000,
             "chars_q": 70, "chars_m": 70},
    "tiny": {"find_n": 3_000, "member_w": 300, "s1s2_n": 3_000,
             "regcond_n": 2_000, "sweep_n": 400, "q_cap": 3, "r_cap": 3,
             "mk_degree": 2, "r2": 30, "r3": 20, "chain_n": 1_000,
             "chars_q": 8, "chars_m": 8},
}

# alpha = (a + b sqrt(d)) / c
SCAN_SLOPES = ((0, 1, 2, 1), (2, 1, 5, 3), (3, 1, 7, 4), (2, 1, 13, 4),
               (1, 1, 21, 4), (0, 1, 31, 4), (1, 1, 22, 4), (4, 1, 3, 4),
               (2, 1, 14, 4), (0, 1, 33, 4), (1, 1, 11, 3))
WIDE_SLOPES = ((0, 1, 2, 1), (1, 1, 5, 2), (0, 1, 3, 1), (1, 1, 13, 2),
               (0, 1, 5, 1), (1, 1, 2, 1), (0, 1, 7, 1), (1, 1, 3, 2),
               (0, 1, 6, 1), (1, 1, 7, 2), (0, 1, 10, 1), (1, 1, 6, 2))

PAIR_OFFSETS = ((0, 2), (0, 4), (0, 8), (0, 16))
TRIPLE_OFFSETS = ((0, 2, 6), (0, 4, 6), (0, 6, 8), (0, 2, 8), (0, 4, 12))

# criterion-1 acceptance bounds on the region integrals
I1_TOP, I2_TOP, I_SLACK, B_FLOOR = 0.03925889, 0.0566295, 1e-4, 0.90411


def _slope(slopes, workload, seed, rep):
    """The run's repetitions walk a seeded shuffle of the slopes."""
    order = list(slopes)
    random.Random(f"{workload}:{seed}:slopes").shuffle(order)
    a, b, d, c = order[rep % len(order)]
    return beatty.BeattyParams.quadratic(a, b, d, c)


def _frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def make_inputs(workload: str, seed: int, rep: int, size: str) -> dict:
    """All inputs of one repetition, drawn from the seed; the package only
    builds the surd parameters here."""
    s = SIZES[size]
    rng = random.Random(f"{workload}:{seed}:{rep}")
    if workload == "scan":
        params = _slope(SCAN_SLOPES, workload, seed, rep)
        find_lo = s["find_n"] + rng.randrange(s["find_n"] // 100)
        member_lo = rng.randrange(10**6, 2 * 10**6)
        reg_n = s["regcond_n"] + rng.randrange(s["regcond_n"] // 100)
        return {"params": params, "alpha": _frac_text(params.alpha_exact),
                "find": (find_lo, 2 * find_lo),
                "member": (member_lo, member_lo + s["member_w"]),
                "s1s2_n": s["s1s2_n"] + rng.randrange(s["s1s2_n"] // 100),
                "regcond_grid": (reg_n, 4 * reg_n),
                "translate_l": rng.randrange(30, 60)}
    if workload == "sweep":
        params = _slope(WIDE_SLOPES, workload, seed, rep)
        n = s["sweep_n"] + rng.randrange(s["sweep_n"] // 100)
        return {"params": params, "grid": (n, 2 * n),
                "q_cap": s["q_cap"], "r_cap": s["r_cap"],
                "sample": rng.random()}
    if workload == "certify":
        params = _slope(WIDE_SLOPES, workload, seed, rep)
        ks = [5, 6, 7, 8]
        rng.shuffle(ks)
        q = s["chars_q"]
        step = q // 8 | 1  # odd, so the moduli do not all share a residue mod 4
        return {"mk": [(k, s["mk_degree"]) for k in ks],
                "pair": (rng.choice(PAIR_OFFSETS), s["r2"] + rng.randrange(-2, 3)),
                "triple": (rng.choice(TRIPLE_OFFSETS), s["r3"] + rng.randrange(-2, 3)),
                "chain_n": s["chain_n"] + rng.randrange(s["chain_n"] // 100),
                "chars_q": q, "gamma": params.gamma,
                "m0": s["chars_m"] + rng.randrange(3),
                "k0": s["chars_m"] + rng.randrange(3),
                "gauss_moduli": tuple(range(q + rng.randrange(step), 2 * q, step)),
                "gauss_seed": rng.randrange(10**9)}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# jobs; each takes (inputs, tracer) and returns the result to check


def _cli(tr, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    text = out.getvalue()
    tr.add("cli.bytes_out", len(text.encode()))
    tr.add("cli.exit_nonzero", int(rc != 0))
    return rc, text


def job_find(inp, tr):
    lo, hi = inp["find"]
    return _cli(tr, ["find", "--t", "2", "--lo", str(lo), "--hi", str(hi),
                     "--alpha", inp["alpha"]])


def job_member(inp, tr):
    params = inp["params"]
    lo, hi = inp["member"]
    with tr.span("beatty", "torus_member loop"):
        return [beatty.torus_member(params, n) for n in range(lo, hi)]


def job_s1s2(inp, tr):
    return _cli(tr, ["sieve", "s1s2", "--alpha", inp["alpha"],
                     "--n", str(inp["s1s2_n"])])


def job_regcond(inp, tr):
    params = inp["params"]
    shift = tuples.translate_tuple(inp["translate_l"], 1, params.gamma_exact,
                                   Fraction(1, 20))
    h = shift.tuple_.offsets[0]
    lo, hi = inp["regcond_grid"]
    rc, text = _cli(tr, ["equidist", "regcond", "--alpha", inp["alpha"],
                         "--ngrid", f"{lo},{hi}", "--offsets", f"0,{h}",
                         "--eps", "0.05"])
    return rc, text, h


def _harness(inp, exact, kind, state):
    if "table" not in state:
        state["table"] = arith.FactorTable(2 * max(inp["grid"]))
    gamma = inp["params"].gamma_exact if exact else inp["params"].gamma
    if kind == "bv":
        cfg = equidist.HarnessConfig(gamma=gamma, n_grid=inp["grid"], q_cap=inp["q_cap"])
        return equidist.bv_harness(cfg, state["table"])
    cfg = equidist.HarnessConfig(gamma=gamma, n_grid=inp["grid"], r_cap=inp["r_cap"])
    return equidist.bdh_harness(cfg, state["table"])


def job_mk(inp, tr):
    return [variational.mk_lower_bound(k, degree) for k, degree in inp["mk"]]


def _round_trip(k, offsets, d0, r_value):
    ctx = maynard.build_context(k, 10**4, 0.5, 0.05, d0=d0, r_value=r_value,
                                offsets=offsets)
    family = maynard.weights(ctx, offsets)
    return ctx, family, maynard.invert_lambda(ctx, family.lam)


def job_weights(inp, tr):
    (pair, r2), (triple, r3) = inp["pair"], inp["triple"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return [_round_trip(2, pair, 2, r2), _round_trip(3, triple, 3, r3)]


def job_chain(inp, tr):
    n = inp["chain_n"]
    return buchstab.decomposition_check(n, 2 * n), buchstab.region_integrals()


def job_bilinear(inp, tr):
    q, m0, k0 = inp["chars_q"], inp["m0"], inp["k0"]
    a = {m: 1.0 for m in range(m0, 2 * m0)}
    b = {k: 1.0 for k in range(k0, 2 * k0)}
    report = chars.bilinear_report(q, inp["gamma"], a, b, m0 * k0, 4 * m0 * k0)
    rng = random.Random(inp["gauss_seed"])
    sums = []
    with tr.span("chars", "gauss_sum loop"):
        for modulus in inp["gauss_moduli"]:
            n = rng.randrange(1, modulus) if modulus > 1 else 0
            while math.gcd(n, modulus) != 1:
                n = rng.randrange(1, modulus)
            for chi in chars.char_table(modulus).characters:
                if chi.is_primitive:
                    sums.append((modulus, n, chars.gauss_sum(chi, n)))
        tr.add("chars.characters", len(sums))
    return report, sums


def run_jobs(workload, inp, tr):
    """(job name, thunk) pairs in the workload's order."""
    if workload == "scan":
        return [("find", lambda: job_find(inp, tr)),
                ("member", lambda: job_member(inp, tr)),
                ("s1s2", lambda: job_s1s2(inp, tr)),
                ("regcond", lambda: job_regcond(inp, tr))]
    if workload == "sweep":
        state = {}
        return [(f"{kind}_{mode}", (lambda kind=kind, exact=(mode == "exact"):
                                    _harness(inp, exact, kind, state)))
                for kind in ("bv", "bdh") for mode in ("float", "exact")]
    return [("mk", lambda: job_mk(inp, tr)),
            ("weights", lambda: job_weights(inp, tr)),
            ("chain", lambda: job_chain(inp, tr)),
            ("bilinear", lambda: job_bilinear(inp, tr))]


# ---------------------------------------------------------------------------
# checks; each returns a list of failure messages (empty when the result holds)


def _beatty_count(params, lo, hi) -> int:
    """#{m >= 1 : lo <= floor(alpha m + beta) < hi}, in closed form."""
    a, b = params.alpha_exact, params.beta_exact

    def first_index(bound):  # least m >= 1 with alpha m + beta >= bound
        return max(1, math.ceil((bound - b) / a))
    return max(0, first_index(hi) - first_index(lo))


def check_find(inp, result):
    rc, text = result
    lo, hi = inp["find"]
    params = inp["params"]
    if rc not in (0, 1):
        return [f"find exit code {rc}"]
    payload = json.loads(text)
    bad = []
    if payload["scan"]["beatty_members"] != _beatty_count(params, lo, hi):
        bad.append("find: beatty_members differs from the closed-form count")
    if not payload["found"]:
        return bad + (["find: exit 0 without a pair"] if rc == 0 else [])
    primes = payload["primes"]
    table = arith.FactorTable(hi)
    if (len(primes) != 2 or primes[0] >= primes[1]
            or payload["diameter"] != primes[1] - primes[0]):
        bad.append(f"find: malformed pair {primes}")
    for p in primes:
        if not (lo <= p < hi and table.is_prime(p) and beatty.torus_member(params, p)):
            bad.append(f"find: {p} is not a Beatty prime in [{lo}, {hi})")
    return bad


def check_member(inp, result):
    lo, hi = inp["member"]
    got = [n for n, hit in zip(range(lo, hi), result) if hit]
    if len(result) != hi - lo or got != beatty.beatty_enumerate(inp["params"], lo, hi):
        return ["member: torus_member disagrees with beatty_enumerate"]
    return []


def check_s1s2(inp, result):
    rc, text = result
    if rc != 0:
        return [f"s1s2 exit code {rc}"]
    payload = json.loads(text)
    n = inp["s1s2_n"]
    bad = []
    if payload["a_size"] != _beatty_count(inp["params"], n, 2 * n):
        bad.append("s1s2: a_size differs from the closed-form count")
    if not (math.isfinite(payload["s1_observed"]) and payload["s1_observed"] > 0
            and math.isfinite(payload["ratio_s1"])):
        bad.append("s1s2: S1 or its ratio is not a positive finite number")
    # the exact identity on a small window of the same family (k=2, h=(0,2))
    small = 2_000
    ctx = maynard.build_context(2, small, 0.99, 0.005, d0=2, offsets=(0, 2))
    family = maynard.weights(ctx, (0, 2))
    members = beatty.beatty_enumerate(inp["params"], small, 2 * small)
    direct, _ = maynard.s1_s2_direct(ctx, (0, 2), members, family=family)
    if direct != maynard.lambda_lambda_s1(ctx, (0, 2), members, small, 2 * small,
                                          family=family):
        bad.append("s1s2: direct S1 and the lambda-lambda double sum differ")
    return bad


def check_regcond(inp, result):
    rc, text, h = result
    if rc not in (0, 1):
        return [f"regcond exit code {rc}"]
    payload = json.loads(text)
    rows = payload["rows"]
    bad = []
    if [row["n"] for row in rows] != list(inp["regcond_grid"]):
        bad.append("regcond: rows do not follow the grid")
    if payload["offsets"] != [0, h]:
        bad.append("regcond: offsets changed")
    if not all(row["arc_route_matches"].get(str(m)) is True
               for row in rows for m in range(2)):
        bad.append("regcond: arc route and set route disagree")
    expected = None if len(rows) < 2 else rows[-1]["norm12"] < rows[0]["norm12"]
    if payload["flags"]["regcond_trend_down"] != expected or rc != (0 if expected else 1):
        bad.append("regcond: trend flag or exit code inconsistent with the rows")
    return bad


def _check_harness(inp, rows, exact, kind):
    params = inp["params"]
    gamma = params.gamma_exact if exact else params.gamma
    cap = inp["q_cap"] if kind == "bv" else inp["r_cap"]
    bad = []
    if [row["n"] for row in rows] != list(inp["grid"]):
        return [f"{kind}: rows do not follow the grid"]
    n = inp["grid"][0]
    table = arith.FactorTable(2 * n)
    # q = 1: the single progression, recomputed on its own
    e1 = equidist.e_sup(n, 2 * n, gamma, 1, 0, table).e
    first = rows[0]["terms"][0] if kind == "bv" else rows[0]["per_q"][0]
    if first != ((1, 0, float(e1)) if kind == "bv" else (1, float(e1 * e1))):
        bad.append(f"{kind}: q = 1 entry differs from e_sup")
    # one sampled progression against the quadratic-time oracle, at the
    # modulus up to the cap with the most classes (the fewest points each)
    q = max(range(1, cap + 1), key=lambda m: (arith.euler_phi(m), m))
    classes = [a for a in range(q) if math.gcd(a, q) == 1]
    a = classes[int(inp["sample"] * len(classes))]
    row = equidist.e_sup(n, 2 * n, gamma, q, a, table)
    if row.e != oracle.arc_error(n, 2 * n, q, a, gamma):
        bad.append(f"{kind}: e_sup(q={q}, a={a}) differs from the oracle")
    entries = rows[0]["terms"] if kind == "bv" else rows[0]["per_q"]
    entry = next(e for e in entries if e[0] == q)
    if float(row.e if kind == "bv" else row.e * row.e) > entry[-1]:
        bad.append(f"{kind}: the q = {q} entry is below a sampled progression")
    return bad


def check_mk(inp, result):
    bad = []
    for (k, degree), (bound, cert) in zip(inp["mk"], result):
        labels, elements = variational.symmetric_basis(k, degree)
        keep = [elements[labels.index(lab)] for lab in cert.labels]
        requoted = variational.rayleigh_quotient(variational.forms(keep),
                                                 cert.coefficients)
        if requoted != cert.quotient or float(cert.quotient) != bound:
            bad.append(f"mk: certificate for k={k} does not re-quote exactly")
    return bad


def check_weights(inp, result):
    bad = []
    for ctx, family, inverse in result:
        if not (inverse.consistent and inverse.max_residual == 0):
            bad.append(f"weights: nonzero residual {inverse.max_residual} at k={ctx.k}")
        if inverse.y != family.y:
            bad.append(f"weights: recovered y differs at k={ctx.k}")
    return bad


def check_chain(inp, result):
    violations, vals = result
    bad = [] if violations == 0 else [f"chain: {violations} identity violations"]
    i1, i2 = vals["I1"], vals["I2"]
    if not (I1_TOP - I_SLACK <= i1 <= I1_TOP and I2_TOP - I_SLACK <= i2 <= I2_TOP
            and 1.0 - i1 - i2 >= B_FLOOR and vals["quadrature_error"] < 1e-6):
        bad.append("chain: region integrals outside the criterion-1 bounds")
    return bad


def check_bilinear(inp, result):
    report, sums = result
    q, m0, k0 = inp["chars_q"], inp["m0"], inp["k0"]
    pairs = m0 * k0
    trivial = pairs * sum(arith.euler_phi(m) for m in range(q, 2 * q))
    bad = []
    if not 0 <= report["lhs"] <= trivial:
        bad.append("bilinear: lhs outside [0, trivial bound]")
    for modulus, n, value in sums:
        if abs(abs(value) - math.sqrt(modulus)) > 1e-9:
            bad.append(f"bilinear: |gauss sum| != sqrt({modulus}) for n={n}")
            break
    if not sums:
        bad.append("bilinear: no primitive characters summed")
    return bad


def check(workload, name, inp, result):
    if workload == "sweep":
        kind, mode = name.split("_")
        return _check_harness(inp, result, mode == "exact", kind)
    return globals()[f"check_{name}"](inp, result)


def check_results(workload, inp, results) -> dict:
    """Failure messages per failed job.  results maps each job name to
    ("ok", value) or ("raised", traceback text)."""
    failures = {}
    for name, (status, value) in results.items():
        if status == "raised":
            failures[name] = [value]
            continue
        try:
            bad = check(workload, name, inp, value)
        except Exception:
            bad = ["check raised: " + traceback.format_exc(limit=3)]
        if bad:
            failures[name] = bad
    return failures
