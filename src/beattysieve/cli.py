"""Command line frontend.

One subcommand per library module, plus `find` (the end-to-end
constellation pipeline) and `report` (bundled artifact tables).  The
parser is built once per process, and each flag declares its type with
the flag, so handlers read typed values.

--config FILE reads flat `key = value` lines (UTF-8, `#` comments).  A
key names a flag's destination (`qcap_demo`, `lo` for --from, `apower`
for --A; `-` and `_` are interchangeable).  The pairs enter the command
line as `--flag=value` right after the subcommand's name, so argparse
coerces them like typed flags, a required flag may come from the file,
and an explicit flag, under any of its spellings, wins over the file
because it comes later.  File keys that the subcommand does not know are
noted on stderr and skipped.

Output is JSON on stdout by default (stable key order); --output PATH
writes the payload atomically and adds a `PATH.manifest.json` sidecar
with the resolved config (typed: numbers, lists, Fractions as "p/q") and
library versions.  Timings go to stderr only, so identical configs
produce byte-identical files.  --format csv is accepted for row-shaped
payloads (RFC-4180-style quoting).

Exit codes: 0 success; 1 not found, a checked bound or identity failed, or
work refused (over a budget or cap, or no output exists for the input);
2 usage; 3 I/O failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import platform
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np

from . import arith, beatty, buchstab, chars, dioph, equidist, maynard, tuples, variational
from . import __version__ as PACKAGE_VERSION
from .errors import (BudgetError, CapacityError, ImpossibleInputError,
                     PreconditionError)
FIND_WINDOW_CAP = 2 * 10**7
FIND_TUPLE_K_CAP = 16
FIND_K_SEARCH_CAP = 8
FIND_SCAN_BUDGET = 500_000
THETA_LABELS = ("quarter", "two-sevenths")


# ---------------------------------------------------------------------------
# flag types: each flag declares one as its argparse `type`, which turns
# command-line and config-file text alike into the value handlers read

def _int(s: str) -> int:
    return int(s, 10)


def _finite(x: float, s: str) -> float:
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {s!r}")
    return x


def _float(s: str) -> float:
    """A finite float; inf and nan are refused."""
    return _finite(float(s), s)


def _number(s: str):
    """int, Fraction ('p/q'), or finite float, whichever the text denotes."""
    if "/" in s:
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None
    try:
        return int(s, 10)
    except ValueError:
        return _finite(float(s), s)


def _int_list(s: str) -> list[int]:
    return [int(tok, 10) for tok in s.replace(",", " ").split()]


def _flag(s: str) -> bool:
    return s.strip().lower() in ("1", "true", "yes", "on")


# ---------------------------------------------------------------------------
# config file and output plumbing

def load_config_file(path: str) -> dict:
    """Flat `key = value` pairs; `#` starts a comment; keys normalize - to _."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep or not key.strip():
                raise PreconditionError(
                    f"config line {lineno} is not 'key = value': {line!r}")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    if isinstance(x, beatty.TorusInterval):
        return {"left": str(x.left), "length": str(x.length)}
    raise TypeError(f"not JSON-serializable: {type(x).__name__}")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v, sort_keys=True, default=_jsonable)
    return str(v)


def _render(payload, fmt: str) -> str:
    if fmt == "csv":
        rows = payload.get("rows") if isinstance(payload, dict) else payload
        if not isinstance(rows, list) or not rows or not isinstance(rows[0], dict):
            raise PreconditionError("csv output needs a row-shaped payload")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()),
                                lineterminator="\r\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _cell(v) for k, v in row.items()})
        return buf.getvalue()
    return json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n"


def _atomic_write(path: str, text: str):
    target_dir = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=target_dir, prefix=".beattysieve-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _manifest(ns: argparse.Namespace, payload) -> str:
    config = {key: val for key, val in vars(ns).items() if key != "handler"}
    flags = payload.get("flags", {}) if isinstance(payload, dict) else {}
    doc = {"config": config,
           "versions": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "beattysieve": PACKAGE_VERSION},
           "flags": flags}
    return json.dumps(doc, sort_keys=True, indent=2, default=_jsonable) + "\n"


def _emit(ns: argparse.Namespace, payload):
    text = _render(payload, getattr(ns, "format", "json"))
    out = getattr(ns, "output", None)
    if out:
        _atomic_write(out, text)
        _atomic_write(out + ".manifest.json", _manifest(ns, payload))
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (payload, exit_code)

def _params_from(ns) -> beatty.BeattyParams:
    return beatty.BeattyParams.make(ns.alpha, ns.beta)


def cmd_beatty_enumerate(ns):
    params = _params_from(ns)
    members = beatty.beatty_enumerate(params, ns.lo, ns.hi)
    return {"alpha": params.alpha, "beta": params.beta, "lo": ns.lo,
            "hi": ns.hi, "count": len(members), "members": members}, 0


def cmd_beatty_member(ns):
    params = _params_from(ns)
    member = beatty.torus_member(params, ns.n)
    payload = {"n": ns.n, "member": member, "alpha": params.alpha}
    if member:
        payload["index"] = beatty.recovered_index(params, ns.n)
    return payload, 0


def cmd_dioph_convergents(ns):
    rows = [{"numerator": c.numerator, "denominator": c.denominator,
             "quality": str(c.quality), "flag": c.flag}
            for c in dioph.convergents(ns.gamma, ns.depth)]
    return {"gamma": float(ns.gamma), "rows": rows}, 0


def cmd_dioph_modulus(ns):
    approx = dioph.approx_for_modulus(ns.gamma, ns.n)
    return {"n": ns.n, "numerator": approx.numerator,
            "denominator": approx.denominator,
            "quality": str(approx.quality), "flag": approx.flag}, 0


def cmd_tuples_admissible(ns):
    report = tuples.is_admissible(ns.h)
    payload = {"offsets": sorted(ns.h), "admissible": report.admissible}
    if not report.admissible:
        payload["violating_prime"] = report.violating_prime
    return payload, 0 if report.admissible else 1


def cmd_tuples_translate(ns):
    res = tuples.translate_tuple(ns.l, ns.k, ns.gamma, ns.eps)
    payload = {"offsets": list(res.tuple_.offsets), "shift": res.shift,
               "eta": str(res.eta), "requested_k": res.requested_k,
               "achieved_k": res.achieved_k, "complete": res.complete,
               "window_length": str(res.window_length),
               "diagnostic": res.diagnostic}
    return payload, 0 if res.complete else 1


def _sieve_context(ns):
    offsets = tuple(ns.h)
    ctx = maynard.build_context(ns.k, ns.n, ns.theta, ns.eps, d0=ns.d0,
                                offsets=offsets)
    return ctx, maynard.weights(ctx, offsets)


def cmd_sieve_weights(ns):
    ctx, family = _sieve_context(ns)
    lam_rows = [{"d": " ".join(map(str, d)), "lam": str(l)}
                for d, l in sorted(family.lam.items())]
    payload = {"k": ctx.k, "n": ctx.n, "theta": ctx.theta, "offsets": ns.h,
               "r": float(ctx.r_value), "w1": ctx.w1, "w2": ctx.w2,
               "nu0": family.nu0, "support_size": len(family.y),
               "max_abs_lambda": float(max(abs(l) for l in family.lam.values())),
               "rows": lam_rows}
    return payload, 0


def cmd_sieve_s1s2(ns):
    params = _params_from(ns)
    n = ns.n
    ctx, family = _sieve_context(ns)
    # only the gated class nu0 mod W2 carries weight, so only it is tested
    gated = np.arange(n + (family.nu0 - n) % family.w2, 2 * n, family.w2)
    s1 = maynard.s1_window_float(
        family, gated[beatty.member_mask(params, gated)], n, 2 * n)
    y_scalar = float(params.gamma_exact * n)
    pred = maynard.main_terms(ctx, y_scalar, observed_s1=s1)
    payload = {"alpha": params.alpha, "beta": params.beta, "k": ctx.k, "n": n,
               "theta": ctx.theta, "offsets": ns.h,
               "a_size": beatty.member_count(params, n, 2 * n),
               "s1_observed": s1,
               "s1_predicted": pred["s1_pred"], "i_value": pred["i_value"],
               "ratio_s1": pred["ratio_s1"]}
    return payload, 0


def cmd_mk_bound(ns):
    bound, cert = variational.mk_lower_bound(ns.k, ns.degree)
    return {"k": ns.k, "degree_budget": ns.degree, "bound": bound,
            "quotient": str(cert.quotient),
            "labels": [str(lab) for lab in cert.labels],
            "coefficients": [str(c) for c in cert.coefficients]}, 0


def cmd_mk_threshold(ns):
    res = variational.k_satisfying(ns.t, ns.b, ns.theta, ns.degree)
    payload = {"t": ns.t, "b": ns.b, "theta": ns.theta,
               "k": res.k, "certified": res.certified,
               "threshold": res.threshold, "bound": res.bound,
               "trail": [list(pair) for pair in res.trail]}
    return payload, 0 if res.certified else 1


def cmd_buchstab_integrals(ns):
    vals = buchstab.region_integrals(order=ns.order, tol=ns.tol)
    return dict(vals), 0


def cmd_buchstab_check(ns):
    violations = buchstab.decomposition_check(ns.lo, ns.hi)
    return ({"from": ns.lo, "to": ns.hi, "violations": violations},
            0 if violations == 0 else 1)


def cmd_chars_table(ns):
    table = chars.char_table(ns.q)
    return {"q": ns.q, "phi": table.phi, "cyc_orders": list(table.cyc_orders),
            "group_exponent": table.group_exponent,
            "primitive_count": table.primitive_count(),
            "primitive_count_formula": chars.primitive_count_formula(ns.q)}, 0


def cmd_chars_bilinear(ns):
    q0, m0, m1, k0, k1 = ns.q0, ns.m0, ns.m1, ns.k0, ns.k1
    n0 = ns.n0 if ns.n0 is not None else m0 * k0
    n1 = ns.n1 if ns.n1 is not None else m1 * k1
    a = {m: 1.0 for m in range(m0, m1)}
    b = {k: 1.0 for k in range(k0, k1)}
    payload = dict(chars.bilinear_report(q0, ns.gamma, a, b, n0, n1))
    payload.update({"q0": q0, "m0": m0, "m1": m1, "k0": k0, "k1": k1,
                    "n0": n0, "n1": n1})
    return payload, 0


def cmd_equidist_e(ns):
    n2 = ns.n2 if ns.n2 is not None else 2 * ns.n
    row = equidist.e_sup(ns.n, n2, ns.gamma, ns.q, ns.a)
    return {"n": ns.n, "n2": n2, "q": row.q, "a": row.a, "e": str(row.e),
            "e_float": float(row.e), "contributing_count": row.contributing_count,
            "interval": row.interval, "attained": row.attained}, 0


def _harness_config(ns, **extra) -> equidist.HarnessConfig:
    return equidist.HarnessConfig(gamma=ns.gamma, n_grid=tuple(ns.ngrid),
                                  a_power=ns.apower, **extra)


def cmd_equidist_bv(ns):
    rows = equidist.bv_harness(_harness_config(ns, eps=ns.eps, q_cap=ns.qcap))
    return {"rows": rows}, 0


def cmd_equidist_bdh(ns):
    if ns.demo:
        demo = equidist.liouville_demo(ns.r, ns.u, ns.n, ns.qcap_demo)
        return demo, 0 if demo["all_progressions_hold"] else 1
    rows = equidist.bdh_harness(_harness_config(ns, r_cap=ns.rcap))
    return {"rows": rows}, 0


def _regcond_with_defaults(params, n_grid, offsets, theta, k, eps):
    rows = equidist.regcond_report(offsets, params, n_grid, theta, k, eps)
    trend = None
    if len(rows) >= 2:
        trend = bool(rows[-1]["norm12"] < rows[0]["norm12"])
    return {"rows": rows, "offsets": list(offsets), "theta": theta, "k": k,
            "eps": eps, "flags": {"regcond_trend_down": trend}}


def cmd_equidist_regcond(ns):
    payload = _regcond_with_defaults(_params_from(ns), ns.ngrid,
                                     tuple(ns.offsets), ns.theta, ns.k, ns.eps)
    trend = payload["flags"]["regcond_trend_down"]
    return payload, 0 if trend in (None, True) else 1


def _mk_row(k, degree):
    bound, cert = variational.mk_lower_bound(k, degree)
    return {"k": k, "bound": bound, "quotient": str(cert.quotient)}


def cmd_report_mk(ns):
    if ns.kmax < 1:
        raise PreconditionError("kmax must be >= 1", kmax=ns.kmax)
    rows = [_mk_row(k, ns.degree) for k in range(1, ns.kmax + 1)]
    return {"rows": rows}, 0


def cmd_report_regcond_trend(ns):
    # shipped default: alpha = sqrt(2) held as an exact surd approximation
    params = beatty.BeattyParams.quadratic(0, 1, 2)
    payload = _regcond_with_defaults(params, [10**5, 4 * 10**5], (0, 7),
                                     theta=0.25, k=2, eps=0.05)
    return payload, 0 if payload["flags"]["regcond_trend_down"] else 1


def cmd_report_lemmas(ns):
    # the two exact identities over their whole stated ranges: the lcm
    # identity behind the sieve weights on every pair of squarefree d, e,
    # and the split of the characters mod q into primitive ones by counting
    d_max, q_max = 200, 1000
    squarefree = [d for d in range(1, d_max + 1) if arith.mobius(d)]
    pairs = len(squarefree) ** 2
    held = sum(maynard.lcm_identity_check(d, e)
               for d in squarefree for e in squarefree)
    rows = [{"lemma": "lcm_identity", "over": "squarefree pairs d, e",
             "range": [1, d_max], "checked": pairs, "holds": held == pairs},
            {"lemma": "split_partition", "over": "moduli q",
             "range": [1, q_max], "checked": q_max,
             "holds": chars.split_partition_check(q_max)}]
    return {"rows": rows}, 0 if all(row["holds"] for row in rows) else 1


# ---------------------------------------------------------------------------
# constellation pipeline

def _theta_value(label: str, eps: float) -> float:
    if label == "quarter":
        return 0.25 - eps
    return 2.0 / 7.0 - eps


def _min_diameter_group(values, t: int):
    """(diameter, group) of the first run of t consecutive ascending values
    with the least diameter, as Python ints; None below t values."""
    if len(values) < t:
        return None
    v = np.asarray(values, dtype=np.int64)
    diams = v[t - 1:] - v[:len(v) - t + 1]
    i = int(np.argmin(diams))
    return int(diams[i]), v[i:i + t].tolist()


def cmd_find(ns):
    """Find t primes of the form floor(alpha m + beta) close together.

    Plan: size a tuple via the certified variational threshold (or --k),
    translate it into the Beatty-friendly window, and scan n in [lo, hi)
    for >= t offsets landing on Beatty primes.  At desk scale the
    certified tuple size is usually out of reach, so the pipeline falls
    back to a direct windowed scan of Beatty primes, which also yields
    the minimal observed diameter.  The Beatty primes are the window's
    sieved primes that beatty.member_mask keeps, and the window's members
    are counted, not listed.  Every output re-validates: trial division
    and the scalar torus_member check each reported prime again.
    """
    params = _params_from(ns)
    t = ns.t
    if t < 1:
        raise PreconditionError("t must be >= 1", t=t)
    eps = ns.eps
    theta_label = ns.theta
    theta = _theta_value(theta_label, eps)
    n_req = ns.n
    note = None

    if ns.lo is not None or ns.hi is not None:
        if ns.lo is None or ns.hi is None:
            raise PreconditionError("--lo and --hi must be given together")
        lo, hi = ns.lo, ns.hi
    elif theta_label == "two-sevenths":
        # this path ties the window to a square of a convergent denominator
        r = next((c.denominator for c in dioph.convergents(params.gamma_exact, 60)
                  if c.denominator * c.denominator >= n_req), None)
        if r is None:
            raise PreconditionError("no convergent denominator with r^2 >= N",
                                    n=n_req)
        lo, hi = r * r, 2 * r * r
        note = f"window snapped to [r^2, 2 r^2) with r = {r}"
    else:
        if n_req < 100:
            raise PreconditionError("N must be >= 100 (use --lo/--hi for "
                                    "explicit small windows)", n=n_req)
        lo, hi = n_req, 2 * n_req
    if not 2 <= lo < hi:
        raise PreconditionError("need 2 <= lo < hi", lo=lo, hi=hi)
    if hi > FIND_WINDOW_CAP:
        raise PreconditionError("window exceeds the desk primality cap",
                                hi=hi, cap=FIND_WINDOW_CAP)

    primes = arith.primes_in(lo, hi)
    bprimes = primes[beatty.member_mask(params, primes)]
    scan = {"window": [lo, hi], "candidates_checked": 0,
            "beatty_members": beatty.member_count(params, lo, hi),
            "beatty_primes": len(bprimes)}
    result = None
    tuple_offsets = None
    path = None

    # tuple-guided path
    k_plan = ns.k
    if k_plan is None:
        b = 1.0 - 2.0 * eps
        threshold = variational.k_threshold(t, b, theta)
        # no certified bound up to the cap can clear a threshold above
        # M_k's upper bound there, so the forms are solved only when one can
        if variational.mk_upper_bound(FIND_K_SEARCH_CAP) > threshold:
            search = variational.k_satisfying(t, b, theta,
                                              search_cap=FIND_K_SEARCH_CAP)
            if search.certified:
                k_plan = search.k
        if k_plan is None:
            note = (note + "; " if note else "") + (
                f"certified tuple size unavailable below k = {FIND_K_SEARCH_CAP} "
                f"(threshold {threshold:.3g}); using windowed scan")
    if k_plan is not None and k_plan <= FIND_TUPLE_K_CAP:
        try:
            trans = tuples.translate_tuple(max(2 * k_plan, 50), k_plan,
                                           params.gamma_exact, Fraction(eps))
        except ImpossibleInputError:
            trans = None
        if trans is not None and trans.complete:
            tuple_offsets = offs = list(trans.tuple_.offsets)
            # the first n in [lo, lo + budget) with >= t of n + offs Beatty
            # primes; every n + h stays inside [lo, hi)
            budget = max(0, min(hi - offs[-1] - lo, FIND_SCAN_BUDGET))
            is_bprime = np.zeros(hi - lo, dtype=bool)
            is_bprime[bprimes - lo] = True
            hit_counts = np.zeros(budget, dtype=np.int64)
            for h in offs:
                hit_counts += is_bprime[h:h + budget]
            first = np.flatnonzero(hit_counts >= t)
            scan["candidates_checked"] = int(first[0]) + 1 if first.size else budget
            if first.size:
                n = lo + int(first[0])
                hits = [n + h for h in offs if is_bprime[n - lo + h]]
                result = _min_diameter_group(hits, t)[1]
                path = "tuple"

    # windowed fallback: minimal-diameter group of Beatty primes
    if result is None:
        group = _min_diameter_group(bprimes, t)
        if group is not None:
            result = group[1]
            path = "window"

    if result is None:
        payload = {"found": False, "t": t, "alpha": params.alpha,
                   "beta": params.beta, "scan": scan, "note": note}
        return payload, 1

    diameter = result[-1] - result[0]
    alpha = params.alpha
    bound2 = alpha * (math.log(alpha) + t) * math.exp(8 * t)
    bound3 = math.exp(7.743 * t)
    bound_ok = diameter <= bound2 and (theta_label != "two-sevenths"
                                       or diameter <= bound3)
    certificate = []
    valid = True
    for p in result:
        # trial division, independent of the sieve that picked the primes
        ok_prime = arith.factorize(p) == [(p, 1)]
        ok_member = beatty.torus_member(params, p)
        ok_range = lo <= p < hi
        valid = valid and ok_prime and ok_member and ok_range
        certificate.append({"n": p, "prime": ok_prime, "beatty_member": ok_member,
                            "in_window": ok_range,
                            "index": beatty.recovered_index(params, p)})
    payload = {"found": True, "primes": result, "diameter": diameter,
               "path": path, "tuple_offsets": tuple_offsets,
               "theta_label": theta_label, "theta": theta, "t": t,
               "alpha": params.alpha, "beta": params.beta,
               "window": [lo, hi], "scan": scan,
               "diameter_bound_main": bound2, "diameter_bound_square": bound3,
               "bound_ok": bound_ok, "certificate": certificate, "note": note}
    return payload, 0 if (valid and bound_ok) else 1


# ---------------------------------------------------------------------------
# parser assembly

def _common_parent(fmt_default: str) -> argparse.ArgumentParser:
    # fresh instance per subparser: argparse shares action objects from
    # `parents`, so a per-subcommand default would otherwise leak globally
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="flat key = value file")
    common.add_argument("--output", "-o", default=None, help="write payload here")
    common.add_argument("--format", default=fmt_default, choices=("json", "csv"))
    return common


@functools.cache
def _build_parser():
    """The argument parser, and the (parser, common-options parent) pair of
    each command keyed by its name tuple, e.g. ("beatty", "enumerate")."""
    parser = argparse.ArgumentParser(
        prog="beattysieve",
        description="Workbench for gaps between primes in Beatty sequences")
    groups = {(): parser.add_subparsers(dest="subcommand", required=True)}
    commands = {}

    def module(name, help_text):
        p = groups[()].add_parser(name, help=help_text)
        groups[(name,)] = p.add_subparsers(dest="action", required=True)

    def action(path, handler, fmt_default="json", **kwargs):
        names = tuple(path.split())
        common = _common_parent(fmt_default)
        p = groups[names[:-1]].add_parser(names[-1], parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        commands[names] = (p, common)
        return p

    def beatty_pair(p, alpha=None):
        p.add_argument("--alpha", type=_number, required=alpha is None,
                       default=alpha)
        p.add_argument("--beta", type=_number, default="0")

    module("beatty", "Beatty sequence membership and enumeration")
    p = action("beatty enumerate", cmd_beatty_enumerate)
    beatty_pair(p)
    p.add_argument("--lo", type=_int, required=True)
    p.add_argument("--hi", type=_int, required=True)
    p = action("beatty member", cmd_beatty_member)
    beatty_pair(p)
    p.add_argument("--n", type=_int, required=True)

    module("dioph", "continued fractions and modulus selection")
    p = action("dioph convergents", cmd_dioph_convergents)
    p.add_argument("--gamma", type=_number, required=True)
    p.add_argument("--depth", type=_int, default="20")
    p = action("dioph modulus", cmd_dioph_modulus)
    p.add_argument("--gamma", type=_number, required=True)
    p.add_argument("--n", type=_int, required=True)

    module("tuples", "admissible tuples and Beatty translation")
    p = action("tuples admissible", cmd_tuples_admissible)
    p.add_argument("--h", type=_int_list, required=True, help="offsets, e.g. 0,2,6")
    p = action("tuples translate", cmd_tuples_translate)
    p.add_argument("--l", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--gamma", type=_number, required=True)
    p.add_argument("--eps", type=_number, required=True)

    module("sieve", "multidimensional sieve weights and window sums")
    p = action("sieve weights", cmd_sieve_weights)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--theta", type=_float, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--h", type=_int_list, required=True)
    p.add_argument("--eps", type=_float, default="0.005")
    p.add_argument("--d0", type=_int, default=None)
    p = action("sieve s1s2", cmd_sieve_s1s2)
    beatty_pair(p)
    p.add_argument("--k", type=_int, default="2")
    p.add_argument("--theta", type=_float, default="0.99")
    p.add_argument("--n", type=_int, default="1000000")
    p.add_argument("--h", type=_int_list, default="0,2")
    p.add_argument("--eps", type=_float, default="0.005")
    p.add_argument("--d0", type=_int, default="2")

    module("mk", "variational lower bounds and tuple-size thresholds")
    p = action("mk bound", cmd_mk_bound)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--degree", type=_int, default="3")
    p = action("mk threshold", cmd_mk_threshold)
    p.add_argument("--t", type=_int, required=True)
    p.add_argument("--b", type=_float, required=True)
    p.add_argument("--theta", type=_float, required=True)
    p.add_argument("--degree", type=_int, default="3")

    module("buchstab", "decomposition identity and region integrals")
    p = action("buchstab integrals", cmd_buchstab_integrals)
    p.add_argument("--order", type=_int, default="24")
    p.add_argument("--tol", type=_float, default="1e-7")
    p = action("buchstab check", cmd_buchstab_check)
    p.add_argument("--from", dest="lo", type=_int, required=True)
    p.add_argument("--to", dest="hi", type=_int, required=True)

    module("chars", "Dirichlet characters and bilinear sums")
    p = action("chars table", cmd_chars_table)
    p.add_argument("--q", type=_int, required=True)
    p = action("chars bilinear", cmd_chars_bilinear)
    p.add_argument("--q0", type=_int, required=True)
    p.add_argument("--gamma", type=_number, required=True)
    for name in ("--m0", "--m1", "--k0", "--k1"):
        p.add_argument(name, type=_int, required=True)
    p.add_argument("--n0", type=_int, default=None)
    p.add_argument("--n1", type=_int, default=None)

    module("equidist", "progression error suprema and scaling harnesses")
    p = action("equidist e", cmd_equidist_e)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--n2", type=_int, default=None)
    p.add_argument("--gamma", type=_number, required=True)
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--a", type=_int, required=True)
    p = action("equidist bv", cmd_equidist_bv)
    p.add_argument("--gamma", type=_number, required=True)
    p.add_argument("--ngrid", type=_int_list, required=True, help="e.g. 10000,100000")
    p.add_argument("--eps", type=_float, default="0.05")
    p.add_argument("--apower", "--A", dest="apower", type=_float, default="2.0")
    p.add_argument("--qcap", type=_int, default=None)
    p = action("equidist bdh", cmd_equidist_bdh)
    p.add_argument("--gamma", type=_number, default="0.7071067811865476")
    p.add_argument("--ngrid", type=_int_list, default="10000")
    p.add_argument("--apower", "--A", dest="apower", type=_float, default="2.0")
    p.add_argument("--rcap", type=_int, default=None)
    p.add_argument("--demo", type=_flag, default="false",
                   help="run the avoidance construction")
    p.add_argument("--r", type=_int, default="10")
    p.add_argument("--u", type=_int, default="3")
    p.add_argument("--n", type=_int, default="100")
    p.add_argument("--qcap-demo", dest="qcap_demo", type=_int, default="5")
    p = action("equidist regcond", cmd_equidist_regcond)
    beatty_pair(p)
    p.add_argument("--ngrid", type=_int_list, required=True)
    p.add_argument("--offsets", type=_int_list, default="0,7")
    p.add_argument("--theta", type=_float, default="0.25")
    p.add_argument("--k", type=_int, default="2")
    p.add_argument("--eps", type=_float, default="0.05")

    p = action("find", cmd_find,
               help="search a window for t Beatty primes close together")
    beatty_pair(p, alpha=repr(math.sqrt(2)))
    p.add_argument("--t", type=_int, default="2")
    p.add_argument("--n", type=_int, default="1000")
    p.add_argument("--lo", type=_int, default=None)
    p.add_argument("--hi", type=_int, default=None)
    p.add_argument("--theta", default="quarter", choices=THETA_LABELS)
    p.add_argument("--eps", type=_float, default="0.01")
    p.add_argument("--k", type=_int, default=None, help="tuple size override")

    module("report", "bundled artifact tables")
    p = action("report mk", cmd_report_mk, fmt_default="csv")
    p.add_argument("--kmax", type=_int, default="8")
    p.add_argument("--degree", type=_int, default="3")
    action("report regcond-trend", cmd_report_regcond_trend)
    action("report lemmas", cmd_report_lemmas)

    return parser, commands


def _with_config(commands: dict, argv: list[str]) -> list[str]:
    """argv with the --config file's pairs spliced in as `--flag=value`
    tokens right after the subcommand's name, ahead of every explicit flag,
    so that argparse's last-one-wins rule lets explicit flags win."""
    n_names = next((i for i in (1, 2) if tuple(argv[:i]) in commands), 0)
    if not n_names:
        return argv   # no command: the full parse reports the usage error
    command, common = commands[tuple(argv[:n_names])]
    known, _ = common.parse_known_args(argv[n_names:])
    if known.config is None:
        return argv
    options = {a.dest: a.option_strings[0] for a in command._actions
               if a.option_strings and a.nargs != 0}
    tokens = []
    for key, val in load_config_file(known.config).items():
        if key in options:
            tokens.append(f"{options[key]}={val}")
        else:
            print(f"config: ignoring unknown key {key!r}", file=sys.stderr)
    return argv[:n_names] + tokens + argv[n_names:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    started = time.perf_counter()
    try:
        ns = parser.parse_args(_with_config(commands, argv))
        payload, code = ns.handler(ns)
        _emit(ns, payload)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, ImpossibleInputError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except (PreconditionError, ValueError) as exc:
        print(f"usage: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io: {exc}", file=sys.stderr)
        return 3
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
