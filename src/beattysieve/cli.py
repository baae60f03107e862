"""Command line frontend.

One subcommand per library module, plus `find` (the end-to-end
constellation pipeline) and `report` (bundled artifact tables).  Every
flag parses as a string and is coerced inside its handler, so values
coming from a flat `key = value` config file (UTF-8, `#` comments) and
values typed on the command line take the same path; explicit flags win
over file values, file values win over defaults.  File keys that the
active subcommand does not know are noted on stderr and skipped.

Output is JSON on stdout by default (stable key order); --output PATH
writes the payload atomically and adds a `PATH.manifest.json` sidecar
with the resolved config and library versions.  Timings go to stderr
only, so identical configs produce byte-identical files.  --format csv
is accepted for row-shaped payloads (RFC-4180-style quoting).

Exit codes: 0 success; 1 not found, a checked bound or identity failed, or
work refused (over a budget or cap, or no output exists for the input);
2 usage; 3 I/O failure.
"""
from __future__ import annotations

import argparse
import csv
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
FIND_SCAN_BUDGET = 500_000
THETA_LABELS = ("quarter", "two-sevenths")


# ---------------------------------------------------------------------------
# value coercion (flags and config-file values arrive as strings)

def _int(s) -> int:
    return int(str(s).strip(), 10)


def _float(s) -> float:
    return float(str(s).strip())


def _number(s):
    """int, Fraction ('p/q'), or float, whichever the text denotes."""
    if isinstance(s, (int, float, Fraction)):
        return s
    txt = str(s).strip()
    if "/" in txt:
        return Fraction(txt)
    try:
        return int(txt, 10)
    except ValueError:
        return float(txt)


def _int_list(s) -> list[int]:
    return [int(tok, 10) for tok in str(s).replace(",", " ").split()]


def _flag(s) -> bool:
    return str(s).strip().lower() in ("1", "true", "yes", "on")


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


def _apply_config(ns: argparse.Namespace, file_values: dict, argv: list[str]):
    explicit = set()
    for tok in argv:
        if tok.startswith("--"):
            explicit.add(tok[2:].split("=", 1)[0].replace("-", "_"))
    for key, val in file_values.items():
        if key in explicit:
            continue
        if hasattr(ns, key):
            setattr(ns, key, val)
        else:
            print(f"config: ignoring unknown key {key!r}", file=sys.stderr)


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
    config = {}
    for key, val in sorted(vars(ns).items()):
        if key in ("handler",):
            continue
        config[key] = val if isinstance(val, (int, float, bool, str, type(None))) else str(val)
    flags = payload.get("flags", {}) if isinstance(payload, dict) else {}
    doc = {"config": config,
           "versions": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "beattysieve": PACKAGE_VERSION},
           "flags": flags}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
    return beatty.BeattyParams.make(_number(ns.alpha), _number(ns.beta))


def cmd_beatty_enumerate(ns):
    params = _params_from(ns)
    members = beatty.beatty_enumerate(params, _int(ns.lo), _int(ns.hi))
    return {"alpha": params.alpha, "beta": params.beta, "lo": _int(ns.lo),
            "hi": _int(ns.hi), "count": len(members), "members": members}, 0


def cmd_beatty_member(ns):
    params = _params_from(ns)
    n = _int(ns.n)
    member = beatty.torus_member(params, n)
    payload = {"n": n, "member": member, "alpha": params.alpha}
    if member:
        payload["index"] = beatty.recovered_index(params, n)
    return payload, 0


def cmd_dioph_convergents(ns):
    rows = [{"numerator": c.numerator, "denominator": c.denominator,
             "quality": str(c.quality), "flag": c.flag}
            for c in dioph.convergents(_number(ns.gamma), _int(ns.depth))]
    return {"gamma": float(_number(ns.gamma)), "rows": rows}, 0


def cmd_dioph_modulus(ns):
    approx = dioph.approx_for_modulus(_number(ns.gamma), _int(ns.n))
    return {"n": _int(ns.n), "numerator": approx.numerator,
            "denominator": approx.denominator,
            "quality": str(approx.quality), "flag": approx.flag}, 0


def cmd_tuples_admissible(ns):
    offsets = _int_list(ns.h)
    report = tuples.is_admissible(offsets)
    payload = {"offsets": sorted(offsets), "admissible": report.admissible}
    if not report.admissible:
        payload["violating_prime"] = report.violating_prime
    return payload, 0 if report.admissible else 1


def cmd_tuples_translate(ns):
    res = tuples.translate_tuple(_int(ns.l), _int(ns.k), _number(ns.gamma),
                                 _number(ns.eps))
    payload = {"offsets": list(res.tuple_.offsets), "shift": res.shift,
               "eta": str(res.eta), "requested_k": res.requested_k,
               "achieved_k": res.achieved_k, "complete": res.complete,
               "window_length": str(res.window_length),
               "diagnostic": res.diagnostic}
    return payload, 0 if res.complete else 1


def cmd_sieve_weights(ns):
    offsets = tuple(_int_list(ns.h))
    overrides = {"offsets": offsets}
    if ns.d0 is not None:
        overrides["d0"] = _int(ns.d0)
    ctx = maynard.build_context(_int(ns.k), _int(ns.n), _float(ns.theta),
                                _float(ns.eps), **overrides)
    family = maynard.weights(ctx, offsets)
    lam_rows = [{"d": " ".join(map(str, d)), "lam": str(l)}
                for d, l in sorted(family.lam.items())]
    payload = {"k": ctx.k, "n": ctx.n, "theta": ctx.theta, "offsets": list(offsets),
               "r": float(ctx.r_value), "w1": ctx.w1, "w2": ctx.w2,
               "nu0": family.nu0, "support_size": len(family.y),
               "max_abs_lambda": float(max(abs(l) for l in family.lam.values())),
               "rows": lam_rows}
    return payload, 0


def cmd_sieve_s1s2(ns):
    params = _params_from(ns)
    offsets = tuple(_int_list(ns.h))
    n = _int(ns.n)
    overrides = {"offsets": offsets}
    if ns.d0 is not None:
        overrides["d0"] = _int(ns.d0)
    ctx = maynard.build_context(_int(ns.k), n, _float(ns.theta),
                                _float(ns.eps), **overrides)
    family = maynard.weights(ctx, offsets)
    members = beatty.beatty_members(params, n, 2 * n)
    s1 = maynard.s1_window_float(family, members, n, 2 * n)
    y_scalar = float(params.gamma_exact * n)
    pred = maynard.main_terms(ctx, y_scalar, observed_s1=s1)
    payload = {"alpha": params.alpha, "beta": params.beta, "k": ctx.k, "n": n,
               "theta": ctx.theta, "offsets": list(offsets),
               "a_size": len(members), "s1_observed": s1,
               "s1_predicted": pred["s1_pred"], "i_value": pred["i_value"],
               "ratio_s1": pred["ratio_s1"]}
    return payload, 0


def cmd_mk_bound(ns):
    bound, cert = variational.mk_lower_bound(_int(ns.k), _int(ns.degree))
    return {"k": _int(ns.k), "degree_budget": _int(ns.degree), "bound": bound,
            "quotient": str(cert.quotient),
            "labels": [str(lab) for lab in cert.labels],
            "coefficients": [str(c) for c in cert.coefficients]}, 0


def cmd_mk_threshold(ns):
    res = variational.k_satisfying(_int(ns.t), _float(ns.b), _float(ns.theta),
                                   _int(ns.degree))
    payload = {"t": _int(ns.t), "b": _float(ns.b), "theta": _float(ns.theta),
               "k": res.k, "certified": res.certified,
               "threshold": res.threshold, "bound": res.bound,
               "trail": [list(pair) for pair in res.trail]}
    return payload, 0 if res.certified else 1


def cmd_buchstab_integrals(ns):
    vals = buchstab.region_integrals(order=_int(ns.order), tol=_float(ns.tol))
    return dict(vals), 0


def cmd_buchstab_check(ns):
    lo, hi = _int(ns.lo), _int(ns.hi)
    violations = buchstab.decomposition_check(lo, hi)
    return {"from": lo, "to": hi, "violations": violations}, 0 if violations == 0 else 1


def cmd_chars_table(ns):
    q = _int(ns.q)
    table = chars.char_table(q)
    return {"q": q, "phi": table.phi, "cyc_orders": list(table.cyc_orders),
            "group_exponent": table.group_exponent,
            "primitive_count": table.primitive_count(),
            "primitive_count_formula": chars.primitive_count_formula(q)}, 0


def cmd_chars_bilinear(ns):
    q0 = _int(ns.q0)
    if ns.q1 is not None and _int(ns.q1) != 2 * q0:
        raise PreconditionError("modulus window is dyadic: q1 must equal 2*q0",
                                q0=q0, q1=_int(ns.q1))
    m0, m1, k0, k1 = (_int(ns.m0), _int(ns.m1), _int(ns.k0), _int(ns.k1))
    n0 = _int(ns.n0) if ns.n0 is not None else m0 * k0
    n1 = _int(ns.n1) if ns.n1 is not None else m1 * k1
    a = {m: 1.0 for m in range(m0, m1)}
    b = {k: 1.0 for k in range(k0, k1)}
    payload = dict(chars.bilinear_report(q0, _number(ns.gamma), a, b, n0, n1))
    payload.update({"q0": q0, "m0": m0, "m1": m1, "k0": k0, "k1": k1,
                    "n0": n0, "n1": n1})
    if ns.report:
        row = {k: v for k, v in sorted(payload.items())}
        _atomic_write(ns.report, _render({"rows": [row]}, "csv"))
    return payload, 0


def cmd_equidist_e(ns):
    n = _int(ns.n)
    n2 = _int(ns.n2) if ns.n2 is not None else 2 * n
    row = equidist.e_sup(n, n2, _number(ns.gamma), _int(ns.q), _int(ns.a))
    return {"n": n, "n2": n2, "q": row.q, "a": row.a, "e": str(row.e),
            "e_float": float(row.e), "contributing_count": row.contributing_count,
            "interval": row.interval, "attained": row.attained}, 0


def _harness_config(ns, **extra) -> equidist.HarnessConfig:
    kwargs = {"gamma": _number(ns.gamma), "n_grid": tuple(_int_list(ns.ngrid)),
              "eps": _float(ns.eps), "a_power": _float(ns.apower)}
    kwargs.update(extra)
    return equidist.HarnessConfig(**kwargs)


def cmd_equidist_bv(ns):
    cfg = _harness_config(ns, q_cap=_int(ns.qcap) if ns.qcap is not None else None)
    rows = equidist.bv_harness(cfg)
    return {"rows": rows}, 0


def cmd_equidist_bdh(ns):
    if _flag(ns.demo):
        demo = equidist.liouville_demo(_int(ns.r), _int(ns.u), _int(ns.n),
                                       _int(ns.qcap_demo))
        payload = {"gamma": str(demo["gamma"]), "delta": str(demo["delta"]),
                   "arc": [str(demo["arc"][0]), str(demo["arc"][1])],
                   "points_in_arc": demo["points_in_arc"],
                   "sum_e2": demo["sum_e2"], "sum_bound": demo["sum_bound"],
                   "aggregate_holds": demo["aggregate_holds"],
                   "all_progressions_hold": demo["all_progressions_hold"],
                   "rows": demo["rows"]}
        return payload, 0 if demo["all_progressions_hold"] else 1
    cfg = _harness_config(ns, r_cap=_int(ns.rcap) if ns.rcap is not None else None)
    rows = equidist.bdh_harness(cfg)
    return {"rows": rows}, 0


def _regcond_with_defaults(params, n_grid, offsets, theta, k, eps):
    a_sets = {n: beatty.beatty_members(params, n, 2 * n) for n in n_grid}
    cfg = equidist.HarnessConfig(gamma=params.gamma_exact, n_grid=tuple(n_grid),
                                 theta=theta, k=k, eps=eps, params=params)
    rows = equidist.regcond_report(a_sets, offsets, cfg)
    trend = None
    if len(rows) >= 2:
        trend = bool(rows[-1]["norm12"] < rows[0]["norm12"])
    return {"rows": rows, "offsets": list(offsets), "theta": theta, "k": k,
            "eps": eps, "flags": {"regcond_trend_down": trend}}


def cmd_equidist_regcond(ns):
    params = _params_from(ns)
    payload = _regcond_with_defaults(params, _int_list(ns.ngrid),
                                     tuple(_int_list(ns.offsets)),
                                     _float(ns.theta), _int(ns.k), _float(ns.eps))
    trend = payload["flags"]["regcond_trend_down"]
    return payload, 0 if trend in (None, True) else 1


def _mk_row(k, degree):
    bound, cert = variational.mk_lower_bound(k, degree)
    return {"k": k, "bound": bound, "quotient": str(cert.quotient)}


def cmd_report_buchstab(ns):
    vals = buchstab.region_integrals()
    return {"I1": vals["I1"], "I2": vals["I2"], "b": vals["b"]}, 0


def cmd_report_mk(ns):
    kmax = _int(ns.kmax)
    if kmax < 1:
        raise PreconditionError("kmax must be >= 1", kmax=kmax)
    degree = _int(ns.degree)
    rows = [_mk_row(k, degree) for k in range(1, kmax + 1)]
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


def _min_diameter_group(values: list[int], t: int):
    best = None
    for i in range(len(values) - t + 1):
        diam = values[i + t - 1] - values[i]
        if best is None or diam < best[0]:
            best = (diam, values[i:i + t])
    return best


def cmd_find(ns):
    """Find t primes of the form floor(alpha m + beta) close together.

    Plan: size a tuple via the certified variational threshold (or --k),
    translate it into the Beatty-friendly window, and scan n in [lo, hi)
    for >= t offsets landing on Beatty primes.  At desk scale the
    certified tuple size is usually out of reach, so the pipeline falls
    back to a direct windowed scan of Beatty primes, which also yields
    the minimal observed diameter.  Every output re-validates.
    """
    params = _params_from(ns)
    t = _int(ns.t)
    if t < 1:
        raise PreconditionError("t must be >= 1", t=t)
    eps = _float(ns.eps)
    theta_label = ns.theta
    theta = _theta_value(theta_label, eps)
    n_req = _int(ns.n)
    note = None

    if ns.lo is not None or ns.hi is not None:
        if ns.lo is None or ns.hi is None:
            raise PreconditionError("--lo and --hi must be given together")
        lo, hi = _int(ns.lo), _int(ns.hi)
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

    table = arith.FactorTable(hi)
    scan = {"window": [lo, hi], "candidates_checked": 0}
    result = None
    tuple_offsets = None
    path = None

    # tuple-guided path
    k_plan = None
    if ns.k is not None:
        k_plan = _int(ns.k)
    else:
        search = variational.k_satisfying(t, 1.0 - 2.0 * eps, theta,
                                          search_cap=8)
        if search.certified:
            k_plan = search.k
        else:
            note = (note + "; " if note else "") + (
                f"certified tuple size unavailable below k = 8 "
                f"(threshold {search.threshold:.3g}); using windowed scan")
    if k_plan is not None and k_plan <= FIND_TUPLE_K_CAP:
        try:
            trans = tuples.translate_tuple(max(2 * k_plan, 50), k_plan,
                                           params.gamma_exact, Fraction(eps))
        except BudgetError:
            trans = None
        if trans is not None and trans.complete:
            offs = list(trans.tuple_.offsets)
            tuple_offsets = offs
            top = hi - offs[-1]
            budget = min(top - lo, FIND_SCAN_BUDGET)
            for n in range(lo, lo + max(0, budget)):
                scan["candidates_checked"] += 1
                hits = [n + h for h in offs
                        if table.is_prime(n + h)
                        and beatty.torus_member(params, n + h)]
                if len(hits) >= t:
                    result = _min_diameter_group(hits, t)[1]
                    path = "tuple"
                    break

    # windowed fallback: minimal-diameter group of Beatty primes
    members = beatty.beatty_members(params, lo, hi)
    bprimes = members[table.prime_mask(members)].tolist()
    scan["beatty_members"] = len(members)
    scan["beatty_primes"] = len(bprimes)
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
        # trial division, independent of the table that picked the primes
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beattysieve",
        description="Workbench for gaps between primes in Beatty sequences")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def action(group, name, handler, fmt_default="json", **kwargs):
        p = group.add_parser(name, parents=[_common_parent(fmt_default)], **kwargs)
        p.set_defaults(handler=handler)
        return p

    def module(name, help_text):
        p = subs.add_parser(name, help=help_text)
        return p.add_subparsers(dest="action", required=True)

    g = module("beatty", "Beatty sequence membership and enumeration")
    p = action(g, "enumerate", cmd_beatty_enumerate)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", default="0")
    p.add_argument("--lo", required=True)
    p.add_argument("--hi", required=True)
    p = action(g, "member", cmd_beatty_member)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", default="0")
    p.add_argument("--n", required=True)

    g = module("dioph", "continued fractions and modulus selection")
    p = action(g, "convergents", cmd_dioph_convergents)
    p.add_argument("--gamma", required=True)
    p.add_argument("--depth", default="20")
    p = action(g, "modulus", cmd_dioph_modulus)
    p.add_argument("--gamma", required=True)
    p.add_argument("--n", required=True)

    g = module("tuples", "admissible tuples and Beatty translation")
    p = action(g, "admissible", cmd_tuples_admissible)
    p.add_argument("--h", required=True, help="offsets, e.g. 0,2,6")
    p = action(g, "translate", cmd_tuples_translate)
    p.add_argument("--l", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--eps", required=True)

    g = module("sieve", "multidimensional sieve weights and window sums")
    p = action(g, "weights", cmd_sieve_weights)
    p.add_argument("--k", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--eps", default="0.005")
    p.add_argument("--d0", default=None)
    p = action(g, "s1s2", cmd_sieve_s1s2)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", default="0")
    p.add_argument("--k", default="2")
    p.add_argument("--theta", default="0.99")
    p.add_argument("--n", default="1000000")
    p.add_argument("--h", default="0,2")
    p.add_argument("--eps", default="0.005")
    p.add_argument("--d0", default="2")

    g = module("mk", "variational lower bounds and tuple-size thresholds")
    p = action(g, "bound", cmd_mk_bound)
    p.add_argument("--k", required=True)
    p.add_argument("--degree", default="3")
    p = action(g, "threshold", cmd_mk_threshold)
    p.add_argument("--t", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--degree", default="3")

    g = module("buchstab", "decomposition identity and region integrals")
    p = action(g, "integrals", cmd_buchstab_integrals)
    p.add_argument("--order", default="24")
    p.add_argument("--tol", default="1e-7")
    p = action(g, "check", cmd_buchstab_check)
    p.add_argument("--from", dest="lo", required=True)
    p.add_argument("--to", dest="hi", required=True)

    g = module("chars", "Dirichlet characters and bilinear sums")
    p = action(g, "table", cmd_chars_table)
    p.add_argument("--q", required=True)
    p = action(g, "bilinear", cmd_chars_bilinear)
    p.add_argument("--q0", required=True)
    p.add_argument("--q1", default=None)
    p.add_argument("--gamma", required=True)
    p.add_argument("--m0", required=True)
    p.add_argument("--m1", required=True)
    p.add_argument("--k0", required=True)
    p.add_argument("--k1", required=True)
    p.add_argument("--n0", default=None)
    p.add_argument("--n1", default=None)
    p.add_argument("--report", default=None, help="also write a one-row CSV here")

    g = module("equidist", "progression error suprema and scaling harnesses")
    p = action(g, "e", cmd_equidist_e)
    p.add_argument("--n", required=True)
    p.add_argument("--n2", default=None)
    p.add_argument("--gamma", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--a", required=True)
    p = action(g, "bv", cmd_equidist_bv)
    p.add_argument("--gamma", required=True)
    p.add_argument("--ngrid", required=True, help="e.g. 10000,100000")
    p.add_argument("--eps", default="0.05")
    p.add_argument("--apower", "--A", dest="apower", default="2.0")
    p.add_argument("--qcap", default=None)
    p = action(g, "bdh", cmd_equidist_bdh)
    p.add_argument("--gamma", default="0.7071067811865476")
    p.add_argument("--ngrid", default="10000")
    p.add_argument("--eps", default="0.05")
    p.add_argument("--apower", "--A", dest="apower", default="2.0")
    p.add_argument("--rcap", default=None)
    p.add_argument("--demo", default="false", help="run the avoidance construction")
    p.add_argument("--r", default="10")
    p.add_argument("--u", default="3")
    p.add_argument("--n", default="100")
    p.add_argument("--qcap-demo", dest="qcap_demo", default="5")
    p = action(g, "regcond", cmd_equidist_regcond)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", default="0")
    p.add_argument("--ngrid", required=True)
    p.add_argument("--offsets", default="0,7")
    p.add_argument("--theta", default="0.25")
    p.add_argument("--k", default="2")
    p.add_argument("--eps", default="0.05")

    p = action(subs, "find", cmd_find,
               help="search a window for t Beatty primes close together")
    p.add_argument("--alpha", default=repr(math.sqrt(2)))
    p.add_argument("--beta", default="0")
    p.add_argument("--t", default="2")
    p.add_argument("--n", default="1000")
    p.add_argument("--lo", default=None)
    p.add_argument("--hi", default=None)
    p.add_argument("--theta", default="quarter", choices=THETA_LABELS)
    p.add_argument("--eps", default="0.01")
    p.add_argument("--k", default=None, help="tuple size override")

    g = module("report", "bundled artifact tables")
    action(g, "buchstab-integrals", cmd_report_buchstab)
    p = action(g, "mk", cmd_report_mk, fmt_default="csv")
    p.add_argument("--kmax", default="8")
    p.add_argument("--degree", default="3")
    action(g, "regcond-trend", cmd_report_regcond_trend)
    action(g, "lemmas", cmd_report_lemmas)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.perf_counter()
    try:
        if getattr(ns, "config", None):
            _apply_config(ns, load_config_file(ns.config), argv)
        payload, code = ns.handler(ns)
        _emit(ns, payload)
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
