"""End-to-end command checks: payloads, exit codes, config and output files."""
import hashlib
import json
import math
from fractions import Fraction

import pytest

from beattysieve import arith, chars, cli, equidist, maynard, variational

SQRT2 = repr(math.sqrt(2))
SQRT3 = repr(math.sqrt(3))
SQRT5 = repr(math.sqrt(5))
INV_SQRT2 = repr(1 / math.sqrt(2))


def run(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def jrun(argv, capsys):
    rc, out, err = run(argv, capsys)
    return rc, json.loads(out) if out.strip() else None, err


def test_no_arguments_is_usage_error(capsys):
    rc, _, _ = run([], capsys)
    assert rc == 2


def test_beatty_enumerate_payload(capsys):
    rc, payload, err = jrun(["beatty", "enumerate", "--alpha", SQRT2,
                             "--lo", "1", "--hi", "8"], capsys)
    assert rc == 0
    assert payload == {"alpha": 1.4142135623730951, "beta": 0.0, "lo": 1,
                       "hi": 8, "count": 5, "members": [1, 2, 4, 5, 7]}
    assert "elapsed:" in err


def test_beatty_member_payload(capsys):
    rc, payload, _ = jrun(["beatty", "member", "--alpha", SQRT2, "--n", "7"],
                          capsys)
    assert rc == 0 and payload["member"] and payload["index"] == 5
    rc, payload, _ = jrun(["beatty", "member", "--alpha", SQRT2, "--n", "6"],
                          capsys)
    assert rc == 0 and not payload["member"] and "index" not in payload


def test_dioph_payloads(capsys):
    rc, payload, _ = jrun(["dioph", "convergents", "--gamma", INV_SQRT2,
                           "--depth", "6"], capsys)
    assert rc == 0 and len(payload["rows"]) == 6
    row = payload["rows"][2]
    assert (row["numerator"], row["denominator"]) == (2, 3)
    assert all(Fraction(r["quality"]) >= 0 for r in payload["rows"])
    rc, payload, _ = jrun(["dioph", "modulus", "--gamma", INV_SQRT2,
                           "--n", "16"], capsys)
    assert rc == 0
    assert (payload["numerator"], payload["denominator"]) == (5, 7)
    assert payload["flag"] is None
    assert float(Fraction(payload["quality"])) \
        == pytest.approx(0.007178933099166824)


def test_tuples_admissible_exit_codes(capsys):
    rc, payload, _ = jrun(["tuples", "admissible", "--h", "0,2,6"], capsys)
    assert rc == 0 and payload["admissible"]
    rc, payload, _ = jrun(["tuples", "admissible", "--h", "0,2,4"], capsys)
    assert rc == 1 and not payload["admissible"]
    assert payload["violating_prime"] == 3


def test_tuples_translate_payload(capsys):
    rc, payload, _ = jrun(["tuples", "translate", "--l", "25", "--k", "2",
                           "--gamma", "0.7071067811865476", "--eps", "0.25"],
                          capsys)
    assert rc == 0
    assert payload["offsets"] == [38, 86]
    assert payload["shift"] == 7
    assert payload["achieved_k"] == payload["requested_k"] == 2
    assert payload["complete"] and payload["diagnostic"] is None
    assert float(Fraction(payload["window_length"])) \
        == pytest.approx(0.35355339059327373)


def test_mk_bound_payload(capsys):
    rc, payload, _ = jrun(["mk", "bound", "--k", "2", "--degree", "1"], capsys)
    assert rc == 0
    assert payload["bound"] == pytest.approx(1.38309518948453, rel=1e-12)
    assert payload["labels"] == ["(0, 0)", "(1, 0)"]
    assert float(Fraction(payload["quotient"])) \
        == pytest.approx(payload["bound"], rel=1e-12)


@pytest.mark.filterwarnings("ignore:denominator form is singular")
def test_mk_threshold_exit_codes(capsys):
    rc, payload, _ = jrun(["mk", "threshold", "--t", "2", "--b", "1.0",
                           "--theta", "0.9993"], capsys)
    assert rc == 0 and payload["certified"] and payload["k"] == 5
    assert payload["threshold"] == pytest.approx(2 / 0.9993)
    rc, payload, _ = jrun(["mk", "threshold", "--t", "1", "--b", "0.5",
                           "--theta", "0.5"], capsys)
    assert rc == 0 and payload["k"] == 1 and payload["threshold"] == 0
    rc, payload, _ = jrun(["mk", "threshold", "--t", "2", "--b", "1.0",
                           "--theta", "0.5", "--degree", "1"], capsys)
    assert rc == 1 and not payload["certified"]


def test_buchstab_cli(capsys):
    rc, payload, _ = jrun(["buchstab", "integrals"], capsys)
    assert rc == 0
    assert set(payload) == {"I1", "I2", "b", "integral_over_D",
                            "quadrature_error"}
    rc, payload, _ = jrun(["buchstab", "check", "--from", "100000",
                           "--to", "100200"], capsys)
    assert rc == 0 and payload["violations"] == 0
    rc, _, _ = run(["buchstab", "integrals", "--order", "8", "--tol", "1e-18"],
                   capsys)
    assert rc == 1   # refused with a work estimate


def test_buchstab_cli_refuses_a_huge_order(capsys):
    rc, out, err = run(["buchstab", "integrals", "--order", "5000"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("budget: order 5000 needs")


def test_mk_bound_refuses_a_huge_degree_budget(capsys, monkeypatch):
    def no_forms(basis):
        raise AssertionError("forms built before the budget check")

    monkeypatch.setattr(variational, "forms", no_forms)
    rc, out, err = run(["mk", "bound", "--k", "5", "--degree", "40"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("budget: degree budget 40 needs")


def test_mk_bound_refuses_a_singular_float_pencil(capsys):
    # float B underflows at k = 180 (its first entry is 0.0), so it has no
    # Cholesky factor
    rc, out, err = run(["mk", "bound", "--k", "180", "--degree", "3"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("refused: the float pencil at k = 180, degree 3 is "
                          "singular:")


@pytest.mark.parametrize("argv", [
    ["equidist", "bdh", "--ngrid", "1000000"],
    ["equidist", "bv", "--gamma", INV_SQRT2, "--ngrid", "10000",
     "--qcap", "100000"]])
def test_equidist_harness_budgets_exit_1(argv, capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("window swept before the budget check")

    monkeypatch.setattr(equidist, "_window_points", no_sweep)
    rc, out, err = run(argv, capsys)
    assert rc == 1 and out == ""
    assert err.startswith("budget: the arc sweep needs about")


def test_chars_table_payload(capsys):
    rc, payload, _ = jrun(["chars", "table", "--q", "15"], capsys)
    assert rc == 0
    assert payload == {"q": 15, "phi": 8, "cyc_orders": [2, 4],
                       "group_exponent": 4, "primitive_count": 3,
                       "primitive_count_formula": 3}


def test_chars_bilinear_refuses_a_long_divisor_table(capsys, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("divisor table allocated before the budget check")

    monkeypatch.setattr(chars.np, "zeros", no_table)
    rc, out, err = run(["chars", "bilinear", "--gamma", "0.7071", "--q0", "3",
                        "--m0", "3", "--m1", "6", "--k0", "3", "--k1", "6",
                        "--n1", "30000000"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("budget: divisor table of 30000000 entries")


def test_equidist_e_payload(capsys):
    rc, payload, _ = jrun(["equidist", "e", "--n", "10", "--gamma", "0.7",
                           "--q", "100", "--a", "1"], capsys)
    assert rc == 0
    assert payload == {"n": 10, "n2": 20, "q": 100, "a": 1, "e": "1/4",
                       "e_float": 0.25, "contributing_count": 0,
                       "interval": None, "attained": False}


def test_equidist_bv_cli(capsys):
    rc, payload, _ = jrun(["equidist", "bv", "--gamma", "0.7071067811865476",
                           "--ngrid", "1000"], capsys)
    assert rc == 0
    row, = payload["rows"]
    assert row["q_cap"] == 3 and row["r"] == 99


def test_bdh_demo_config_file(tmp_path, capsys):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text("# demo knobs\nqcap-demo = 3\nno-such-key = 1\n")
    rc, payload, err = jrun(["equidist", "bdh", "--demo", "true",
                             "--config", str(cfg)], capsys)
    assert rc == 0
    assert len(payload["rows"]) == 4
    assert payload["sum_bound"] == pytest.approx(62.5)
    assert payload["points_in_arc"] == 0
    assert "no_such_key" in err
    # explicit command-line flags win over the config file
    rc, payload, _ = jrun(["equidist", "bdh", "--demo", "true",
                           "--config", str(cfg), "--qcap-demo", "5"], capsys)
    assert rc == 0
    assert len(payload["rows"]) == 10
    assert payload["sum_bound"] == pytest.approx(81.25)


def test_explicit_apower_beats_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "bv.cfg"
    cfg.write_text("apower = 1\n")
    argv = ["equidist", "bv", "--gamma", INV_SQRT2, "--ngrid", "1000"]
    rc, explicit, _ = jrun(argv + ["--A", "3"], capsys)
    assert rc == 0
    rc, merged, _ = jrun(argv + ["--A", "3", "--config", str(cfg)], capsys)
    assert rc == 0 and merged == explicit
    rc, from_file, _ = jrun(argv + ["--config", str(cfg)], capsys)
    assert rc == 0 and from_file != explicit


def test_explicit_short_output_beats_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "out.cfg"
    cfg.write_text(f"output = {tmp_path / 'y.json'}\n")
    rc, stdout, _ = run(["mk", "bound", "--k", "2", "--degree", "1",
                         "-o", str(tmp_path / "x.json"), "--config", str(cfg)],
                        capsys)
    assert rc == 0 and stdout == ""
    assert (tmp_path / "x.json").exists()
    assert not (tmp_path / "y.json").exists()


def test_explicit_from_and_to_beat_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "window.cfg"
    cfg.write_text("lo = 100000\nhi = 100200\n")
    rc, payload, _ = jrun(["buchstab", "check", "--from", "100100",
                           "--to", "100150", "--config", str(cfg)], capsys)
    assert rc == 0
    assert payload == {"from": 100100, "to": 100150, "violations": 0}


def test_required_flags_may_come_from_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "window.cfg"
    cfg.write_text("lo = 100000\nhi = 100200\n")
    rc, payload, _ = jrun(["buchstab", "check", "--config", str(cfg)], capsys)
    assert rc == 0
    assert payload == {"from": 100000, "to": 100200, "violations": 0}
    cfg = tmp_path / "mk.cfg"
    cfg.write_text("k = 2\ndegree = 1\n")
    rc, from_file, _ = jrun(["mk", "bound", "--config", str(cfg)], capsys)
    assert rc == 0
    assert from_file == jrun(["mk", "bound", "--k", "2", "--degree", "1"],
                             capsys)[1]
    # file values meet the flag's type like typed ones
    cfg.write_text("k = two\n")
    rc, out, _ = run(["mk", "bound", "--config", str(cfg)], capsys)
    assert rc == 2 and out == ""


def test_two_calls_build_the_parser_once(capsys):
    cli._build_parser.cache_clear()
    for _ in range(2):
        rc, _, _ = run(["chars", "table", "--q", "15"], capsys)
        assert rc == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_bdh_demo_refuses_a_huge_qcap(capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("window swept before the budget check")

    monkeypatch.setattr(equidist, "_window_points", no_sweep)
    rc, out, err = run(["equidist", "bdh", "--demo", "true",
                        "--qcap-demo", "1000000"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("budget: the arc sweep needs about")


def test_output_file_and_manifest(tmp_path, capsys):
    out = tmp_path / "mk.json"
    rc, stdout, _ = run(["mk", "bound", "--k", "2", "--degree", "1",
                         "--output", str(out)], capsys)
    assert rc == 0
    assert stdout.strip() == ""   # payload goes to the file instead
    body = json.loads(out.read_text())
    assert body["bound"] == pytest.approx(1.38309518948453)
    manifest = json.loads((tmp_path / "mk.json.manifest.json").read_text())
    assert set(manifest) == {"config", "versions", "flags"}
    assert set(manifest["versions"]) == {"python", "numpy", "beattysieve"}
    assert manifest["flags"] == {}
    assert "k" in manifest["config"]


def test_manifest_records_typed_config(tmp_path, capsys):
    out = tmp_path / "b.json"
    rc, _, _ = run(["beatty", "enumerate", "--alpha", "3/2", "--beta", "1/3",
                    "--lo", "1", "--hi", "8", "-o", str(out)], capsys)
    assert rc == 0
    config = json.loads((tmp_path / "b.json.manifest.json").read_text())["config"]
    assert config == {"alpha": "3/2", "beta": "1/3", "lo": 1, "hi": 8,
                      "config": None, "format": "json", "output": str(out),
                      "subcommand": "beatty", "action": "enumerate"}
    rc, _, _ = run(["tuples", "admissible", "--h", "0,2,6", "-o", str(out)],
                   capsys)
    assert rc == 0
    config = json.loads((tmp_path / "b.json.manifest.json").read_text())["config"]
    assert config["h"] == [0, 2, 6]


def test_output_into_missing_directory(capsys):
    rc, _, _ = run(["beatty", "enumerate", "--alpha", SQRT2, "--lo", "1",
                    "--hi", "8", "--output", "/nonexistent-dir/x.json"],
                   capsys)
    assert rc == 3


def test_bad_inputs_exit_code(capsys):
    rc, _, _ = run(["beatty", "enumerate", "--alpha", "0.5", "--lo", "1",
                    "--hi", "8"], capsys)
    assert rc == 2
    rc, _, _ = run(["chars", "bilinear", "--q0", "3", "--q1", "7",
                    "--gamma", "0.5", "--m0", "8", "--m1", "16",
                    "--k0", "8", "--k1", "16"], capsys)
    assert rc == 2
    rc, out, _ = run(["beatty", "member", "--alpha", "3/0", "--n", "7"], capsys)
    assert rc == 2 and out == ""


def test_report_mk_csv(capsys):
    rc, out, _ = run(["report", "mk", "--kmax", "3", "--degree", "1",
                      "--format", "csv"], capsys)
    assert rc == 0
    lines = out.split("\r\n")
    assert lines[0] == "k,bound,quotient"
    assert lines[1] == "1,1.0,1"
    assert lines[2].startswith("2,1.38309518948453,")
    assert len(lines) == 5 and lines[4] == ""


def test_report_mk_default_rows(capsys):
    rc, out, _ = run(["report", "mk", "--kmax", "3"], capsys)
    assert rc == 0
    assert out.split("\r\n") == [
        "k,bound,quotient",
        "1,1.0,1",
        "2,1.3859093264936135,619861413630477408796324470360464222/"
        "447259717342939636838434581523853343",
        "3,1.64591195861273,2756220608898556542292604018786403085617/"
        "1674585687573264315917679190974541222550",
        ""]


def test_removed_common_options_are_usage_errors(capsys):
    for flag in ("--parallelism", "--seed"):
        rc, _, _ = run(["report", "mk", "--kmax", "1", flag, "2"], capsys)
        assert rc == 2


def test_report_buchstab_integrals(capsys):
    rc, payload, _ = jrun(["report", "buchstab-integrals"], capsys)
    assert rc == 0
    assert set(payload) == {"I1", "I2", "b"}
    assert payload["b"] == pytest.approx(0.9041131616859246, rel=1e-9)


def test_report_lemmas(capsys, monkeypatch):
    rc, payload, _ = jrun(["report", "lemmas"], capsys)
    assert rc == 0
    lcm, split = payload["rows"]
    assert (lcm["lemma"], lcm["range"], lcm["checked"], lcm["holds"]) \
        == ("lcm_identity", [1, 200], 14884, True)
    assert (split["lemma"], split["range"], split["checked"], split["holds"]) \
        == ("split_partition", [1, 1000], 1000, True)

    real_check = maynard.lcm_identity_check
    calls = []

    def fails_once(d, e):
        calls.append((d, e))
        return len(calls) > 1 and real_check(d, e)

    monkeypatch.setattr(maynard, "lcm_identity_check", fails_once)
    rc, payload, _ = jrun(["report", "lemmas"], capsys)
    assert rc == 1
    assert [row["holds"] for row in payload["rows"]] == [False, True]
    assert len(calls) == 14884


def test_sieve_weights_payload(capsys):
    rc, payload, _ = jrun(["sieve", "weights", "--k", "2", "--theta", "0.5",
                           "--n", "10000", "--h", "0,2", "--d0", "2"], capsys)
    assert rc == 0
    assert (payload["w1"], payload["w2"], payload["nu0"]) == (2, 2, 1)
    assert payload["support_size"] == len(payload["rows"]) == 7
    assert payload["r"] == pytest.approx(9.549925860214358)
    assert payload["rows"][0] == {"d": "1 1", "lam": "17/6"}
    assert payload["max_abs_lambda"] == pytest.approx(float(Fraction(17, 6)))


def test_sieve_weights_derives_d0_from_the_offsets(capsys):
    # 6 - 0 carries the prime 3, so the least workable D0 is 3
    argv = ["sieve", "weights", "--k", "3", "--h", "0,2,6", "--theta", "0.5",
            "--n", "100000"]
    rc, payload, _ = jrun(argv, capsys)
    assert rc == 0
    assert (payload["w1"], payload["w2"]) == (6, 6)
    rc, pinned, _ = jrun(argv + ["--d0", "3"], capsys)
    assert rc == 0 and pinned == payload


def test_refused_work_exits_1(capsys):
    # CapacityError: W1, the product of the primes up to 50, is over its cap
    rc, out, err = run(["sieve", "weights", "--k", "2", "--h", "0,2",
                        "--theta", "0.5", "--n", "100000", "--d0", "50"],
                       capsys)
    assert rc == 1 and out == ""
    assert err.startswith("refused: W1 = ")


def test_refused_derived_d0_names_the_forcing_prime(capsys):
    # 194 = 2 * 97 forces D0 = 97; no smaller D0 passes the divisor
    # condition, so the refusal must not suggest one
    rc, out, err = run(["sieve", "weights", "--k", "2", "--h", "0,194",
                        "--theta", "0.5", "--n", "100000"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("refused: W1 = ")
    assert "97" in err.split("exceeds")[1]
    assert "smaller D0" not in err


def test_impossible_input_exits_1(capsys):
    # ImpossibleInputError: n and n + 1 cannot both be odd, so no nu0 class
    rc, out, err = run(["sieve", "weights", "--k", "2", "--h", "0,1",
                        "--theta", "0.5", "--n", "100000"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("refused: no residue class mod 2")


def test_sieve_s1s2_payload(capsys):
    rc, payload, _ = jrun(["sieve", "s1s2", "--alpha", SQRT2,
                           "--n", "100000"], capsys)
    assert rc == 0
    assert payload["i_value"] == pytest.approx(0.5)
    assert payload["a_size"] == 70711
    assert payload["ratio_s1"] == pytest.approx(1.4492802139135192, rel=1e-9)


def test_equidist_regcond_cli(capsys):
    rc, payload, _ = jrun(["equidist", "regcond", "--alpha", SQRT2,
                           "--ngrid", "2000"], capsys)
    assert rc == 0
    row, = payload["rows"]
    assert row["q_top"] == 6
    assert row["arc_route_matches"] == {"0": True, "1": True}
    assert row["norm12"] == pytest.approx(3.775536935552919, rel=1e-9)
    assert payload["flags"] == {"regcond_trend_down": None}


@pytest.mark.filterwarnings("ignore:denominator form is singular")
def test_find_small_windows(capsys):
    rc, payload, _ = jrun(["find", "--t", "2", "--lo", "2", "--hi", "30"],
                          capsys)
    assert rc == 0
    assert payload["primes"] == [5, 7] and payload["diameter"] == 2
    assert payload["path"] == "window" and payload["bound_ok"]
    for entry in payload["certificate"]:
        assert entry["prime"] and entry["beatty_member"] and entry["in_window"]
    rc, payload, _ = jrun(["find", "--t", "1", "--lo", "2", "--hi", "30"],
                          capsys)
    assert rc == 0 and payload["primes"] == [2] and payload["diameter"] == 0
    rc, payload, _ = jrun(["find", "--t", "5", "--lo", "2", "--hi", "10"],
                          capsys)
    assert rc == 1 and not payload["found"]
    assert payload["scan"]["beatty_primes"] == 3


@pytest.mark.filterwarnings("ignore:denominator form is singular")
def test_find_certificate_does_not_trust_the_factor_table(monkeypatch, capsys):
    real_prime_mask = arith.FactorTable.prime_mask
    monkeypatch.setattr(arith.FactorTable, "prime_mask",
                        lambda self, ns: (ns == 4) | real_prime_mask(self, ns))
    rc, payload, _ = jrun(["find", "--t", "2", "--lo", "2", "--hi", "30"],
                          capsys)
    assert rc == 1
    assert payload["primes"] == [4, 5]
    assert [entry["prime"] for entry in payload["certificate"]] == [False, True]


def test_find_square_window(capsys):
    rc, payload, _ = jrun(["find", "--t", "2", "--theta", "two-sevenths",
                           "--n", "1000"], capsys)
    assert rc == 0
    assert payload["window"] == [1681, 3362]
    assert payload["primes"] == [1697, 1699]
    assert payload["bound_ok"] and payload["path"] == "window"
    assert "r = 41" in payload["note"]


def test_find_tuple_path(capsys):
    # --k 2 skips the threshold search; the translated pair (140, 280) puts
    # two Beatty primes on the 12th candidate, n = 100011
    rc, payload, _ = jrun(["find", "--t", "2", "--k", "2", "--lo", "100000",
                           "--hi", "200000"], capsys)
    assert rc == 0
    assert payload["path"] == "tuple"
    assert payload["primes"] == [100151, 100291]
    assert payload["tuple_offsets"] == [140, 280]
    assert payload["scan"]["candidates_checked"] == 12
    assert payload["bound_ok"]
    for entry in payload["certificate"]:
        assert entry["prime"] and entry["beatty_member"] and entry["in_window"]


# Reference commands and the payloads they printed (exit 0) under the
# Fraction Beatty kernel; the integer kernel must reproduce them exactly.
REFERENCE_PAYLOADS = {
    "enumerate-sqrt2": (
        ["beatty", "enumerate", "--alpha", SQRT2, "--lo", "1000000",
         "--hi", "1000030"],
        {"alpha": 1.4142135623730951, "beta": 0.0, "count": 21, "hi": 1000030,
         "lo": 1000000,
         "members": [1000000, 1000001, 1000003, 1000004, 1000005, 1000007,
                     1000008, 1000010, 1000011, 1000013, 1000014, 1000015,
                     1000017, 1000018, 1000020, 1000021, 1000022, 1000024,
                     1000025, 1000027, 1000028]}),
    "enumerate-sqrt5": (
        ["beatty", "enumerate", "--alpha", SQRT5, "--lo", "1000000",
         "--hi", "1000030"],
        {"alpha": 2.23606797749979, "beta": 0.0, "count": 14, "hi": 1000030,
         "lo": 1000000,
         "members": [1000000, 1000003, 1000005, 1000007, 1000009, 1000012,
                     1000014, 1000016, 1000018, 1000021, 1000023, 1000025,
                     1000027, 1000029]}),
    "enumerate-sqrt3-beta": (
        ["beatty", "enumerate", "--alpha", SQRT3, "--beta", "1/3", "--lo", "0",
         "--hi", "30"],
        {"alpha": 1.7320508075688772, "beta": 0.3333333333333333, "count": 17,
         "hi": 30, "lo": 0,
         "members": [2, 3, 5, 7, 8, 10, 12, 14, 15, 17, 19, 21, 22, 24, 26, 28,
                     29]}),
    "member-sqrt2-out": (
        ["beatty", "member", "--alpha", SQRT2, "--n", "1000002"],
        {"alpha": 1.4142135623730951, "member": False, "n": 1000002}),
    "member-sqrt2-in": (
        ["beatty", "member", "--alpha", SQRT2, "--n", "1000003"],
        {"alpha": 1.4142135623730951, "index": 707109, "member": True,
         "n": 1000003}),
    "member-sqrt5-out": (
        ["beatty", "member", "--alpha", SQRT5, "--n", "1000002"],
        {"alpha": 2.23606797749979, "member": False, "n": 1000002}),
    "member-sqrt5-in": (
        ["beatty", "member", "--alpha", SQRT5, "--n", "1000003"],
        {"alpha": 2.23606797749979, "index": 447215, "member": True,
         "n": 1000003}),
    "member-sqrt3-beta-1": (
        ["beatty", "member", "--alpha", SQRT3, "--beta", "1/3", "--n", "1"],
        {"alpha": 1.7320508075688772, "member": False, "n": 1}),
    "member-sqrt3-beta-29": (
        ["beatty", "member", "--alpha", SQRT3, "--beta", "1/3", "--n", "29"],
        {"alpha": 1.7320508075688772, "index": 17, "member": True, "n": 29}),
    "member-sqrt3-beta-30": (
        ["beatty", "member", "--alpha", SQRT3, "--beta", "1/3", "--n", "30"],
        {"alpha": 1.7320508075688772, "member": False, "n": 30}),
    "sieve-s1s2": (
        ["sieve", "s1s2", "--alpha", SQRT2],
        {"a_size": 707107, "alpha": 1.4142135623730951, "beta": 0.0,
         "i_value": 0.5, "k": 2, "n": 1000000, "offsets": [0, 2],
         "ratio_s1": 1.2654656388001642, "s1_observed": 2562957.5613211114,
         "s1_predicted": 2025307.904646979, "theta": 0.99}),
    "report-regcond-trend": (
        ["report", "regcond-trend"],
        {"eps": 0.05, "flags": {"regcond_trend_down": True}, "k": 2,
         "offsets": [0, 7], "theta": 0.25,
         "rows": [{"arc_route_matches": {"0": True, "1": True},
                   "lhs12": 491.12864706127584,
                   "lhs15": {"0": 4384.943398930697, "1": 5123.958716063583},
                   "n": 100000, "norm12": 1.0402576910761925,
                   "norm15": {"0": 9.28773168286053, "1": 10.853037172716592},
                   "q_top": 17, "y": 70710.67811865476},
                  {"arc_route_matches": {"0": True, "1": True},
                   "lhs12": 1134.6361874076574,
                   "lhs15": {"0": 12270.80901472897, "1": 11733.919865084015},
                   "n": 400000, "norm12": 0.7585194076959908,
                   "norm15": {"0": 8.203199306615053, "1": 7.844281757266012},
                   "q_top": 25, "y": 282842.71247461904}]}),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_PAYLOADS))
def test_reference_commands_keep_their_payloads(name, capsys):
    argv, expected = REFERENCE_PAYLOADS[name]
    rc, payload, _ = jrun(argv, capsys)
    assert rc == 0
    assert payload == expected


def test_reference_enumeration_is_byte_identical(capsys):
    # the 707 107 members of [10^6, 2*10^6) for alpha = sqrt(2), as printed
    # by the Fraction kernel
    rc, out, _ = run(["beatty", "enumerate", "--alpha", SQRT2, "--lo", "1000000",
                      "--hi", "2000000"], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "39cec7a2009cd7f6c98cf6232abfc5343cc638cc2ef4407f6bdee26e358d2c70")
