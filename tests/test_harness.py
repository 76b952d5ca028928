"""Registry sanity, CLI behaviour, report format, and determinism."""

import collections
import concurrent.futures
import importlib
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import types

from fractions import Fraction

import pytest

import hankelpf
from hankelpf.blocks import enum_block_perms, perm_sign
from hankelpf.errors import (BoundsError, ShapeMismatch, UnknownIdentity,
                             UnknownTag, UnsupportedArgument)
from hankelpf.harness import (CheckParams, all_identities,
                              filter_identities, get_identity,
                              report_from_json, run_check, run_suite,
                              suite_exit_code, summarize)
from hankelpf.harness import checks_qpoly, suite
from hankelpf.harness.cli import coerce_param, main
from hankelpf.harness.common import (gap_prefactor, hankel_pf, outcome_all,
                                     q_gap_prefactor)
from hankelpf.harness.registry import GATING_STATUSES, STATUSES
from hankelpf.harness.reports import REPORT_KEYS, dump_reports
from hankelpf.qcalc import delta_product
from hankelpf.scalars import derive_rng, poly, poly_gen
from hankelpf.tensors import Tensor

# the ids the battery must cover, grouped the way the layers stack
CORE_IDS = [
    # structural
    "laplace-expansion", "hyper-minor", "subpf-indicator", "msf-general",
    "msf-det", "pf-hf", "matsumoto",
    # bridges between integrals and arrays
    "debruijn-discrete", "q-hankel", "hankel-classical",
    "delta-relations", "delta-integral", "pf-delta2",
    # closed-form integrals
    "selberg", "aomoto", "selberg-phi", "ahk", "little-qjacobi-pf",
    # q-polynomial Pfaffians
    "asc-u-rm1", "asc-u-r0", "asc-v-rm1", "asc-v-r0", "ftilde-rec",
    "rs-moment-u", "bf-u-integral",
    "gx-1", "gx-2", "gx-3", "gx-4", "gx-5", "gx-defs",
    # block-moment closed forms and their corollaries
    "tilden-a1", "tilden-a2", "tilden-a3", "tilden-b1", "tilden-b2",
    "tilden-b3", "tilden-d1", "tilden-d2",
    "motzkin-pf", "delannoy-pf", "schroeder-pf",
    "motzkin-shift", "delannoy-shift", "schroeder-shift",
    "catalan-r", "cbc-r", "typeD-r",
    "gf-narayana-a", "gf-narayana-b", "gf-narayana-d",
    "special-cat", "special-sch", "special-cbc", "special-del",
    "special-dcount", "special-motzkin", "special-ctc", "special-motd",
]


# ------------------------------------------------------------------- registry

def test_registry_covers_core_ids():
    ids = {spec.id for spec in all_identities()}
    missing = [cid for cid in CORE_IDS if cid not in ids]
    assert not missing, f"registry lacks {missing}"
    assert len(ids) >= 30


def test_registry_entries_well_formed():
    for spec in all_identities():
        assert spec.status in STATUSES
        assert spec.strategy
        assert spec.title
        assert spec.smoke and spec.full
        assert callable(spec.check)
        for grid in (spec.smoke, spec.full):
            for params in grid:
                assert isinstance(params, dict)


def test_get_identity_and_unknown():
    assert get_identity("selberg").status == "theorem"
    with pytest.raises(UnknownIdentity):
        get_identity("not-a-thing")


def test_filter_semantics():
    conjecture = {s.id for s in filter_identities("conjecture")}
    assert {"gx-1", "gx-2", "gx-3", "gx-4", "gx-5"} <= conjecture
    assert {"catalan-r", "cbc-r", "typeD-r"} <= conjecture
    numeric = {s.id for s in filter_identities("numeric")}
    assert numeric == {"rs-moment-u", "bf-u-integral"}
    omega_case = {s.id for s in filter_identities("tilden-d-omega")}
    assert omega_case == {"tilden-d2"}
    by_id = filter_identities("selberg")
    assert len(by_id) == 1 and by_id[0].id == "selberg"
    with pytest.raises(UnknownTag):
        filter_identities("no-such-tag")
    assert len(filter_identities(None)) == len(all_identities())


def test_statuses_match_claims():
    expect = {
        "little-qjacobi-pf": "theorem",
        "asc-u-rm1": "theorem",
        "rs-moment-u": "theorem",
        "catalan-r": "reported-discrepancy",
        "cbc-r": "reported-discrepancy",
        "typeD-r": "reported-discrepancy",
        "gx-3": "conjecture",
        "motzkin-pf": "corollary",
    }
    for cid, status in expect.items():
        assert get_identity(cid).status == status


# ----------------------------------------------------------------- run_check

def test_run_check_motzkin_headline():
    report = run_check(CheckParams("motzkin-pf", {"n": 3}))
    assert report.status == "verified"
    assert report.lhs == "45" and report.rhs == "45"
    assert report.elapsed_ms == 0


def test_run_check_is_deterministic():
    p = CheckParams("ahk", {"n": 2, "k": 1, "x": 1, "y": 1}, seed=7)
    a = run_check(p).to_json()
    b = run_check(p).to_json()
    assert json.dumps(a) == json.dumps(b)


def test_run_check_seed_changes_samples_not_verdict():
    p0 = CheckParams("little-qjacobi-pf", {"n": 2, "r": 1}, seed=0)
    p1 = CheckParams("little-qjacobi-pf", {"n": 2, "r": 1}, seed=1)
    r0, r1 = run_check(p0), run_check(p1)
    assert r0.status == r1.status == "verified"
    assert (r0.lhs, r0.rhs) != (r1.lhs, r1.rhs)


def test_report_json_shape():
    report = run_check(CheckParams("schroeder-pf", {"n": 2}))
    doc = report.to_json()
    assert tuple(doc.keys()) == REPORT_KEYS
    assert doc["identity"] == "schroeder-pf"
    assert doc["lhs"] == "80"
    round_trip = report_from_json(doc)
    assert round_trip.to_json() == doc


def test_conjecture_mismatch_does_not_gate_exit():
    report = run_check(CheckParams("gx-5", {"index": 5, "max_n": 2}))
    assert report.status == "counterexample"
    assert suite_exit_code([report]) == 0
    good = run_check(CheckParams("gx-1", {"index": 1, "max_n": 2}))
    assert "verified range n<=2" in good.note


def test_discrepancy_reports_do_not_gate_exit():
    report = run_check(CheckParams("cbc-r", {"n": 1, "r": 0}))
    assert report.status == "discrepancy-reported"
    assert suite_exit_code([report]) == 0


def test_numeric_fail_gates_exit(monkeypatch):
    monkeypatch.setattr(checks_qpoly, "TOLERANCE", 1e-30)
    report = run_check(CheckParams("rs-moment-u", {"max_m": 2}))
    assert report.status == "numeric-fail"
    assert suite_exit_code([report]) == 1


def test_selberg_phi_mismatch_is_a_counterexample(monkeypatch, capsys):
    monkeypatch.setattr(hankelpf.sequences, "phi_product",
                        lambda n, r, s, m: 0)
    assert main(["verify", "selberg-phi"]) == 1
    assert "counterexample" in capsys.readouterr().out


def test_exit_code_is_summary_failed(monkeypatch):
    monkeypatch.setattr(checks_qpoly, "TOLERANCE", 1e-30)
    fail = run_check(CheckParams("rs-moment-u", {"max_m": 2}))
    conj = run_check(CheckParams("gx-5", {"index": 5, "max_n": 2}))
    disc = run_check(CheckParams("cbc-r", {"n": 1, "r": 0}))
    ok = run_check(CheckParams("motzkin-pf", {"n": 2}))
    for reports in ([], [ok], [conj, disc], [ok, fail], [conj, fail, disc]):
        failed = summarize(reports)["failed"]
        assert suite_exit_code(reports) == (1 if failed else 0)


def test_run_check_needs_every_grid_parameter():
    with pytest.raises(UnsupportedArgument) as exc:
        run_check(CheckParams("gx-1", {"index": 1}))
    assert str(exc.value) == \
        "gx-1 needs parameter max_n (an integer >= 1)"


# ------------------------------------------------------ Hankel-type builder

def _literal_hankel(l, n, pref, moment, shift):
    # the defining signed sum over ordered partitions, with its 1/n!
    total = 0
    for bp in enum_block_perms(l, n):
        term = Fraction(perm_sign(bp.word), math.factorial(n))
        for I in bp.blocks:
            term = term * pref(I) * moment(sum(I) + shift)
        total = total + term
    return total


HANKEL_MOMENTS = {
    "fraction": lambda d: Fraction(3 * d - 5, d * d + 1),
    "unipoly": lambda d: (poly_gen("a") - d) ** (d % 3) + Fraction(d, 2),
}


@pytest.mark.parametrize("moment", sorted(HANKEL_MOMENTS))
@pytest.mark.parametrize("l,n", [(2, 1), (2, 2), (2, 3), (4, 2)])
def test_hankel_pf_matches_literal_definition(l, n, moment):
    for pref in (gap_prefactor, q_gap_prefactor(Fraction(2, 5))):
        for shift in (-2, 1):
            calls = collections.Counter()

            def counted(d):
                calls[d] += 1
                return HANKEL_MOMENTS[moment](d)
            got = hankel_pf(l, n, pref, counted, shift)
            assert got == _literal_hankel(l, n, pref,
                                          HANKEL_MOMENTS[moment], shift)
            degrees = {sum(I) + shift for I in
                       itertools.combinations(range(1, l * n + 1), l)}
            assert set(calls) == degrees
            assert set(calls.values()) == {1}


def test_gap_prefactors():
    assert gap_prefactor((1, 3, 6)) == 2 * 5 * 3
    q = Fraction(1, 3)
    assert q_gap_prefactor(q)((1, 3, 6)) == \
        (1 - q ** 2) * (1 - q ** 5) * (q ** 2 - q ** 5)


@pytest.mark.parametrize("q", [Fraction(2, 5), Fraction(-3, 4),
                               poly_gen("q")], ids=str)
def test_q_gap_prefactor_matches_literal_product(q):
    pref = q_gap_prefactor(q)
    for l in (1, 2, 3, 4):
        for I in itertools.combinations(range(1, 9), l):
            want = math.prod(q ** (a - 1) - q ** (b - 1)
                             for a, b in itertools.combinations(I, 2))
            got = pref(I)
            assert got == want and type(got) is type(want), I


def test_hankel_pf_empty_and_negative_sizes():
    assert hankel_pf(2, 0, gap_prefactor, lambda d: 1 / 0, 0) == 1
    assert hankel_pf(4, 0, gap_prefactor, lambda d: 1 / 0, 0) == 1
    with pytest.raises(BoundsError):
        hankel_pf(2, -1, gap_prefactor, lambda d: 1, 0)


# ---------------------------------------------------------------- suite layer

def test_smoke_suite_all_green():
    reports = run_suite(level="smoke", filter_tag="structural")
    assert all(r.status == "verified" for r in reports)
    summary = summarize(reports)
    assert summary["failed"] == 0
    assert summary["verified"] == len(reports)


def test_suite_summary_ranges():
    reports = run_suite(level="smoke", filter_tag="conjecture")
    summary = summarize(reports)
    assert summary["conjecture_ranges"]["gx-1"] == "n<=2"
    assert summary["conjecture_ranges"]["gx-5"] == "none"
    assert summary["failed"] == 0
    assert suite_exit_code(reports) == 0


def test_suite_json_document():
    reports = run_suite(level="smoke", filter_tag="numeric")
    payload = dump_reports(reports, summarize(reports))
    doc = json.loads(payload)
    assert set(doc.keys()) == {"reports", "summary"}
    assert [r["identity"] for r in doc["reports"]] == \
        ["rs-moment-u", "bf-u-integral"]
    assert set(doc["summary"].keys()) == \
        {"verified", "failed", "conjecture_ranges"}


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps
    in-process, so no worker is ever started."""

    made: list = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "made", [])
    # run_suite imports the pool class when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    return _RecordingPool.made


def test_run_suite_caps_workers(recording_pool, monkeypatch):
    monkeypatch.setattr(suite, "run_check", lambda p: p.identity)
    monkeypatch.setattr(suite.os, "cpu_count", lambda: 8)
    # one task runs serially whatever --jobs says
    assert run_suite(filter_tag="ahk", jobs=64) == ["ahk"]
    assert recording_pool == []
    # never more workers than tasks
    assert run_suite(filter_tag="numeric", jobs=64) == \
        ["rs-moment-u", "bf-u-integral"]
    assert recording_pool == [2]
    # never more workers than CPUs; one CPU (or an unknown count) is serial
    for cpus in (1, None):
        monkeypatch.setattr(suite.os, "cpu_count", lambda: cpus)
        run_suite(filter_tag="numeric", jobs=2)
    assert recording_pool == [2]
    # the full grid keeps the two workers it asks for
    monkeypatch.setattr(suite.os, "cpu_count", lambda: 2)
    ids = run_suite(level="full", jobs=2)
    assert ids == [p.identity for p in suite.suite_tasks(level="full")]
    assert recording_pool == [2, 2]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_suite_rejects_nonpositive_jobs(recording_pool, capsys, jobs):
    assert main(["suite", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("hpf: BoundsError:")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert recording_pool == []


def test_suite_reports_identical_across_jobs():
    # a real pool of at most two workers
    serial = run_suite(level="smoke", filter_tag="structural", jobs=1)
    pooled = run_suite(level="smoke", filter_tag="structural", jobs=2)
    assert dump_reports(pooled, summarize(pooled)) == \
        dump_reports(serial, summarize(serial))


def test_gating_statuses():
    assert set(GATING_STATUSES) == {"theorem", "corollary"}


# ----------------------------------------------------------------------- CLI

def test_coerce_param():
    assert coerce_param("3") == 3
    assert coerce_param("-2") == -2
    from fractions import Fraction
    assert coerce_param("1/2") == Fraction(1, 2)
    assert coerce_param("true") is True
    assert coerce_param("false") is False
    assert coerce_param("a2") == "a2"


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for cid in ("selberg", "tilden-d2", "gx-5", "motzkin-pf"):
        assert cid in out
    assert main(["list", "--filter", "numeric"]) == 0
    out = capsys.readouterr().out
    assert "rs-moment-u" in out and "selberg" not in out


def test_cli_verify_with_params(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["verify", "motzkin-pf", "--param", "n=2",
                 "--json", str(target)])
    assert code == 0
    assert "verified" in capsys.readouterr().out
    doc = json.loads(target.read_text())
    assert doc["lhs"] == "5" and doc["params"] == {"n": 2}


@pytest.fixture
def quarter_second_clock(monkeypatch):
    """harness.suite's clock, advancing 0.25 s per reading."""
    ticks = itertools.count(0, 0.25)
    monkeypatch.setattr(suite, "time",
                        types.SimpleNamespace(perf_counter=lambda: next(ticks)))


def test_timing_records_the_clock(capsys, quarter_second_clock):
    assert main(["verify", "motzkin-pf", "--timing", "--json", "-"]) == 0
    _, doc = capsys.readouterr().out.split("\n", 1)
    assert json.loads(doc)["elapsed_ms"] == 250
    assert main(["verify", "motzkin-pf", "--json", "-"]) == 0
    _, doc = capsys.readouterr().out.split("\n", 1)
    assert json.loads(doc)["elapsed_ms"] == 0
    reports = run_suite(level="smoke", timing=True)
    assert reports and all(r.elapsed_ms == 250 for r in reports)
    assert all(r.elapsed_ms == 0 for r in run_suite(level="smoke"))


def test_readme_verify_example_matches_output(capsys):
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    expected = lines[lines.index("$ hpf verify motzkin-pf --param n=4") + 1]
    assert main(["verify", "motzkin-pf", "--param", "n=4"]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_cli_verify_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "ahk", "--param", "n=2", "--seed", "3",
            "--json"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_suite_smoke_filtered(capsys, tmp_path):
    target = tmp_path / "suite.json"
    code = main(["suite", "--level", "smoke", "--filter", "integral",
                 "--json", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    ids = [r["identity"] for r in doc["reports"]]
    assert ids == ["selberg", "aomoto", "selberg-phi", "ahk",
                   "little-qjacobi-pf"]
    assert doc["summary"]["failed"] == 0
    capsys.readouterr()


DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_cli_eval_pfaffian(capsys):
    assert main(["eval", "pfaffian",
                 "--input", str(DEMOS / "pfaffian_matrix.json")]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["eval", "hyperpfaffian",
                 "--input", str(DEMOS / "pair_blocks.json")]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["eval", "hafnian",
                 "--input", str(DEMOS / "pair_blocks.json")]) == 0
    assert capsys.readouterr().out.strip() == "37"
    assert main(["eval", "hyperdet",
                 "--input", str(DEMOS / "order4_tensor.json")]) == 0
    assert capsys.readouterr().out.strip() == "2"
    poly = "4*x^5 + x^4 - 9/2*x^3 + 37/2*x^2 - 287/30*x - 41/15"
    for name, pf, hf in (
            ("poly_blocks.json", poly, poly),
            ("quad_blocks.json", "763/30*w - 337/30", "763/30*w - 337/30"),
            ("ratfunc_blocks.json", "(-q^2 - 5*q + 2)/(q^2 - 2*q)",
             "(2*q^3 + q^2 - 5*q + 2)/(q^2 - 2*q)"),
            ("series_blocks.json", "[3, 1, 9] @z up to 2",
             "[3, 3, 7] @z up to 2")):
        for kind, want in (("hyperpfaffian", pf), ("hafnian", hf)):
            assert main(["eval", kind, "--input", str(DEMOS / name)]) == 0
            assert capsys.readouterr().out.strip() == want, (name, kind)


def test_cli_eval_negative_exponents(capsys, tmp_path):
    path = tmp_path / "laurent.json"
    entries = [([[1, 2]], "q^-1"), ([[1, 3]], "1"), ([[1, 4]], "q"),
               ([[2, 3]], "q^-1 + 1"), ([[2, 4]], "2"), ([[3, 4]], "q^-2")]
    path.write_text(json.dumps({
        "kind": "block_array", "l": 2, "m": 1, "n": 2,
        "entries": [{"idx": idx, "value": v} for idx, v in entries]}))
    assert main(["eval", "pfaffian", "--input", str(path)]) == 0
    # q^-3 - 2 + (1 + q^-1) q
    assert capsys.readouterr().out.strip() == "(q^4 - q^3 + 1)/(q^3)"


def test_cli_eval_power_of_norm_zero_element(capsys, tmp_path):
    # w^2 = 0: w has no inverse, so w^-2 is a usage error, not a crash
    path = tmp_path / "nil.json"
    path.write_text(json.dumps({
        "kind": "block_array", "l": 2, "m": 1, "n": 1,
        "ext": {"letter": "w", "p": 0, "r": 0},
        "entries": [{"idx": [[1, 2]], "value": "w^-2"}]}))
    assert main(["eval", "hyperpfaffian", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "hpf: DivisionByZero: quadratic-extension element has norm 0\n")


def test_cli_eval_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "tensor", not json')
    assert main(["eval", "pfaffian", "--input", str(bad)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "tensor", "m": 2, "n": 2,
                                 "entries": []}))
    assert main(["eval", "hyperpfaffian", "--input", str(wrong)]) == 2
    assert main(["eval", "pfaffian", "--input",
                 str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    # text that is not UTF-8, and nesting deeper than the decoder recurses
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"kind": "tensor"}'.encode("utf-16-le"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for path in (utf16, deep):
        assert main(["eval", "pfaffian", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hpf: ParseError:") and err.count("\n") == 1


def test_cli_eval_sizes_past_the_entries(capsys, tmp_path):
    # a point that no entry covers gives 0 before any state is built,
    # and a tensor's m axes are checked against its first index first
    path = tmp_path / "doc.json"
    for name, field, kind, code, out in (
            ("quad_blocks.json", "n", "hyperpfaffian", 0, "0\n"),
            ("order4_tensor.json", "m", "hyperdet", 2, "")):
        doc = json.loads((DEMOS / name).read_text())
        doc[field] = 10 ** 9
        path.write_text(json.dumps(doc))
        assert main(["eval", kind, "--input", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err.count("\n") == (code == 2)


def test_cli_eval_boolean_index_is_out_of_bounds(capsys, tmp_path):
    # JSON true equals 1 in Python, but it is no index in either kind
    tensor = {"kind": "tensor", "m": 2, "n": 2,
              "entries": [{"idx": [True, 2], "value": "3"},
                          {"idx": [2, 1], "value": "-3"}]}
    blocks = {"kind": "block_array", "l": 2, "m": 1, "size": 2,
              "entries": [{"idx": [[True, 2]], "value": "3"}]}
    path = tmp_path / "doc.json"
    for kind, doc in (("pfaffian", tensor), ("hyperdet", tensor),
                      ("pfaffian", blocks)):
        path.write_text(json.dumps(doc))
        assert main(["eval", kind, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hpf: BoundsError:")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("shape", [[2.9, 2], ["2", 2], [True, 2]])
def test_tensor_shape_entries_are_ints(capsys, tmp_path, shape):
    doc = {"kind": "tensor", "m": 2, "shape": shape,
           "entries": [{"idx": [1, 2], "value": "3"},
                       {"idx": [2, 1], "value": "-3"}]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "hyperdet", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hpf: ParseError:") and "'shape'" in err
    with pytest.raises(ShapeMismatch):
        Tensor(shape)


@pytest.mark.parametrize("kind,doc", [
    ("hyperpfaffian", {"kind": "block_array"}),
    ("hyperpfaffian", {"kind": "block_array", "l": 2, "n": 1}),
    ("hafnian", {"kind": "block_array", "l": 2, "m": 1}),
    ("hyperpfaffian", {"kind": "block_array", "l": 2, "m": 1, "n": 1,
                       "entries": [{"idx": [[1, 2]]}]}),
    ("hyperpfaffian", {"kind": "block_array", "l": 2, "m": 1, "n": 1,
                       "entries": [{"value": "1"}]}),
    ("hyperdet", {"kind": "tensor", "n": 2}),
    ("hyperdet", {"kind": "tensor", "m": 2}),
    ("hyperdet", {"kind": "tensor", "m": 2, "n": 1, "entries": [[1, 1]]}),
    # malformed rather than missing: a flat block index, a bare tensor
    # index, a string where an integer belongs
    ("hyperpfaffian", {"kind": "block_array", "l": 2, "m": 1, "n": 1,
                       "entries": [{"idx": [1, 2], "value": "1"}]}),
    ("hyperdet", {"kind": "tensor", "m": 2, "n": 2,
                  "entries": [{"idx": 3, "value": "1"}]}),
    ("hyperpfaffian", {"kind": "block_array", "l": "2", "m": 1, "n": 1}),
    # an entry list that is not a list, an ext header without its letter
    # or with a coefficient that is not a number
    ("hyperpfaffian", {"kind": "block_array", "l": 2, "m": 1, "n": 1,
                       "entries": 5}),
    ("hyperdet", {"kind": "tensor", "m": 2, "n": 1, "entries": 5}),
    ("hyperpfaffian", {"kind": "block_array", "l": 2, "m": 1, "n": 1,
                       "ext": {"p": "-1", "r": "-1"}, "entries": []}),
    ("hyperdet", {"kind": "tensor", "m": 2, "n": 1,
                  "ext": {"letter": "w", "p": "x", "r": "-1"},
                  "entries": []}),
    # an ext header or an entry that is not an object
    ("hyperpfaffian", {"kind": "block_array", "l": 2, "m": 1, "n": 1,
                       "ext": 5, "entries": []}),
    ("hyperpfaffian", {"kind": "block_array", "l": 2, "m": 1, "n": 1,
                       "entries": [5]}),
    ("hyperdet", {"kind": "tensor", "m": 2, "n": 1, "entries": [5]}),
])
def test_cli_eval_missing_fields(capsys, tmp_path, kind, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", kind, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hpf: ParseError:") and err.count("\n") == 1
    if doc.get("ext") == 5 or doc.get("entries") == [5]:
        assert "missing" not in err and "must be an object, got 5" in err


def test_cli_eval_rejects_entries_that_do_not_combine(capsys, tmp_path):
    path = tmp_path / "doc.json"
    doc = json.loads((DEMOS / "quad_blocks.json").read_text())
    doc["entries"][0]["value"] = "x"
    path.write_text(json.dumps(doc))
    assert main(["eval", "hyperpfaffian", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "hpf: IncompatibleTags: UniPoly and QuadExt values do not "
        "combine\n")
    doc["entries"][0]["value"] = "(1)/(w+1)"   # a rational function in w
    del doc["ext"]
    path.write_text(json.dumps(doc))
    assert main(["eval", "hyperpfaffian", "--input", str(path)]) == 0
    capsys.readouterr()


def test_cli_eval_number_value(capsys, tmp_path):
    # scalars are text; a JSON number is rejected by naming the field
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "block_array", "l": 2, "m": 1,
                                "n": 1, "entries": [{"idx": [[1, 2]],
                                                     "value": 3}]}))
    assert main(["eval", "hyperpfaffian", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hpf: ParseError:") and err.count("\n") == 1
    assert "'value'" in err and "empty scalar text" not in err


def test_cli_eval_missing_fields_process(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "block_array"}))
    src = pathlib.Path(hankelpf.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "hankelpf.harness.cli", "eval",
         "hyperpfaffian", "--input", str(path)],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def test_cli_unknown_identity_and_tag(capsys):
    assert main(["verify", "no-such-id"]) == 2
    assert main(["list", "--filter", "no-such-tag"]) == 2
    capsys.readouterr()


def test_cli_verify_negative_size(capsys):
    assert main(["verify", "motzkin-pf", "--param", "n=-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("hpf: UnsupportedArgument: motzkin-pf does not "
                            "accept n=-1; n takes an integer >= 1\n")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "ahk", "--trials", "0"],
    ["verify", "little-qjacobi-pf", "--trials", "-1"],
    ["suite", "--level", "smoke", "--trials", "0"],
])
def test_cli_rejects_nonpositive_trials(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("hpf: BoundsError:")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_cli_import_leaves_out_the_pool():
    # only a run with more than one worker needs the process pool
    src = pathlib.Path(hankelpf.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hankelpf.harness.cli; "
         "print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("module", [
    "hankelpf", "hankelpf.scalars", "hankelpf.qcalc", "hankelpf.harness"])
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


@pytest.mark.parametrize("max_n", ["0", "-2"])
def test_cli_gx_rejects_nonpositive_max_n(capsys, max_n):
    assert main(["verify", "gx-1", "--param", f"max_n={max_n}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("hpf: UnsupportedArgument: gx-1 does not accept "
                            f"max_n={max_n}; max_n takes an integer >= 1\n")
    assert captured.out == ""


def test_outcome_all_rejects_an_empty_comparison():
    with pytest.raises(BoundsError, match=r"no comparison.*\(degrees 0..-1\)"):
        outcome_all([], note="degrees 0..-1")
    assert outcome_all([(1, 1)]).status == "verified"


# the identities whose comparison list a count, max_n, order or max_i
# parameter sizes. The schema turns away each value that would leave
# nothing to compare; the least value it takes still compares something
# (order or max_i = 0 the degree-0 term).
EMPTY_RANGE_PARAMS = {
    "count": ("laplace-expansion", "hyper-minor", "msf-general", "msf-det",
              "pf-hf", "matsumoto", "engine-exterior", "pf-definition"),
    "max_i": ("ftilde-rec",),
    "order": ("gf-narayana-a", "gf-narayana-b", "gf-narayana-d"),
    "max_n": ("special-cat", "special-sch", "special-cbc", "special-del",
              "special-motzkin", "special-ctc"),
}


@pytest.mark.parametrize("identity,key", [
    (identity, key) for key, ids in EMPTY_RANGE_PARAMS.items()
    for identity in ids])
def test_cli_empty_comparison_exits_2(capsys, identity, key):
    least = 0 if key in ("order", "max_i") else 1
    assert main(["verify", identity, "--param", f"{key}={least}"]) == 0
    assert "verified" in capsys.readouterr().out
    assert main(["verify", identity, "--param", f"{key}={least - 1}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"hpf: UnsupportedArgument: {identity} does not accept "
        f"{key}={least - 1}; {key} takes an integer >= {least}\n")
    assert captured.out == ""


DEBRUIJN_GENERAL_PARAMS = {
    # the schema turns a count below 1 away before the checker runs
    "count=-1": "debruijn-discrete does not accept count=-1; "
                "count takes an integer >= 1",
    # a count the schema takes reaches the checker's classical rule
    "count=1": "the classical case takes n alone, not count",
    "r=1": "the classical case takes n alone, not r",
    "l=2": "the classical case takes n alone, not l",
}


@pytest.mark.parametrize("param", list(DEBRUIJN_GENERAL_PARAMS))
def test_cli_debruijn_classical_case_rejects_general_params(capsys, param):
    assert main(["verify", "debruijn-discrete", "--param", param]) == 2
    captured = capsys.readouterr()
    assert captured.err == \
        f"hpf: UnsupportedArgument: {DEBRUIJN_GENERAL_PARAMS[param]}\n"
    assert captured.out == ""


@pytest.mark.parametrize("identity,n,atoms", [
    ("delta-integral", 4, 3),     # smoke atoms=3
    ("hankel-classical", 3, 2),   # smoke atoms has two points
])
def test_cli_fewer_atoms_than_n_rejected(capsys, identity, n, atoms):
    # every point of the cube would repeat a coordinate, so both sides
    # would vanish
    assert main(["verify", identity, "--param", f"n={n}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"hpf: UnsupportedArgument: need at least "
                            f"n={n} atoms, got {atoms}\n")
    assert captured.out == ""


def test_cli_debruijn_general_case_needs_its_parameters(capsys):
    argv = ["verify", "debruijn-discrete", "--param", "classical=false"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ("hpf: UnsupportedArgument: the non-classical "
                            "case needs r, l, count\n")
    assert captured.out == ""
    assert main(argv + ["--param", "r=1", "--param", "l=2",
                        "--param", "count=1"]) == 0
    assert "verified" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (["motzkin-pf", "--param", "bogus=3"],
     "motzkin-pf has no parameter bogus; it takes n"),
    (["debruijn-discrete", "--param", "z=1", "--param", "count=2",
      "--param", "b=0"],
     "debruijn-discrete has no parameter b, z; "
     "it takes classical, count, l, n, r"),
])
def test_cli_rejects_unknown_param_names(capsys, argv, message):
    assert main(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"hpf: UnsupportedArgument: {message}\n"
    assert captured.out == ""


def test_float_checks_take_their_optional_params(capsys):
    # a, q and K are no grid's keys, but the schema of the two float
    # checks declares them
    assert main(["verify", "rs-moment-u", "--param", "q=1/3"]) == 0
    assert '"q":"1/3"' in capsys.readouterr().out
    assert main(["verify", "bf-u-integral", "--param", "K=150"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify rs-moment-u", "suite"])
def test_cli_has_no_tolerance_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command.split() + ["--tolerance", "-1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


def test_cli_bad_param_syntax(capsys):
    assert main(["verify", "motzkin-pf", "--param", "n3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("identity,param", [
    ("bf-u-integral", "n=3"), ("bf-u-integral", "n=0"),
    ("bf-u-integral", "a=0"), ("rs-moment-u", "a=0"),
    ("bf-u-integral", "K=-1"), ("rs-moment-u", "K=-1"),
    ("bf-u-integral", "q=2"), ("rs-moment-u", "q=2"),
    ("rs-moment-u", "max_m=-1"), ("bf-u-integral", "a=1"),
])
def test_cli_float_checks_reject_bad_input(capsys, identity, param):
    assert main(["verify", identity, "--param", param]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("hpf: UnsupportedArgument:")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_every_grid_instance_fits_its_schema():
    assert len(all_identities()) == 62
    for spec in all_identities():
        for params in spec.smoke + spec.full:
            spec.validate(params)


def test_schema_messages_name_identity_key_value_and_range():
    spec = get_identity("tilden-a1")
    for params, message in (
            ({"case": "a1", "l": 3, "n": 2, "r": 1},
             "tilden-a1 does not accept l=3; l takes an integer >= 2 in "
             "steps of 2"),
            ({"case": "b1", "l": 2, "n": 2, "r": 1},
             "tilden-a1 does not accept case='b1'; case takes one of 'a1'"),
            ({"case": "a1", "l": 2, "n": 2, "r": 1, "a": 1},
             "tilden-a1 has no parameter a; it takes case, l, n, r"),
            ({"case": "a1", "n": 2},
             "tilden-a1 needs parameter l (an integer >= 2 in steps of 2), "
             "r (one of 1, 3, -2, -4)")):
        with pytest.raises(UnsupportedArgument) as exc:
            spec.validate(params)
        assert str(exc.value) == message
    bf = get_identity("bf-u-integral")
    for key, value, accepted in (
            ("n", 3, "an integer >= 1 and <= 2"),
            ("a", "-100", "a rational in (-100, -1/100)"),
            ("q", Fraction(4, 5), "a rational in (0, 4/5)"),
            ("K", 99, "an integer >= 100 and <= 1000"),
            ("k", True, "one of 1, 2")):
        with pytest.raises(UnsupportedArgument) as exc:
            bf.validate({"n": 2, "k": 1, key: value})
        shown = repr(value) if isinstance(value, str) else value
        assert str(exc.value) == (f"bf-u-integral does not accept "
                                  f"{key}={shown}; {key} takes {accepted}")


def _sweep_runs():
    """(identity, key, value) for every int key the grids name at -1 and
    0, every other key at a value no grid gives it, each tilden-* at an
    odd block length, and the float checks' a at and just inside each
    end of its range and far outside it."""
    runs = []
    for spec in all_identities():
        grids = spec.smoke + spec.full
        for key in spec.schema or ("none",):
            values = [inst[key] for inst in grids if key in inst]
            if values and all(type(v) is int for v in values):
                runs += [(spec.id, key, -1), (spec.id, key, 0)]
            else:
                runs.append((spec.id, key, "none"))
        if spec.id.startswith("tilden-"):
            runs.append((spec.id, "l", 3))
        if spec.id in ("rs-moment-u", "bf-u-integral"):
            runs += [(spec.id, "a", a) for a in (
                "-100", "-9999/100", "-101/10000", "-1/100", "-1e20",
                "-1/100000000000000000000")]
    return runs


def test_parameter_sweep_exits_0_or_2(capsys):
    codes = {}
    for run in _sweep_runs():
        identity, key, value = run
        code = codes[run] = main(
            ["verify", identity, "--param", f"{key}={value}"])
        captured = capsys.readouterr()
        assert code in (0, 2), (run, captured.out)
        if code == 2:
            assert captured.err.startswith("hpf: ")
            assert captured.err.count("\n") == 1 and captured.out == ""
    assert {run[0] for run in codes} == {s.id for s in all_identities()}
    # false counterexamples and vacuous passes before the schema
    for run in (("delannoy-pf", "n", 0), ("delannoy-shift", "n", 0),
                ("tilden-a1", "l", 3), ("subpf-indicator", "count", -1),
                ("special-dcount", "max_n", -1),
                ("special-motd", "max_n", -1), ("gx-defs", "order", -1),
                ("msf-general", "max_n", 0), ("laplace-expansion", "dim", 0),
                ("gx-1", "index", 0), ("catalan-r", "r", -1),
                ("bf-u-integral", "a", "-1e20")):
        assert codes[run] == 2, run
    for identity in ("rs-moment-u", "bf-u-integral"):
        for a in ("-9999/100", "-101/10000"):
            assert codes[identity, "a", a] == 0, (identity, a)


def _per_point_weight(x, a, q, nfactors=400):
    # the [a, 1] weight as a per-point product, denominator included
    num = 1.0
    den = 1.0 - a
    p = 1.0
    for _ in range(nfactors):
        num *= (1.0 - q * x * p) * (1.0 - q * x / a * p)
        den *= (1.0 - q * p) * (1.0 - a * q * p) * (1.0 - q / a * p)
        p *= q
    return num / den


def test_weighted_atoms_match_per_point_formula():
    for a, q, K in ((-0.5, 0.5, 200), (-2 / 3, 1 / 3, 60), (0.3, 0.7, 40)):
        atoms = []
        power = 1.0
        for _ in range(K + 1):
            atoms.append((power, (1.0 - q) * power))
            atoms.append((a * power, -a * (1.0 - q) * power))
            power *= q
        want = [(x, w * _per_point_weight(x, a, q)) for x, w in atoms]
        assert list(zip(*checks_qpoly._weighted_atoms(a, q, K))) == want


def test_weighted_atoms_cache_is_bit_identical_and_bounded():
    cached = checks_qpoly._weighted_atoms
    cached.cache_clear()
    keys = [(-0.5, 0.5, 200), (-2 / 3, 1 / 3, 60), (0.3, 0.7, 40)]
    for a, q, K in keys:
        first = cached(a, q, K)
        again = cached(a, q, K)
        assert again is first
        fresh = cached.__wrapped__(a, q, K)
        assert all(type(col) is tuple for col in first)
        for got, want in zip(first, fresh):
            assert [v.hex() for v in got] == [v.hex() for v in want]
    for K in range(20):
        cached(-0.5, 0.5, K)
    maxsize = cached.cache_info().maxsize
    assert maxsize is not None and maxsize <= 8
    assert cached.cache_info().currsize == maxsize


def test_horner_matches_power_sum():
    rng = derive_rng("horner")
    points = [Fraction(3, 7), Fraction(-5, 2), Fraction(0), 4, -1]
    for deg in range(4):
        for _ in range(5):
            cs = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                  for _ in range(deg + 1)]
            for x in points:
                got = poly.horner(cs, x)
                want = sum(c * x ** k for k, c in enumerate(cs))
                assert got == want and type(got) is type(want), (cs, x)
    assert type(poly.horner([], 4)) is Fraction and poly.horner([], 4) == 0


def test_d2_rows_match_delta_product():
    # q = 1/2 is the registered case; at a = -2/3, q = 1/3 the pair
    # factors round, so a change in their order would show
    for a, q in ((-0.5, 0.5), (-2 / 3, 1 / 3)):
        xs, _ = checks_qpoly._weighted_atoms(a, q, 10)
        for k in (1, 2):
            rows = list(checks_qpoly._d2_rows(xs, q, k))
            assert len(rows) == len(xs)
            for x1, row in zip(xs, rows):
                assert row == [delta_product((x1, x2), q, k, "D2")
                               for x2 in xs]
