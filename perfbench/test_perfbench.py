"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import itertools
import time

import pytest

import run

run.bootstrap()
run.timed_setup()    # as in a run: set-up comes before any request is made

from check import Checker, CheckFailed  # noqa: E402
from serve import serve  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import request_stream  # noqa: E402

from envlld.algebra import sl2, sl3  # noqa: E402


def _take(workload, seed, n):
    return list(itertools.islice(request_stream(workload, seed), n))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _take(workload, 7, 40) == _take(workload, 7, 40)
    assert _take(workload, 7, 40) != _take(workload, 8, 40)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generation_warms_no_cache(workload):
    specs = (sl2(), sl3())
    before = [(len(A._nf_cache), len(A._mono_cache)) for A in specs]
    _take(workload, 3, 40)
    assert [(len(A._nf_cache), len(A._mono_cache)) for A in specs] == before


def _first(workload, kind, pred=lambda req: True):
    for req in request_stream(workload, 11):
        if req.kind == kind and pred(req):
            return req


def test_checker_rejects_a_corrupted_certificate():
    req = _first("decide_mix", "decide_center",
                 lambda r: r.planted and r.algebra == "sl2")
    out = serve(req)
    checker = Checker()
    checker.check(req, out)
    bad = dict(out, z=[f"{out['z'][0]} + 1", *out["z"][1:]])
    with pytest.raises(CheckFailed):
        checker.check(req, bad)
    with pytest.raises(CheckFailed):
        checker.check(req, dict(out, z=["0"] * len(out["z"])))


def test_checker_rejects_a_planted_family_reported_independent():
    req = _first("decide_mix", "decide_c", lambda r: r.planted)
    with pytest.raises(CheckFailed):
        Checker().check(req, {"verdict": "independent"})


@pytest.mark.parametrize("algebra", ["sl2", "sl3"])
def test_checker_rejects_a_wrong_normal_form(algebra):
    req = _first("expand_text", "nf", lambda r: r.algebra == algebra)
    out = serve(req)
    checker = Checker()
    checker.check(req, out)
    gen = "H" if algebra == "sl2" else "H1"
    with pytest.raises(CheckFailed):
        checker.check(req, dict(out, text=f"{out['text']} + {gen}"))
    # the printout is right but is not what the element prints as
    other = out["element"] + out["element"].algebra.pbw_gen(gen)
    with pytest.raises(CheckFailed):
        checker.check(req, dict(out, element=other))


def test_checker_modules_carry_known_central_characters():
    from check import sl2_module, sl3_module
    for n in range(1, 7):
        assert sl2_module(n).center["C"] == (n * n - 1) / 2
    for (m1, m2) in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
        M = sl3_module((m1, m2))
        assert M.center["Z2"] == m1 * m1 + m1 * m2 + m2 * m2 + 3 * m1 + 3 * m2


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_times_fit_inside_each_request(workload):
    tracer = Tracer().install()
    try:
        walls = {}
        for rid, req in enumerate(_take(workload, 5, 12)):
            t0 = time.perf_counter_ns()
            tracer.request(rid, serve, req)
            walls[rid] = time.perf_counter_ns() - t0
        _, by_request = tracer.totals()
        assert set(by_request) == set(walls)
        for rid, (root, self_sum) in by_request.items():
            assert 0 < self_sum <= root <= walls[rid]
        for name, start, end, parent, rid, outer in tracer.spans:
            assert start <= end
    finally:
        tracer.uninstall()


def test_nominal_time_scales_by_the_reference():
    from reference import NOMINAL_S, nominal
    assert nominal(0.5, NOMINAL_S, NOMINAL_S) == pytest.approx(0.5)
    # a host running at half speed doubles wall time and reference alike
    assert nominal(1.0, 2 * NOMINAL_S, 2 * NOMINAL_S) == pytest.approx(0.5)
