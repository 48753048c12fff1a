"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run ``pytest -s tests/test_acceptance.py`` to see the lines. The full
exhaustive confirmation of the greatest span of the (n=2, k=4) ring is
gated behind ``--extended``; the ungated variant of that criterion covers
the n=1 instance exactly.
"""

import time

import pytest

from ringcol import (
    RingParams,
    complete_bipartite,
    compute_chromatic_index,
    expected_spectrum,
    find_interval_t,
    mirrored_staircase_coloring,
    ring_chromatic_index,
    ring_graph,
    span_profile,
    spectrum,
    staircase_coloring,
    verify,
    widest_constructed_t,
)
from ringcol.cli import main

from reference import run_engine, start_assignment

GRID_N = range(1, 6)
GRID_K = (4, 6, 8, 10)


def cycle(k):
    return ring_graph(RingParams(1, k))


def _report(num, desc, ok, elapsed, limit):
    within = elapsed < limit
    status = "PASS" if (ok and within) else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{status}] {desc} ({elapsed:.2f}s, limit {limit:g}s)")
    assert ok, f"criterion {num} failed: {desc}"
    assert within, f"criterion {num} exceeded its time budget: {elapsed:.2f}s >= {limit:g}s"


def test_criterion_01_construction_validity():
    t0 = time.perf_counter()
    ok = True
    for n in GRID_N:
        for k in GRID_K:
            params = RingParams(n, k)
            c = mirrored_staircase_coloring(params)
            report = verify(ring_graph(params), c)
            span = 2 * n + n * k // 2 - 1
            ok &= c.t == span
            ok &= report.is_interval_coloring
            ok &= set(c.colors.values()) == set(range(1, span + 1))
    _report(1, "constructed coloring is interval with span 2n + nk/2 - 1 on the full grid", ok, time.perf_counter() - t0, 2.0)


def test_criterion_02_spectrum_closed_forms():
    # Closed form per layer i, index j (even k): with m = min(i-1, k-i) the
    # spectrum is {j+mn, ..., j+(m+2)n-1}. Layers 1 and k give {j..j+2n-1};
    # layers 2..k/2 give the climbing form {j+(i-1)n, ..., j+(i+1)n-1}; layers
    # above the middle repeat the climbing form of their mirror layer k+1-i,
    # because the construction assigns mirrored layer pairs the same shift.
    t0 = time.perf_counter()
    ok = True
    for n in GRID_N:
        for k in GRID_K:
            params = RingParams(n, k)
            g = ring_graph(params)
            c = mirrored_staircase_coloring(params)
            for v in g.vertices:
                got = spectrum(g, c, v)
                ok &= got == tuple(expected_spectrum(params, v))
                i, j = v.layer, v.index
                if i == 1 or i == k:
                    ok &= got == tuple(range(j, j + 2 * n))
                if 2 <= i <= k // 2:
                    ok &= got == tuple(range(j + (i - 1) * n, j + (i + 1) * n))
                if k // 2 < i <= k - 1:
                    mirror = k + 1 - i
                    ok &= got == tuple(range(j + (mirror - 1) * n, j + (mirror + 1) * n))
    _report(2, "every vertex spectrum equals its closed-form set (exact equality)", ok, time.perf_counter() - t0, 2.0)


def test_criterion_03_staircase_validity():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        c = staircase_coloring(n)
        ok &= c.t == 2 * n - 1
        ok &= verify(complete_bipartite(n), c).is_interval_coloring
    _report(3, "K_{n,n} staircase is an interval (2n-1)-coloring for n = 1..6", ok, time.perf_counter() - t0, 1.0)


def test_criterion_04_parity_membership():
    t0 = time.perf_counter()
    ok = True
    for k in (3, 5):
        g = cycle(k)
        for t in range(1, len(g.edges) + 1):
            ok &= find_interval_t(g, t).status == "infeasible"
    for k in (4, 6):
        g = cycle(k)
        ok &= find_interval_t(g, 2).status == "witness"
    _report(4, "odd cycles admit no interval coloring at any t <= |E|; even cycles do", ok, time.perf_counter() - t0, 5.0)


def test_criterion_05_least_span_exactness():
    t0 = time.perf_counter()
    ok = True
    for n, k, expected in [(1, 4, 2), (1, 6, 2), (2, 4, 4)]:
        report = span_profile(ring_graph(RingParams(n, k))).w
        ok &= report.value == expected == 2 * n
        ok &= report.status == "exact"
    _report(5, "oracle least span equals 2n for (1,4), (1,6), (2,4)", ok, time.perf_counter() - t0, 60.0)


def test_criterion_06_greatest_span_c4():
    t0 = time.perf_counter()
    report = span_profile(cycle(4)).W
    ok = report.value == 3 and report.status == "exact"
    _report(6, "oracle greatest span of C4 is exactly 3 = 4n-1", ok, time.perf_counter() - t0, 1.0)


@pytest.mark.extended
def test_criterion_06_extended_greatest_span_2_4():
    t0 = time.perf_counter()
    params = RingParams(2, 4)
    g = ring_graph(params)
    # witness at t = 7 straight from the construction
    witness_ok = verify(g, mirrored_staircase_coloring(params)).is_interval_coloring
    # exhaustive infeasibility at every t from 8 up to |E| = 16, no theorem cited
    above = [find_interval_t(g, t).status for t in range(8, len(g.edges) + 1)]
    ok = witness_ok and above == ["infeasible"] * 9
    _report("6x", "greatest span of the (2,4) ring is exactly 7 = 4n-1 (full exhaustion)", ok, time.perf_counter() - t0, 600.0)


def test_criterion_07_continuity():
    t0 = time.perf_counter()
    ok = True
    for n, k in [(1, 4), (1, 6), (2, 4)]:
        params = RingParams(n, k)
        g = ring_graph(params)
        scan = span_profile(g).continuity or ()  # W equals the widest constructed span on these rings
        ok &= [t for t, _ in scan] == list(range(2 * n, widest_constructed_t(params) + 1))
        ok &= all(status == "witness" for _, status in scan)
    _report(7, "a witness exists at every t in [2n, 2n + nk/2 - 1] for (1,4), (1,6), (2,4)", ok, time.perf_counter() - t0, 120.0)


def test_criterion_08_chromatic_index_cross_check():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2):
        for k in (3, 4, 5):
            params = RingParams(n, k)
            ok &= compute_chromatic_index(ring_graph(params))[0] == ring_chromatic_index(params)
    for n in range(1, 5):
        ok &= compute_chromatic_index(complete_bipartite(n))[0] == n
    _report(8, "oracle chromatic index matches the parity formula and equals n on K_{n,n}", ok, time.perf_counter() - t0, 30.0)


def _agreement_corpus():
    """The (graph, t) pairs the span/membership criteria above exercise."""
    pairs = []
    for k in (3, 4, 5, 6):
        g = cycle(k)
        pairs += [(f"C{k}", g, t) for t in range(1, len(g.edges) + 1)]
    r24 = ring_graph(RingParams(2, 4))
    pairs += [("ring(2,4)", r24, t) for t in range(4, 8)]
    for n in (2, 3):
        g = complete_bipartite(n)
        pairs += [(f"K{n},{n}", g, t) for t in range(1, len(g.edges) + 1)]
    return pairs


def test_criterion_09_soundness_and_engine_agreement():
    t0 = time.perf_counter()
    ok = True
    for label, g, t in _agreement_corpus():
        a = find_interval_t(g, t)
        b_status, _, b_witness = run_engine(start_assignment, g, t)
        ok &= a.status == b_status
        for witness in (a.witness, b_witness):
            if witness is not None:
                ok &= verify(g, witness).is_interval_coloring and witness.t == t
    _report(9, "edge_dfs and the start_assignment reference agree on every corpus pair; all witnesses re-verified",
            ok, time.perf_counter() - t0, 60.0)


@pytest.mark.extended
def test_criterion_09_extended_agreement_on_full_2_4_range():
    t0 = time.perf_counter()
    g = ring_graph(RingParams(2, 4))
    ok = True
    for t in range(8, 17):
        ok &= find_interval_t(g, t).status == run_engine(start_assignment, g, t)[0] == "infeasible"
    _report("9x", "both engines exhaust the (2,4) ring at every t in [8, 16]", ok, time.perf_counter() - t0, 600.0)


def test_criterion_10_sweep_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for label in ("one", "two"):
        prefix = tmp_path / label / "report"
        prefix.parent.mkdir()
        code = main(
            ["--manifest", str(tmp_path / label / "runs.jsonl"),
             "sweep", "--n-max", "2", "--k-max", "4", "--out", str(prefix)]
        )
        assert code == 0
        outputs.append((prefix.with_suffix(".csv").read_bytes(), prefix.with_suffix(".json").read_bytes()))
    ok = outputs[0] == outputs[1]
    _report(10, "two consecutive sweep runs write byte-identical CSV and JSON", ok, time.perf_counter() - t0, 300.0)
