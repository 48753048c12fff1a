#!/usr/bin/env python3
"""Desk-scale confirmation run: every closed-form claim vs the exhaustive oracle.

Order of business:

1. the staircase coloring of K_{n,n} and the mirrored staircase coloring of
   the even-k ring verify as interval colorings with their stated spans,
   over the whole construction grid;
2. every vertex spectrum equals its closed form;
3. ``t_coloring`` verifies at every t of the feasible range [2n, 2n + nk/2 - 1]
   over the same grid, so the range has no gap by construction;
4. a sweep over the (n, k) grid compares the chromatic-index and least-span
   formulas against the oracle and scans the feasible range for gaps.

Artifacts (sweep CSV/JSON and the run manifest) land in --out-dir. The
default grid (n <= 2, k <= 4) takes well under a second (0.2 s on a 2-core
x86 VM, CPython 3.11). Each span scan stops at the smallest theorem bound
on the greatest span (see ``ringcol.scan_cap``); for ring(2, 4) that is
the Asratian–Kamalian bound 7, the constructed span, so no larger t is
searched. ``ringcol bounds-exact`` prints the cap
of a cell as t_max with its t_max_source. To prove W by exhaustion alone,
run ``ringcol sweep --n-max 2 --k-max 4 --t-max 16 --out report``: it
searches every t up to |E| on every cell (under a second on the same VM,
nearly all of it refuting t = 8..16 on ring(2, 4)). Larger grids should be paired with
--node-limit, which degrades individual cells to honest
lower_bound_only/inconclusive statuses instead of hanging.
Exit status 0 means every checked claim held.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ringcol import (
    RingParams,
    complete_bipartite,
    expected_spectrum,
    mirrored_staircase_coloring,
    ring_graph,
    spectrum,
    staircase_coloring,
    t_coloring,
    verify,
)
from ringcol.cli import main as cli_main
from ringcol.io import load_json

CONSTRUCTION_N = range(1, 6)
CONSTRUCTION_K = (4, 6, 8, 10)


def check_constructions() -> bool:
    ok = True
    for n in range(1, 7):
        c = staircase_coloring(n)
        good = c.t == 2 * n - 1 and verify(complete_bipartite(n), c).is_interval_coloring
        ok &= good
    print(f"[{'ok' if ok else 'FAIL'}] staircase coloring on K(n,n), n = 1..6")

    span_ok = True
    spectra_ok = True
    for n in CONSTRUCTION_N:
        for k in CONSTRUCTION_K:
            params = RingParams(n, k)
            g = ring_graph(params)
            c = mirrored_staircase_coloring(params)
            report = verify(g, c)
            span = 2 * n + n * k // 2 - 1
            span_ok &= c.t == span and report.is_interval_coloring
            span_ok &= set(c.colors.values()) == set(range(1, span + 1))
            for v in g.vertices:
                spectra_ok &= spectrum(g, c, v) == tuple(expected_spectrum(params, v))
    print(f"[{'ok' if span_ok else 'FAIL'}] mirrored staircase spans 2n + nk/2 - 1 on n <= 5, k in {CONSTRUCTION_K}")
    print(f"[{'ok' if spectra_ok else 'FAIL'}] all vertex spectra equal their closed forms")

    range_ok = True
    for n in CONSTRUCTION_N:
        for k in CONSTRUCTION_K:
            params = RingParams(n, k)
            g = ring_graph(params)
            for t in range(2 * n, 2 * n + n * k // 2):
                c = t_coloring(params, t)
                range_ok &= c.t == t and verify(g, c).is_interval_coloring
    print(f"[{'ok' if range_ok else 'FAIL'}] t_coloring verifies at every t in [2n, 2n + nk/2 - 1] "
          f"on n <= 5, k in {CONSTRUCTION_K}")
    return ok and span_ok and spectra_ok and range_ok


def run_sweep(out_dir: Path, n_max: int, k_max: int, node_limit: int | None) -> bool:
    prefix = out_dir / f"sweep_n{n_max}_k{k_max}"
    argv = [
        "--manifest", str(out_dir / "runs.jsonl"),
        "sweep", "--n-max", str(n_max), "--k-max", str(k_max), "--out", str(prefix),
    ]
    if node_limit is not None:
        argv += ["--node-limit", str(node_limit)]
    started = time.perf_counter()
    code = cli_main(argv)
    elapsed = time.perf_counter() - started
    if code != 0:
        print(f"[FAIL] sweep exited with status {code}")
        return False

    doc = load_json(prefix.with_suffix(".json"))
    ok = True
    print(f"sweep over n <= {n_max}, k <= {k_max} ({elapsed:.1f}s):")
    header = f"{'cell':>8} {'chi':>9} {'w':>9} {'W_low':>6} {'W_oracle':>18} {'continuity':>12}"
    print(header)
    for cell in doc["cells"]:
        n, k = cell["n"], cell["k"]
        chi = f"{cell['chi_formula']}/{cell['chi_oracle']}"
        w = f"{cell['w_formula'] or '-'}/{cell['w_oracle'] or '-'}"
        W_low = str(cell["W_lower_formula"] or "-")
        status = {"not_interval_colorable": "none"}.get(cell["W_status"], cell["W_status"])
        W = f"{cell['W_oracle'] or '-'} ({status})"
        print(f"  ({n},{k}) {chi:>9} {w:>9} {W_low:>6} {W:>18} {cell['continuity']:>12}")
        ok &= cell["chi_agree"] == "yes"
        ok &= cell["w_agree"] in ("yes", "")
        ok &= not cell["continuity"].startswith("gap")
        if cell["W_lower_formula"] != "" and cell["W_oracle"] != "":
            ok &= cell["W_oracle"] >= cell["W_lower_formula"]
    print(f"[{'ok' if ok else 'FAIL'}] oracle agrees with every formula it could settle")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="out", help="artifact directory (default: %(default)s)")
    parser.add_argument("--n-max", type=int, default=2)
    parser.add_argument("--k-max", type=int, default=4)
    parser.add_argument("--node-limit", type=int, default=None,
                        help="per-query search budget for the sweep (default: unbounded)")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ok = check_constructions()
    ok &= run_sweep(out_dir, args.n_max, args.k_max, args.node_limit)
    print("all claims confirmed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
