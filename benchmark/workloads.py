"""The benchmark's three workloads: fixed instance lists, one timed pass each,
and an answer check that runs outside the timed region.

Every workload is single-process and sequential. A pass calls ringcol only
through module attributes resolved at call time (``pkg.cli.main``,
``pkg.search.find_interval_t``), so the traced run's wrappers see every call.

``build`` makes the inputs from the seed, ``run`` is the timed pass, and
``check`` returns a Tally of operations attempted and failed and of verdicts
asked and decided.
"""

from __future__ import annotations

import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    asked: int = 0
    decided: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.asked += other.asked
        self.decided += other.decided
        self.problems += other.problems

    def fail(self, problem: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(problem)


def _cli(pkg: Any, argv: list[str]) -> tuple[int | str, str]:
    """One in-process CLI call: its exit code (or the exception it raised)
    and what it printed."""
    out = StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(out):
            code: int | str = pkg.cli.main(argv)
    except Exception as exc:  # a raise is a failed operation, not a harness crash
        code = repr(exc)
    return code, out.getvalue()


class SpanExact:
    """The oracle half of scripts/reproduce.py: sweep n <= 2, k <= 4 with no
    node budget, and compare every cell with the committed answer table."""

    name = "span-exact"
    ANSWERS = HERE / "span_exact_answers.json"
    COMPARED = ("chi_oracle", "w_oracle", "w_status", "W_oracle", "W_status", "continuity")
    DEFINITE = ("exact", "not_interval_colorable")

    def build(self, pkg: Any, seed: int, workdir: Path) -> dict[str, Any]:
        out = workdir / "sweep"
        argv = ["--manifest", str(workdir / "runs.jsonl"), "sweep", "--n-max", "2", "--k-max", "4", "--out", str(out)]
        answers = json.loads(self.ANSWERS.read_text(encoding="utf-8"))["cells"]
        return {"argv": argv, "json": Path(f"{out}.json"), "answers": answers}

    def run(self, pkg: Any, inputs: dict[str, Any]) -> Any:
        return _cli(pkg, inputs["argv"])

    def check(self, pkg: Any, inputs: dict[str, Any], result: Any) -> Tally:
        answers = inputs["answers"]
        tally = Tally(attempted=len(answers), asked=len(answers))
        code, printed = result
        if code != 0:
            tally.fail(f"sweep exited {code}: {printed.strip()[-200:]}", len(answers))
            return tally
        cells = {(c["n"], c["k"]): c for c in json.loads(inputs["json"].read_text(encoding="utf-8"))["cells"]}
        inputs["json"].unlink()
        for want in answers:
            got = cells.get((want["n"], want["k"]))
            if got is None:
                tally.fail(f"sweep has no cell ring({want['n']},{want['k']})")
                continue
            wrong = [f"{key}={got[key]!r} (want {want[key]!r})" for key in self.COMPARED if got[key] != want[key]]
            if wrong:
                tally.fail(f"ring({want['n']},{want['k']}): " + ", ".join(wrong))
            if (got["w_status"] in self.DEFINITE and got["W_status"] in self.DEFINITE
                    and got["chi_oracle"] != "" and got["continuity"] != "inconclusive"):
                tally.decided += 1
        return tally


class WitnessBudgeted:
    """One budgeted interval query for every t in [2n, 2n + nk/2 - 1] of each
    instance; a witness exists for each, so 'infeasible' is a wrong answer."""

    name = "witness-budgeted"
    INSTANCES = ((2, 6), (2, 8), (3, 4), (3, 6))
    NODE_LIMIT = 50_000

    def build(self, pkg: Any, seed: int, workdir: Path) -> dict[str, Any]:
        rng = random.Random(seed)
        queries = []
        for n, k in self.INSTANCES:
            g = pkg.graphs.ring_graph(n=n, k=k)
            if seed:
                g = relabel(pkg, g, rng)
            queries += [(g, t) for t in range(2 * n, 2 * n + n * k // 2)]
        return {"queries": queries, "cfg": pkg.search.SearchConfig(node_limit=self.NODE_LIMIT)}

    def run(self, pkg: Any, inputs: dict[str, Any]) -> Any:
        outcomes: list[Any] = []
        for g, t in inputs["queries"]:
            try:
                outcomes.append(pkg.search.find_interval_t(g, t, inputs["cfg"]))
            except Exception as exc:  # a raise is a failed operation, not a harness crash
                outcomes.append(exc)
        return outcomes

    def check(self, pkg: Any, inputs: dict[str, Any], result: Any) -> Tally:
        queries = inputs["queries"]
        tally = Tally(attempted=len(queries), asked=len(queries))
        for (g, t), o in zip(queries, result):
            where = f"ring({g.n},{g.k}) t={t}"
            if isinstance(o, Exception):
                tally.fail(f"{where}: raised {o!r}")
            elif o.status == "witness":
                tally.decided += 1
                if o.witness.t != t or not pkg.coloring.verify(g, o.witness).is_interval_coloring:
                    tally.fail(f"{where}: witness fails the verifier")
            elif o.status == "infeasible":
                tally.decided += 1
                tally.fail(f"{where}: reported infeasible, but a witness exists")
            elif o.status != "exhausted_budget":
                tally.fail(f"{where}: unknown status {o.status!r}")
        return tally


def relabel(pkg: Any, g: Any, rng: random.Random) -> Any:
    """The same graph under a random permutation of its vertex labels, built
    through the public build_graph."""
    image = list(g.vertices)
    rng.shuffle(image)
    to = dict(zip(g.vertices, image))
    return pkg.graphs.build_graph(g.n, g.k, [to[v] for v in g.vertices], [(to[e.u], to[e.v]) for e in g.edges])


class ConstructScale:
    """CLI generate -> construct -> verify through files, at 1 024 to 32 768
    edges; the verify report must say interval with t = 2n + nk/2 - 1."""

    name = "construct-scale"
    INSTANCES = ((8, 16), (16, 16), (16, 32), (20, 40), (24, 48), (32, 32))

    def build(self, pkg: Any, seed: int, workdir: Path) -> dict[str, Any]:
        manifest = ["--manifest", str(workdir / "runs.jsonl")]
        chains = []
        for n, k in self.INSTANCES:
            graph, coloring = workdir / f"g{n}_{k}.json", workdir / f"c{n}_{k}.json"
            size = ["--n", str(n), "--k", str(k)]
            chains.append((n, k, [
                manifest + ["generate", *size, "--out", str(graph)],
                manifest + ["construct", *size, "--out", str(coloring)],
                manifest + ["verify", "--graph", str(graph), "--coloring", str(coloring)],
            ], (graph, coloring)))
        return {"chains": chains}

    def run(self, pkg: Any, inputs: dict[str, Any]) -> Any:
        return [[_cli(pkg, argv) for argv in calls] for _, _, calls, _ in inputs["chains"]]

    def check(self, pkg: Any, inputs: dict[str, Any], result: Any) -> Tally:
        tally = Tally()
        for (n, k, calls, files), results in zip(inputs["chains"], result):
            tally.attempted += len(calls)
            tally.asked += 1
            for argv, (code, printed) in zip(calls, results):
                if code != 0:
                    tally.fail(f"ring({n},{k}) {argv[2]} exited {code}: {printed.strip()[-200:]}")
            for path in files:
                path.unlink(missing_ok=True)
            code, printed = results[-1]
            if code != 0:
                continue
            report = json.loads(printed)
            tally.decided += 1
            want_t = 2 * n + n * k // 2 - 1
            if not report["is_interval_coloring"] or report["t"] != want_t:
                tally.fail(f"ring({n},{k}): verify reports interval={report['is_interval_coloring']} "
                           f"t={report['t']}, want interval t={want_t}")
        return tally


WORKLOADS = {w.name: w for w in (SpanExact(), WitnessBudgeted(), ConstructScale())}
