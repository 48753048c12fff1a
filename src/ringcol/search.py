"""Exhaustive, certificate-producing search for interval t-colorings.

Membership of a graph in "has an interval t-coloring" is decided by complete
backtracking search, never by heuristics: a ``witness`` outcome carries a
coloring that is re-checked by the independent verifier before being
returned, and ``infeasible`` is only reported when the whole (pruned but
complete) space was exhausted. A node budget, when configured, turns into
the distinct ``exhausted_budget`` outcome so that a timeout can never be
mistaken for a proof.

``find_interval_t`` settles one t in two steps. When g is a composition
H[K̄_n] (every false-twin class has n >= 2 vertices) and t >= n,
``composition_lift`` asks ``edge_dfs`` for an interval s-coloring of the
quotient H, with (s, j) = divmod(t, n), unless s is above ``scan_cap(H)``,
and ``composition.lift`` turns it into g's colors. Otherwise, or when H has
no interval s-coloring, ``edge_dfs`` searches g itself. The quotient's
nodes count toward the same node limit and the same ``nodes_explored``,
g's search gets what is left, and ``infeasible`` only ever comes from
exhausting g. ``SearchOutcome.source`` records which step answered.
``find_proper_t`` decides proper t-colorability for the chromatic
index with ``proper_dfs`` (see ``ringcol.engines``); ``_query`` alone reads
a node count above the limit as ``exhausted_budget``. The span scans
(``span_profile``, ``compute_w``, ``compute_W``, ``continuity_scan``) ask a
series of such queries, up to the cap that ``scan_cap`` reports (the one
place a span meets a theorem bound); ``span_profile`` also settles the
chromatic index, so one call answers a whole (n, k) cell.

Everything is deterministic: fixed vertex and edge orders, no randomness,
reproducible node counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

from .coloring import EdgeColoring, verify
from .composition import asratian_kamalian_bound, block_table, lift, overfull
from .engines import edge_dfs, proper_dfs
from .errors import ColoringError, ParameterError, SoundnessError
from .graphs import Edge, Graph

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "BoundReport",
    "SpanProfile",
    "find_interval_t",
    "find_proper_t",
    "scan_cap",
    "span_profile",
    "compute_w",
    "compute_W",
    "compute_chromatic_index",
    "continuity_scan",
]

WITNESS = "witness"
INFEASIBLE = "infeasible"
EXHAUSTED = "exhausted_budget"
SEARCH = "search"
LIFT = "composition_lift"


@dataclass(frozen=True)
class SearchConfig:
    """The span cap and node budget of one feasibility query or span scan.

    ``t_max`` caps span scans. When it is None, ``scan_cap`` derives the cap
    from theorems: 0 for an overfull graph, else at most |E(G)|. An explicit
    value wins up to |E| and is clamped to |E| above it:
    ``t_max=len(g.edges)`` forces the scan to exhaust every t up to |E|
    without citing a theorem. It never affects a single
    ``find_interval_t`` query. ``node_limit`` bounds the number of decision
    nodes per query (None = unbounded).
    """

    t_max: int | None = None
    node_limit: int | None = None

    def __post_init__(self) -> None:
        if self.t_max is not None and (type(self.t_max) is not int or self.t_max < 1):  # rejects bool too
            raise ParameterError(f"t_max must be an integer >= 1, got {self.t_max!r}")
        if self.node_limit is not None and (type(self.node_limit) is not int or self.node_limit < 1):
            raise ParameterError(f"node_limit must be an integer >= 1, got {self.node_limit!r}")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one feasibility query.

    ``infeasible`` is a proof by exhaustion; a budget cutoff always surfaces
    as ``exhausted_budget`` instead. A ``witness`` has already passed the
    independent verifier. ``source`` says which step answered:
    "composition_lift" when the lift of a quotient witness did (or the
    budget ran out on the quotient), "search" otherwise.
    """

    status: str
    witness: EdgeColoring | None
    nodes_explored: int
    source: str = SEARCH


@dataclass(frozen=True)
class BoundReport:
    """Result of a span scan (least or greatest feasible t).

    ``trail`` records the per-t statuses in scan order. ``t_max`` is the cap
    that was in force and ``t_max_source`` where it came from: "t_max" (set
    in the SearchConfig), "edges" (|E|, the trivial cap), "overfull" (cap 0:
    an overfull graph has no interval coloring, so no t is asked), or
    "asratian_kamalian_bipartite" / "asratian_kamalian" /
    "giaro_kubale_malafiejski" (a theorem bound on the greatest span of a
    connected interval-colorable graph, which then stands in for exhausting
    every t between it and |E|; see ``scan_cap``). Statuses: "exact"
    (value settled by exhaustion up to the cap), "lower_bound_only" (witness
    found but some larger t hit the budget), "inconclusive" (budget ran out
    before any answer), and "not_interval_colorable" (every t up to the cap
    exhausted as infeasible). ``nodes_explored`` counts the nodes of the
    queries this scan made itself; a t already answered earlier in the same
    span profile is read from its table and costs nothing.
    """

    value: int | None
    status: str
    t_max: int
    t_max_source: str
    nodes_explored: int
    trail: tuple[tuple[int, str], ...] = ()


def _query(g: Graph, t: int, limit: int | None, engine: Callable[..., tuple], check: str,
           source: str = SEARCH) -> SearchOutcome:
    """Run one engine query under a node limit: a count above the limit is
    ``exhausted_budget``, no assignment ``infeasible``, and a witness must be
    a coloring of g that passes the verifier's ``check`` (a
    VerificationReport field) or SoundnessError is raised."""
    assignment, nodes = engine(g, t, limit)
    if limit is not None and nodes > limit:
        return SearchOutcome(EXHAUSTED, None, nodes, source)
    if assignment is None:
        return SearchOutcome(INFEASIBLE, None, nodes, source)
    try:
        witness = EdgeColoring(colors=assignment, t=t)
        sound = getattr(verify(g, witness), check)
    except ColoringError as exc:  # a color outside [1, t], or an edge missing or not in g
        raise SoundnessError(f"{engine.__name__} produced a witness at t={t} that is no coloring of g: {exc}") from exc
    if not sound:
        raise SoundnessError(f"{engine.__name__} produced a witness at t={t} that fails {check}")
    return SearchOutcome(WITNESS, witness, nodes, source)


def composition_lift(g: Graph, t: int, limit: int | None) -> tuple[dict[Edge, int] | None, int]:
    """An engine in the contract of ``ringcol.engines``: when g = H[K̄_n] and
    t >= n, the F_j lift of ``edge_dfs(H, s, limit)``'s witness, with
    (s, j) = divmod(t, n), and that search's nodes. No assignment means no
    lifted witness, never that g has none: g is no composition, t < n, s is
    above ``scan_cap(H)`` (0 nodes each), H has no interval s-coloring, or
    the budget ran out on H."""
    composed = g.composition
    if composed is None or t < composed.n:
        return None, 0
    h = composed.quotient
    s, j = divmod(t, composed.n)
    if s > scan_cap(h)[0]:
        return None, 0
    alpha, nodes = edge_dfs(h, s, limit)
    if alpha is None:
        return None, nodes
    colors = lift(composed.classes, alpha, block_table(composed.n, j))
    return {e: colors[e] for e in g.edges}, nodes  # keyed by g's own edges, not a new copy of each


def find_interval_t(g: Graph, t: int, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Decide whether g has an interval t-coloring; produce one if so.

    t > |E(g)| is rejected as infeasible without search (palette coverage
    needs an edge per color). Otherwise a lifted quotient witness answers
    when g is a composition whose quotient has one at t // n, and ``edge_dfs`` on g
    settles the rest under the budget the quotient left. Deterministic for
    fixed inputs and config.
    """
    if type(t) is not int or t < 1:  # `type(t) is int` also rejects bool
        raise ParameterError(f"t must be an integer >= 1, got {t!r}")
    if t > len(g.edges):
        return SearchOutcome(INFEASIBLE, None, 0)
    limit = (cfg or SearchConfig()).node_limit
    lifted = _query(g, t, limit, composition_lift, "is_interval_coloring", LIFT)
    if lifted.status != INFEASIBLE:  # a lifted witness, or the budget ran out on the quotient
        return lifted
    spent = lifted.nodes_explored  # "infeasible" here only means no lifted witness
    outcome = _query(g, t, None if limit is None else limit - spent, edge_dfs, "is_interval_coloring")
    return replace(outcome, nodes_explored=spent + outcome.nodes_explored)


def find_proper_t(g: Graph, t: int, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Decide whether g has a proper edge coloring with at most t colors.

    Color classes of a proper coloring are freely permutable, so the search
    canonicalizes: an edge may only open color c + 1 once colors 1..c have
    all been used. The witness is not an interval coloring in general and is
    checked for properness only.
    """
    if type(t) is not int or t < 1:
        raise ParameterError(f"t must be an integer >= 1, got {t!r}")
    return _query(g, t, (cfg or SearchConfig()).node_limit, proper_dfs, "is_proper")


# ---------------------------------------------------------------------------
# Span scans
# ---------------------------------------------------------------------------


def scan_cap(g: Graph, cfg: SearchConfig | None = None) -> tuple[int, str]:
    """The largest t a span scan asks about, and where that cap comes from.

    An explicit ``cfg.t_max`` wins ("t_max") up to |E|; above |E| it is
    clamped to |E| ("edges"), since no larger t has an interval coloring.
    Otherwise an overfull graph (``composition.overfull``) has cap 0
    ("overfull"), and any other the smallest of |E| ("edges"), the
    Asratian–Kamalian bound ("asratian_kamalian_bipartite" or
    "asratian_kamalian", see ``composition.asratian_kamalian_bound``) and,
    for a connected graph on at least 3 vertices, the
    Giaro–Kubale–Małafiejski bound W <= 2|V| - 4 (Discrete Math. 236, 2001,
    131–143; "giaro_kubale_malafiejski"); a tie keeps the earlier source.
    No graph has an interval coloring at any t above this cap, so a
    scan that stops there still settles w and W.

    Raises ParameterError when an explicit ``t_max`` is below the maximum
    degree: a scan would then ask no t at all and report a graph that may
    well be interval-colorable as "not_interval_colorable".
    """
    if cfg is not None and cfg.t_max is not None:
        if cfg.t_max < g.max_degree():
            raise ParameterError(f"t_max={cfg.t_max} is below the maximum degree {g.max_degree()}: no t to scan")
        return (cfg.t_max, "t_max") if cfg.t_max <= len(g.edges) else (len(g.edges), "edges")
    if overfull(g):
        return 0, "overfull"
    cap, source = len(g.edges), "edges"
    shape = g.diameter_and_bipartite  # None unless g is connected with an edge
    if shape is not None:
        diam, bipartite = shape
        ak = asratian_kamalian_bound(diam, g.max_degree(), bipartite)
        if ak < cap:
            cap, source = ak, "asratian_kamalian_bipartite" if bipartite else "asratian_kamalian"
        if len(g.vertices) >= 3 and 2 * len(g.vertices) - 4 < cap:
            cap, source = 2 * len(g.vertices) - 4, "giaro_kubale_malafiejski"
    return cap, source


class _SpanScan:
    """One scan's view of a span table for g under cfg. A t missing from the
    table is asked through the module-level ``find_interval_t`` and added to
    it; ``nodes`` counts only the queries this scan made itself."""

    def __init__(self, g: Graph, cfg: SearchConfig | None, memo: dict[int, SearchOutcome] | None) -> None:
        self.g = g
        self.cfg = cfg or SearchConfig()
        self.memo = {} if memo is None else memo
        self.t_lo = max(1, g.max_degree())
        self.nodes = 0

    @cached_property
    def cap(self) -> tuple[int, str]:
        return scan_cap(self.g, self.cfg)

    def status(self, t: int) -> str:
        if t not in self.memo:
            outcome = find_interval_t(self.g, t, self.cfg)
            self.nodes += outcome.nodes_explored
            self.memo[t] = outcome
        return self.memo[t].status

    def report(self, value: int | None, status: str, trail: list[tuple[int, str]]) -> BoundReport:
        t_max, source = self.cap
        return BoundReport(value, status, t_max, source, self.nodes, tuple(trail))


@dataclass(frozen=True)
class SpanProfile:
    """Everything the oracle says about one graph: the chromatic index
    (``chi_prime``; None when a budget cut its search short), ``w`` and ``W``
    as BoundReports, and the statuses of every t in [max degree, W]
    (``continuity``; None unless both w and W were found). ``trail`` lists
    each interval query, in the order asked; ``nodes_explored`` counts the
    nodes of every query, the proper ones for ``chi_prime`` included."""

    chi_prime: int | None
    w: BoundReport
    W: BoundReport
    continuity: tuple[tuple[int, str], ...] | None
    trail: tuple[tuple[int, str], ...]
    nodes_explored: int

    @property
    def continuity_status(self) -> str:
        """"ok" when every t in [max degree, W] has a witness, "gap(t=...)"
        listing the t proven infeasible, "n/a" for a graph with no interval
        coloring within the cap, "inconclusive" when a budget got in the way."""
        if self.continuity is None:
            return "n/a" if self.w.status == "not_interval_colorable" else "inconclusive"
        gaps = [t for t, status in self.continuity if status == INFEASIBLE]
        if gaps:
            return f"gap(t={','.join(map(str, gaps))})"
        if all(status == WITNESS for _, status in self.continuity):
            return "ok"
        return "inconclusive"

    @property
    def settled(self) -> bool:
        """True when no budget got in the way of chi', w or W: chi' was found
        and both spans are "exact" or "not_interval_colorable"."""
        definite = ("exact", "not_interval_colorable")
        return self.chi_prime is not None and self.w.status in definite and self.W.status in definite


def span_profile(g: Graph, cfg: SearchConfig | None = None) -> SpanProfile:
    """chi', w, W and continuity of g: the one call that answers a cell.

    The span scan asks each t at most once: upward from the maximum degree
    to the first witness (w), downward from the cap to the first witness
    (W), and then over the t strictly between them not yet asked. It runs
    ``compute_w``, ``compute_W`` and ``continuity_scan`` in turn on one table
    that lives only inside this call, so node counts never depend on call
    history. ``compute_chromatic_index`` then settles chi'.
    """
    memo: dict[int, SearchOutcome] = {}
    w = compute_w(g, cfg, memo=memo)
    W = compute_W(g, cfg, memo=memo)
    continuity = None
    if w.value is not None and W.value is not None:
        continuity = tuple(continuity_scan(g, cfg, t_hi=W.value, memo=memo))
    chi_prime, chi_nodes = compute_chromatic_index(g, cfg)
    trail = tuple((t, outcome.status) for t, outcome in memo.items())
    nodes = chi_nodes + sum(o.nodes_explored for o in memo.values())
    return SpanProfile(chi_prime, w, W, continuity, trail, nodes)


def compute_w(
    g: Graph,
    cfg: SearchConfig | None = None,
    *,
    memo: dict[int, SearchOutcome] | None = None,
) -> BoundReport:
    """Least t with an interval t-coloring, scanning upward from the maximum
    degree (no smaller t can host a max-degree vertex's spectrum) to the
    first witness.

    ``memo`` (t -> SearchOutcome for the same g and cfg) lets the scans of
    one ``span_profile`` share their answers: a t found there is read, not
    asked again, and new answers are added. The report's ``nodes_explored``
    counts only the queries this call made.
    """
    scan = _SpanScan(g, cfg, memo)
    trail: list[tuple[int, str]] = []
    for t in range(scan.t_lo, scan.cap[0] + 1):
        status = scan.status(t)
        trail.append((t, status))
        if status == WITNESS:
            return scan.report(t, "exact", trail)
        if status == EXHAUSTED:
            return scan.report(None, "inconclusive", trail)
    return scan.report(None, "not_interval_colorable", trail)


def compute_W(
    g: Graph,
    cfg: SearchConfig | None = None,
    *,
    memo: dict[int, SearchOutcome] | None = None,
) -> BoundReport:
    """Greatest t with an interval t-coloring, scanning downward from the
    cap that ``scan_cap`` reports (``memo`` as in ``compute_w``).

    Feasibility is not monotone in t, so every t above the answer must be
    exhausted on its own before the answer is called exact; budget hits on
    the way down degrade the claim to lower_bound_only.
    """
    scan = _SpanScan(g, cfg, memo)
    trail: list[tuple[int, str]] = []
    saw_budget_hit = False
    for t in range(scan.cap[0], scan.t_lo - 1, -1):
        status = scan.status(t)
        trail.append((t, status))
        if status == WITNESS:
            return scan.report(t, "lower_bound_only" if saw_budget_hit else "exact", trail)
        if status == EXHAUSTED:
            saw_budget_hit = True
    return scan.report(None, "inconclusive" if saw_budget_hit else "not_interval_colorable", trail)


def continuity_scan(
    g: Graph,
    cfg: SearchConfig | None = None,
    *,
    t_hi: int,
    memo: dict[int, SearchOutcome] | None = None,
) -> list[tuple[int, str]]:
    """Statuses of every t from the maximum degree up to t_hi (``memo`` as
    in ``compute_w``); ``span_profile`` passes the greatest span W, whose
    witness it already holds.

    For regular interval-colorable graphs every returned status is expected
    to be a witness; a gap would falsify the continuity property this scan
    exists to confirm.
    """
    scan = _SpanScan(g, cfg, memo)
    return [(t, scan.status(t)) for t in range(scan.t_lo, t_hi + 1)]


def compute_chromatic_index(g: Graph, cfg: SearchConfig | None = None) -> tuple[int | None, int]:
    """Least number of colors in any proper edge coloring, by search at the
    degree bound and, when that is exhausted as infeasible, one above it
    (Vizing). An overfull graph starts one above: its Delta matchings cannot
    hold every edge. Returns (value, nodes spent); value is None when a
    budget cut a query short."""
    if not g.edges:
        return 0, 0
    delta = g.max_degree()
    nodes = 0
    for t in range(delta + 1 if overfull(g) else delta, delta + 2):
        outcome = find_proper_t(g, t, cfg)
        nodes += outcome.nodes_explored
        if outcome.status == WITNESS:
            return t, nodes
        if outcome.status == EXHAUSTED:
            return None, nodes
    raise SoundnessError("no proper coloring with max_degree + 1 colors; not a simple graph?")
