"""Exhaustive, certificate-producing search for interval t-colorings.

Membership of a graph in "has an interval t-coloring" is decided by complete
backtracking search, never by heuristics: a ``witness`` outcome carries a
coloring that is re-checked by the independent verifier before being
returned, and ``infeasible`` is only reported when the whole (pruned but
complete) space was exhausted. A node budget, when configured, turns into
the distinct ``exhausted_budget`` outcome so that a timeout can never be
mistaken for a proof.

``find_interval_t`` settles one t in two steps. When g is a composition
H[K̄_n] (every false-twin class has n >= 2 vertices),
``composition_lift`` asks ``edge_dfs`` for an interval s-coloring of the
quotient H, with (s, j) = divmod(t, n), unless s is above ``scan_cap(H)``,
and ``composition.lift`` turns it into g's colors. Otherwise, or when H has
no interval s-coloring, ``edge_dfs`` searches g itself. The quotient's
nodes count toward the same node limit and the same ``nodes_explored``,
g's search gets what is left, and ``infeasible`` only ever comes from
exhausting g. ``SearchOutcome.source`` records which step answered.
``find_interval_t`` is the one road into ``edge_dfs``: χ' asks it on
``engines.padded(g, Δ)``, whose interval Δ-colorings are g's proper ones.
``_query`` alone reads a node count above the limit as ``exhausted_budget``.
``compute_chromatic_index`` reads χ' off one answer at t = Δ (Vizing).
``span_profile`` asks every t from the maximum degree up to the cap that
``scan_cap`` reports (the one place a scan meets a theorem bound) once, in
increasing order, reads w, W and continuity off that list, and χ' off its
t = Δ answer when g is its own padding, so one call answers an (n, k) cell.
Its ``SpanProfile`` holds the cap and that list (``trail``) once.

Everything is deterministic: fixed vertex and edge orders, no randomness,
reproducible node counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

from .coloring import EdgeColoring, verify
from .composition import asratian_kamalian_bound, block_table, lift, overfull
from .engines import edge_dfs, padded
from .errors import ColoringError, SoundnessError, check_int
from .graphs import Edge, Graph

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "BoundReport",
    "SpanProfile",
    "find_interval_t",
    "scan_cap",
    "span_profile",
    "compute_chromatic_index",
]

WITNESS = "witness"
INFEASIBLE = "infeasible"
EXHAUSTED = "exhausted_budget"
SEARCH = "search"
LIFT = "composition_lift"


@dataclass(frozen=True)
class SearchConfig:
    """The node budget of one feasibility query or span scan: ``node_limit``
    decision nodes per query (None = unbounded). A span scan stops at
    ``scan_cap(g)``, which no setting overrides.
    """

    node_limit: int | None = None

    def __post_init__(self) -> None:
        if self.node_limit is not None:
            check_int("node_limit", self.node_limit, 1)


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
    """One span, w or W, of a span scan. Statuses: "exact" (value settled by
    exhaustion up to the proven cap of ``scan_cap``), "lower_bound_only"
    (witness found but some larger t hit the budget), "inconclusive" (budget
    ran out before any answer), and "not_interval_colorable" (every t up to
    the cap exhausted as infeasible). ``nodes_explored`` counts the queries
    the answer rests on: for w those from the maximum degree up to w, for W
    those from the cap down to W.
    """

    value: int | None
    status: str
    nodes_explored: int


def _verified(g: Graph, colors: dict[Edge, int], t: int, check: str, producer: str) -> EdgeColoring:
    """colors as a t-coloring of g that passes ``verify``'s ``check``, else SoundnessError."""
    try:
        witness = EdgeColoring(colors=colors, t=t)
        if getattr(verify(g, witness), check):
            return witness
    except ColoringError as exc:  # a color outside [1, t], or an edge missing or not in g
        raise SoundnessError(f"{producer} produced a witness at t={t} that is no coloring of g: {exc}") from exc
    raise SoundnessError(f"{producer} produced a witness at t={t} that fails {check}")


def _query(g: Graph, t: int, limit: int | None, engine: Callable[..., tuple], source: str = SEARCH) -> SearchOutcome:
    """Run one engine query under a node limit: a count above the limit is
    ``exhausted_budget``, no assignment ``infeasible``, and a witness must be
    an interval t-coloring of g by the verifier or SoundnessError is raised."""
    assignment, nodes = engine(g, t, limit)
    if limit is not None and nodes > limit:
        return SearchOutcome(EXHAUSTED, None, nodes, source)
    if assignment is None:
        return SearchOutcome(INFEASIBLE, None, nodes, source)
    return SearchOutcome(WITNESS, _verified(g, assignment, t, "is_interval_coloring", engine.__name__), nodes, source)


def composition_lift(g: Graph, t: int, limit: int | None) -> tuple[dict[Edge, int] | None, int]:
    """An engine in the contract of ``ringcol.engines``: when g = H[K̄_n], the
    F_j lift of ``edge_dfs(H, s, limit)``'s witness onto g.edges, with
    (s, j) = divmod(t, n), keyed by g's own edges in their order, and that
    search's nodes. No assignment means no lifted witness, never
    that g has none: g is no composition or s is above ``scan_cap(H)`` (0
    nodes each), H has no interval s-coloring (t < n leaves s = 0, an empty
    palette that ``edge_dfs`` refutes in 0 nodes), or the budget ran out on H."""
    composed = g.composition
    if composed is None:
        return None, 0
    h = composed.quotient
    s, j = divmod(t, composed.n)
    if s > scan_cap(h)[0]:
        return None, 0
    alpha, nodes = edge_dfs(h, s, limit)
    if alpha is None:
        return None, nodes
    return lift(g.edges, composed.classes, alpha, block_table(composed.n, j), g.lift_plan), nodes


def find_interval_t(g: Graph, t: int, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Decide whether g has an interval t-coloring; produce one if so.

    A lifted quotient witness answers when g is a composition whose quotient
    has one at t // n, and ``edge_dfs`` on g settles the rest under the budget
    the quotient left. Deterministic for fixed inputs and config. No t above
    |E(g)| costs a node or a table: a quotient with an edge is then asked at
    an s above its cap, and ``edge_dfs`` refuses a t above its edge count
    (each edge brings at most one color) before it builds anything.
    """
    check_int("t", t, 1)
    limit = (cfg or SearchConfig()).node_limit
    lifted = _query(g, t, limit, composition_lift, LIFT)
    if lifted.status != INFEASIBLE:  # a lifted witness, or the budget ran out on the quotient
        return lifted
    spent = lifted.nodes_explored  # "infeasible" here only means no lifted witness
    outcome = _query(g, t, None if limit is None else limit - spent, edge_dfs)
    return replace(outcome, nodes_explored=spent + outcome.nodes_explored)


# ---------------------------------------------------------------------------
# Span scans
# ---------------------------------------------------------------------------


def scan_cap(g: Graph) -> tuple[int, str]:
    """The largest t a span scan asks about, and where that cap comes from:
    the vocabulary of ``SpanProfile.t_max_source``.

    An overfull graph (``composition.overfull``) has cap 0 ("overfull"),
    and any other the smallest of |E| ("edges"), the
    Asratian–Kamalian bound ("asratian_kamalian_bipartite" or
    "asratian_kamalian", see ``composition.asratian_kamalian_bound``) and,
    for a connected graph on at least 3 vertices, the
    Giaro–Kubale–Małafiejski bound W <= 2|V| - 4 (Discrete Math. 236, 2001,
    131–143; "giaro_kubale_malafiejski"); a tie keeps the earlier source.
    No graph has an interval coloring at any t above this cap, so a
    scan that stops there still settles w and W.
    """
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


@dataclass(frozen=True)
class SpanProfile:
    """Everything the oracle says about one graph: the chromatic index
    (``chi_prime``; None when a budget cut its query short), ``w`` and ``W``
    as BoundReports, and the cap ``t_max`` with its ``t_max_source``, as
    ``scan_cap`` reports them. ``trail`` holds the status of each interval
    query, in increasing t up to the cap; ``nodes_explored`` counts their
    nodes, plus those of a χ' query on ``padded(g, Δ)`` when that is not g."""

    chi_prime: int | None
    w: BoundReport
    W: BoundReport
    t_max: int
    t_max_source: str
    trail: tuple[tuple[int, str], ...]
    nodes_explored: int

    @property
    def continuity(self) -> tuple[tuple[int, str], ...] | None:
        """The statuses of every t in [max degree, W]; None unless both w and W were found."""
        if self.w.value is None or self.W.value is None:
            return None
        return tuple((t, status) for t, status in self.trail if t <= self.W.value)

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


def _least(asked: Iterable[tuple[int, SearchOutcome]]) -> BoundReport:
    """w's rule, read upward: the first witness is w, unless a budget cut
    comes first."""
    nodes = 0
    for t, outcome in asked:
        nodes += outcome.nodes_explored
        if outcome.status == WITNESS:
            return BoundReport(t, "exact", nodes)
        if outcome.status == EXHAUSTED:
            return BoundReport(None, "inconclusive", nodes)
    return BoundReport(None, "not_interval_colorable", nodes)


def _greatest(asked: Iterable[tuple[int, SearchOutcome]]) -> BoundReport:
    """W's rule, read downward from the cap: the first witness is W.
    Feasibility is not monotone in t, so W is exact only when every t above
    it was exhausted; a budget cut above it degrades W to lower_bound_only."""
    nodes, cut = 0, False
    for t, outcome in asked:
        nodes += outcome.nodes_explored
        if outcome.status == WITNESS:
            return BoundReport(t, "lower_bound_only" if cut else "exact", nodes)
        cut = cut or outcome.status == EXHAUSTED
    return BoundReport(None, "inconclusive" if cut else "not_interval_colorable", nodes)


def _ask(g: Graph, cfg: SearchConfig | None, top: int, down: bool = False) -> Iterator[tuple[int, SearchOutcome]]:
    """(t, find_interval_t(g, t, cfg)), asked lazily for each t a span scan asks
    up to top, downward if ``down``: none below the maximum degree, since no
    smaller t can host a max-degree vertex's spectrum."""
    ts = range(max(1, g.max_degree()), top + 1)
    return ((t, find_interval_t(g, t, cfg)) for t in (reversed(ts) if down else ts))


def span_profile(g: Graph, cfg: SearchConfig | None = None) -> SpanProfile:
    """chi', w, W and continuity of g: the one call that answers a cell.

    Every t from the maximum degree up to ``scan_cap`` is asked once, in
    increasing order, and w, W and continuity are read off that one list:
    w is its first witness (unless a budget cut comes first), W its last
    (``lower_bound_only`` if some t above it hit the budget), and
    continuity its prefix up to W. chi' is what ``compute_chromatic_index``
    reports, read off t = Δ if g is its padding.
    """
    t_max, source = scan_cap(g)
    asked = list(_ask(g, cfg, t_max))
    chi_prime, chi_nodes = _chromatic_index(g, cfg, dict(asked))
    return SpanProfile(chi_prime, _least(asked), _greatest(reversed(asked)), t_max, source,
                       tuple((t, o.status) for t, o in asked), chi_nodes + sum(o.nodes_explored for _, o in asked))


# Not in __all__: benchmark/tracing.py's TARGETS looks these four up by name, their only remaining use.
def compute_w(g: Graph, cfg: SearchConfig | None = None) -> BoundReport:
    """Least t with an interval t-coloring, asking upward from the maximum
    degree and stopping at the first witness or budget cut."""
    return _least(_ask(g, cfg, scan_cap(g)[0]))


def compute_W(g: Graph, cfg: SearchConfig | None = None) -> BoundReport:
    """Greatest t with an interval t-coloring, asking downward from the cap
    that ``scan_cap`` reports and stopping at the first witness."""
    return _greatest(_ask(g, cfg, scan_cap(g)[0], down=True))


def continuity_scan(g: Graph, cfg: SearchConfig | None = None, *, t_hi: int) -> list[tuple[int, str]]:
    """Statuses of every t from the maximum degree up to t_hi: on a regular
    interval-colorable graph a gap would falsify the continuity property."""
    return [(t, o.status) for t, o in _ask(g, cfg, t_hi)]


def find_proper_t(g: Graph, t: int, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Decide whether g has a proper edge coloring with at most t colors.

    Below Δ nothing is searched; an edgeless g gets the empty coloring. Else
    ``find_interval_t`` decides ``padded(g, min(t, |E|))`` (no proper coloring
    needs more colors), and its witness's part on g is checked for properness.
    """
    check_int("t", t, 1)
    if not g.edges:
        return SearchOutcome(WITNESS, EdgeColoring({}, t), 0)
    if t < g.max_degree():  # a vertex of degree Δ needs Δ colors
        return SearchOutcome(INFEASIBLE, None, 0)
    s = min(t, len(g.edges))
    outcome = find_interval_t(padded(g, s), s, cfg)
    if outcome.witness is None:
        return outcome
    # g's part: every edge but the pendants, whose e.v is a new leaf outside g
    colors = {e: c for e, c in outcome.witness.colors.items() if e.v in g.adjacency}
    return replace(outcome, witness=_verified(g, colors, t, "is_proper", "find_interval_t on the padded graph"))


def compute_chromatic_index(g: Graph, cfg: SearchConfig | None = None) -> tuple[int | None, int]:
    """(χ', nodes of its one query). By Vizing's theorem (1964) χ' is Δ or Δ + 1,
    so one answer at t = Δ decides it. An overfull graph needs Δ + 1, no query.
    Any other graph asks ``find_interval_t`` on ``padded(g, Δ)``, whose interval
    Δ-colorings are g's proper ones (lifted where the padding is a composition).
    A witness gives Δ, ``infeasible`` Δ + 1 and ``exhausted_budget`` None."""
    return _chromatic_index(g, cfg, {})


def _chromatic_index(g: Graph, cfg: SearchConfig | None, held: dict[int, SearchOutcome]) -> tuple[int | None, int]:
    """The same, reading the t = Δ answer off ``held`` when g is its own padding at Δ."""
    if not g.edges:
        return 0, 0
    delta = g.max_degree()
    if overfull(g):  # its Δ matchings cannot hold every edge
        return delta + 1, 0
    target = padded(g, delta)
    known = held.get(delta) if target is g else None
    outcome = known or find_interval_t(target, delta, cfg)
    return {WITNESS: delta, INFEASIBLE: delta + 1}.get(outcome.status), 0 if known else outcome.nodes_explored
