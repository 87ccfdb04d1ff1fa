"""Structural analytics over built graphs.

Everything here is a pure function of the graph topology: exact parameter
counts broken down by scope, exact counts of the distinct additive paths
from input to output (these grow as 2^L, so arbitrary-precision integers),
and expected active depth under a drop-path schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .stochastic_depth import SurvivalSchedule

_SCOPE_ALIASES = {"epilogue": "head"}


@dataclass
class ParamReport:
    total: int
    scopes: list[tuple[str, int]]  # (scope, count), breakdown sums to total

    def millions(self) -> float:
        return params_millions(self.total)

    def as_text(self) -> str:
        width = max(len(s) for s, _ in self.scopes + [("total", 0)])
        lines = [f"{scope:<{width}}  {count:>12,}" for scope, count in self.scopes]
        lines.append(f"{'total':<{width}}  {self.total:>12,}  ({self.millions():.1f}M)")
        return "\n".join(lines)


@dataclass
class PathStats:
    count: int                     # exact number of input-to-output additive paths
    length_histogram: dict[int, int]  # residual branches traversed -> path count


def params_millions(total: int) -> float:
    """Report a count at 0.1M granularity, truncating like the usual tables."""
    return (total // 100_000) / 10.0


def _scope(name: str) -> str:
    head = name.split(".", 1)[0]
    head = _SCOPE_ALIASES.get(head, head)
    if head.startswith("level"):
        return "levels"
    return head


def count_params(graph: Graph) -> ParamReport:
    """Exact element count of every parameter, grouped by top-level scope."""
    by_scope: dict[str, int] = {}
    total = 0
    for name, p in graph.params.items():
        n = p.data.size
        total += n
        scope = _scope(name)
        by_scope[scope] = by_scope.get(scope, 0) + n

    def order(scope: str) -> tuple:
        rank = {"stem": 0, "levels": 2, "head": 3}
        return (rank.get(scope, 1), scope)

    scopes = sorted(by_scope.items(), key=lambda kv: order(kv[0]))
    return ParamReport(total, scopes)


def count_paths(graph: Graph) -> PathStats:
    """Count distinct additive input-to-output paths by dynamic programming.

    Single-input ops pass their path polynomial through; additions merge the
    polynomials of all inputs, with paths entering through the residual
    branch extended by one length unit. Purely structural: parameter values
    never enter.
    """
    polys: dict[str, dict[int, int]] = {}
    for node in graph.nodes:
        if node.op == "input":
            polys[node.id] = {0: 1}
        elif node.op == "add":
            merged: dict[int, int] = {}
            branch = node.attrs.get("branch")
            for i in node.inputs:
                shift = 1 if i == branch else 0
                for length, cnt in polys[i].items():
                    merged[length + shift] = merged.get(length + shift, 0) + cnt
            polys[node.id] = merged
        else:
            polys[node.id] = polys[node.inputs[0]]
    out = polys[graph.output_id]
    return PathStats(sum(out.values()), dict(sorted(out.items())))


def expected_saving_ratio(schedule: SurvivalSchedule) -> float:
    """Exact expected fraction of residual branches skipped per pass."""
    n = len(schedule)
    return (n - schedule.expected_active) / n
