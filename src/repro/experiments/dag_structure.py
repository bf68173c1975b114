"""Figures 1 and 16: the uplink and downlink signal-processing DAGs.

Renders the task graphs the simulator actually builds for a
representative slot, as indented ASCII trees with per-task base costs —
a structural reproduction of the paper's two DAG illustrations.
Uses networkx for the graph checks (topological order, longest path).
It is the only module that does, so networkx is imported inside
:func:`to_networkx` and :func:`render_dag`: importing this module, or
any simulation, does not load it.
"""

from __future__ import annotations

import numpy as np

from ..ran.config import cell_100mhz_tdd
from ..ran.dag import DagBuilder
from ..ran.tasks import CostModel
from ..ran.ue import SlotLoad, bytes_to_allocations

__all__ = ["build_example_dags", "to_networkx", "render_dag", "main"]


def build_example_dags(total_bytes: int = 24_000, seed: int = 8):
    """One UL and one DL DAG for a moderately loaded 100 MHz slot."""
    cell = cell_100mhz_tdd()
    builder = DagBuilder(CostModel())
    rng = np.random.default_rng(seed)
    dags = {}
    for uplink in (True, False):
        allocations = bytes_to_allocations(total_bytes, rng,
                                           max_ues=4)
        load = SlotLoad(cell.name, 0, uplink, allocations)
        dags["uplink" if uplink else "downlink"] = builder.build(
            load, cell, 0.0, 1500.0)
    return dags


def to_networkx(dag):
    """Convert a DagInstance into a networkx DiGraph."""
    import networkx as nx

    graph = nx.DiGraph()
    for task in dag.tasks:
        graph.add_node(task.task_id, task_type=task.task_type.value,
                       cost_us=task.base_cost_us)
    for task in dag.tasks:
        for successor in task.successors:
            graph.add_edge(task.task_id, successor.task_id)
    return graph


def render_dag(dag, title: str = "") -> str:
    """Indented rendering of the DAG in topological order."""
    import networkx as nx

    graph = to_networkx(dag)
    assert nx.is_directed_acyclic_graph(graph)
    depth = {}
    for node in nx.topological_sort(graph):
        preds = list(graph.predecessors(node))
        depth[node] = 0 if not preds else 1 + max(depth[p] for p in preds)
    by_id = {task.task_id: task for task in dag.tasks}
    lines = [title] if title else []
    critical = nx.dag_longest_path(graph, weight=None)
    lines.append(f"{len(dag.tasks)} tasks, "
                 f"{graph.number_of_edges()} edges, "
                 f"depth {max(depth.values()) + 1}")
    for node in nx.topological_sort(graph):
        task = by_id[node]
        marker = "*" if node in critical else " "
        lines.append(f"{marker} {'  ' * depth[node]}{task.task_type.value}"
                     f" ({task.base_cost_us:.0f} us)")
    lines.append("(* = on the longest chain)")
    return "\n".join(lines)


def main() -> str:
    dags = build_example_dags()
    return "\n\n".join([
        render_dag(dags["uplink"],
                   "Figure 1 - uplink signal-processing DAG (5G NR)"),
        render_dag(dags["downlink"],
                   "Figure 16 - downlink signal-processing DAG (5G NR)"),
    ])


if __name__ == "__main__":
    print(main())
