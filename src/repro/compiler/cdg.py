"""Choice dependency graph (paper Section 3).

The choice dependency graph is the transform-level representation the
PetaBricks compiler uses to manage choices and synthesise outer control
flow: data dependencies are vertices and rules are hyperedges.  We
realise the hypergraph as a bipartite networkx digraph — matrix nodes
and rule/step nodes — at matrix granularity (the paper additionally
splits matrices into region vertices when rules touch subregions; our
rules declare whole-matrix reads/writes plus a row split performed by
the runtime, so matrix granularity carries the same information).

The graph answers the two questions the compiler asks:

* does a choice's dataflow contain a cycle through a rule's outputs
  (which would disqualify OpenCL mapping — phase one of Section 3.1)?
* what is the step order of a composite choice (schedule synthesis)?
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import networkx as nx

from repro.errors import CompileError
from repro.lang.program import Program
from repro.lang.transform import Choice, Step, Transform


def build_choice_graph(
    transform: Transform, choice: Choice, program: Program
) -> nx.DiGraph:
    """Build the dependency graph for one choice of one transform.

    Matrix nodes are connected through rule/step nodes: an edge
    ``matrix -> rule`` for each read and ``rule -> matrix`` for each
    write.

    Args:
        transform: The transform owning the choice.
        choice: The pathway to analyse.
        program: Enclosing program (used to resolve step callees).

    Returns:
        A directed bipartite graph; node attributes carry ``kind``.
    """
    graph = nx.DiGraph()
    for matrix in set(transform.inputs) | set(transform.outputs) | set(choice.intermediates):
        graph.add_node(("matrix", matrix), kind="matrix")

    if choice.is_leaf:
        rule = choice.rule
        assert rule is not None
        node = ("rule", f"{choice.name}/{rule.name}")
        graph.add_node(node, kind="rule")
        for read in rule.reads:
            graph.add_edge(("matrix", read), node)
        for write in rule.writes:
            graph.add_edge(node, ("matrix", write))
        return graph

    for index, step in enumerate(choice.steps):
        callee = program.transform(step.transform)
        node = ("rule", f"{choice.name}/{index}:{step.transform}")
        graph.add_node(node, kind="rule")
        for callee_matrix in callee.inputs:
            caller_matrix = step.bindings.get(callee_matrix, callee_matrix)
            graph.add_node(("matrix", caller_matrix), kind="matrix")
            graph.add_edge(("matrix", caller_matrix), node)
        for callee_matrix in callee.outputs:
            caller_matrix = step.bindings.get(callee_matrix, callee_matrix)
            graph.add_node(("matrix", caller_matrix), kind="matrix")
            graph.add_edge(node, ("matrix", caller_matrix))
    return graph


def outputs_in_cycle(
    transform: Transform, choice: Choice, program: Program
) -> bool:
    """Whether any output of the choice participates in a dataflow cycle.

    This is the strongly-connected-component test of paper Section 3.1:
    if an output's SCC contains more than the output itself, selecting
    this choice leaves a dependency the OpenCL execution model cannot
    express.

    Args:
        transform: Owning transform.
        choice: Choice under consideration.
        program: Enclosing program.
    """
    graph = build_choice_graph(transform, choice, program)
    written = _written_matrices(transform, choice)
    for component in nx.strongly_connected_components(graph):
        if len(component) < 2:
            continue
        for node in component:
            if node[0] == "matrix" and node[1] in written:
                return True
    return False


def _written_matrices(transform: Transform, choice: Choice) -> set:
    """Matrices written anywhere along the choice's pathway."""
    if choice.is_leaf:
        assert choice.rule is not None
        return set(choice.rule.writes)
    return set(transform.outputs) | set(choice.intermediates)


def step_order(
    transform: Transform, choice: Choice, program: Program
) -> List[int]:
    """Topological execution order of a composite choice's steps.

    The authored step order is already a legal sequence for all our
    benchmarks; this verifies it against the dependency graph and
    raises when an authored order violates dataflow.

    Args:
        transform: Owning transform.
        choice: Composite choice.
        program: Enclosing program.

    Returns:
        Step indices in execution order (identity permutation when the
        authored order is legal).

    Raises:
        CompileError: If the steps' dataflow is cyclic.
    """
    if choice.is_leaf:
        return [0]
    produced: set = set(transform.inputs)
    for index, step in enumerate(choice.steps):
        callee = program.transform(step.transform)
        for callee_matrix in callee.inputs:
            caller_matrix = step.bindings.get(callee_matrix, callee_matrix)
            if caller_matrix not in produced and caller_matrix in choice.intermediates:
                raise CompileError(
                    f"transform {transform.name!r} choice {choice.name!r}: "
                    f"step {index} reads {caller_matrix!r} before it is produced"
                )
        for callee_matrix in callee.outputs:
            produced.add(step.bindings.get(callee_matrix, callee_matrix))
    for output in transform.outputs:
        if output not in produced:
            raise CompileError(
                f"transform {transform.name!r} choice {choice.name!r}: "
                f"output {output!r} never produced"
            )
    return list(range(len(choice.steps)))
