"""Prep-pipeline specification and the per-component planner.

:class:`PrepSpec` parses the CLI's ``--prep`` grammar
(``auto | off | <stage>[,<stage>...]`` with stages ``peel``,
``collapse``/``mirror``, ``reorder[=degree|bfs|rcm|auto]`` and
``plan``/``components``) into an immutable plan of which stages run.

:func:`plan_component` is the per-component decision point: given one
connected component of the reduced graph, it consults the degree-skew
threshold of :class:`~repro.parallel.costmodel.LevelSynchronousCostModel`
to pick the reorder strategy (degree-descending for hub-heavy
components, BFS level order for mesh-like ones). Whether a component's
eccentricities are swept in lanes is not the planner's call: F-Diam's
``ecc_lanes`` rule (:func:`repro.core.state.ecc_batch_size`) decides
that inside each component's run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.parallel.costmodel import LevelSynchronousCostModel

__all__ = ["ComponentPlan", "PrepSpec", "plan_component"]

_REORDER_CHOICES = ("auto", "degree", "bfs", "rcm")


@dataclass(frozen=True)
class PrepSpec:
    """Which prep stages are enabled for a run."""

    peel: bool = False
    collapse: bool = False
    reorder: str = "off"
    plan: bool = False

    @property
    def enabled(self) -> bool:
        """Whether any stage is on (``False`` means plain ``fdiam``)."""
        return self.peel or self.collapse or self.reorder != "off" or self.plan

    @property
    def tokens(self) -> tuple[str, ...]:
        """Canonical stage tokens (round-trips through :meth:`parse`)."""
        out: list[str] = []
        if self.peel:
            out.append("peel")
        if self.collapse:
            out.append("collapse")
        if self.reorder != "off":
            out.append(f"reorder={self.reorder}")
        if self.plan:
            out.append("plan")
        return tuple(out)

    @classmethod
    def parse(cls, text: str | None) -> PrepSpec:
        """Parse a ``--prep`` value; raises :class:`AlgorithmError` on junk."""
        if text is None:
            return cls()
        value = text.strip().lower()
        if value in ("", "off", "none"):
            return cls()
        if value == "auto":
            return cls(peel=True, collapse=True, reorder="auto", plan=True)
        peel = collapse = plan = False
        reorder = "off"
        for raw in value.split(","):
            token = raw.strip()
            if not token:
                continue
            if token == "peel":
                peel = True
            elif token in ("collapse", "mirror"):
                collapse = True
            elif token == "reorder":
                reorder = "auto"
            elif token.startswith("reorder="):
                choice = token.split("=", 1)[1]
                if choice not in _REORDER_CHOICES:
                    raise AlgorithmError(
                        f"unknown reorder strategy {choice!r}; "
                        f"expected one of {', '.join(_REORDER_CHOICES)}"
                    )
                reorder = choice
            elif token in ("plan", "components"):
                plan = True
            else:
                raise AlgorithmError(
                    f"unknown prep stage {token!r}; expected auto, off, or a "
                    "comma list of peel, collapse, reorder[=STRATEGY], plan"
                )
        return cls(peel=peel, collapse=collapse, reorder=reorder, plan=plan)


@dataclass(frozen=True)
class ComponentPlan:
    """Planner verdict for one connected component."""

    reorder: str


def plan_component(
    graph: CSRGraph,
    *,
    spec: PrepSpec,
    model: LevelSynchronousCostModel | None = None,
) -> ComponentPlan:
    """Pick the reorder strategy for one component.

    The ``auto`` reorder strategy resolves to ``degree`` for hub-heavy
    components and BFS level order for mesh-like ones, using the
    model's skew threshold (RCM stays available explicitly,
    but its reversal scrambles the id scan F-Diam's main loop relies
    on, measurably inflating the traversal count on road meshes).
    """
    strategy = spec.reorder
    if strategy == "auto":
        model = model or LevelSynchronousCostModel()
        max_degree = graph.max_degree() if graph.num_vertices else 0
        average = max(graph.average_degree(), 1e-12)
        strategy = (
            "degree" if max_degree >= model.params.hub_skew * average else "bfs"
        )
    return ComponentPlan(reorder=strategy)
