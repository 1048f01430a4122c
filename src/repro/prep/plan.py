"""The reduction specification :func:`repro.prep.pipeline.preprocess` reads.

:class:`PrepSpec` parses ``auto | off | <stage>[,<stage>...]`` with
stages ``peel``, ``collapse``/``mirror``, ``reorder[=degree|bfs|rcm|auto]``
and ``plan``/``components`` into an immutable record of which stages
are on. ``preprocess`` runs only ``peel`` and ``collapse``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AlgorithmError

__all__ = ["PrepSpec"]

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
        """Whether any stage is on."""
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
        """Parse a stage list; raises :class:`AlgorithmError` on junk."""
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
