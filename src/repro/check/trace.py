"""Replayable schedule traces.

A :class:`ScheduleTrace` pins down one execution of a model completely:
the tie-break choice made at each scheduler decision point, plus (for
fault branches) the decision index at which a cable sever is injected.
Decision points are the *only* freedom the deterministic simulator has,
so ``(model, mutation, trace)`` reproduces a run bit-for-bit — which is
what makes every ShmemCheck counterexample a one-command repro.

The JSON form is intentionally tiny and self-describing so CI can upload
counterexamples as artifacts and a developer can replay them locally with
``python -m repro.check --replay <file>``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Counterexample", "FaultPoint", "ScheduleTrace"]


@dataclass(frozen=True)
class FaultPoint:
    """Inject a fault when the scheduler reaches decision ``decision``.

    ``kind`` is currently always ``"sever"`` (cut the cable between hosts
    ``edge[0]`` and ``edge[1]``); the field exists so future fault kinds
    (drops, delays) serialize without a format change.
    """

    decision: int
    edge: tuple[int, int]
    kind: str = "sever"

    def to_json(self) -> dict[str, Any]:
        return {"decision": self.decision,
                "edge": list(self.edge), "kind": self.kind}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "FaultPoint":
        return cls(decision=int(data["decision"]),
                   edge=(int(data["edge"][0]), int(data["edge"][1])),
                   kind=str(data.get("kind", "sever")))


@dataclass(frozen=True)
class ScheduleTrace:
    """A forced prefix of tie-break choices (+ optional fault injection).

    ``choices[d]`` is the candidate index taken at decision ``d``; beyond
    the prefix the scheduler takes index 0 (heap order — the default
    schedule).  A trailing run of zeros is therefore redundant, which
    :meth:`shrunk` exploits to keep counterexamples short.
    """

    choices: tuple[int, ...] = ()
    fault: Optional[FaultPoint] = None

    def shrunk(self) -> "ScheduleTrace":
        """Drop trailing default choices (keeping the fault point valid)."""
        keep = len(self.choices)
        floor = self.fault.decision if self.fault is not None else 0
        while keep > 0 and keep > floor and self.choices[keep - 1] == 0:
            keep -= 1
        if keep == len(self.choices):
            return self
        return ScheduleTrace(choices=self.choices[:keep], fault=self.fault)

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"choices": list(self.choices)}
        if self.fault is not None:
            out["fault"] = self.fault.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ScheduleTrace":
        fault = data.get("fault")
        return cls(
            choices=tuple(int(c) for c in data.get("choices", ())),
            fault=FaultPoint.from_json(fault) if fault else None,
        )


@dataclass
class Counterexample:
    """A violation plus everything needed to replay it."""

    model: str
    trace: ScheduleTrace
    kind: str
    detail: str
    mutation: Optional[str] = None
    time_us: float = 0.0
    blocked: list[str] = field(default_factory=list)
    open_spans: list[str] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "mutation": self.mutation,
            "kind": self.kind,
            "detail": self.detail,
            "time_us": self.time_us,
            "blocked": self.blocked,
            "open_spans": self.open_spans,
            "trace": self.trace.to_json(),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Counterexample":
        return cls(
            model=str(data["model"]),
            mutation=data.get("mutation"),
            kind=str(data.get("kind", "?")),
            detail=str(data.get("detail", "")),
            time_us=float(data.get("time_us", 0.0)),
            blocked=[str(b) for b in data.get("blocked", [])],
            open_spans=[str(s) for s in data.get("open_spans", [])],
            trace=ScheduleTrace.from_json(data.get("trace", {})),
        )

    @classmethod
    def loads(cls, text: str) -> "Counterexample":
        return cls.from_json(json.loads(text))
