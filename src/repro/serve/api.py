"""Request/response vocabulary of the batch estimation service.

The wire format is deliberately tiny: JSON objects over HTTP, validated
here into frozen request dataclasses before anything touches the
simulator.  Validation failures raise :class:`ApiError` carrying the
HTTP status to send, so the transport layer never inspects exception
types.

A request names its workload either **inline** (``program.source``
assembly text plus optional ``extensions`` from the bundled library) or
by **bundled benchmark name** (``benchmark``, one of the
characterization-suite programs) — the second form is what load
generators and smoke tests use, since it ships no assembly.

The deduplication identity of an estimate request is the content
address of a candidate score, :func:`repro.dse.cache.candidate_cache_key`
``sha256(model digest, config fingerprint, program image digest,
instruction budget)`` — so the service's in-memory memo and its in-flight
coalescing map agree on what "the same request" means.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..tech import CalibrationError, default_calibration
from ..xtcore import DEFAULT_MAX_INSTRUCTIONS

#: Upper bound on inline assembly source accepted over the wire.
MAX_SOURCE_BYTES = 256 * 1024

#: Hard ceiling on a request's instruction budget (DoS guard).
MAX_REQUEST_INSTRUCTIONS = 50_000_000

#: Objectives accepted by an explore request (mirrors ``repro.dse``).
EXPLORE_OBJECTIVES = ("energy", "cycles", "edp", "area", "time", "edp_seconds")

#: Strategies accepted by an explore request.
EXPLORE_STRATEGIES = ("exhaustive", "random", "greedy")


class ApiError(Exception):
    """A request the service refuses, with the HTTP status to answer."""

    def __init__(
        self,
        status: int,
        message: str,
        code: str = "bad_request",
        headers: Optional[dict] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.headers = headers

    def to_payload(self) -> dict:
        return {"error": self.code, "message": str(self)}


def _require_dict(payload: object) -> dict:
    if not isinstance(payload, dict):
        raise ApiError(400, "request body must be a JSON object")
    return payload


def _parse_budget(payload: dict) -> int:
    raw = payload.get("max_instructions", DEFAULT_MAX_INSTRUCTIONS)
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
        raise ApiError(400, "max_instructions must be a positive integer")
    if raw > MAX_REQUEST_INSTRUCTIONS:
        raise ApiError(
            400,
            f"max_instructions {raw} exceeds the service ceiling "
            f"{MAX_REQUEST_INSTRUCTIONS}",
        )
    return raw


#: Hard ceiling on a client deadline (anything longer is "no deadline").
MAX_DEADLINE_MS = 3_600_000


def _parse_deadline(payload: dict) -> Optional[int]:
    raw = payload.get("deadline_ms")
    if raw is None:
        return None
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
        raise ApiError(400, "deadline_ms must be a positive integer")
    if raw > MAX_DEADLINE_MS:
        raise ApiError(
            400,
            f"deadline_ms {raw} exceeds the service ceiling {MAX_DEADLINE_MS}",
        )
    return raw


def _parse_operating_point(payload: dict) -> Optional[str]:
    """Validate an optional operating point; returns the canonical key.

    Canonicalizing here (``"65 nm @ 1.1 V @ 800 MHz"`` and
    ``"65nm@1.1V@800MHz"`` become one key) keeps request dedup exact.
    """
    raw = payload.get("operating_point")
    if raw is None:
        return None
    if not isinstance(raw, str) or not raw:
        raise ApiError(
            400,
            "operating_point must be a string like '65nm@1.1V@800MHz'",
        )
    try:
        return default_calibration().validate(raw).key
    except CalibrationError as exc:
        raise ApiError(400, f"bad operating_point: {exc}") from exc


def _parse_extensions(payload: dict) -> tuple[str, ...]:
    raw = payload.get("extensions", ())
    if isinstance(raw, str):
        raw = [token.strip() for token in raw.split(",") if token.strip()]
    if not isinstance(raw, (list, tuple)) or not all(
        isinstance(item, str) for item in raw
    ):
        raise ApiError(400, "extensions must be a list of mnemonic strings")
    return tuple(raw)


@dataclasses.dataclass(frozen=True)
class EstimateRequest:
    """One validated macro-model estimation request."""

    #: display name of the program (response labelling only)
    name: str
    #: inline assembly source, or None when ``benchmark`` is set
    source: Optional[str]
    #: bundled benchmark name, or None when ``source`` is set
    benchmark: Optional[str]
    #: custom-instruction mnemonics (inline-source requests only)
    extensions: tuple[str, ...]
    max_instructions: int
    #: include the per-variable energy breakdown in the response
    variables: bool = False
    #: client-supplied total deadline; the service sheds the request
    #: (504) anywhere along the pipeline once it expires
    deadline_ms: Optional[int] = None
    #: canonical operating-point key to estimate at, or None for the
    #: model's own fit point
    operating_point: Optional[str] = None


def parse_estimate(payload: object) -> EstimateRequest:
    """Validate an ``POST /estimate`` body into an :class:`EstimateRequest`."""
    body = _require_dict(payload)
    benchmark = body.get("benchmark")
    program = body.get("program")
    if (benchmark is None) == (program is None):
        raise ApiError(
            400, "provide exactly one of 'benchmark' or 'program' (inline source)"
        )
    variables = body.get("variables", False)
    if not isinstance(variables, bool):
        raise ApiError(400, "variables must be a boolean")
    max_instructions = _parse_budget(body)
    deadline_ms = _parse_deadline(body)
    operating_point = _parse_operating_point(body)
    if benchmark is not None:
        if not isinstance(benchmark, str) or not benchmark:
            raise ApiError(400, "benchmark must be a non-empty string")
        if body.get("extensions"):
            raise ApiError(
                400, "extensions apply to inline programs only (benchmarks bundle theirs)"
            )
        return EstimateRequest(
            name=benchmark,
            source=None,
            benchmark=benchmark,
            extensions=(),
            max_instructions=max_instructions,
            variables=variables,
            deadline_ms=deadline_ms,
            operating_point=operating_point,
        )
    prog = _require_dict(program)
    source = prog.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ApiError(400, "program.source must be non-empty assembly text")
    if len(source.encode("utf-8")) > MAX_SOURCE_BYTES:
        raise ApiError(
            413, f"program.source exceeds {MAX_SOURCE_BYTES} bytes", code="too_large"
        )
    name = prog.get("name", "request")
    if not isinstance(name, str) or not name:
        raise ApiError(400, "program.name must be a non-empty string")
    return EstimateRequest(
        name=name,
        source=source,
        benchmark=None,
        extensions=_parse_extensions(body),
        max_instructions=max_instructions,
        variables=variables,
        deadline_ms=deadline_ms,
        operating_point=operating_point,
    )


@dataclasses.dataclass(frozen=True)
class ExploreRequest:
    """One validated design-space exploration request."""

    space: str
    strategy: str
    budget: Optional[int]
    seed: int
    objective: str
    max_instructions: int
    top_k: Optional[int]
    #: canonical operating-point key to score against, or None for the
    #: model's own fit point
    operating_point: Optional[str] = None


def parse_explore(payload: object) -> ExploreRequest:
    """Validate an ``POST /explore`` body into an :class:`ExploreRequest`."""
    body = _require_dict(payload)
    space = body.get("space")
    if not isinstance(space, str) or not space:
        raise ApiError(400, "space must name a registered search space")
    strategy = body.get("strategy", "exhaustive")
    if strategy not in EXPLORE_STRATEGIES:
        raise ApiError(
            400, f"strategy must be one of {', '.join(EXPLORE_STRATEGIES)}"
        )
    budget = body.get("budget")
    if budget is not None and (
        not isinstance(budget, int) or isinstance(budget, bool) or budget < 1
    ):
        raise ApiError(400, "budget must be a positive integer")
    seed = body.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ApiError(400, "seed must be an integer")
    objective = body.get("objective", "edp")
    if objective not in EXPLORE_OBJECTIVES:
        raise ApiError(
            400, f"objective must be one of {', '.join(EXPLORE_OBJECTIVES)}"
        )
    top_k = body.get("top_k")
    if top_k is not None and (
        not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1
    ):
        raise ApiError(400, "top_k must be a positive integer")
    return ExploreRequest(
        space=space,
        strategy=strategy,
        budget=budget,
        seed=seed,
        objective=objective,
        max_instructions=_parse_budget(body),
        top_k=top_k,
        operating_point=_parse_operating_point(body),
    )
