"""Candidate-space layer: declarative design-point enumeration.

The paper's motivating use case (Sec. I) is comparing many candidate
custom-instruction sets on energy during ASIP design.  A
:class:`SearchSpace` describes such a candidate family declaratively —
named :class:`Knob`\\ s with finite value sets plus a builder that turns
one knob assignment into a concrete ``(ProcessorConfig, Program)`` pair —
and the exploration engine enumerates, samples or hill-climbs over it.

Design points are addressed three interchangeable ways:

* an **assignment** — ``{"impl": "gfmac", "icache_kb": 8}``;
* an **index** — the mixed-radix rank of the assignment in knob order,
  which lets strategies sample uniformly without materializing the space;
* a **key** — the canonical ``"icache_kb=8,impl=gfmac"`` string used in
  reports and the per-run memo.

Bundled spaces (see :data:`BUILTIN_SPACES`) subsume the hand-built
``fir_choices()``/``reed_solomon_choices()`` studies and extend them with
cache-geometry knobs; they are registered by name so worker processes can
rebuild them from a picklable reference.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterator, Mapping, Sequence, Tuple

from ..asm import Program, assemble
from ..tech import DEFAULT_DVFS_POINTS, OperatingPoint, default_calibration
from ..xtcore import CacheConfig, ProcessorConfig, build_processor, compilation_cache

#: Name of the reserved operating-point knob (see
#: :func:`with_operating_points`).  Builders never see it — the value is
#: a :class:`repro.tech.OperatingPoint` key consumed by the evaluation
#: engine, which rescales the model instead of changing the hardware.
OPERATING_POINT_KNOB = "operating_point"

#: A knob assignment: knob name -> chosen value (JSON-scalar).
Assignment = Dict[str, object]

#: ``builder(assignment) -> (config, program)`` for one design point.
BuildFn = Callable[[Assignment], Tuple[ProcessorConfig, Program]]


class SpaceError(ValueError):
    """A malformed search-space definition or knob assignment."""


@dataclasses.dataclass(frozen=True)
class Knob:
    """One discrete design knob: a name plus its finite value set."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SpaceError(f"bad knob name {self.name!r}")
        if not self.values:
            raise SpaceError(f"knob {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise SpaceError(f"knob {self.name!r} has duplicate values")

    def __len__(self) -> int:
        return len(self.values)


def assignment_key(assignment: Mapping[str, object]) -> str:
    """Canonical, order-independent string form of an assignment."""
    return ",".join(f"{name}={assignment[name]}" for name in sorted(assignment))


@dataclasses.dataclass(frozen=True)
class Candidate:
    """One design point of a space: a validated knob assignment."""

    space: "SearchSpace"
    assignment: tuple  # of (name, value) pairs in knob order

    @property
    def assignment_dict(self) -> Assignment:
        return dict(self.assignment)

    @property
    def key(self) -> str:
        """Canonical id of this design point within its space."""
        return assignment_key(self.assignment_dict)

    def build(self) -> Tuple[ProcessorConfig, Program]:
        """Materialize the (processor config, assembled program) pair."""
        return self.space.build(self.assignment_dict)


@dataclasses.dataclass(frozen=True)
class SearchSpace:
    """A finite design space: knobs x builder.

    The knob order is significant: it defines the mixed-radix index of
    each assignment and therefore the deterministic enumeration order.
    """

    name: str
    description: str
    knobs: tuple[Knob, ...]
    builder: BuildFn

    def __post_init__(self) -> None:
        if not self.knobs:
            raise SpaceError(f"space {self.name!r} has no knobs")
        names = [knob.name for knob in self.knobs]
        if len(set(names)) != len(names):
            raise SpaceError(f"space {self.name!r} has duplicate knob names")

    @property
    def size(self) -> int:
        """Total number of design points (product of knob cardinalities)."""
        total = 1
        for knob in self.knobs:
            total *= len(knob)
        return total

    # -- assignment <-> index -------------------------------------------------

    def assignment_at(self, index: int) -> Assignment:
        """Decode a mixed-radix rank into a knob assignment."""
        if not 0 <= index < self.size:
            raise SpaceError(f"index {index} out of range for space of {self.size}")
        assignment: Assignment = {}
        for knob in reversed(self.knobs):
            index, digit = divmod(index, len(knob))
            assignment[knob.name] = knob.values[digit]
        return {knob.name: assignment[knob.name] for knob in self.knobs}

    def index_of(self, assignment: Mapping[str, object]) -> int:
        """The mixed-radix rank of a (validated) assignment."""
        self.validate(assignment)
        index = 0
        for knob in self.knobs:
            index = index * len(knob) + knob.values.index(assignment[knob.name])
        return index

    def validate(self, assignment: Mapping[str, object]) -> None:
        expected = {knob.name for knob in self.knobs}
        got = set(assignment)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise SpaceError(
                f"space {self.name!r}: bad assignment"
                + (f", missing knobs {missing}" if missing else "")
                + (f", unknown knobs {extra}" if extra else "")
            )
        for knob in self.knobs:
            if assignment[knob.name] not in knob.values:
                raise SpaceError(
                    f"space {self.name!r}: knob {knob.name!r} has no value "
                    f"{assignment[knob.name]!r} (choose from {list(knob.values)})"
                )

    # -- candidates -----------------------------------------------------------

    def candidate(self, assignment: Mapping[str, object]) -> Candidate:
        self.validate(assignment)
        return Candidate(
            space=self,
            assignment=tuple((knob.name, assignment[knob.name]) for knob in self.knobs),
        )

    def candidate_at(self, index: int) -> Candidate:
        return self.candidate(self.assignment_at(index))

    def candidates(self) -> Iterator[Candidate]:
        """All design points in deterministic (mixed-radix) order."""
        for index in range(self.size):
            yield self.candidate_at(index)

    def build(self, assignment: Mapping[str, object]) -> Tuple[ProcessorConfig, Program]:
        self.validate(assignment)
        return self.builder(dict(assignment))

    def describe(self) -> str:
        lines = [f"space {self.name}: {self.size} design points — {self.description}"]
        for knob in self.knobs:
            lines.append(f"  {knob.name:<14}{', '.join(str(v) for v in knob.values)}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# operating-point axis
# ---------------------------------------------------------------------------


def with_operating_points(
    space: SearchSpace,
    points: Sequence["OperatingPoint | str"] = DEFAULT_DVFS_POINTS,
    name: "str | None" = None,
) -> SearchSpace:
    """Cross a space with a technology operating-point axis.

    Appends an ``operating_point`` knob whose values are canonical point
    keys (validated against the default calibration table).  The wrapped
    builder strips the knob before delegating, so the **hardware and the
    simulation are identical across points** — only the energy/time
    scaling differs, which is exactly what lets the evaluation engine
    collapse op-only-differing candidates into one batched simulation.
    """
    if any(knob.name == OPERATING_POINT_KNOB for knob in space.knobs):
        raise SpaceError(
            f"space {space.name!r} already has an {OPERATING_POINT_KNOB!r} knob"
        )
    if not points:
        raise SpaceError("with_operating_points needs at least one operating point")
    calibration = default_calibration()
    keys = []
    for point in points:
        try:
            keys.append(calibration.validate(point).key)
        except ValueError as exc:
            raise SpaceError(f"bad operating point {point!r}: {exc}") from exc
    if len(set(keys)) != len(keys):
        raise SpaceError(f"duplicate operating points in {keys}")

    def build(assignment: Assignment) -> Tuple[ProcessorConfig, Program]:
        inner = dict(assignment)
        inner.pop(OPERATING_POINT_KNOB, None)
        return space.build(inner)

    return SearchSpace(
        name=name if name is not None else f"{space.name}@dvfs",
        description=f"{space.description} x {len(keys)} DVFS operating points",
        knobs=space.knobs + (Knob(OPERATING_POINT_KNOB, tuple(keys)),),
        builder=build,
    )


# ---------------------------------------------------------------------------
# bundled spaces
# ---------------------------------------------------------------------------


def _case_factories(workload: str) -> Mapping[str, Callable]:
    """impl value -> BenchmarkCase factory for one bundled workload."""
    if workload == "reed_solomon":
        from ..programs.reed_solomon import rs_dual, rs_gfmac, rs_gfmul, rs_software

        return {"sw": rs_software, "gfmul": rs_gfmul, "gfmac": rs_gfmac, "dual": rs_dual}
    if workload == "fir":
        from ..programs.fir import fir_mac, fir_packed, fir_software

        return {"sw": fir_software, "mac": fir_mac, "packed": fir_packed}
    raise SpaceError(f"unknown bundled workload {workload!r}")


def with_cache_knobs(config: ProcessorConfig, assignment: Assignment) -> ProcessorConfig:
    """``config`` with the assignment's optional cache-geometry knobs applied."""
    return dataclasses.replace(
        config,
        icache=CacheConfig(size_bytes=int(assignment.get("icache_kb", 16)) * 1024),
        dcache=CacheConfig(
            size_bytes=int(assignment.get("dcache_kb", 16)) * 1024,
            ways=int(assignment.get("dcache_ways", 4)),
        ),
    )


def _build_impl(workload: str, impl: str) -> Tuple[ProcessorConfig, Program]:
    """The default-geometry config and the assembled program of one impl."""
    case = _case_factories(workload)[impl]()
    specs = [factory() for factory in case.spec_factories]
    config = build_processor(f"xt-{case.name}", specs)
    return config, assemble(case.source, case.name, isa=config.isa)


def _build_impl_point(workload: str, assignment: Assignment) -> Tuple[ProcessorConfig, Program]:
    """Build one bundled design point, honoring optional cache knobs.

    Cache geometry and the operating point change neither the extensions
    nor the program, so every candidate of one ``impl`` shares one
    compiled extension tuple and one :class:`Program`, built once per
    ``(workload, impl)`` in the compilation cache's ``build`` tier; each
    candidate only swaps in its cache geometry.  Every downstream key
    (config fingerprint, program digest, request key) stays
    content-based, so the sharing changes none of them.
    """
    impl = assignment["impl"]
    template, program = compilation_cache().get_or_build(
        ("dse.impl", workload, impl), lambda: _build_impl(workload, impl)
    )
    return with_cache_knobs(template, assignment), program


def _impl_space(workload: str, impls: Sequence[str], description: str) -> SearchSpace:
    return SearchSpace(
        name=workload,
        description=description,
        knobs=(Knob("impl", tuple(impls)),),
        builder=lambda a: _build_impl_point(workload, a),
    )


def _tuned_space(workload: str, impls: Sequence[str], description: str) -> SearchSpace:
    return SearchSpace(
        name=f"{workload}_tuned",
        description=description,
        knobs=(
            Knob("impl", tuple(impls)),
            Knob("icache_kb", (4, 8, 16)),
            Knob("dcache_kb", (4, 8, 16)),
            Knob("dcache_ways", (1, 2, 4)),
        ),
        builder=lambda a: _build_impl_point(workload, a),
    )


def _builtin_spaces() -> dict[str, Callable[[], SearchSpace]]:
    return {
        "reed_solomon": lambda: _impl_space(
            "reed_solomon",
            ("sw", "gfmul", "gfmac", "dual"),
            "the paper's four Fig. 4 Reed-Solomon custom-instruction choices",
        ),
        "fir": lambda: _impl_space(
            "fir",
            ("sw", "mac", "packed"),
            "the three 16-tap FIR filter implementation choices",
        ),
        "reed_solomon_tuned": lambda: _tuned_space(
            "reed_solomon",
            ("sw", "gfmul", "gfmac", "dual"),
            "Reed-Solomon choices crossed with cache-geometry knobs",
        ),
        "fir_tuned": lambda: _tuned_space(
            "fir",
            ("sw", "mac", "packed"),
            "FIR choices crossed with cache-geometry knobs",
        ),
        "reed_solomon_dvfs": lambda: with_operating_points(
            _impl_space(
                "reed_solomon",
                ("sw", "gfmul", "gfmac", "dual"),
                "the paper's four Fig. 4 Reed-Solomon custom-instruction choices",
            ),
            name="reed_solomon_dvfs",
        ),
        "fir_dvfs": lambda: with_operating_points(
            _impl_space(
                "fir",
                ("sw", "mac", "packed"),
                "the three 16-tap FIR filter implementation choices",
            ),
            name="fir_dvfs",
        ),
    }


#: Names of the spaces shipped with the library.
BUILTIN_SPACES: tuple[str, ...] = tuple(sorted(_builtin_spaces()))

_REGISTRY: dict[str, Callable[[], SearchSpace]] = dict(_builtin_spaces())


def register_space(name: str, factory: Callable[[], SearchSpace]) -> None:
    """Register a space factory so workers can rebuild it by name."""
    _REGISTRY[name] = factory


def available_spaces() -> list[str]:
    return sorted(_REGISTRY)


def get_space(name: str) -> SearchSpace:
    """Build a registered space by name."""
    factory = _REGISTRY.get(name)
    if factory is None:
        raise SpaceError(
            f"unknown search space {name!r}; available: {', '.join(available_spaces())}"
        )
    space = factory()
    if space.name != name:
        raise SpaceError(
            f"space factory registered as {name!r} built a space named {space.name!r}"
        )
    return space
