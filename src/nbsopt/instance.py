"""Problem instances: domain types, validation, and JSON (de)serialization.

An instance bundles everything one optimization run needs: grid dimensions,
the NBS catalog with per-cell costs, observed measure fields, impact and
fairness kernels, forbidden/pre-existing masks, the population distribution,
the budget, objective weights, and (optionally) all-or-nothing cluster
assignments. Instances are treated as immutable after construction and are
safe to share across concurrent solves: the per-type cell grids and the
per-measure fields and deltas each compute once, on first read, from data
that does not change, so two solves that race to the first read only compute
them twice.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from .kernels import Kernel, derive_delta

Cell = tuple[int, int]

POPULATION_SUM_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-9


class InstanceError(ValueError):
    """Base class for instance loading/validation failures."""


class SchemaError(InstanceError):
    """Malformed instance JSON; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class ValidationError(InstanceError):
    """Structurally well-formed instance violating a domain invariant."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid instance:\n - " + "\n - ".join(problems))


@dataclass(frozen=True)
class GridDims:
    """Grid of width x height square cells, each `resolution` meters a side."""

    width: int
    height: int
    resolution: float = 10.0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.width, self.height)

    @property
    def n_cells(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class NbsType:
    """One placeable NBS type; cost is per cell per year."""

    id: str
    name: str
    cost: float


@dataclass(eq=False)
class UcMeasure:
    """Observed field of one urban-challenge measure (e.g. temperature, PM).

    `delta` caps the reduction achievable at any one cell; when None it is
    derived as 20% of the field maximum.
    """

    id: str
    unit: str
    field: np.ndarray
    delta: float | None = None

    def __post_init__(self) -> None:
        self.field = np.asarray(self.field, dtype=float)

    def effective_delta(self) -> float:
        return derive_delta(self) if self.delta is None else float(self.delta)


@dataclass(eq=False)
class Masks:
    """Per-NBS forbidden and pre-existing cell sets."""

    forbidden: dict[str, set[Cell]]
    pre_existing: dict[str, set[Cell]]


@dataclass(eq=False)
class ObjectiveWeights:
    """Nonnegative weights summing to 1 across all objective terms."""

    peak: dict[str, float]
    avg: dict[str, float]
    cost: float
    fairness: float

    def total(self) -> float:
        return sum(self.peak.values()) + sum(self.avg.values()) + self.cost + self.fairness


@dataclass(eq=False)
class Instance:
    dims: GridDims
    nbs: list[NbsType]
    measures: list[UcMeasure]
    kernels: dict[tuple[str, str], Kernel]
    fairness_kernels: dict[str, Kernel]
    masks: Masks
    population: np.ndarray
    budget: float
    weights: ObjectiveWeights
    clusters: dict[str, list[list[Cell]]] | None = None

    def __post_init__(self) -> None:
        self.population = np.asarray(self.population, dtype=float)

    @property
    def nbs_ids(self) -> list[str]:
        return [t.id for t in self.nbs]

    @property
    def measure_ids(self) -> list[str]:
        return [u.id for u in self.measures]

    @cached_property
    def fields(self) -> np.ndarray:
        """Observed fields, (measures, width, height) in measure order."""
        return np.array([u.field for u in self.measures])

    @cached_property
    def deltas(self) -> np.ndarray:
        """Each measure's reduction cap, `UcMeasure.effective_delta`, in measure order."""
        return np.array([u.effective_delta() for u in self.measures])

    def _grids(self, cells: Mapping[str, set[Cell]]) -> np.ndarray:
        """Per NBS type in catalog order, a grid True at the type's `cells`."""
        grids = np.zeros((len(self.nbs), *self.dims.shape), dtype=bool)
        for grid, t in zip(grids, self.nbs_ids):
            for i, j in cells[t]:
                grid[i, j] = True
        return grids

    @cached_property
    def forbidden(self) -> np.ndarray:
        """Forbidden cells, (types, width, height) in catalog order."""
        return self._grids(self.masks.forbidden)

    @cached_property
    def pre_existing(self) -> np.ndarray:
        """Pre-existing cells, (types, width, height) in catalog order."""
        return self._grids(self.masks.pre_existing)

    @cached_property
    def eligible(self) -> np.ndarray:
        """Cells where a new installation of each type may go, (types, width,
        height) in catalog order: neither the type's forbidden cells nor any
        type's pre-existing cells, which host nothing new."""
        return ~self.forbidden & ~self.pre_existing.any(axis=0)

    def clusters_for(self, nbs_id: str) -> list[list[Cell]]:
        if self.clusters is None:
            return []
        return self.clusters.get(nbs_id, [])


def validate_instance(inst: Instance) -> None:
    """Check every domain invariant; raise ValidationError listing all problems."""
    problems: list[str] = []
    dims = inst.dims

    if dims.width < 1 or dims.height < 1:
        problems.append(f"grid dimensions must be >= 1, got {dims.width}x{dims.height}")
    if not dims.resolution > 0:
        problems.append(f"resolution must be positive, got {dims.resolution}")

    if not inst.nbs:
        problems.append("instance needs at least one NBS type")
    nbs_ids = inst.nbs_ids
    if len(set(nbs_ids)) != len(nbs_ids):
        problems.append(f"duplicate NBS ids: {nbs_ids}")
    for t in inst.nbs:
        if not (np.isfinite(t.cost) and t.cost > 0):
            problems.append(f"NBS {t.id!r}: cost must be finite and positive, got {t.cost}")

    if not inst.measures:
        problems.append("instance needs at least one measure")
    measure_ids = inst.measure_ids
    if len(set(measure_ids)) != len(measure_ids):
        problems.append(f"duplicate measure ids: {measure_ids}")
    for u in inst.measures:
        if u.field.shape != dims.shape:
            problems.append(
                f"measure {u.id!r}: field shape {u.field.shape} != grid {dims.shape}"
            )
        elif not np.all(np.isfinite(u.field)):
            problems.append(f"measure {u.id!r}: field has non-finite values")
        if u.delta is not None and not (np.isfinite(u.delta) and u.delta >= 0):
            problems.append(f"measure {u.id!r}: delta must be finite and >= 0, got {u.delta}")
        elif u.delta is None and u.field.size and u.effective_delta() < 0:
            problems.append(
                f"measure {u.id!r}: delta derived from the field (20% of its maximum) "
                f"must be >= 0, got {u.effective_delta()}"
            )

    for u in measure_ids:
        for t in nbs_ids:
            if (u, t) not in inst.kernels:
                problems.append(f"missing kernel for measure {u!r}, NBS {t!r}")
    for t in nbs_ids:
        if t not in inst.fairness_kernels:
            problems.append(f"missing fairness kernel for NBS {t!r}")

    def check_cells(cells: Iterable[Cell], label: str) -> None:
        for i, j in cells:
            if not (0 <= i < dims.width and 0 <= j < dims.height):
                problems.append(f"{label}: cell ({_shown(i)}, {_shown(j)}) outside the grid")

    for t in nbs_ids:
        if t not in inst.masks.forbidden:
            problems.append(f"forbidden mask missing entry for NBS {t!r}")
            continue
        if t not in inst.masks.pre_existing:
            problems.append(f"pre-existing mask missing entry for NBS {t!r}")
            continue
        check_cells(inst.masks.forbidden[t], f"forbidden[{t}]")
        check_cells(inst.masks.pre_existing[t], f"pre_existing[{t}]")
        overlap = inst.masks.forbidden[t] & inst.masks.pre_existing[t]
        if overlap:
            problems.append(
                f"NBS {t!r}: cells both forbidden and pre-existing: {sorted(overlap)}"
            )
    seen: dict[Cell, str] = {}
    for t in nbs_ids:
        for cell in sorted(inst.masks.pre_existing.get(t, set())):
            if cell in seen:
                problems.append(
                    f"cell {cell} pre-exists for two types ({seen[cell]!r} and {t!r})"
                )
            else:
                seen[cell] = t

    if inst.population.shape != dims.shape:
        problems.append(
            f"population shape {inst.population.shape} != grid {dims.shape}"
        )
    else:
        if not np.all(np.isfinite(inst.population)) or np.any(inst.population < 0):
            problems.append("population must be finite and nonnegative")
        elif abs(inst.population.sum() - 1.0) > POPULATION_SUM_TOL:
            problems.append(
                f"population must sum to 1, got {inst.population.sum()!r}"
            )

    if not np.isfinite(inst.budget) or inst.budget < 0:
        problems.append(f"budget must be finite and >= 0, got {inst.budget}")

    w = inst.weights
    if set(w.peak) != set(measure_ids) or set(w.avg) != set(measure_ids):
        problems.append("weights.peak and weights.avg must cover exactly the measure ids")
    all_weights = {
        **{f"weights.peak.{u}": x for u, x in w.peak.items()},
        **{f"weights.avg.{u}": x for u, x in w.avg.items()},
        "weights.cost": w.cost,
        "weights.fairness": w.fairness,
    }
    for name, x in all_weights.items():
        if not np.isfinite(x):
            problems.append(f"{name} must be finite, got {x}")
    if any(x < 0 for x in all_weights.values()):
        problems.append("objective weights must be nonnegative")
    if abs(w.total() - 1.0) > WEIGHT_SUM_TOL:
        problems.append(f"objective weights must sum to 1, got {w.total()!r}")

    # HiGHS refuses a coefficient of magnitude 1e15 or more (its
    # `large_matrix_value`; its infinite bound is 1e20), and the oracle would
    # solve what HiGHS refuses, so every number that reaches the model stays
    # below it. Non-finite numbers are named above.
    sized = [(f"NBS {t.id!r}: cost", t.cost) for t in inst.nbs]
    sized += [(f"measure {u.id!r}: field", u.field) for u in inst.measures]
    sized += [(f"measure {u.id!r}: delta", u.delta) for u in inst.measures if u.delta is not None]
    sized += [(f"kernels.{u}.{t}", k.entries) for (u, t), k in inst.kernels.items()]
    sized += [(f"fairness_kernels.{t}", k.entries) for t, k in inst.fairness_kernels.items()]
    sized.append(("budget", inst.budget))
    for name, values in sized:
        size = np.abs(values)
        largest = float(size.max(initial=0.0, where=np.isfinite(size)))
        if largest >= 1e15:
            problems.append(f"{name} must be below 1e15 in magnitude, got {largest!r}")

    if inst.clusters is not None:
        for t, groups in inst.clusters.items():
            if t not in nbs_ids:
                problems.append(f"clusters reference unknown NBS {t!r}")
                continue
            occupied: set[Cell] = set()
            forbidden = inst.masks.forbidden.get(t, set())
            pre_any = set().union(*inst.masks.pre_existing.values())
            for q, group in enumerate(groups):
                if not group:
                    problems.append(f"clusters[{t}][{q}] is empty")
                check_cells(group, f"clusters[{t}][{q}]")
                for cell in group:
                    if cell in occupied:
                        problems.append(f"clusters[{t}]: cell {cell} in two clusters")
                    occupied.add(cell)
                    if cell in forbidden:
                        problems.append(
                            f"clusters[{t}][{q}]: cell {cell} is forbidden for {t!r}"
                        )
                    if cell in pre_any:
                        problems.append(
                            f"clusters[{t}][{q}]: cell {cell} hosts a pre-existing NBS"
                        )

    if problems:
        raise ValidationError(problems)


# --- JSON schema -----------------------------------------------------------


# what an error message says of an integer that `_huge` holds, in place of its digits
HUGE_INTEGER = f"an integer beyond a float's range (above {sys.float_info.max:.4g} in magnitude)"


def _huge(value: Any) -> bool:
    """Whether a JSON value is an integer beyond a float's range."""
    return type(value) is int and abs(value) > sys.float_info.max


def _shown(value: Any) -> str:
    """A JSON value as an error message names it: `HUGE_INTEGER` where
    `_huge` holds, its repr otherwise."""
    return HUGE_INTEGER if _huge(value) else repr(value)


def _is_number(value: Any, integer: bool = False) -> bool:
    """Whether a JSON value is a number, or an integer where `integer` is set.
    JSON true and false load as bool, a subclass of int, yet are no number;
    where a float is wanted, an integer must lie within a float's range."""
    if isinstance(value, float):
        return not integer
    return type(value) is int and (integer or not _huge(value))


def _expect(obj: Mapping[str, Any], key: str, kind: type, where: str) -> Any:
    name = f"{where}.{key}" if where else key
    if key not in obj:
        raise SchemaError(name, "missing required key")
    value = obj[key]
    if not (_is_number(value, kind is int) if kind in (int, float) else isinstance(value, kind)):
        got = HUGE_INTEGER if _huge(value) else type(value).__name__
        raise SchemaError(name, f"expected {kind.__name__}, got {got}")
    return float(value) if kind is float else value


def _parse_matrix(raw: Any, shape: tuple[int, int], where: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(where, "expected a rectangular array of numbers")
    if arr.ndim != 2 or arr.shape != shape:
        raise SchemaError(where, f"expected shape {shape}, got {getattr(arr, 'shape', None)}")
    # numpy would read JSON true and false as 1.0 and 0.0, and text as numbers
    if not all(_is_number(v) for row in raw for v in row):
        raise SchemaError(where, "expected a rectangular array of numbers")
    return arr


def _parse_cells(raw: Any, where: str) -> set[Cell]:
    if not isinstance(raw, list):
        raise SchemaError(where, "expected a list of [i, j] pairs")
    cells: set[Cell] = set()
    for k, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(_is_number(v, integer=True) for v in pair)):
            raise SchemaError(f"{where}[{k}]", "expected an [i, j] integer pair")
        cells.add((pair[0], pair[1]))
    return cells


def _parse_kernel(raw: Any, where: str) -> Kernel:
    if not isinstance(raw, dict):
        raise SchemaError(where, "expected an object with keys size, rows")
    size = _expect(raw, "size", list, where)
    rows = _expect(raw, "rows", list, where)
    if len(size) != 2 or not all(_is_number(v, integer=True) for v in size):
        raise SchemaError(f"{where}.size", "expected [width, height] integers")
    arr = _parse_matrix(rows, tuple(size), f"{where}.rows")
    try:
        return Kernel(arr)
    except ValueError as exc:
        raise SchemaError(where, str(exc))


def instance_from_dict(raw: Mapping[str, Any]) -> Instance:
    """Build an Instance from parsed JSON, checking the schema field by field."""
    if not isinstance(raw, Mapping):
        raise SchemaError("", "top level must be a JSON object")

    dims_raw = _expect(raw, "dims", dict, "")
    dims = GridDims(
        width=_expect(dims_raw, "width", int, "dims"),
        height=_expect(dims_raw, "height", int, "dims"),
        resolution=_expect(dims_raw, "resolution", float, "dims"),
    )

    nbs_raw = _expect(raw, "nbs", list, "")
    nbs = []
    for k, entry in enumerate(nbs_raw):
        where = f"nbs[{k}]"
        if not isinstance(entry, dict):
            raise SchemaError(where, "expected an object")
        nbs.append(
            NbsType(
                id=_expect(entry, "id", str, where),
                name=_expect(entry, "name", str, where),
                cost=_expect(entry, "cost", float, where),
            )
        )

    measures_raw = _expect(raw, "measures", list, "")
    measures = []
    for k, entry in enumerate(measures_raw):
        where = f"measures[{k}]"
        if not isinstance(entry, dict):
            raise SchemaError(where, "expected an object")
        delta = None if entry.get("delta") is None else _expect(entry, "delta", float, where)
        measures.append(
            UcMeasure(
                id=_expect(entry, "id", str, where),
                unit=_expect(entry, "unit", str, where),
                field=_parse_matrix(
                    _expect(entry, "field", list, where), dims.shape, f"{where}.field"
                ),
                delta=delta,
            )
        )

    kernels_raw = _expect(raw, "kernels", dict, "")
    kernels: dict[tuple[str, str], Kernel] = {}
    for u, by_nbs in kernels_raw.items():
        if not isinstance(by_nbs, dict):
            raise SchemaError(f"kernels.{u}", "expected an object keyed by NBS id")
        for t, kraw in by_nbs.items():
            kernels[(u, t)] = _parse_kernel(kraw, f"kernels.{u}.{t}")

    fairness_raw = _expect(raw, "fairness_kernels", dict, "")
    fairness_kernels = {
        t: _parse_kernel(kraw, f"fairness_kernels.{t}") for t, kraw in fairness_raw.items()
    }

    forbidden_raw = _expect(raw, "forbidden", dict, "")
    pre_raw = _expect(raw, "pre_existing", dict, "")
    masks = Masks(
        forbidden={t: _parse_cells(v, f"forbidden.{t}") for t, v in forbidden_raw.items()},
        pre_existing={t: _parse_cells(v, f"pre_existing.{t}") for t, v in pre_raw.items()},
    )

    population = _parse_matrix(_expect(raw, "population", list, ""), dims.shape, "population")
    total = population.sum()
    if total <= 0:
        raise SchemaError("population", "must contain positive mass")
    if np.isfinite(total) and abs(total - 1.0) > POPULATION_SUM_TOL:
        population = population / total

    budget = _expect(raw, "budget", float, "")

    weights_raw = _expect(raw, "weights", dict, "")
    peak_raw = _expect(weights_raw, "peak", dict, "weights")
    avg_raw = _expect(weights_raw, "avg", dict, "weights")
    weights = ObjectiveWeights(
        peak={u: _expect(peak_raw, u, float, "weights.peak") for u in peak_raw},
        avg={u: _expect(avg_raw, u, float, "weights.avg") for u in avg_raw},
        cost=_expect(weights_raw, "cost", float, "weights"),
        fairness=_expect(weights_raw, "fairness", float, "weights"),
    )

    clusters_raw = raw.get("clusters")
    clusters: dict[str, list[list[Cell]]] | None = None
    if clusters_raw is not None:
        if not isinstance(clusters_raw, dict):
            raise SchemaError("clusters", "expected an object or null")
        clusters = {}
        for t, groups in clusters_raw.items():
            if not isinstance(groups, list):
                raise SchemaError(f"clusters.{t}", "expected a list of clusters")
            clusters[t] = [
                sorted(_parse_cells(group, f"clusters.{t}[{q}]"))
                for q, group in enumerate(groups)
            ]

    return Instance(
        dims=dims,
        nbs=nbs,
        measures=measures,
        kernels=kernels,
        fairness_kernels=fairness_kernels,
        masks=masks,
        population=population,
        budget=budget,
        weights=weights,
        clusters=clusters,
    )


def _kernel_to_dict(kernel: Kernel) -> dict[str, Any]:
    return {
        "size": [kernel.width, kernel.height],
        "rows": kernel.entries.tolist(),
    }


def instance_to_dict(inst: Instance) -> dict[str, Any]:
    """Canonical JSON-ready dict; key and list order is deterministic."""
    return {
        "dims": {
            "width": inst.dims.width,
            "height": inst.dims.height,
            "resolution": inst.dims.resolution,
        },
        "nbs": [{"id": t.id, "name": t.name, "cost": t.cost} for t in inst.nbs],
        "measures": [
            {"id": u.id, "unit": u.unit, "field": u.field.tolist(), "delta": u.delta}
            for u in inst.measures
        ],
        "kernels": {
            u: {t: _kernel_to_dict(inst.kernels[(u, t)]) for t in inst.nbs_ids}
            for u in inst.measure_ids
        },
        "fairness_kernels": {
            t: _kernel_to_dict(inst.fairness_kernels[t]) for t in inst.nbs_ids
        },
        "forbidden": {
            t: [list(c) for c in sorted(inst.masks.forbidden[t])] for t in inst.nbs_ids
        },
        "pre_existing": {
            t: [list(c) for c in sorted(inst.masks.pre_existing[t])] for t in inst.nbs_ids
        },
        "population": inst.population.tolist(),
        "budget": inst.budget,
        "weights": {
            "peak": {u: inst.weights.peak[u] for u in inst.measure_ids},
            "avg": {u: inst.weights.avg[u] for u in inst.measure_ids},
            "cost": inst.weights.cost,
            "fairness": inst.weights.fairness,
        },
        "clusters": None
        if inst.clusters is None
        else {
            t: [[list(c) for c in group] for group in inst.clusters[t]]
            for t in sorted(inst.clusters)
        },
    }


def read_json(path: str | Path, field: str) -> Any:
    """The parsed content of a JSON file; SchemaError naming `field` (the
    file's role) when the file is not JSON text, is not UTF-8, or holds an
    integer longer than Python converts (4,300 digits by default): all
    three raise ValueError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SchemaError(field, f"not valid JSON: {exc}")


def load_instance(path: str | Path) -> Instance:
    """Load, schema-check, and validate an instance JSON file."""
    inst = instance_from_dict(read_json(path, ""))
    validate_instance(inst)
    return inst


def write_json(obj: Any, path: str | Path) -> None:
    """Write `obj` as JSON indented by 2 with a final newline: the one JSON writer."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def save_instance(inst: Instance, path: str | Path) -> None:
    """Write the canonical JSON form; numbers keep full round-trip precision."""
    write_json(instance_to_dict(inst), path)
