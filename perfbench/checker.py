"""Independent checker for placements and MPS files, written from the docs.

It reads only the instance's data (fields, kernels, masks, clusters,
population, budget, weights) and recomputes everything with its own NumPy
code: zero-padded windowed kernel sums, the `zbar = min(z, delta)` cap, the
peak, mean, cost and fairness terms, and their normalizers as the project
README and `docs/formats.md` define them. It imports nothing from
`nbsopt.engine` or `nbsopt.model`, so it can judge their output.

A placement is a mapping from NBS id to a boolean occupancy grid that
includes the pre-existing cells, the shape `engine.Placement.masks` has.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REL_TOL = 1e-6
FEAS_TOL = 1e-9
ROW_TOL = 1e-7
DEGENERATE = 1e-12


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def correlate(field: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """out[i, j] = sum_ab kernel[a, b] * field[i + a - cw, j + b - ch], zero padded."""
    kernel = np.asarray(kernel, dtype=float)
    cw, ch = kernel.shape[0] // 2, kernel.shape[1] // 2
    padded = np.pad(np.asarray(field, dtype=float), ((cw, cw), (ch, ch)))
    windows = sliding_window_view(padded, kernel.shape)
    return np.einsum("ijab,ab->ij", windows, kernel)


def _grid(shape: tuple[int, int], cells) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    for i, j in cells:
        mask[i, j] = True
    return mask


class Checker:
    """Feasibility and objective of placements on one instance."""

    def __init__(self, inst):
        self.inst = inst
        self.shape = (inst.dims.width, inst.dims.height)
        self.types = [t.id for t in inst.nbs]
        self.cost = {t.id: float(t.cost) for t in inst.nbs}
        self.measures = [u.id for u in inst.measures]
        self.field = {u.id: np.asarray(u.field, dtype=float) for u in inst.measures}
        self.delta = {
            u.id: 0.2 * float(self.field[u.id].max()) if u.delta is None else float(u.delta)
            for u in inst.measures
        }
        self.kernel = {key: np.asarray(k.entries) for key, k in inst.kernels.items()}
        self.fair_kernel = {t: np.asarray(k.entries) for t, k in inst.fairness_kernels.items()}
        self.forbidden = {t: _grid(self.shape, inst.masks.forbidden[t]) for t in self.types}
        self.pre = {t: _grid(self.shape, inst.masks.pre_existing[t]) for t in self.types}
        self.clusters = {
            t: [list(map(tuple, g)) for g in (inst.clusters or {}).get(t, [])]
            for t in self.types
        }
        self.population = np.asarray(inst.population, dtype=float)
        self.budget = float(inst.budget)
        self.weights = inst.weights

        field_max = {u: float(f.max()) for u, f in self.field.items()}
        self.peak_scale = {u: 1.0 / m if m > DEGENERATE else 1.0 for u, m in field_max.items()}
        self.cost_scale = 1.0 / self.budget if self.budget > 0 else 1.0
        self.fair_min = self.fairness_total(self.do_nothing())
        fair_max = self.fair_min
        for t in self.types:
            alone = {s: np.zeros(self.shape, dtype=bool) for s in self.types}
            alone[t] = ~self.forbidden[t]
            fair_max = max(fair_max, self.fairness_total(alone))
        spread = fair_max - self.fair_min
        self.fair_scale = 1.0 / spread if spread > DEGENERATE else 1.0

    def do_nothing(self) -> dict[str, np.ndarray]:
        return {t: self.pre[t].copy() for t in self.types}

    def new(self, masks, t: str) -> np.ndarray:
        return np.asarray(masks[t], dtype=bool) & ~self.pre[t]

    def impact(self, masks, u: str) -> np.ndarray:
        """Raw impact z of the newly installed cells on measure u."""
        z = np.zeros(self.shape)
        for t in self.types:
            z += correlate(self.new(masks, t), self.kernel[(u, t)])
        return z

    def fairness_field(self, masks) -> np.ndarray:
        acc = np.zeros(self.shape)
        for t in self.types:
            acc += correlate(np.asarray(masks[t], dtype=bool), self.fair_kernel[t])
        return self.population * acc

    def fairness_total(self, masks) -> float:
        return float(self.fairness_field(masks).sum())

    def spend(self, masks) -> float:
        return sum(self.cost[t] * int(self.new(masks, t).sum()) for t in self.types)

    def reduced(self, masks, u: str) -> np.ndarray:
        return self.field[u] - np.minimum(self.impact(masks, u), self.delta[u])

    def violations(self, masks) -> list[str]:
        """Names of the constraint families the placement breaks."""
        found = []
        stack = sum(np.asarray(masks[t], dtype=int) for t in self.types)
        if (stack > 1).any():
            found.append("one_type")
        if self.spend(masks) > self.budget * (1 + FEAS_TOL) + FEAS_TOL:
            found.append("budget")
        if any((np.asarray(masks[t], dtype=bool) & self.forbidden[t]).any() for t in self.types):
            found.append("forbidden")
        if any((self.pre[t] & ~np.asarray(masks[t], dtype=bool)).any() for t in self.types):
            found.append("pre_existing")
        for t in self.types:
            for group in self.clusters[t]:
                if len({bool(masks[t][i, j]) for i, j in group}) > 1:
                    found.append("cluster")
                    break
        if any(self.reduced(masks, u).mean() < -FEAS_TOL for u in self.measures):
            found.append("avg_nonneg")
        return found

    def objective(self, masks) -> float:
        w = self.weights
        total = 0.0
        for u in self.measures:
            reduced = self.reduced(masks, u)
            peak = max(0.0, float(reduced.max()))
            total += self.peak_scale[u] * (w.peak[u] * peak + w.avg[u] * float(reduced.mean()))
        total += w.cost * self.cost_scale * self.spend(masks)
        total -= w.fairness * self.fair_scale * (self.fairness_total(masks) - self.fair_min)
        return total

    def verify(self, masks, reported: float) -> float:
        """Raise unless the placement is feasible and `reported` is its objective."""
        broken = self.violations(masks)
        if broken:
            raise CheckFailed(f"placement violates {', '.join(broken)}")
        value = self.objective(masks)
        if not close(value, reported):
            raise CheckFailed(f"objective {reported!r} reported, {value!r} recomputed")
        return value

    def greedy(self) -> dict[str, np.ndarray]:
        """A feasible placement built one cell at a time.

        Cells are visited from the highest observed value of the first measure
        down; each gets the cheapest NBS type allowed there (clusters stay off)
        when that keeps the placement feasible and lowers the objective.
        """
        u = self.measures[0]
        clustered = {t: _grid(self.shape, [c for g in self.clusters[t] for c in g]) for t in self.types}
        occupied = sum(self.pre[t].astype(int) for t in self.types) > 0
        by_cost = sorted(self.types, key=lambda t: (self.cost[t], t))
        masks = self.do_nothing()
        best = self.objective(masks)
        spent = 0.0
        flat = np.argsort(-self.field[u], axis=None, kind="stable")
        for cell in flat:
            i, j = divmod(int(cell), self.shape[1])
            if occupied[i, j]:
                continue
            for t in by_cost:
                if self.forbidden[t][i, j] or clustered[t][i, j]:
                    continue
                if spent + self.cost[t] > self.budget:
                    break
                masks[t][i, j] = True
                value = self.objective(masks)
                if value < best and not self.violations(masks):
                    best, spent = value, spent + self.cost[t]
                    occupied[i, j] = True
                else:
                    masks[t][i, j] = False
                break
        return masks

    def scattered(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """A random feasible placement spending about a fifth of the budget.

        New cells of the cheapest unclustered type are drawn from the eligible
        cells; the first cluster of each clustered type is switched on whole
        when it fits the remaining budget.
        """
        masks = self.do_nothing()
        occupied = sum(self.pre[t].astype(int) for t in self.types) > 0
        cap = 0.2 * self.budget
        spent = 0.0
        for t in self.types:
            if self.clusters[t]:
                group = self.clusters[t][0]
                if spent + self.cost[t] * len(group) <= cap:
                    for i, j in group:
                        masks[t][i, j] = occupied[i, j] = True
                    spent += self.cost[t] * len(group)
        plain = [t for t in self.types if not self.clusters[t]]
        t = min(plain, key=lambda s: (self.cost[s], s))
        free = np.flatnonzero((~self.forbidden[t] & ~occupied).ravel())
        for cell in rng.permutation(free):
            if spent + self.cost[t] > cap:
                break
            masks[t][divmod(int(cell), self.shape[1])] = True
            spent += self.cost[t]
        if self.violations(masks):
            raise CheckFailed(f"drawn placement is infeasible: {self.violations(masks)}")
        return masks


# --- MPS files ---------------------------------------------------------------


def expected_counts(inst) -> tuple[int, int]:
    """Closed-form (columns, rows) of the paper formulation for an instance."""
    g = inst.dims.width * inst.dims.height
    n_t, n_u = len(inst.nbs), len(inst.measures)
    groups = [grp for t in inst.nbs for grp in (inst.clusters or {}).get(t.id, [])]
    columns = g * n_t + 3 * g * n_u + 2 * n_u + g + len(groups)
    rows = (
        g
        + 1
        + sum(len(inst.masks.forbidden[t.id]) for t in inst.nbs)
        + sum(len(inst.masks.pre_existing[t.id]) for t in inst.nbs)
        + sum(len(grp) for grp in groups)
        + 8 * g * n_u
        + n_u
        + g
    )
    return columns, rows


def lift(checker: Checker, masks) -> dict[str, float]:
    """Column values of the MILP at a placement, named as docs/formats.md says."""
    w, h = checker.shape
    values: dict[str, float] = {}

    def put(prefix: str, grid: np.ndarray) -> None:
        for i in range(w):
            for j in range(h):
                values[f"{prefix}_i{i}_j{j}"] = float(grid[i, j])

    for ti, t in enumerate(checker.types):
        put(f"x_t{ti}", np.asarray(masks[t], dtype=float))
    reduced = {}
    for ui, u in enumerate(checker.measures):
        z = checker.impact(masks, u)
        zbar = np.minimum(z, checker.delta[u])
        put(f"y_u{ui}", (z <= checker.delta[u]).astype(float))
        put(f"z_u{ui}", z)
        put(f"zbar_u{ui}", zbar)
        reduced[ui] = checker.field[u] - zbar
    for ui in reduced:
        values[f"zmax_u{ui}"] = max(0.0, float(reduced[ui].max()))
    for ui in reduced:
        values[f"zavg_u{ui}"] = float(reduced[ui].mean())
    put("f", checker.fairness_field(masks))
    for ti, t in enumerate(checker.types):
        for q, group in enumerate(checker.clusters[t]):
            i, j = group[0]
            values[f"lam_t{ti}_q{q}"] = float(bool(masks[t][i, j]))
    return values


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_mps(path: Path, values: dict[str, float]) -> dict[str, float]:
    """Stream an MPS file and evaluate every row at the given column values.

    Raises CheckFailed when a row, a bound or an integrality marker is broken
    or a column is unknown. Returns the row and column counts and the
    objective value (objective row plus the constant encoded in RHS).
    """
    row_index: dict[str, int] = {}
    senses: list[str] = []
    objective_row = None
    activity: list[float] = []
    magnitude: list[float] = []
    rhs: dict[int, float] = {}
    objective = 0.0
    constant = 0.0
    columns = 0
    current = None
    integer = False
    section = ""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line[0].isspace():
                section = line.split()[0]
                continue
            tokens = line.split()
            if section == "COLUMNS":
                if tokens[1] == "'MARKER'":
                    integer = tokens[2] == "'INTORG'"
                    continue
                name = tokens[0]
                if name != current:
                    current = name
                    columns += 1
                    x = values.get(name)
                    if x is None:
                        raise CheckFailed(f"column {name!r} is not in the documented layout")
                    if x < -ROW_TOL:
                        raise CheckFailed(f"column {name!r} lifted below its lower bound 0")
                    if integer and x != round(x):
                        raise CheckFailed(f"integer column {name!r} lifted to {x!r}")
                if x == 0.0:
                    continue
                term = x * float(tokens[2])
                if tokens[1] == objective_row:
                    objective += term
                else:
                    r = row_index[tokens[1]]
                    activity[r] += term
                    magnitude[r] += abs(term)
            elif section == "ROWS":
                if tokens[0] == "N":
                    objective_row = tokens[1]
                    continue
                row_index[tokens[1]] = len(senses)
                senses.append(tokens[0])
                activity.append(0.0)
                magnitude.append(0.0)
            elif section == "RHS":
                if tokens[1] == objective_row:
                    constant = -float(tokens[2])
                else:
                    rhs[row_index[tokens[1]]] = float(tokens[2])
            elif section == "BOUNDS":
                x = values[tokens[2]]
                if tokens[0] == "BV" and x not in (0.0, 1.0):
                    raise CheckFailed(f"binary {tokens[2]!r} lifted to {x!r}")
                if tokens[0] == "UP" and x > float(tokens[3]) + ROW_TOL:
                    raise CheckFailed(f"{tokens[2]!r} above its upper bound")
                if tokens[0] == "LO" and x < float(tokens[3]) - ROW_TOL:
                    raise CheckFailed(f"{tokens[2]!r} below its lower bound")
    if columns != len(values):
        raise CheckFailed(f"file has {columns} columns, layout has {len(values)}")
    for name, r in row_index.items():
        b = rhs.get(r, 0.0)
        slack = activity[r] - b
        tol = ROW_TOL * max(1.0, abs(b), magnitude[r])
        sense = senses[r]
        if (sense == "L" and slack > tol) or (sense == "G" and slack < -tol) or (
            sense == "E" and abs(slack) > tol
        ):
            raise CheckFailed(f"row {name!r} ({sense}) broken: activity {activity[r]!r}, rhs {b!r}")
    return {"rows": len(senses), "columns": columns, "objective": objective + constant}
