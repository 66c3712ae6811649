"""Post-solve analysis: reduction statistics, budget breakdown, equity, exports.

The report reads the reduction and fairness fields of the placement, and the
pre-existing-only fairness field of its normalizers, from the evaluation that
`solve.check_claim` made of the result, in a solve or as `report` reads a
result file back; it applies no kernel itself.
Reduced fields are reported raw (observed minus achieved reduction); cells
that dip below zero are counted rather than clamped, since whether a measure
may physically go negative depends on its unit. Equity is summarized by the
Gini coefficient over per-cell fairness values, before (pre-existing only)
and after the solved placement.

`build_report` builds the report in the shape report.json stores it: a dict
per measure and per NBS type, with the file's keys in the file's order, so
`report_to_dict` only turns arrays into lists; `batch_stats` and
`export_heatmaps` read the same keys.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .instance import Instance, write_json
from .model import ObjectiveBreakdown
from .solve import STATUS_OPTIMAL, SolveResult

# Placement map categories (one map per NBS type; the four codes partition
# the grid) and the gray levels used for the exported images.
CAT_FORBIDDEN = 0
CAT_UNUSED = 1
CAT_PRE_EXISTING = 2
CAT_NEW = 3
CATEGORY_LABELS = {
    CAT_FORBIDDEN: "forbidden",
    CAT_UNUSED: "unused",
    CAT_PRE_EXISTING: "pre-existing",
    CAT_NEW: "new",
}
CATEGORY_GRAY = {CAT_FORBIDDEN: 64, CAT_UNUSED: 255, CAT_PRE_EXISTING: 112, CAT_NEW: 176}


def gini(values: Sequence[float] | np.ndarray) -> float:
    """Gini coefficient in [0, 1]; 0 is perfect equality.

    Mean absolute difference over twice the mean, computed via the sorted
    rank formula. The all-zero vector maps to 0.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("gini needs at least one value")
    if np.any(v < 0):
        raise ValueError("gini is undefined for negative values")
    total = v.sum()
    if total == 0.0:
        return 0.0
    v = np.sort(v)
    n = v.size
    ranks = np.arange(1, n + 1, dtype=float)
    g = 2.0 * (ranks @ v) / (n * total) - (n + 1) / n
    # rounding can push the result a few ulps outside the exact [0, 1] range
    return float(min(1.0, max(0.0, g)))


@dataclass
class Report:
    """A solve's indicators in the shape report.json stores them: one dict
    per measure and per NBS type, and the Gini before and after. A measure's
    `reduction` is an array here and a nested list in the file."""

    measures: list[dict]
    nbs: list[dict]
    gini: dict[str, float]
    objective: ObjectiveBreakdown
    placement_categories: dict[str, np.ndarray]
    metadata: dict


def build_report(inst: Instance, result: SolveResult) -> Report:
    """Summarize a checked, feasible solve result against the initial state."""
    placement, breakdown = result.placement, result.breakdown
    if breakdown is None:
        raise ValueError(f"result has no checked placement (status {result.status!r})")

    measures = []
    for u, zbar in zip(inst.measures, breakdown.reduction):
        reduced = u.field - zbar
        measures.append({
            "id": u.id,
            "initial_peak": float(u.field.max()),
            "final_peak": float(reduced.max()),
            "initial_avg": float(u.field.mean()),
            "final_avg": float(reduced.mean()),
            "negative_cells": int((reduced < 0).sum()),
            "reduction": zbar,
        })

    nbs = []
    new = placement.new_masks(inst)
    for t, count in zip(inst.nbs, new.sum(axis=(1, 2)).tolist()):
        spend = count * t.cost
        nbs.append({
            "id": t.id,
            "new_cells": count,
            "spend": spend,
            "budget_fraction": spend / inst.budget if inst.budget > 0 else 0.0,
        })

    equity = {"initial": gini(breakdown.norms.do_nothing_fairness),
              "final": gini(breakdown.fairness_field)}

    categories = np.full(new.shape, CAT_UNUSED, dtype=np.uint8)
    categories[inst.forbidden] = CAT_FORBIDDEN
    categories[new] = CAT_NEW
    categories[inst.pre_existing] = CAT_PRE_EXISTING

    return Report(
        measures=measures,
        nbs=nbs,
        gini=equity,
        objective=breakdown,
        placement_categories=dict(zip(inst.nbs_ids, categories)),
        metadata={
            "backend": result.backend,
            "status": result.status,
            "wall_time": result.wall_time,
            "objective": result.objective,
            "bound": result.bound,
        },
    )


def report_to_dict(report: Report) -> dict:
    return {
        "measures": [{**m, "reduction": m["reduction"].tolist()} for m in report.measures],
        "nbs": report.nbs,
        "gini": report.gini,
        "objective": report.objective.terms,
        "placement_categories": {
            t: cat.tolist() for t, cat in sorted(report.placement_categories.items())
        },
        "metadata": report.metadata,
    }


def write_report(report: Report, path: str | Path) -> None:
    write_json(report_to_dict(report), path)


def _safe_name(name: str) -> str:
    return name.replace("/", "_").replace("\\", "_").replace(" ", "_")


def write_matrix_csv(matrix: np.ndarray, path: Path) -> None:
    """RFC-4180 CSV, one line per grid row, '.' decimal separator."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(matrix):
            writer.writerow([repr(float(v)) for v in row])


def write_pgm(levels: np.ndarray, path: Path, comment: str = "") -> None:
    """ASCII portable graymap (P2), maxval 255; rows follow grid rows."""
    levels = np.asarray(levels, dtype=int)
    lines = ["P2"]
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"{levels.shape[1]} {levels.shape[0]}")
    lines.append("255")
    for row in levels:
        lines.append(" ".join(str(int(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_heatmaps(report: Report, directory: str | Path) -> None:
    """Write per-measure reduction CSVs and grayscale maps plus placement maps.

    Images are min-max scaled per measure; the scales used are recorded in
    heatmap_scales.json, and placement_legend.json maps category codes to
    labels and gray levels.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    scales: dict[str, dict[str, float]] = {}

    for m in report.measures:
        base, reduction = _safe_name(m["id"]), m["reduction"]
        write_matrix_csv(reduction, directory / f"reduction_{base}.csv")

        lo, hi = float(reduction.min()), float(reduction.max())
        scales[m["id"]] = {"min": lo, "max": hi}
        if hi > lo:
            levels = np.rint((reduction - lo) / (hi - lo) * 255).astype(int)
        else:
            levels = np.zeros_like(reduction, dtype=int)
        write_pgm(levels, directory / f"reduction_{base}.pgm",
                  comment=f"scale min={lo!r} max={hi!r}")

    write_json(scales, directory / "heatmap_scales.json")

    gray = np.vectorize(CATEGORY_GRAY.get, otypes=[int])
    for t, cat in sorted(report.placement_categories.items()):
        write_pgm(gray(cat), directory / f"placement_{_safe_name(t)}.pgm",
                  comment=f"placement categories for {t}")

    legend = {str(code): {"label": CATEGORY_LABELS[code], "gray": CATEGORY_GRAY[code]}
              for code in sorted(CATEGORY_LABELS)}
    write_json(legend, directory / "placement_legend.json")


def batch_stats(reports: list[Report]) -> dict:
    """Aggregate a batch of reports: timing, optimality, mean reductions."""
    if not reports:
        raise ValueError("batch_stats needs at least one report")
    n = len(reports)
    statuses = [r.metadata.get("status") for r in reports]
    wall_times = [float(r.metadata.get("wall_time") or 0.0) for r in reports]

    measure_ids = sorted({m["id"] for r in reports for m in r.measures})
    nbs_ids = sorted({t["id"] for r in reports for t in r.nbs})

    def mean(values: list[float]) -> float:
        return float(np.mean(values)) if values else 0.0

    measures = {}
    for u in measure_ids:
        peaks, avgs = [], []
        for r in reports:
            for m in r.measures:
                if m["id"] == u:
                    peaks.append(m["initial_peak"] - m["final_peak"])
                    avgs.append(m["initial_avg"] - m["final_avg"])
        measures[u] = {
            "mean_peak_reduction": mean(peaks),
            "mean_avg_reduction": mean(avgs),
        }

    nbs = {}
    for t in nbs_ids:
        fractions = [
            entry["budget_fraction"] for r in reports for entry in r.nbs if entry["id"] == t
        ]
        nbs[t] = {"mean_budget_fraction": mean(fractions)}

    return {
        "count": n,
        "mean_wall_time": mean(wall_times),
        "pct_optimal": 100.0 * sum(s == STATUS_OPTIMAL for s in statuses) / n,
        "measures": measures,
        "nbs": nbs,
        "gini": {
            "mean_initial": mean([r.gini["initial"] for r in reports]),
            "mean_final": mean([r.gini["final"] for r in reports]),
        },
    }
