"""Plain-text result tables in the shape of the paper's figures.

Each evaluation figure boils down to "latency percentiles (or throughput)
per strategy, per configuration"; :func:`format_table` renders exactly that,
and :func:`format_comparison` adds the paper-style speedup factors
("Hybrid reduces the median latency by N x vs BL1").
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.remote.transport import TRANSPORT_FAULT_COUNTER_KEYS
from repro.strategies.base import DEGRADATION_COUNTER_KEYS

__all__ = [
    "format_table",
    "format_comparison",
    "speedups",
    "format_fault_summary",
    "format_health_report",
    "FAULT_COLUMNS",
]

# Degradation counters surfaced by faulted runs (summary() key names).
# Derived from the single-source-of-truth counter tuples so a renamed
# counter cannot silently drop out of the fault table.
FAULT_COLUMNS = (
    "strategy",
    *(f"fetch.{key}" for key in DEGRADATION_COUNTER_KEYS),
    *(f"transport.{key}" for key in TRANSPORT_FAULT_COUNTER_KEYS),
)


def format_table(
    title: str,
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str],
    float_format: str = "{:.2f}",
) -> str:
    """Render ``rows`` (dicts) as an aligned text table with a title rule."""
    header = [str(column) for column in columns]
    rendered: list[list[str]] = [header]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [max(len(line[i]) for line in rendered) for i in range(len(header))]
    lines = [title, "=" * max(len(title), sum(widths) + 2 * (len(widths) - 1))]
    for index, cells in enumerate(rendered):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(cells, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def speedups(
    rows: Sequence[Mapping[str, Any]],
    metric: str,
    subject: str = "Hybrid",
    higher_is_better: bool = False,
) -> dict[str, float]:
    """Improvement factor of ``subject`` over each other strategy.

    For latency-like metrics (default) this is ``baseline / subject``; for
    throughput-like metrics pass ``higher_is_better=True`` to get
    ``subject / baseline``.  Values > 1 always mean the subject wins.  Rows
    missing the metric (or zero-valued denominators) are skipped.
    """
    by_name = {row["strategy"]: row for row in rows if metric in row}
    if subject not in by_name:
        return {}
    subject_value = by_name[subject][metric]
    factors = {}
    for name, row in by_name.items():
        if name == subject:
            continue
        baseline_value = row[metric]
        if higher_is_better:
            if baseline_value:
                factors[name] = subject_value / baseline_value
        elif subject_value:
            factors[name] = baseline_value / subject_value
    return factors


def format_comparison(
    rows: Sequence[Mapping[str, Any]],
    metric: str = "p50",
    subject: str = "Hybrid",
    higher_is_better: bool = False,
) -> str:
    """One-line summary of subject-vs-baseline improvement factors."""
    factors = speedups(rows, metric, subject=subject, higher_is_better=higher_is_better)
    if not factors:
        return f"(no {metric} comparison available)"
    parts = [f"{name}: {factor:.1f}x" for name, factor in sorted(factors.items())]
    return f"{subject} {metric} improvement - " + ", ".join(parts)


def format_fault_summary(rows: Sequence[Mapping[str, Any]], title: str = "Fault tolerance") -> str:
    """Table of the degradation counters for a faulted comparison run."""
    columns = [
        column
        for column in FAULT_COLUMNS
        if column == "strategy" or any(row.get(column) for row in rows)
    ]
    if columns == ["strategy"]:
        return f"{title}: no faults observed"
    return format_table(title, rows, columns, float_format="{:.0f}")


def format_health_report(
    title: str,
    summary: Mapping[str, Any],
    attribution: Mapping[str, Any],
    slo_status: Mapping[str, Any] | None = None,
    replay: Mapping[str, Any] | None = None,
    series_samples: int | None = None,
) -> str:
    """The ``repro.cli report`` health report, as plain diffable text.

    ``attribution`` is :func:`repro.obs.spans.aggregate_spans` output;
    ``slo_status`` is :meth:`repro.obs.slo.SloPlane.status` output;
    ``replay`` is :func:`repro.obs.provenance.replay_trace` output.  Every
    section degrades gracefully when its input is absent.
    """
    lines = [title, "=" * len(title)]
    headline = [f"matches={summary.get('matches', '?')}"]
    quantile_keys = [key for key in summary if key.startswith("p") and key[1:].isdigit()]
    for key in sorted(quantile_keys, key=lambda name: int(name[1:])):
        headline.append(f"{key}={summary[key]}us")
    if "throughput_eps" in summary:
        headline.append(f"throughput={summary['throughput_eps']} ev/s")
    lines.append("  ".join(headline))
    lines.append("")

    span_rows = [
        {
            "component": name,
            "total_us": data["total"],
            "mean_us": data["mean"],
            "share": data["share"],
        }
        for name, data in attribution.get("components", {}).items()
    ]
    if attribution.get("matches"):
        lines.append(
            format_table(
                f"Latency attribution ({attribution['matches']} matches, "
                f"{attribution['latency_total']:.1f}us total)",
                span_rows,
                ("component", "total_us", "mean_us", "share"),
                float_format="{:.3f}",
            )
        )
    else:
        lines.append("Latency attribution: no matches (no spans to fold)")
    lines.append("")

    if slo_status is not None:
        objectives = slo_status.get("objectives", {})
        if objectives:
            slo_rows = [
                {
                    "objective": name,
                    "target": data["target"],
                    "burn": data["burn"],
                    "status": "OK" if data["ok"] else "BREACH",
                }
                for name, data in objectives.items()
            ]
            lines.append(
                format_table(
                    f"SLO status (worst burn {slo_status['worst_burn']:.3f})",
                    slo_rows,
                    ("objective", "target", "burn", "status"),
                    float_format="{:.3f}",
                )
            )
        else:
            lines.append("SLO status: no objectives declared")
        lines.append("")

    if series_samples is not None:
        lines.append(f"Series: {series_samples} samples")
    if replay is not None:
        lines.append(
            f"Provenance replay: {replay.get('checked_spans', 0)} spans, "
            f"{replay.get('checked_eq7', 0)} Eq.7, {replay.get('checked_eq8', 0)} Eq.8, "
            f"{replay.get('checked_shed', 0)} shed decisions; "
            f"{len(replay.get('problems', ()))} inconsistencies"
        )
    return "\n".join(line for line in lines if line is not None)
