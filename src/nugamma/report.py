"""Report documents and their table / CSV / JSON / SVG renderings.

All three text formats print every number through the same shortest
round-trip representation, so switching formats never changes numeric
content.  The payload section is a pure function of the command
arguments and the seed; metadata like the production timestamp lives
outside it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .conventions import DEFAULT_SEED  # noqa: F401  (re-exported)

_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _plain(value):
    """Plain python types for serialization: numpy scalars and arrays via
    ``tolist()``, found by their type's module so that numpy is not imported."""
    if type(value).__module__ == "numpy":
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None  # JSON has no inf/nan; absent is the undefined marker
    return value


def numstr(value) -> str:
    """One canonical text form per value, shared by all formats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class ReportDocument:
    command: str
    config: dict
    payload: list | dict
    provenance: list[str] = field(default_factory=list)
    produced_at: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat(timespec="seconds")
    )

    def tables(self) -> list[tuple[str, list[dict]]]:
        if isinstance(self.payload, dict):
            return [(name, rows) for name, rows in self.payload.items()]
        return [("table", self.payload)]

    def payload_bytes(self) -> bytes:
        """Canonical payload serialization; the determinism surface."""
        return json.dumps(_plain(self.payload)).encode()


def make_document(command: str, config: dict, payload, provenance) -> ReportDocument:
    return ReportDocument(command=command, config=_plain(config),
                          payload=_plain(payload), provenance=list(provenance))


def render_json(doc: ReportDocument) -> str:
    body = {
        "command": doc.command,
        "config": doc.config,
        "produced_at": doc.produced_at,
        "payload": doc.payload,
        "provenance": doc.provenance,
    }
    return json.dumps(body, indent=2) + "\n"


def _rows_to_cells(rows: list[dict]) -> tuple[list[str], list[list[str]]]:
    columns: list[str] = []
    for r in rows:
        for key in r:
            if key not in columns:
                columns.append(key)
    cells = [[numstr(r.get(c)) for c in columns] for r in rows]
    return columns, cells


def render_csv(doc: ReportDocument) -> str:
    lines = [f"# command: {doc.command}"]
    cfg = " ".join(f"{k}={numstr(v)}" for k, v in doc.config.items())
    lines.append(f"# config: {cfg}")
    for note in doc.provenance:
        lines.append(f"# provenance: {note}")
    multi = isinstance(doc.payload, dict)
    for name, rows in doc.tables():
        if multi:
            lines.append(f"# table: {name}")
        if not rows:
            continue
        columns, cells = _rows_to_cells(rows)
        lines.append(",".join(columns))
        for row in cells:
            lines.append(",".join(_csv_escape(c) for c in row))
    return "\n".join(lines) + "\n"


def _csv_escape(cell: str) -> str:
    if any(ch in cell for ch in ",\"\n"):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def render_table(doc: ReportDocument) -> str:
    lines = [f"{doc.command}"]
    for name, rows in doc.tables():
        if isinstance(doc.payload, dict):
            lines.append(f"-- {name} --")
        if not rows:
            lines.append("(empty)")
            continue
        columns, cells = _rows_to_cells(rows)
        widths = [max(len(c), *(len(row[j]) for row in cells)) for j, c in enumerate(columns)]
        lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    if doc.provenance:
        lines.append("")
        for note in doc.provenance:
            lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def render(doc: ReportDocument, output_format: str) -> str:
    if output_format == "json":
        return render_json(doc)
    if output_format == "csv":
        return render_csv(doc)
    if output_format == "table":
        return render_table(doc)
    raise ValueError(f"unknown output format {output_format!r}")


# ----------------------------------------------------------------------
# minimal self-contained SVG line chart
# ----------------------------------------------------------------------

_W, _H = 860, 520
_ML, _MR, _MT, _MB = 70, 30, 40, 55


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def svg_line_chart(series: list[tuple[str, list[float], list[float]]],
                   title: str, xlabel: str, ylabel: str) -> str:
    """A single-panel line chart: axes, ticks, polylines, legend."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if y is not None and math.isfinite(y)]
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
    ]
    axis = 'stroke="black" stroke-width="1"'
    parts.append(f'<line x1="{_ML}" y1="{_H-_MB}" x2="{_W-_MR}" y2="{_H-_MB}" {axis}/>')
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H-_MB}" {axis}/>')
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_H-_MB}" x2="{x:.2f}" y2="{_H-_MB+5}" {axis}/>')
        parts.append(f'<text x="{x:.2f}" y="{_H-_MB+20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{t:g}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{_ML-5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" {axis}/>')
        parts.append(f'<text x="{_ML-8}" y="{y+4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{t:g}</text>')
    parts.append(f'<text x="{(_ML+_W-_MR)/2:.1f}" y="{_H-12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="18" y="{(_MT+_H-_MB)/2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {(_MT+_H-_MB)/2:.1f})">{ylabel}</text>')

    for i, (label, xs, ys) in enumerate(series):
        color = _SVG_PALETTE[i % len(_SVG_PALETTE)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}"
            for x, y in zip(xs, ys)
            if y is not None and math.isfinite(y)
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = _MT + 16 + 18 * i
        parts.append(f'<line x1="{_W-_MR-150}" y1="{ly}" x2="{_W-_MR-120}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="1.6"/>')
        parts.append(f'<text x="{_W-_MR-114}" y="{ly+4}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
