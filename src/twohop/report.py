"""Capacity-scaling reports: CSV tables and a deterministic SVG plot.

The plot consumes the CSV text rather than the original estimates, so every
number it renders derives from the published table with no recomputation.
"""

from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple


class CapacityPoint(NamedTuple):
    label: str
    param_count: int
    model_kind: str
    task: str
    entropy_bits: float
    total_loss_bits: float
    content_bits: float
    bits_per_param: float
    baseline_bits: float


CSV_COLUMNS = CapacityPoint._fields
# each column from entropy_bits on is a number of bits, written at 6 decimal places
_BITS = CSV_COLUMNS.index("entropy_bits")


def capacity_table(points: list[CapacityPoint]) -> str:
    """CSV sorted by (model_kind, param_count), floats at 6 decimal places."""
    if not points:
        raise ValueError("need at least one capacity point")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for p in sorted(points, key=lambda p: (p.model_kind, p.param_count, p.label)):
        writer.writerow([*p[:_BITS], *(f"{bits:.6f}" for bits in p[_BITS:])])
    return buf.getvalue()


def parse_capacity_table(text: str) -> list[CapacityPoint]:
    return [
        CapacityPoint(row["label"], int(row["param_count"]), row["model_kind"], row["task"],
                      *(float(row[name]) for name in CSV_COLUMNS[_BITS:]))
        for row in csv.DictReader(io.StringIO(text))
    ]


_SERIES_COLORS = ["#1f6fb2", "#c2452d", "#3a8f3a", "#8456b0", "#b08a2e"]


def _xml_text(text: str) -> str:
    """``text`` as XML character data, as ``xml.sax.saxutils.escape`` gives it.

    Importing that module pulls in ``urllib.request``: about 30 ms on a
    2-vCPU box, which every command would pay, since the CLI imports this one.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def scaling_plot(csv_text: str, capacity_slopes: tuple[float, ...] = (2.0,)) -> str:
    """Render content vs parameter count as SVG with three reference curves.

    X is log-scaled parameter count, Y is content in bits. References:
    dataset entropy (horizontal), uniform-guessing baseline (horizontal),
    and one capacity line content = slope * params per requested slope.
    Output is byte-identical for identical input. The reference levels are
    shared, so every row must carry the same entropy and baseline.
    """
    points = parse_capacity_table(csv_text)
    if not points:
        raise ValueError("empty capacity table")

    entropy = points[0].entropy_bits
    baseline = points[0].baseline_bits
    if any(p.entropy_bits != entropy or p.baseline_bits != baseline for p in points):
        raise ValueError("capacity table rows disagree on entropy_bits or baseline_bits")
    xs = [p.param_count for p in points]
    x_lo = math.log10(min(xs)) - 0.2
    x_hi = math.log10(max(xs)) + 0.2
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_values = [p.content_bits for p in points] + [entropy, baseline, 0.0]
    y_lo = min(y_values)
    y_hi = max(y_values) * 1.05 + 1.0
    width, height, margin = 720, 540, 60.0

    def sx(params: float) -> float:
        t = (math.log10(params) - x_lo) / (x_hi - x_lo)
        return margin + t * (width - 2 * margin)

    def sy(bits: float) -> float:
        t = (bits - y_lo) / (y_hi - y_lo)
        return height - margin - t * (height - 2 * margin)

    def path_of(coords: list[tuple[float, float]]) -> str:
        cmds = []
        for i, (x, y) in enumerate(coords):
            cmds.append(f"{'M' if i == 0 else 'L'} {x:.2f} {y:.2f}")
        return " ".join(cmds)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="13">parameters (log scale)</text>',
        f'<text x="18" y="{height / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {height / 2:.0f})">information content (bits)</text>',
    ]

    # reference curves: entropy, baseline, capacity lines
    for name, level in (("dataset entropy", entropy), ("baseline", baseline)):
        y = sy(level)
        lines.append(
            f'<path class="reference" d="{path_of([(sx(10 ** x_lo), y), (sx(10 ** x_hi), y)])}" '
            f'stroke="#777777" stroke-dasharray="6 3" fill="none"/>'
        )
        lines.append(
            f'<text x="{width - margin - 4}" y="{y - 4:.2f}" text-anchor="end" '
            f'font-size="11" fill="#777777">{name}</text>'
        )
    # left-hand labels stack 14px apart: the slopes, then (after a gap) the series
    for si, slope in enumerate(capacity_slopes):
        coords = []
        steps = 50
        for i in range(steps + 1):
            lx = x_lo + (x_hi - x_lo) * i / steps
            bits = slope * 10**lx
            if bits > y_hi:
                bits = y_hi
            coords.append((sx(10**lx), sy(max(y_lo, bits))))
        lines.append(
            f'<path class="reference" d="{path_of(coords)}" stroke="#222222" '
            f'stroke-dasharray="3 3" fill="none"/>'
        )
        lines.append(
            f'<text x="{margin + 6}" y="{margin + 14 + 14 * si}" font-size="11" '
            f'fill="#222222">{slope:g} bits/param</text>'
        )

    groups: dict[str, list[CapacityPoint]] = {}
    for p in points:
        groups.setdefault(p.model_kind, []).append(p)
    series_y = margin + 16 + 14 * len(capacity_slopes)
    for gi, (kind, group) in enumerate(sorted(groups.items())):
        color = _SERIES_COLORS[gi % len(_SERIES_COLORS)]
        coords = [(sx(p.param_count), sy(p.content_bits)) for p in group]
        lines.append(
            f'<path class="series" d="{path_of(coords)}" stroke="{color}" '
            f'stroke-width="1.5" fill="none"/>'
        )
        for (x, y), p in zip(coords, group):
            lines.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}">'
                f"<title>{_xml_text(p.label)}</title></circle>"
            )
        lines.append(
            f'<text x="{margin + 6}" y="{series_y + 14 * gi}" font-size="11" '
            f'fill="{color}">{kind}</text>'
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
