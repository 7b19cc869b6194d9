import dataclasses
import re

import pytest

from twohop.report import (
    CSV_COLUMNS,
    CapacityPoint,
    capacity_table,
    parse_capacity_table,
    scaling_plot,
)


def _point(label, params, kind="2f", content=1.0e6):
    return CapacityPoint(
        label=label,
        param_count=params,
        model_kind=kind,
        task="two-hop",
        entropy_bits=5.0e6,
        total_loss_bits=5.0e6 - content,
        content_bits=content,
        bits_per_param=content / params,
        baseline_bits=4.0e4,
    )


class TestTable:
    def test_header_and_rows(self):
        text = capacity_table([_point("a", 1000)])
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        assert lines[1].startswith("a,1000,2f,two-hop,5000000.000000,")

    def test_sorted_by_kind_then_params(self):
        points = [
            _point("big", 10**6),
            _point("small", 10**4),
            _point("other", 10**5, kind="independent"),
        ]
        labels = [p.label for p in parse_capacity_table(capacity_table(points))]
        assert labels == ["small", "big", "other"]

    def test_round_trip(self):
        points = [_point("a", 1000), _point("b", 2000, content=2.5e6)]
        parsed = parse_capacity_table(capacity_table(points))
        assert [p.param_count for p in parsed] == [1000, 2000]
        assert parsed[1].content_bits == pytest.approx(2.5e6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            capacity_table([])


class TestPlot:
    def test_deterministic(self):
        csv_text = capacity_table([_point("a", 10**4), _point("b", 10**6)])
        assert scaling_plot(csv_text) == scaling_plot(csv_text)

    def test_reference_and_series_counts(self):
        csv_text = capacity_table(
            [_point("a", 10**4), _point("b", 10**6), _point("c", 10**5, kind="recurrent")]
        )
        svg = scaling_plot(csv_text, capacity_slopes=(2.0, 1.6))
        # entropy + baseline + one line per slope
        assert svg.count('class="reference"') == 4
        # one series per model kind
        assert svg.count('class="series"') == 2
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_labels_present(self):
        csv_text = capacity_table([_point("a", 10**4)])
        svg = scaling_plot(csv_text)
        assert "dataset entropy" in svg
        assert "baseline" in svg
        assert "2 bits/param" in svg

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scaling_plot(",".join(CSV_COLUMNS) + "\n")

    def test_left_labels_stack(self):
        def left_label_ys(svg):
            return re.findall(r'<text x="66.0" y="([0-9.]+)"', svg)

        points = [_point("a", 10**4), _point("c", 10**5, kind="recurrent")]
        csv_text = capacity_table(points)
        # one slope keeps the original positions
        assert left_label_ys(scaling_plot(csv_text)) == ["74.0", "90.0", "104.0"]
        ys = left_label_ys(scaling_plot(csv_text, capacity_slopes=(2.0, 1.6)))
        assert ys == ["74.0", "88.0", "104.0", "118.0"]

    @pytest.mark.parametrize("field", ["entropy_bits", "baseline_bits"])
    def test_mixed_reference_levels_rejected(self, field):
        odd = dataclasses.replace(_point("b", 10**5, kind="recurrent"), **{field: 1.0})
        with pytest.raises(ValueError, match="disagree"):
            scaling_plot(capacity_table([_point("a", 10**4), odd]))
