"""Unit tests for the bench reporting layer."""

from __future__ import annotations

import pytest

from repro.bench import (
    Row,
    ShapeCheck,
    check_shapes,
    render_table,
    size_label,
)


class TestSizeLabel:
    @pytest.mark.parametrize("nbytes,label", [
        (1024, "1KB"),
        (2048, "2KB"),
        (524288, "512KB"),
        (1 << 20, "1MB"),
        (100, "100B"),
        (1536, "1536B"),
    ])
    def test_labels(self, nbytes, label):
        assert size_label(nbytes) == label


class TestRenderTable:
    def test_series_columns_size_rows(self):
        rows = [
            Row("x", "A", 1024, 1.0, "us"),
            Row("x", "B", 1024, 2.0, "us"),
            Row("x", "A", 2048, 3.0, "us"),
            Row("x", "B", 2048, 4.0, "us"),
        ]
        text = render_table(rows, "title")
        lines = text.splitlines()
        assert lines[0] == "title"
        assert "A" in lines[1] and "B" in lines[1]
        assert any("1KB" in line for line in lines)
        assert any("2KB" in line for line in lines)

    def test_missing_cell_renders_dash(self):
        rows = [
            Row("x", "A", 1024, 1.0, "us"),
            Row("x", "B", 2048, 4.0, "us"),
        ]
        text = render_table(rows)
        assert "-" in text.splitlines()[-1]

    def test_empty(self):
        assert "(no data)" in render_table([], "t")

    def test_series_order_preserved(self):
        rows = [
            Row("x", "Z", 1024, 1.0, "us"),
            Row("x", "A", 1024, 2.0, "us"),
        ]
        header = render_table(rows).splitlines()[0]
        assert header.index("Z") < header.index("A")


class TestShapeChecks:
    def test_check_evaluates_predicate_over_table(self):
        rows = [
            Row("x", "A", 1024, 10.0, "us"),
            Row("x", "A", 2048, 20.0, "us"),
        ]
        check = ShapeCheck("doubles", lambda t: t["A"][2048] == 2 * t["A"][1024])
        assert check.evaluate(rows)

    def test_check_shapes_returns_pairs(self):
        rows = [Row("x", "A", 1024, 5.0, "us")]
        results = check_shapes(rows, [
            ShapeCheck("pass", lambda t: True),
            ShapeCheck("fail", lambda t: False),
        ])
        assert results == [("pass", True), ("fail", False)]


class TestRowProperties:
    def test_size_label_property(self):
        assert Row("x", "s", 4096, 1.0, "us").size_label == "4KB"

    def test_extra_payload(self):
        row = Row("x", "s", 1, 1.0, "us", extra={"link": (0, 1)})
        assert row.extra["link"] == (0, 1)
