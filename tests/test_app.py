import csv
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from simplexreg import classify_ph, fit_and_grid
from simplexreg.app import (
    PH_CATEGORIES,
    CompositionColumns,
    atomic_write_text,
    barycentric_grid,
    csv_text,
    format_value,
    grid_csv_text,
    load_composition_csv,
)
from simplexreg.bandwidth import BandwidthSearch
from simplexreg.errors import EmptyDatasetError, ParseError

from conftest import random_interior_points


def write_csv(path, rows, header="sand,silt,clay,pH"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


class TestClassifyPh:
    def test_reference_values(self):
        assert classify_ph(7.0).label == "Neutral"
        assert classify_ph(4.49).label == "Extremely acidic"
        assert classify_ph(9.2).label == "Very strongly alkaline"

    def test_gap_values_close_downward(self):
        # published ranges leave gaps at 0.1 resolution (e.g. 7.3 to 7.4)
        assert classify_ph(7.35).label == "Neutral"
        assert classify_ph(7.4).label == "Slightly alkaline"
        assert classify_ph(9.05).label == "Strongly alkaline"
        assert classify_ph(9.1).label == "Very strongly alkaline"

    def test_total_and_monotone(self):
        values = np.linspace(-2.0, 14.0, 2000)
        order = {c.label: i for i, c in enumerate(PH_CATEGORIES)}
        labels = [order[classify_ph(v).label] for v in values]
        assert labels == sorted(labels)
        assert labels[0] == 0
        assert labels[-1] == len(PH_CATEGORIES) - 1

    def test_categories_partition_the_line(self):
        for left, right in zip(PH_CATEGORIES, PH_CATEGORIES[1:]):
            assert left.upper == right.lower
        assert PH_CATEGORIES[0].lower == -math.inf
        assert PH_CATEGORIES[-1].upper == math.inf

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            classify_ph(float("nan"))


class TestLoadCompositionCsv:
    def test_percent_rows_are_renormalized(self, tmp_path):
        path = tmp_path / "soil.csv"
        write_csv(path, ["40,40,20,6.5", "10,60,30,5.2"])
        loaded = load_composition_csv(path)
        assert loaded.dropped_rows == 0
        assert_allclose(loaded.design.points[0], [0.4, 0.4])
        assert_allclose(loaded.design.points[1], [0.1, 0.6])
        assert_allclose(loaded.design.responses, [6.5, 5.2])

    def test_missing_fields_are_dropped_and_counted(self, tmp_path):
        path = tmp_path / "soil.csv"
        write_csv(path, ["40,40,20,6.5", "10,60,30,", "30,,40,7.0", "25,25,50,NA"])
        loaded = load_composition_csv(path)
        assert loaded.dropped_rows == 3
        assert loaded.design.n == 1

    def test_malformed_number_raises_with_row(self, tmp_path):
        path = tmp_path / "soil.csv"
        write_csv(path, ["40,40,20,6.5", "10,sixty,30,5.0"])
        with pytest.raises(ParseError) as err:
            load_composition_csv(path)
        assert err.value.row == 3

    def test_empty_dataset_raises(self, tmp_path):
        path = tmp_path / "soil.csv"
        write_csv(path, ["40,40,20,"])
        with pytest.raises(EmptyDatasetError):
            load_composition_csv(path)

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "soil.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError):
            load_composition_csv(path)

    @pytest.mark.parametrize("row", [1, 3])
    def test_field_over_the_csv_limit_raises_with_row(self, tmp_path, row):
        rows = ["sand,silt,clay,pH", "40,40,20,6.5", "10,60,30,5.0"]
        rows[row - 1] = '"' + "9" * 131_073 + '",' + rows[row - 1]
        path = tmp_path / "soil.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            load_composition_csv(path)
        assert err.value.row == row

    def test_rows_count_lines_across_quoted_newlines(self, tmp_path):
        # a quoted newline makes record 2 end on line 3, so the bad record
        # after it is on line 4, as the csv module counts for its own errors
        path = tmp_path / "soil.csv"
        path.write_text('sand,silt,clay,pH\n40,40,20,"6.5\n"\n10,sixty,30,5.0\n')
        with pytest.raises(ParseError) as err:
            load_composition_csv(path)
        assert err.value.row == 4

    def test_custom_column_names(self, tmp_path):
        path = tmp_path / "soil.csv"
        path.write_text("S,SI,CL,ph_cacl2\n50,30,20,6.0\n")
        cols = CompositionColumns(sand="S", silt="SI", clay="CL", response="ph_cacl2")
        loaded = load_composition_csv(path, cols)
        assert_allclose(loaded.design.points[0], [0.5, 0.3])

    def test_already_normalized_rows_unchanged(self, tmp_path):
        path = tmp_path / "soil.csv"
        write_csv(path, ["0.4,0.35,0.25,6.1"])
        loaded = load_composition_csv(path)
        assert_allclose(loaded.design.points[0], [0.4, 0.35], atol=1e-12)


class TestFitAndGrid:
    def test_affine_surface_reproduced(self):
        pts = random_interior_points(60, 12)
        responses = 6.0 + 1.5 * pts[:, 0] - 0.8 * pts[:, 1]
        from simplexreg import Design

        design = Design(points=pts, responses=responses)
        result = fit_and_grid(
            design,
            search=BandwidthSearch(grid=np.geomspace(0.1, 0.8, 6), refine=False),
            grid_resolution=12,
        )
        for row in result.grid:
            expected = 6.0 + 1.5 * row.s1 - 0.8 * row.s2
            assert row.estimate == pytest.approx(expected, abs=1e-6)
            assert row.category is not None

    def test_constant_surface_single_category(self):
        pts = random_interior_points(30, 5)
        from simplexreg import Design

        design = Design(points=pts, responses=np.full(30, 6.8))
        result = fit_and_grid(
            design,
            search=BandwidthSearch(grid=np.geomspace(0.2, 0.8, 4), refine=False),
            grid_resolution=8,
        )
        labels = {row.category.label for row in result.grid}
        assert labels == {"Neutral"}


class TestGridExport:
    def test_barycentric_grid_covers_simplex(self):
        grid = barycentric_grid(10)
        assert grid.shape == (66, 2)
        assert np.all(grid >= 0.0)
        assert np.all(grid.sum(axis=1) <= 1.0 + 1e-12)

    def test_csv_round_trip_12_digits(self, tmp_path):
        pts = random_interior_points(25, 2)
        from simplexreg import Design

        design = Design(points=pts, responses=5.0 + pts[:, 0])
        result = fit_and_grid(
            design,
            search=BandwidthSearch(grid=np.geomspace(0.2, 0.8, 3), refine=False),
            grid_resolution=6,
        )
        text = grid_csv_text(result.grid)
        path = tmp_path / "grid.csv"
        atomic_write_text(path, text)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0].keys()) == ["s1", "s2", "s3", "estimate", "category"]
        for parsed, row in zip(rows, result.grid):
            for name, value in (
                ("s1", row.s1),
                ("s2", row.s2),
                ("s3", row.s3),
                ("estimate", row.estimate),
            ):
                scale = max(1.0, abs(value))
                assert abs(float(parsed[name]) - value) < 1e-11 * scale
            assert parsed["category"] == row.category.label

    def test_format_value_significant_digits(self):
        assert float(format_value(1 / 3)) == pytest.approx(1 / 3, abs=1e-12)
        assert format_value(0.25) == "0.25"

    def test_csv_text_passes_strings_and_formats_numbers(self):
        rows = [("m1", "28", 1 / 3, np.float64(2.5)), ("m4", "55", np.nan, 7)]
        text = csv_text("function,n,mean,value", rows)
        assert text == "function,n,mean,value\nm1,28,0.333333333333,2.5\nm4,55,nan,7\n"
        assert csv_text("b,value", []) == "b,value\n"
