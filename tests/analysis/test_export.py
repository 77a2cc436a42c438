"""CSV/JSON exports."""

import json

import numpy as np
import pytest

from repro.obs.export import rows_to_csv, rows_to_json, write_rows


ROWS = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}]


class TestCSV:
    def test_header_and_rows(self):
        text = rows_to_csv(ROWS)
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"
        assert len(lines) == 3

    def test_column_selection(self):
        text = rows_to_csv(ROWS, columns=["b"])
        assert text.strip().splitlines()[0] == "b"

    def test_empty(self):
        assert rows_to_csv([]) == ""

    def test_empty_with_columns_keeps_header(self):
        # A zero-event export must stay a parseable CSV, not vanish.
        text = rows_to_csv([], columns=["kind", "ts", "actor"])
        assert text.strip() == "kind,ts,actor"

    def test_write_rows_empty_csv_with_columns(self, tmp_path):
        path = write_rows([], tmp_path / "empty.csv", columns=["a", "b"])
        assert path.read_text().strip() == "a,b"


class TestJSON:
    def test_roundtrip(self):
        assert json.loads(rows_to_json(ROWS)) == ROWS

    def test_numpy_scalars_coerced(self):
        rows = [{"x": np.float64(1.5), "n": np.int64(3)}]
        assert json.loads(rows_to_json(rows)) == [{"x": 1.5, "n": 3}]


class TestWriteRows:
    def test_csv_suffix(self, tmp_path):
        path = write_rows(ROWS, tmp_path / "out.csv")
        assert path.read_text().startswith("a,b")

    def test_json_suffix(self, tmp_path):
        path = write_rows(ROWS, tmp_path / "out.json")
        assert json.loads(path.read_text()) == ROWS

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_rows(ROWS, tmp_path / "out.xlsx")


class TestLaTeX:
    def test_tabular_structure(self):
        from repro.obs.export import rows_to_latex

        tex = rows_to_latex(ROWS)
        assert tex.startswith("\\begin{tabular}{ll}")
        assert "\\toprule" in tex and "\\bottomrule" in tex
        assert "1 & 2.50 \\\\" in tex

    def test_table_environment_with_caption(self):
        from repro.obs.export import rows_to_latex

        tex = rows_to_latex(ROWS, caption="Results", label="tab:x")
        assert "\\begin{table}[t]" in tex
        assert "\\caption{Results}" in tex
        assert "\\label{tab:x}" in tex

    def test_escaping(self):
        from repro.obs.export import rows_to_latex

        tex = rows_to_latex([{"name": "a_b & 50%"}])
        assert "a\\_b \\& 50\\%" in tex

    def test_none_and_bool(self):
        from repro.obs.export import rows_to_latex

        tex = rows_to_latex([{"a": None, "b": True}])
        assert "-- & yes" in tex

    def test_header_override(self):
        from repro.obs.export import rows_to_latex

        tex = rows_to_latex(ROWS, headers={"a": "Alpha"})
        assert "Alpha & b" in tex

    def test_empty(self):
        from repro.obs.export import rows_to_latex

        assert rows_to_latex([]).startswith("%")

    def test_write_tex_suffix(self, tmp_path):
        from repro.obs.export import write_rows

        path = write_rows(ROWS, tmp_path / "t.tex")
        assert path.read_text().startswith("\\begin{tabular}")
