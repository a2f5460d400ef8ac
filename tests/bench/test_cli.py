"""Smoke tests for the CLI report (`python -m repro.bench`)."""

from __future__ import annotations

import pytest

from repro.bench.__main__ import main
from repro.bench.figures import FIGURES, run_figure


class TestFigures:
    def test_registry_covers_evaluation(self):
        for name in ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                     "fig12", "sec5.3", "sec5.4"):
            assert name in FIGURES

    def test_run_figure_returns_series(self):
        series_list = run_figure("fig6")
        assert len(series_list) == 1
        s = series_list[0]
        assert s.x and all(v is not None for v in s.column("V"))

    def test_fig10_returns_three_environments(self):
        # use the callable directly with a tiny sweep to stay fast
        out = FIGURES["fig10"](sizes=(256,))
        assert len(out) == 3


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "sec5.4" in out

    def test_unknown_figure_errors(self):
        with pytest.raises(SystemExit):
            main(["figZZ"])

    def test_single_figure_prints_table(self, capsys):
        assert main(["sec5.4"]) == 0
        out = capsys.readouterr().out
        assert "S5.4" in out and "%" in out
