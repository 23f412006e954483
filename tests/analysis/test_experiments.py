"""Experiment infrastructure: scales, tables, registry, static runners."""

import pytest

from repro.experiments import (
    REGISTRY,
    get_scale,
    render_bars,
    render_table,
    run_fig8,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)
from repro.experiments.scale import SCALES


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) == {"smoke", "bench", "full"}

    def test_get_scale_by_name(self):
        assert get_scale("smoke").name == "smoke"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            get_scale("galactic")

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert get_scale().name == "smoke"

    def test_scales_are_ordered_by_budget(self):
        smoke, bench, full = (
            SCALES["smoke"],
            SCALES["bench"],
            SCALES["full"],
        )
        assert smoke.n_years <= bench.n_years <= full.n_years
        assert (
            smoke.calibration_budget
            <= bench.calibration_budget
            <= full.calibration_budget
        )
        assert smoke.population_size <= bench.population_size <= full.population_size


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [("1", "2"), ("333", "4")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(("a",), [("1", "2")])

    def test_render_bars(self):
        text = render_bars({"x": 1.0, "y": 2.0}, width=10)
        assert "##########" in text

    def test_render_bars_rejects_empty(self):
        with pytest.raises(ValueError):
            render_bars({})


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(REGISTRY) == {
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "scaling",
            "case-study",
        }

    def test_descriptions_present(self):
        for description, runner in REGISTRY.values():
            assert description
            assert callable(runner)


class TestStaticRunners:
    """The config-table runners render without any computation."""

    def test_table1(self):
        result = run_table1()
        assert "Knowledge-guided model revision" in result.render()

    def test_table2(self):
        assert "Ext5" in run_table2().render()

    def test_table3(self):
        assert "CBTP1" in run_table3().render()

    def test_table4(self):
        assert "Valk" in run_table4().render()

    def test_fig8(self):
        rendered = run_fig8().render()
        assert "S6" in rendered
        assert "Flow order" in rendered


class TestCli:
    def test_list_command(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        captured = capsys.readouterr()
        assert "table5" in captured.out

    def test_run_static_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "table1"]) == 0
        captured = capsys.readouterr()
        assert "Table I" in captured.out

    def test_unknown_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "nope"]) == 2
