"""The floodgate-experiment CLI."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestList:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_every_experiment_module_imports(self):
        import importlib

        for module_name, _ in EXPERIMENTS.values():
            module = importlib.import_module(
                f"repro.experiments.figures.{module_name}"
            )
            assert hasattr(module, "run") or module_name == "fig17_params"

    def test_fig17_has_sweeps(self):
        from repro.experiments.figures import fig17_params

        assert callable(fig17_params.run_credit_timer)
        assert callable(fig17_params.run_delay_credit)


class TestRun:
    def test_run_fig07(self, capsys):
        assert main(["run", "fig07"]) == 0
        out = capsys.readouterr().out
        assert "memcached" in out
        assert "frac_below_1kb" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestValidate:
    def test_parser_accepts_fidelity(self, monkeypatch, capsys):
        from repro.experiments import validate as harness

        calls = []

        def fake_validate(fidelities, scenarios, min_speedup, paranoid):
            calls.append((fidelities, scenarios, min_speedup, paranoid))
            return True, [], ["ok   stub"]

        monkeypatch.setattr(harness, "validate", fake_validate)
        argv = ["validate", "--fidelity", "hybrid", "--scenario", "incast256"]
        assert main(argv + ["--min-speedup", "2"]) == 0
        assert main(["validate"]) == 0
        assert calls == [
            (["hybrid"], ["incast256"], 2.0, False),
            (["flow", "hybrid"], None, None, False),
        ]
        assert "ok   stub" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--fidelity", "packet"],
            ["validate", "--tolerance", "0.2"],
        ],
    )
    def test_unknown_tier_and_retired_tolerance_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            main(argv)
