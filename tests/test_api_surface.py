"""API-surface tests: every documented public symbol exists and works.

Guards the re-export wiring across package ``__init__`` modules — a
regression here means downstream imports break even though the unit
tests of the underlying modules still pass.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest


class TestTopLevel:
    def test_all_resolvable_and_sane(self):
        import repro

        for name in repro.__all__:
            value = getattr(repro, name)
            assert value is not None, name

    def test_key_callables(self):
        import repro

        for name in (
            "solve",
            "generate",
            "find_best_channel",
            "solve_optimal",
            "solve_conflict_free",
            "solve_prim",
            "validate_solution",
            "simulate_solution",
            "improve_solution",
            "repair_solution",
            "route_groups",
            "real_world_network",
            "topology_stats",
        ):
            assert callable(getattr(repro, name)), name

    def test_import_leaves_networkx_unloaded(self):
        """Only the functions that use networkx import it."""
        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        code = "import sys, repro; sys.exit('networkx' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert result.returncode == 0


class TestSubpackageSurfaces:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.network",
            "repro.topology",
            "repro.core",
            "repro.baselines",
            "repro.quantum",
            "repro.sim",
            "repro.analysis",
            "repro.extensions",
            "repro.experiments",
        ],
    )
    def test_all_exports_resolve(self, module_name):
        module = __import__(module_name, fromlist=["__all__"])
        assert hasattr(module, "__all__") or module_name == "repro.experiments"
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_solver_registry_is_complete(self):
        from repro.core.registry import DISPLAY_NAMES, SOLVERS

        expected = {
            "optimal",
            "conflict_free",
            "prim",
            "alg2",
            "alg3",
            "alg4",
            "eqcast",
            "nfusion",
            "random_tree",
            "steiner_naive",
            "exact",
        }
        assert expected <= set(SOLVERS)
        assert expected <= set(DISPLAY_NAMES)

    def test_experiment_catalog_is_complete(self):
        from repro.experiments.catalog import EXPERIMENTS

        expected = {
            "fig5",
            "fig6a",
            "fig6b",
            "fig7a",
            "fig7b",
            "fig8a",
            "fig8b",
            "headline",
            "ablation-retention",
            "ablation-prim-seed",
            "ablation-fusion-penalty",
            "ext-localsearch",
            "ext-online-load",
            "scaling",
        }
        assert expected == set(EXPERIMENTS)

    def test_topology_generators_complete(self):
        from repro.topology.registry import GENERATORS

        assert {
            "waxman",
            "watts_strogatz",
            "volchenkov",
            "erdos_renyi",
        } == set(GENERATORS)


class TestDocstringDiscipline:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.core.channel",
            "repro.core.optimal",
            "repro.core.conflict_free",
            "repro.core.prim_based",
            "repro.core.exact",
            "repro.baselines.eqcast",
            "repro.baselines.nfusion",
            "repro.sim.protocol",
            "repro.sim.memory",
            "repro.sim.online",
            "repro.extensions.fidelity_aware",
            "repro.extensions.purification",
            "repro.quantum.register",
        ],
    )
    def test_module_docstrings(self, module_name):
        module = __import__(module_name, fromlist=["x"])
        assert module.__doc__ and len(module.__doc__) > 40, module_name

    def test_public_functions_documented(self):
        """Every public callable in the core package has a docstring."""
        import repro.core as core

        for name in core.__all__:
            value = getattr(core, name)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__doc__, f"repro.core.{name} lacks a docstring"
