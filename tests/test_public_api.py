"""The public API surface: everything advertised imports and is usable."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_snippet_runs(self):
        """The README quickstart, verbatim (shortened duration)."""
        from repro import Testbed, Network, cmap_factory

        testbed = Testbed(seed=1)
        net = Network(testbed, track_tx=True)
        for node in (0, 1, 3, 2):
            net.add_node(node, cmap_factory())
        net.add_saturated_flow(0, 1)
        net.add_saturated_flow(3, 2)
        result = net.run(duration=1.0, warmup=0.4)
        assert result.flow_mbps(0, 1) >= 0
        assert 0.0 <= result.concurrency_fraction([0, 3]) <= 1.0


class TestSubmoduleImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.sim.engine",
            "repro.phy.modulation",
            "repro.phy.propagation",
            "repro.phy.fading",
            "repro.phy.frames",
            "repro.phy.medium",
            "repro.phy.radio",
            "repro.phy.reception",
            "repro.mac.base",
            "repro.mac.dcf",
            "repro.mac.rtscts",
            "repro.mac.ecsma",
            "repro.mac.autorate",
            "repro.mac.cs_tuning",
            "repro.core.params",
            "repro.core.conflict_map",
            "repro.core.arq",
            "repro.core.backoff",
            "repro.core.cmap_mac",
            "repro.core.anypath",
            "repro.net.topology",
            "repro.net.links",
            "repro.net.testbed",
            "repro.net.visualize",
            "repro.traffic.generators",
            "repro.network",
            "repro.node",
            "repro.tracing",
            "repro.cli",
            "repro.analysis.stats",
            "repro.experiments.scenarios",
            "repro.experiments.runners",
            "repro.experiments.report",
            "repro.experiments.claims",
        ],
    )
    def test_module_imports(self, module):
        assert importlib.import_module(module) is not None

    def test_every_public_module_has_a_docstring(self):
        for module in (
            "repro.core.cmap_mac",
            "repro.core.conflict_map",
            "repro.core.arq",
            "repro.phy.radio",
            "repro.mac.dcf",
            "repro.experiments.runners",
        ):
            mod = importlib.import_module(module)
            assert mod.__doc__ and len(mod.__doc__) > 100, module


class TestFactorySignatures:
    def test_all_mac_factories_share_shape(self):
        """Every factory yields a MAC from (sim, node_id, radio, rng)."""
        from repro import (
            arf_factory,
            cmap_factory,
            cs_tuning_factory,
            dcf_factory,
            ecsma_factory,
            rtscts_factory,
        )
        from repro import Testbed, Network

        tb = Testbed(seed=1)
        factories = [
            cmap_factory(),
            dcf_factory(),
            rtscts_factory(),
            ecsma_factory(),
            arf_factory(),
            cs_tuning_factory(),
        ]
        net = Network(tb)
        for node_id, factory in enumerate(factories):
            node = net.add_node(node_id, factory)
            assert hasattr(node.mac, "on_frame_received")
