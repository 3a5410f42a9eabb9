"""repro — a full reproduction of CMAP (Vutukuru et al., NSDI 2008).

CMAP is a reactive wireless link layer that harnesses exposed terminals: it
lets transmissions proceed concurrently by default and learns, from observed
packet loss, which concurrent transmission pairs actually conflict — stored
in a distributed *conflict map* consulted before each transmission.

Quickstart::

    from repro import Testbed, Network, cmap_factory

    testbed = Testbed(seed=1)
    net = Network(testbed, track_tx=True)
    for node in (0, 1, 2, 3):
        net.add_node(node, cmap_factory())
    net.add_saturated_flow(0, 1)
    net.add_saturated_flow(2, 3)
    result = net.run(duration=10.0, warmup=4.0)
    print(result.flow_mbps(0, 1), result.flow_mbps(2, 3))

Experiments are declared rather than hand-rolled: a
:class:`~repro.experiments.spec.TrialSpec` describes one run as plain data,
an :class:`~repro.experiments.spec.ExperimentSpec` bundles trials with a
pure reduction, and ``repro.experiments.executor`` materializes them
serially or across a process pool (``python -m repro.cli fig12 --jobs 8``)
with bit-identical results either way.

See DESIGN.md for the system inventory and the spec/executor architecture,
and EXPERIMENTS.md for the paper-vs-measured record of every figure.
"""

from repro.core.params import CmapParams, LatencyProfile
from repro.core.cmap_mac import CmapMac
from repro.mac.dcf import DcfMac, DcfParams
from repro.mac.rtscts import RtsCtsMac, rtscts_factory
from repro.mac.ecsma import EcsmaMac, ecsma_factory
from repro.mac.autorate import ArfDcfMac, arf_factory
from repro.mac.cs_tuning import CsTuningMac, cs_tuning_factory
from repro.mac.iamac import IaMac, iamac_factory
from repro.mac.base import Packet
from repro.net.testbed import Testbed, TestbedConfig
from repro.net.mobility import (
    MobilityController,
    RandomWaypoint,
    RegionHop,
    build_mobility_model,
    register_mobility_model,
)
from repro.network import (
    Network,
    RunResult,
    build_mac_factory,
    cmap_factory,
    dcf_factory,
    register_mac_builder,
)
from repro.sim.engine import Simulator
from repro.tracing import Tracer, TraceKind

__version__ = "1.0.0"

__all__ = [
    "CmapParams",
    "LatencyProfile",
    "CmapMac",
    "DcfMac",
    "DcfParams",
    "RtsCtsMac",
    "rtscts_factory",
    "EcsmaMac",
    "ecsma_factory",
    "ArfDcfMac",
    "arf_factory",
    "CsTuningMac",
    "cs_tuning_factory",
    "IaMac",
    "iamac_factory",
    "Packet",
    "Testbed",
    "TestbedConfig",
    "MobilityController",
    "RandomWaypoint",
    "RegionHop",
    "build_mobility_model",
    "register_mobility_model",
    "Network",
    "RunResult",
    "build_mac_factory",
    "cmap_factory",
    "dcf_factory",
    "register_mac_builder",
    "Simulator",
    "Tracer",
    "TraceKind",
    "__version__",
]
