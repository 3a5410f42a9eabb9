"""Experiment harness: scenario selection, declarative specs, and reporting.

One builder per table/figure of the paper's evaluation (§5), named in the
:data:`SWEEP_BUILDERS` registry and run through :func:`run_experiment`;
the scale sweep, which builds one testbed per generated world, runs through
:func:`run_scale_sweep`. See DESIGN.md for the spec/executor architecture
and EXPERIMENTS.md for the paper-vs-measured record.
"""

from repro.experiments.scenarios import (
    ScenarioError,
    find_exposed_terminal_configs,
    find_inrange_configs,
    find_hidden_terminal_configs,
    find_hidden_interferer_triples,
    find_ap_topology,
    find_mesh_topologies,
    PairConfig,
    ApTopology,
    MeshTopology,
)
from repro.experiments.spec import (
    ExperimentSpec,
    MacSpec,
    MobilitySpec,
    TrialResult,
    TrialSpec,
    experiment_from_wire,
    experiment_to_wire,
)
from repro.experiments.executor import (
    ProcessPoolBackend,
    ResultStore,
    SerialBackend,
    make_backend,
    run_experiment,
    run_trial,
)
from repro.experiments.topologies import (
    TOPOLOGIES,
    TopologySpec,
    build_topology,
    nearest_neighbor_flows,
)
from repro.experiments.runners import (
    SWEEP_BUILDERS,
    ExperimentScale,
    build_scale_sweep,
    run_scale_sweep,
    build_single_link_calibration,
    build_exposed_terminals,
    build_inrange_senders,
    build_hidden_terminals,
    build_hidden_interferer_scatter,
    build_ap_topology,
    build_header_trailer_cdf,
    build_header_trailer_density,
    build_mesh_dissemination,
    build_bitrate_sweep,
    build_pair_cdf_experiment,
)

__all__ = [
    "ScenarioError",
    "find_exposed_terminal_configs",
    "find_inrange_configs",
    "find_hidden_terminal_configs",
    "find_hidden_interferer_triples",
    "find_ap_topology",
    "find_mesh_topologies",
    "PairConfig",
    "ApTopology",
    "MeshTopology",
    "ExperimentSpec",
    "MacSpec",
    "MobilitySpec",
    "TrialResult",
    "TrialSpec",
    "experiment_from_wire",
    "experiment_to_wire",
    "SWEEP_BUILDERS",
    "ProcessPoolBackend",
    "ResultStore",
    "SerialBackend",
    "make_backend",
    "run_experiment",
    "run_trial",
    "ExperimentScale",
    "build_single_link_calibration",
    "build_exposed_terminals",
    "build_inrange_senders",
    "build_hidden_terminals",
    "build_hidden_interferer_scatter",
    "build_ap_topology",
    "build_header_trailer_cdf",
    "build_header_trailer_density",
    "build_mesh_dissemination",
    "build_bitrate_sweep",
    "build_pair_cdf_experiment",
    "TOPOLOGIES",
    "TopologySpec",
    "build_topology",
    "nearest_neighbor_flows",
    "build_scale_sweep",
    "run_scale_sweep",
]
