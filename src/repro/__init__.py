"""repro — a reproduction of Liu & Chou, *Distributed Embedded Systems
for Low Power: A Case Study* (IPPS 2004).

The paper measures four distributed dynamic-voltage-scaling (DVS)
techniques — DVS during I/O, partitioning, power-failure recovery, and
node rotation — on a testbed of battery-powered Itsy pocket computers
running an automatic target recognition (ATR) pipeline over serial
links. This library rebuilds that testbed as a deterministic
discrete-event simulation with a calibrated nonlinear battery model,
and reproduces the paper's figures and experiments.

Quick start::

    from repro import run_paper_suite, figure10_results

    runs = run_paper_suite(["1", "1A", "2", "2A"])
    print(figure10_results(runs).text)

Package map:

- :mod:`repro.sim` — discrete-event simulation kernel.
- :mod:`repro.hw` — the Itsy substrate: SA-1100 DVS table, power
  model, batteries (KiBaM / linear / Peukert), serial links, nodes.
- :mod:`repro.apps.atr` — the ATR workload: a real numpy implementation
  (with multi-scale matching) and the Fig. 6 task profile;
  :mod:`repro.apps.video` and :mod:`repro.apps.sensor` provide contrast
  workloads.
- :mod:`repro.pipeline` — partitioned pipeline execution, node
  rotation, power-failure recovery.
- :mod:`repro.core` — policies, partitioning analysis, metrics,
  calibration, and the paper's experiment suite.
- :mod:`repro.analysis` — tables, charts, timing diagrams, exports.
"""

from repro.errors import (
    BatteryError,
    CalibrationError,
    ConfigurationError,
    DeadlineMissError,
    InfeasiblePartitionError,
    LinkError,
    ReproError,
    ScheduleError,
    SimulationError,
)
from repro.sim import Simulator, TraceRecorder
from repro.hw import (
    PAPER_BATTERY,
    SA1100_TABLE,
    VoltageAwareBattery,
    DVSTable,
    FrequencyLevel,
    HostHub,
    ItsyNode,
    KiBaM,
    KiBaMParameters,
    LinearBattery,
    PeukertBattery,
    PowerMode,
    PowerModel,
    SerialLink,
    TransactionTiming,
)
from repro.hw.link import PAPER_LINK_TIMING
from repro.hw.power import PAPER_POWER_MODEL
from repro.apps.atr import (
    ATRPipeline,
    PAPER_PROFILE,
    PAPER_PROFILE_RAW,
    SceneSpec,
    TaskProfile,
    generate_scene,
    measure_profile,
)
from repro.pipeline import (
    BurstyWorkload,
    ConstantWorkload,
    Partition,
    PipelineConfig,
    PipelineEngine,
    PipelineResult,
    RecoveryConfig,
    RoleConfig,
    RotationController,
    TraceWorkload,
    UniformWorkload,
    WorkloadModel,
    enumerate_partitions,
)
from repro.core import (
    PAPER_EXPERIMENTS,
    BaselinePolicy,
    DVSDuringIOPolicy,
    ExperimentMetrics,
    ExperimentRun,
    ExperimentSpec,
    PartitionAnalysis,
    PinnedLevelsPolicy,
    SlowestFeasiblePolicy,
    analyze_partitions,
    run_experiment,
    run_paper_suite,
    select_best,
    summarize_runs,
)
from repro.core.calibration import calibrate_battery, paper_anchors
from repro.core.yds import Job, SpeedSegment, yds_schedule
from repro.analysis import (
    bar_chart,
    energy_breakdown_rows,
    render_energy_breakdown,
    figure6_performance_profile,
    figure7_power_profile,
    figure8_partitioning,
    figure10_results,
    format_table,
    render_gantt,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SimulationError",
    "ScheduleError",
    "DeadlineMissError",
    "InfeasiblePartitionError",
    "BatteryError",
    "LinkError",
    "CalibrationError",
    "ConfigurationError",
    # sim
    "Simulator",
    "TraceRecorder",
    # hw
    "FrequencyLevel",
    "DVSTable",
    "SA1100_TABLE",
    "PowerMode",
    "PowerModel",
    "PAPER_POWER_MODEL",
    "KiBaM",
    "KiBaMParameters",
    "PAPER_BATTERY",
    "LinearBattery",
    "PeukertBattery",
    "VoltageAwareBattery",
    "SerialLink",
    "TransactionTiming",
    "PAPER_LINK_TIMING",
    "HostHub",
    "ItsyNode",
    # atr
    "ATRPipeline",
    "SceneSpec",
    "generate_scene",
    "TaskProfile",
    "PAPER_PROFILE",
    "PAPER_PROFILE_RAW",
    "measure_profile",
    # pipeline
    "Partition",
    "enumerate_partitions",
    "RoleConfig",
    "PipelineConfig",
    "PipelineEngine",
    "PipelineResult",
    "RotationController",
    "RecoveryConfig",
    "WorkloadModel",
    "ConstantWorkload",
    "UniformWorkload",
    "BurstyWorkload",
    "TraceWorkload",
    # core
    "BaselinePolicy",
    "SlowestFeasiblePolicy",
    "DVSDuringIOPolicy",
    "PinnedLevelsPolicy",
    "PartitionAnalysis",
    "analyze_partitions",
    "select_best",
    "ExperimentMetrics",
    "ExperimentSpec",
    "ExperimentRun",
    "PAPER_EXPERIMENTS",
    "run_experiment",
    "run_paper_suite",
    "summarize_runs",
    "calibrate_battery",
    "paper_anchors",
    "Job",
    "SpeedSegment",
    "yds_schedule",
    # analysis
    "format_table",
    "bar_chart",
    "render_gantt",
    "energy_breakdown_rows",
    "render_energy_breakdown",
    "figure6_performance_profile",
    "figure7_power_profile",
    "figure8_partitioning",
    "figure10_results",
]
