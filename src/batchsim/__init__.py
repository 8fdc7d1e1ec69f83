"""batchsim: fixed-step block-dataflow simulator for batch heating
operations with techno-economic sweep analysis."""

from .kernel import (AlgebraicLoop, Block, BlockGraph, MultipleDrivers,
                     NumericFault, SimClock, SimulationError, UnknownPort,
                     build_graph, step)
from .blocks import (Constant, IntervalTimer, InvalidRange, Multiplier,
                     PulseTrain, RangeScanner, ReportGenerator,
                     ResettableIntegrator, Summator, UnitDelay,
                     enumerate_scan_values)
from .plant import (BatchHeaterPlant, FEASIBILITY_MARGIN,
                    NeverReachesSetpoint, PlantConfig, UnitCosts,
                    WearRateGenerator, feasible_control_range, wear_rate)
from .econ import (BUILTIN_CRITERIA, Criterion, FlowVolumes,
                   OperationEvaluator, OperationRecord, aggregate_costs,
                   compute_indicators)
from .sweep import (DEFAULT_DT, ExtremumResult, NoValidRecords, SweepReport,
                    find_extremum, oracle_cost_curve, oracle_heating_time,
                    oracle_operation, oracle_ticks, run_single, run_sweep)
from .config import (ParseError, SweepConfig, ValidationError, load_config,
                     parse_config, validate_plant_config,
                     validate_sweep_config)
from .reportio import (CSV_HEADER, read_operations_csv, write_report)

__version__ = "0.1.0"
