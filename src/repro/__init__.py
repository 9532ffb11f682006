"""repro — Energy Estimation for Extensible Processors (DATE 2003), rebuilt.

An open, pure-Python reproduction of Fei, Ravi, Raghunathan & Jha's
regression energy macro-modeling methodology for extensible processors,
including every substrate it needs:

* :mod:`repro.isa` / :mod:`repro.asm` — an Xtensa-class base ISA with an
  assembler;
* :mod:`repro.hwlib` / :mod:`repro.tie` — the custom-hardware component
  library and the TIE-substitute custom-instruction framework;
* :mod:`repro.xtcore` — the extensible-core instruction-set simulator
  (caches, pipeline timing, execution statistics and traces);
* :mod:`repro.rtl` — the processor generator and the reference RTL-level
  energy estimator (the paper's WattWatcher ground truth);
* :mod:`repro.core` — **the paper's contribution**: the 21-variable
  hybrid macro-model template, variable extraction, regression fitting
  and the fast estimation path;
* :mod:`repro.programs` — verified characterization and application
  benchmark suites;
* :mod:`repro.analysis` — every table/figure of the evaluation as a
  runnable experiment.

Quick start::

    from repro.analysis import build_context, run_table2

    ctx = build_context()            # characterize the processor family
    print(run_table2(ctx).report())  # Table II: unseen-app accuracy
"""

from .core import Characterizer, EnergyMacroModel, default_template
from .rtl import RtlEnergyEstimator, generate_netlist, reference_energy
from .tie import TieSpec, TieState, compile_extension, compile_spec
from .xtcore import ProcessorConfig, Simulator, build_processor

__version__ = "1.0.0"

__all__ = [
    "Characterizer",
    "EnergyMacroModel",
    "ProcessorConfig",
    "RtlEnergyEstimator",
    "Simulator",
    "TieSpec",
    "TieState",
    "__version__",
    "build_processor",
    "compile_extension",
    "compile_spec",
    "default_template",
    "generate_netlist",
    "reference_energy",
]
