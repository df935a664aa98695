"""Amplified iterative deepening over production-rule rewriting systems.

The package bundles four layers: classical production-system semantics
(`production`), a Turing-machine runner and rules compiler (`turing`), the
exact dense statevector engine that serves as the reference (`statevector`),
and the search driver with its closed forms and oracle-call accounting
(`driver`). `verify` holds the acceptance-grade checks behind `qids verify`,
which hold the driver to the reference.
"""

from .driver import QidConfig, SearchReport, quantum_iterative_deepening
from .errors import QidsError
from .production import (Alphabet, ProductionSystem, Rule, classical_ids,
                         execute_sequence, halting_predicate, load_system)
from .turing import TuringMachineSpec, compile_tm, load_tm

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "ProductionSystem",
    "QidConfig",
    "QidsError",
    "Rule",
    "SearchReport",
    "TuringMachineSpec",
    "classical_ids",
    "compile_tm",
    "execute_sequence",
    "halting_predicate",
    "load_system",
    "load_tm",
    "quantum_iterative_deepening",
    "__version__",
]
