"""Amplified iterative deepening over production-rule rewriting systems.

The package bundles four layers: classical production-system semantics
(`production`), a Turing-machine runner and rules compiler (`turing`), the
exact dense statevector engine that serves as the reference (`statevector`),
and the search driver with its closed forms and oracle-call accounting
(`driver`). `verify` holds the acceptance-grade checks behind `qids verify`,
which hold the driver to the reference.
"""
