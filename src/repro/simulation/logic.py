"""Multi-valued logic algebras (re-exported from :mod:`repro.logic`).

The implementation lives in the top-level :mod:`repro.logic` module so that
:mod:`repro.netlist` can use it without importing the simulation package
(which itself depends on the netlist package).
"""

from repro.logic import Logic

__all__ = ["Logic"]
