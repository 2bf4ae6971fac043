"""Qubit-erasure simulator against a quantized thermal reservoir.

Modules: the trapped-ion physical model (ion), information-thermodynamic
functionals and the erasure-equality ledger (info), the sideband readout
chain (readout), experiment orchestration (protocol), the command line
(cli), and the dense reference the tests compare against (linalg).  The
Fock truncation is the int n_max (ion.n_max_for_nbar sizes it from nbar).
The package re-exports nothing: import every name from its module.
"""

__version__ = "0.1.0"
