"""Spin-chain state transfer: spectrum design, synthesis, and analysis.

The package covers the full workflow: closed-form dome spectra and their
tridiagonal realizations (`spectrum`, `inverse_eigen`, `models`), closed
and open-system propagation (`dynamics`), entanglement and process
metrics (`metrics`), disorder and decoherence sweeps (`noise`), and
coupling-budget cascade planning (`cascade`).  `cli` exposes the same
workflow as the `domechain` command.  The package re-exports each
module's `__all__`, the one list of its public names.
"""

from . import cascade, chain, dynamics, inverse_eigen, metrics, models, noise, spectrum
from .cascade import *
from .chain import *
from .dynamics import *
from .inverse_eigen import *
from .metrics import *
from .models import *
from .noise import *
from .spectrum import *

__all__ = [
    name
    for module in (cascade, chain, dynamics, inverse_eigen, metrics, models, noise, spectrum)
    for name in module.__all__
]
