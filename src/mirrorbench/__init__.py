"""Mirror-circuit benchmarking toolkit.

Generate mirrored random circuits, simulate them under configurable noise,
and fit the exponential decay of their survival probability.  The fitted
rate ``u`` is the decay rate of these circuits' mean survival: close to the
unitarity for depolarizing noise, not for coherent noise (``analysis``).

The package root re-exports the names of the README's library example;
everything else is imported from its module (``mirrorbench.operators``,
``channels``, ``circuits``, ``simulator``, ``analysis``, ``plotting``, ``cli``).
"""

from .analysis import fit_decay
from .channels import Depolarizing, depolarizing_tensor_unitarity
from .circuits import sample_experiment
from .simulator import NoiseModel, simulate_survival

__version__ = "0.1.0"

__all__ = [
    "Depolarizing",
    "NoiseModel",
    "depolarizing_tensor_unitarity",
    "fit_decay",
    "sample_experiment",
    "simulate_survival",
]
