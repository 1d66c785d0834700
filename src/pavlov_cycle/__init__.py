"""Randomized-Pavlov iterated prisoner's dilemma on a cycle.

Exact stochastic edge-update simulation, drift certificates for fast
convergence to cooperation, mean-field bounds for the slow regime, and
reproducible batch experiments.
"""

__version__ = "0.1.0"
