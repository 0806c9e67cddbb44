"""Simulation and quasi-stationary estimation for a coupled mutation-lag /
population-size jump diffusion.

Layers:

- model:   parameter families, drift/intensity evaluation, hypothesis checks
- rng:     keyed counter-based random streams
- cohort:  the path-stepping kernel (exact thinning over particle arrays)
- qsd:     Fleming-Viot ensembles and the alpha / lambda0 / eta / beta stack
- shard:   independently keyed units computed on one process per CPU
- pathsim: single-path and conditioned-path front ends on the kernel
- oracle:  independent grid-generator cross-check (d = 1)
- cli:     command-line entry points and artifact writers
"""
from __future__ import annotations

__version__ = "0.1.0"
