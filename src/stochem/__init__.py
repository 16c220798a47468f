"""Simulator for oxygen-driven bacterial suspensions in a stochastic fluid.

A 2D finite-volume / MAC solver for the coupled velocity-oxygen-density
system with transport noise on the oxygen and multiplicative forcing on the
velocity, instrumented so the provable structure (mass conservation,
positivity, the oxygen maximum principle, energy identities, entropy
boundedness, pathwise uniqueness) is measured on every run.
"""

__version__ = "0.1.0"
