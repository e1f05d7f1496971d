"""Superconducting qubit state evolution, microwave drive design and
Lyapunov stabilization on the Bloch sphere.

The package root exports only ``__version__``; import from the modules
(``scqsim.cli``, ``scqsim.drives``, ``scqsim.hamiltonians``, ...)."""

__version__ = "0.1.0"
