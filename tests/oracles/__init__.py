"""Reference implementations the production fast paths are tested against.

Each oracle is the literal, unoptimised reading of one step of the
paper's method.  The code under ``src/`` must observe exactly what its
oracle observes; the oracles never run in production.
"""
