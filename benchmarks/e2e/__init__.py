"""End-to-end and per-layer benchmark of the checkpointed training step.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the root.
"""
