"""Benchmarks beside the package (not part of it).

A package only so that pytest imports ``benchmarks/conftest.py`` as
``benchmarks.conftest``: tier-1 collects ``tests`` and
``benchmarks/kernels`` in one run, and a second top-level ``conftest``
module would shadow the one ``tests/`` imports helpers from.
"""
