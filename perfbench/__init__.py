"""Seeded benchmark of the hyprec library and CLI.

``run.py`` runs one workload for one seed and prints its metrics; ``compare.py``
collects result sets and compares two of them.  See ``README.md`` for the
workloads, the metrics and the layer-to-metric predictions.
"""
