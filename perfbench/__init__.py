"""Outside-in performance benchmark for the ``ktae`` package.

Run ``python3 perfbench/run.py`` from the repository root; see README.md.
"""
