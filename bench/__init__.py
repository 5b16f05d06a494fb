"""Host wall-clock benchmark of the Snowplow reproduction.

``python -m bench`` runs the four workloads of :mod:`bench.workloads`
round-robin in fresh child processes; ``bench/run.py`` runs one workload
for a fixed time; ``bench/compare.py`` judges a change against its
parent.  See ``bench/README.md``.
"""
