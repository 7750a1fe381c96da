"""The repository's end-to-end benchmark.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
drives the real program from outside (the ``serve`` command over HTTP, the
streaming annotate path over CSV files, and ``SatoModel.fit``), checks its
outputs, and prints every metric with its unit.  ``README.md`` in this
directory has the metric table and the layer map.
"""
