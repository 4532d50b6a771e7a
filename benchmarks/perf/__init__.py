"""Layer-by-layer performance harness for the crawl → trees → analysis pipeline.

``python3 benchmarks/perf/run.py --workload NAME`` measures one workload;
``python -m benchmarks.perf`` runs all four and ledgers the result.  See
``README.md`` in this directory.
"""
