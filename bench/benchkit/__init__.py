"""Support code of the benchmark of record (``bench/run.py``).

Everything here measures the ``repro`` package from outside: it times
calls into public functions and reads the counters the program already
exports. Nothing in this package is imported by the program.
"""
