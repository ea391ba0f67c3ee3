"""End-to-end benchmark of the clock-synchronization reproduction.

The package drives the program only through its public entry points;
``perfbench/run.py`` is the command that runs it.  See
``perfbench/README.md`` for the workloads, metrics and how to read them.
"""
