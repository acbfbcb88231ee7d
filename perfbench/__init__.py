"""guardlab's benchmark: workloads, output checks and an outside-in layer trace.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

See ``perfbench/run.py`` for the command line and the printed result.
"""
