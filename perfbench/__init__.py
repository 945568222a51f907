"""Standalone benchmark of the CS imaging system (see ``perfbench/README.md``).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the program's public API,
checks every output and prints the result as the last line.
"""
