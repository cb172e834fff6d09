"""Time what an experiment does before its first replication, in this fresh
interpreter: import codedseq, build the ExperimentConfig, validate it.

Usage: python3 setup_probe.py PRESET [CONFIG_FILE]   (codedseq on PYTHONPATH)
Prints the wall time in seconds.
"""
import sys
import time

t0 = time.perf_counter()
from codedseq.harness import make_preset, parse_config_file, validate_experiment  # noqa: E402

preset = sys.argv[1]
config = parse_config_file(sys.argv[2]) if preset == "custom" else make_preset(preset)
validate_experiment(config)
print(repr(time.perf_counter() - t0))
