"""Benchmark of the patientbandits simulator; run ``simbench/run.py``."""
