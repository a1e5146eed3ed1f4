"""Multi-shot solve benchmark for helmsweep; run it with ``python3 perfbench/run.py``."""
