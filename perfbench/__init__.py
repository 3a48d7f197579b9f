"""Time-to-verdict benchmark for faultcast; run it with ``python3 perfbench/run.py``."""
