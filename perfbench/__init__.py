"""CDC-ingest benchmark for ``airbyte_ray`` — run it with ``python3 perfbench/run.py``."""
