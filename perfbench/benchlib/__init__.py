"""Support code for the repository benchmark (`perfbench/run.py`)."""
