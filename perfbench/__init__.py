"""Standalone benchmark for the cascade engine; see perfbench/README.md."""
