"""Benchmark of the gossip-PSO engines (see README.md in this directory)."""
