"""Host-time benchmark of the repro simulator (see perfbench/README.md)."""
