"""One end-to-end benchmark of the HiPAC reproduction with a per-layer
ledger.  ``python3 benchmarks/e2e/run.py --help``; see README.md."""
