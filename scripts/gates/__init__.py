"""The CI gates' check logic, one module per gate.

Each module exposes ``check(...) -> Outcome``; ``scripts/gate.py``
registers them and owns everything they share.
"""
