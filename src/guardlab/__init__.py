"""guardlab: bounded training-control governance over a from-scratch AdamW,
plus a desk-scale stress-test laboratory."""

__version__ = "0.1.0"
