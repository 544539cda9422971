"""Seeded end-to-end and per-layer benchmark for warpcurv (see run.py)."""
