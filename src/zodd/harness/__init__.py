"""Experiment harness: config parsing, the run/verify/plan driver, tuning."""
