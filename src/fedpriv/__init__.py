"""Deterministic federated-learning simulator with a collaborative
membership-inference defense and a trajectory-based attack harness."""
