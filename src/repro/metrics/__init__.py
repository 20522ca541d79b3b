"""Evaluation metrics for semantic-cache hit/miss decisions."""
