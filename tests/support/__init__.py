"""Test-only support code (oracles and fixtures shared across test packages)."""
