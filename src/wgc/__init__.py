"""Graph codes and woven graph codes over GF(2), with distance and bound tooling."""

__version__ = "1.0.0"
