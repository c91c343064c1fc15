"""End-to-end and per-layer benchmark of the qmapft CLI (see README.md)."""
