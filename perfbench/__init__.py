"""The IFDB benchmark: see ``run.py`` and ``README.md``."""
