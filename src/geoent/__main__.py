"""``python -m geoent``: the command-line interface of ``geoent.cli``."""
from .cli import main

raise SystemExit(main())
