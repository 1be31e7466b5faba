"""``python -m addlaws``: the command line of :mod:`addlaws.cli`."""
from .cli import main

raise SystemExit(main())
