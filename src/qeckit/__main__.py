"""``python -m qeckit``: the ``qeckit`` command from a checkout, exiting with ``cli.main()``'s code."""
from .cli import main
raise SystemExit(main())
