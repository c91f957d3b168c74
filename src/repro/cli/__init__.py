"""Command-line interface (an ``spatch``-like driver): ``repro.cli.spatch``
and ``repro.cli.spatchd``, each run as a module or a console script."""
