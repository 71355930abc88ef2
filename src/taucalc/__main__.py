"""``python -m taucalc``: the command line front end of :mod:`taucalc.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
