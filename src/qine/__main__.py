"""``python -m qine``: the command line, as the ``qine`` script runs it."""

from .cli import main

if __name__ == "__main__":
    main()
