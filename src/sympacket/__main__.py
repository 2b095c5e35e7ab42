"""``python -m sympacket``: the command line of ``sympacket.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
