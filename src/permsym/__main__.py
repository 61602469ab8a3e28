"""``python -m permsym``: the command line of :mod:`permsym.cli`."""

from permsym.cli import main

if __name__ == "__main__":
    main()
