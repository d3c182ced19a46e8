"""``python -m confweyl``: the ``confweyl`` command, also from a source checkout."""

from .cli import main

if __name__ == "__main__":
    main()
