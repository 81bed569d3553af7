"""``python -m symmkit …`` runs the ``symmkit`` command."""

from .cli import main

if __name__ == "__main__":
    main()
