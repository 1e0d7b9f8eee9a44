"""``python -m chainsim``: the same command line as the ``chainsim`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
