"""The package's export list names exactly its public non-module names."""

import inspect

import nugamma


def test_all_matches_public_names():
    public = {name for name, value in vars(nugamma).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(nugamma.__all__) == public
