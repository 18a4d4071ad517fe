"""Network parameter checkpoints as ``.npz`` archives.

Array ``i`` of network ``name`` is stored under the key ``name/i`` in its own
dtype. Networks load in the order they were saved.
"""

from __future__ import annotations

import zipfile

import numpy as np

__all__ = ["save_checkpoint", "load_checkpoint"]


def save_checkpoint(path, networks: dict[str, list[np.ndarray]]) -> None:
    arrays = {f"{name}/{i}": p for name, params in networks.items() for i, p in enumerate(params)}
    with open(path, "wb") as fh:  # a file object keeps np.savez from appending ".npz"
        np.savez(fh, **arrays)


def load_checkpoint(path) -> dict[str, list[np.ndarray]]:
    # Checked first: for any other file np.load suggests unpickling it.
    if not zipfile.is_zipfile(path):
        raise ValueError(f"{path} is not an .npz checkpoint")
    networks: dict[str, dict[int, np.ndarray]] = {}
    with np.load(path, allow_pickle=False) as data:
        for key in data.files:
            name, _, i = key.rpartition("/")
            if not (name and i.isdecimal()):
                raise ValueError(f"{path}: key {key!r} is not of the form name/i, e.g. 'policy/0'")
            networks.setdefault(name, {})[int(i)] = data[key]
    for name, arrays in networks.items():
        if sorted(arrays) != list(range(len(arrays))):
            raise ValueError(f"{path}: network {name!r} has array indices {sorted(arrays)}, "
                             f"expected 0..{len(arrays) - 1}")
    # Index order, not key order: as strings "policy/10" sorts before "policy/2".
    return {name: [arrays[i] for i in range(len(arrays))] for name, arrays in networks.items()}
