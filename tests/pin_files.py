"""Rewrite a pin file and print each pinned key whose value changed.

The `__main__` blocks of `test_certificates.py`, `test_system_digests.py` and
`test_runconfig.py` regenerate their pins through `rewrite`, so a change that
moves pinned values can state which ones moved.
"""

import json
import platform

import numpy as np


def rewrite(path, section: str, values: dict) -> None:
    """Write values as the section of the pin file at path, under this numpy and machine."""
    values = json.loads(json.dumps(values))
    old = json.loads(path.read_text(encoding="utf-8"))[section] if path.exists() else {}
    for key in sorted(old.keys() | values.keys()):
        if old.get(key) != values.get(key):
            print(f"{path.name}: {key} changed")
    path.write_text(json.dumps({"numpy": np.__version__, "machine": platform.machine(),
                                section: values}, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
