"""Canonical JSON emission: stable field order, sorted lists where the
producers sort them, floats clamped to 12 significant digits so identical
inputs give byte-identical reports."""

import json
import sys

__all__ = ["canonical", "dump_report", "envelope"]

REPORT_VERSION = 1


def _round_float(x: float):
    if x != x or x in (float("inf"), float("-inf")):
        return str(x)
    return float(f"{x:.12g}")


def canonical(obj):
    """Recursively convert to JSON-ready values with clamped floats.  A value
    that is not a plain Python one (numpy's float64 and complex128 subclass
    float and complex) is a TypeError, never a changed report."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [canonical(v) for v in items]
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, complex):
        return [_round_float(float(obj.real)), _round_float(float(obj.imag))]
    if isinstance(obj, float):
        return _round_float(float(obj))
    raise TypeError(f"not a report value: {obj!r}")


def envelope(command: str, graph_desc: str, data: dict) -> dict:
    return {"version": REPORT_VERSION, "command": command,
            "graph": graph_desc, **data}


def dump_report(data: dict, path=None) -> str:
    text = json.dumps(canonical(data), indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text
