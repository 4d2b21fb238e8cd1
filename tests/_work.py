"""The one ``sys.setprofile`` work counter of the tests that pin work per
request (tests/test_control_hop.py) and per packet
(tests/test_policing_native.py)."""

from __future__ import annotations

import hashlib
import os
import sys
from typing import NamedTuple

import repro

BLAKE2S = type(hashlib.blake2s())
REPRO = os.path.dirname(repro.__file__) + os.sep


class Work(NamedTuple):
    python: int  # calls into ``repro`` code, generated ``<string>`` methods included
    builtin: int  # calls of builtins
    digests: int  # BLAKE2s digests


def work_of(operation) -> Work:
    """The work ``operation()`` makes."""
    python = builtin = digests = 0

    def profile(frame, event, arg):
        nonlocal python, builtin, digests
        if event == "call":
            filename = frame.f_code.co_filename
            python += filename == "<string>" or filename.startswith(REPRO)
        elif event == "c_call":
            builtin += 1
            if type(getattr(arg, "__self__", None)) is BLAKE2S:
                digests += arg.__name__ == "digest"

    sys.setprofile(profile)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return Work(python, builtin, digests)
