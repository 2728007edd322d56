#!/usr/bin/env python3
"""Checks that a traced cocoa_sim run loads in Chrome about:tracing and
Perfetto (ctest trace_schema): trace_schema.py <path to cocoa_sim>.
check_chrome_trace() is importable by other trace tools."""

import json
import os
import subprocess
import sys
import tempfile


def check_chrome_trace(events):
    """Asserts one non-empty array of events, each with ph/ts/name/cat/pid/tid,
    complete ("X") events with dur, instant ("i") events thread-scoped;
    returns the set of event names."""
    assert isinstance(events, list) and events, "empty trace"
    for e in events:
        assert e["ph"] in ("X", "i"), e
        assert isinstance(e["ts"], (int, float)), e
        assert all(k in e for k in ("name", "cat", "pid", "tid")), e
        assert e["ph"] != "X" or "dur" in e, e
        assert e["ph"] != "i" or e["s"] == "t", e
    return {e["name"] for e in events}


def main(cocoa_sim):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        subprocess.run([cocoa_sim, "--robots", "12", "--anchors", "6", "--duration", "60",
                        "--period", "20", "--seed", "3", "--quiet", "--trace", path],
                       check=True)
        with open(path) as f:
            events = json.load(f)
    names = check_chrome_trace(events)
    assert "frame" in names and "fix" in names, names
    print(len(events), "trace events OK")


if __name__ == "__main__":
    main(*sys.argv[1:])
