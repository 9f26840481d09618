"""The benchmark tracer's hook points exist in the program.

``bench/trace_main.py`` wraps each of its ``SITES`` by name and, for a
name it cannot find, only prints a warning and times nothing there.  So
renaming a function the pipeline or the CLI looks up would silently drop
a per-layer span; this test makes such a rename fail instead.
"""

import importlib.util
import os

TRACE_MAIN = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "trace_main.py")


def test_every_trace_site_resolves():
    spec = importlib.util.spec_from_file_location("trace_main", TRACE_MAIN)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)  # defines SITES; patches nothing until main()
    assert trace.SITES
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, _ in trace.SITES
        if not hasattr(owner, name)
    ]
    assert missing == []
