"""Test-suite settings shared by every module.

Property tests draw their examples from a fixed derandomized stream, so
each run checks the same cases: the toolkit promises bit-identical
reruns, and its tests keep to the same rule.  Each test still sets its
own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("delaymap", derandomize=True, deadline=None)
settings.load_profile("delaymap")
