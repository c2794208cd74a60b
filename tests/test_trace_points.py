"""The benchmark's tracer wraps lpmc names by (module, attribute), so each of
them must stay bound to a callable; a dropped name would pass every other
test here and only fail when the benchmark installs the tracer."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


def test_every_trace_point_is_a_callable_in_lpmc():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module_name}.{attr}"
               for module_name, attr, _ in tracer.TRACE_POINTS
               if not callable(getattr(importlib.import_module(module_name),
                                       attr, None))]
    assert tracer.TRACE_POINTS
    assert not missing
