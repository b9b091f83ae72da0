"""The benchmark's tracer still finds every library name it patches.

``perfbench/tracing.py`` replaces names in ``ocolc.cli``,
``ocolc.validation``, ``ocolc.oracle`` and on every problem it builds. A
rename in the library breaks it with an AttributeError at install time;
this catches that in Tier-1, without running a benchmark workload.
"""

import numpy as np

import ocolc.cli
import ocolc.oracle
import ocolc.validation

from conftest import perfbench_module


def test_tracer_installs_and_instruments_every_built_in():
    tracing = perfbench_module("tracing")
    originals = {module: dict(vars(module)) for module in (ocolc.cli, ocolc.oracle, ocolc.validation)}
    probe, tracer = tracing.Probe(), tracing.Tracer()
    try:
        probe.install()
        tracer.install()
        for module in (ocolc.cli, ocolc.validation):
            for spec in (module.toy_problem(), module.doubly_stochastic_problem(d=3), module.dispatch_problem()):
                assert len(spec.losses(0, 2)) == 2
                assert spec.constraint_values(np.zeros(spec.n)).shape == (spec.m,)
                spec.mean_loss(0, 2)
        tracer.verify()
        assert tracer.counts["problems.losses_built"] == 12
    finally:
        tracer.uninstall()
        probe.uninstall()
    for module, names in originals.items():
        assert all(vars(module)[name] is value for name, value in names.items())
