"""Set-up probe: what a fresh ``ccke run`` pays before its first trial.

Run by ``run.py`` in a fresh interpreter:

    python3 perfbench/setup_probe.py WORKLOAD SEED TRACE [TABLE_OUT]

It times ``import ccke``, ``build_environment(cfg)`` (for phy this builds
the default SER table) and the first context draw, which is where the
run path imports ``scipy.stats`` lazily: cold-start cost is counted here,
in ``setup_s``, wherever the program puts it.  Times are in reference
seconds (see speed.py).  With TRACE=1 the
set-up layers are traced too.  TABLE_OUT, given for phy, receives the
built SER table after the clock stops, so the benchmark process can
reuse it.  The last stdout line is a JSON object.
"""

import json
import sys
import time

import workloads
from speed import SpeedProbe

sys.path.insert(0, str(workloads.SRC))


def main(argv) -> int:
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    table_out = argv[3] if len(argv) > 3 else None
    with SpeedProbe() as probe:
        start = time.perf_counter()
        import ccke
        from ccke import harness
        tracer = None
        if trace:
            import layers
            from tracer import Tracer
            tracer = Tracer()
            layers.trace_setup(tracer)
        cfg = harness.ExperimentConfig(**workloads.config_kwargs(name, seed))
        env = harness.build_environment(cfg)
        env.sample_contexts_given_app(env.parse_app(cfg.actual_app), 1,
                                      harness.rng_for(seed, 0))
        wall = time.perf_counter() - start
    result = {"setup_s": probe.normalize(wall), "setup_wall_s": wall,
              "ccke_file": ccke.__file__}
    if tracer is not None:
        tracer.restore()
        result["layers"] = layers.setup_metrics(tracer, probe.scale())
        result["restored"] = tracer.restored()
    if table_out:
        env.policy.ser_table.save(table_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
