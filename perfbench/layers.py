"""The public functions the benchmark traces in each ccke module, and how
their spans become the per-layer metrics.

Spans are named ``<module>.<function>``.  The harness binds the conformal
functions at import time, so they are wrapped where the harness looks
them up; environment methods are wrapped on each environment class.
"""

from __future__ import annotations

from ccke import harness, mac_sim, phy_sim, quantile_net, reporting

ENVIRONMENTS = (harness.MacEnvironment, harness.PhyEnvironment,
                harness.SyntheticEnvironment)
CONFORMAL_SETS = (("ccke_prediction_set", "conformal.ccke_set"),
                  ("nccke_prediction_set", "conformal.nccke_set"),
                  ("cke_prediction_set", "conformal.cke_set"))


def _count_epochs(counts, args, model):
    counts["quantile_net.epochs"] += len(model.loss_history) - 1


def _count_predict_rows(counts, args, result):
    counts["quantile_net.predict_rows"] += len(args[1])


def _count_arq_attempts(counts, args, attempts):
    counts["phy_sim.arq_attempts"] += int(attempts)


def _count_unbounded(counts, args, report):
    counts["conformal.unbounded_sets"] += report.n_unbounded


def _count_rows_written(counts, args, paths):
    for path in paths:
        with open(path) as fh:
            counts["reporting.rows_written"] += sum(1 for _ in fh) - 1  # header


def trace_run_path(tracer) -> None:
    """Wrap everything ``run_experiment`` and ``emit_report`` reach."""
    tracer.wrap(harness, "run_experiment", "harness.run_experiment")
    tracer.wrap(quantile_net, "train", "quantile_net.train", _count_epochs)
    tracer.wrap(quantile_net.QuantileModel, "predict", "quantile_net.predict",
                _count_predict_rows)
    tracer.wrap(mac_sim, "run_frame", "mac_sim.run_frame")
    tracer.wrap(phy_sim, "transmit_arq", "phy_sim.transmit_arq", _count_arq_attempts)
    for attr, span in CONFORMAL_SETS:
        tracer.wrap(harness, attr, span)
    tracer.wrap(harness, "compute_score", "conformal.compute_score")
    tracer.wrap(harness, "evaluate_coverage", "harness.evaluate_coverage")
    tracer.wrap(harness, "evaluate_inefficiency", "harness.evaluate_inefficiency",
                _count_unbounded)
    for env_cls in ENVIRONMENTS:
        tracer.wrap(env_cls, "sample_contexts_given_app", "harness.sample_contexts")
        tracer.wrap(env_cls, "rollout", "harness.rollout")
        tracer.wrap(env_cls, "weight", "harness.weight")
    tracer.wrap(reporting, "emit_report", "reporting.emit_report", _count_rows_written)


def trace_setup(tracer) -> None:
    """Wrap what ``build_environment`` reaches."""
    tracer.wrap(harness, "build_environment", "harness.build_environment")
    tracer.wrap(phy_sim.SerTable, "build", "phy_sim.ser_table_build")


def run_metrics(tracer, scale: float) -> dict:
    """Per-layer metrics of one traced experiment.

    ``_s`` is self time, converted to reference seconds by the speed
    probe's ``scale`` like the end-to-end times.
    """
    def self_s(span):
        return scale * tracer.self_s(span)

    train_s = self_s("quantile_net.train")
    epochs = tracer.counts["quantile_net.epochs"]
    frames = tracer.calls("mac_sim.run_frame")
    return {
        "quantile_net.train_s": train_s,
        "quantile_net.train_epochs_per_s": epochs / train_s if train_s else 0.0,
        "quantile_net.predict_s": self_s("quantile_net.predict"),
        "quantile_net.predict_rows": tracer.counts["quantile_net.predict_rows"],
        "mac_sim.run_frame_s": self_s("mac_sim.run_frame"),
        "mac_sim.run_frame_calls": frames,
        "mac_sim.run_frame_us": (1e6 * scale * tracer.total_s("mac_sim.run_frame") / frames
                                 if frames else 0.0),
        "phy_sim.transmit_arq_s": self_s("phy_sim.transmit_arq"),
        "phy_sim.transmit_arq_calls": tracer.calls("phy_sim.transmit_arq"),
        "phy_sim.arq_attempts": tracer.counts["phy_sim.arq_attempts"],
        "conformal.ccke_set_s": self_s("conformal.ccke_set"),
        "conformal.nccke_set_s": self_s("conformal.nccke_set"),
        "conformal.cke_set_s": self_s("conformal.cke_set"),
        "conformal.set_calls": sum(tracer.calls(span) for _, span in CONFORMAL_SETS),
        "conformal.compute_score_s": self_s("conformal.compute_score"),
        "conformal.unbounded_sets": tracer.counts["conformal.unbounded_sets"],
        "harness.sample_contexts_s": self_s("harness.sample_contexts"),
        "harness.sample_contexts_calls": tracer.calls("harness.sample_contexts"),
        "harness.rollout_s": self_s("harness.rollout"),
        "harness.weight_s": self_s("harness.weight"),
        "harness.weight_calls": tracer.calls("harness.weight"),
        "harness.evaluate_coverage_s": self_s("harness.evaluate_coverage"),
        "harness.evaluate_inefficiency_s": self_s("harness.evaluate_inefficiency"),
        "harness.self_s": self_s("harness.run_experiment"),
        "reporting.emit_report_s": self_s("reporting.emit_report"),
        "reporting.rows_written": tracer.counts["reporting.rows_written"],
    }


def setup_metrics(tracer, scale: float) -> dict:
    """Per-layer metrics of one traced set-up, in reference seconds."""
    return {
        "harness.build_environment_s": scale * tracer.self_s("harness.build_environment"),
        "phy_sim.ser_table_build_s": scale * tracer.self_s("phy_sim.ser_table_build"),
    }
