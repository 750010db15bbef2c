"""Counterfactual ARQ-latency analysis for a 2x2 MIMO link.

The transmitter used spatial multiplexing with QPSK; we estimate the
retransmission latency Alamouti/QPSK would have achieved under the same
channel context.  The app-selection softmax runs on the default
Monte-Carlo SER grid, which ships with the package (``ccke ser-table``
rebuilds it, at another Monte-Carlo size or seed, on request).

Run:  python demos/03_link_level_whatif.py
"""

from ccke.harness import ExperimentConfig, PhyEnvironment, run_experiment
from ccke.phy_sim import SerTable

table = SerTable.default()  # 4 apps x 20 SNR bins x 10 path counts

for temperature in (1.0, 10.0):
    env = PhyEnvironment(temperature=temperature, ser_table=table)
    cfg = ExperimentConfig(
        environment="phy",
        temperature=temperature,
        actual_app="multiplexing_qpsk",
        target_app="alamouti_qpsk",
        alpha=0.2,
        n_train=1500,
        n_cal=50,
        n_test=100,
        n_trials=25,
        train_epochs=120,
        base_seed=7,
    )
    report = run_experiment(cfg, environment=env)
    print(f"\nselection temperature T = {temperature}")
    for method in cfg.methods:
        print(f"  {method:6s} coverage {report.mean_coverage(method):.3f}"
              f"  inefficiency {report.mean_inefficiency(method):.3f}")

print("\nCorrections cut both ways: when the quantile model is too wide the"
      "\ncalibrated methods tighten it (negative correction), and when it is"
      "\ntoo narrow they widen it, always anchoring coverage near the target."
      "\nAt this trimmed scale the model is crude, so all methods lean wide;"
      "\nthe acceptance suite runs the full-scale comparison.")
