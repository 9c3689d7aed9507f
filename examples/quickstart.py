"""Quickstart: schedule one federated round with Fed-LBAP.

Builds the paper's Testbed II (6 phones including two throttling
Nexus 6Ps), profiles each device for LeNet, schedules the full
MNIST-sized training set with Fed-LBAP and the three baselines, and
compares the realized synchronous-round makespans on the device
simulator.

Run:  python examples/quickstart.py
"""

from repro.experiments.realized import realized_times
from repro.experiments.testbeds import testbed_names
from repro.models import lenet
from repro.sched import cached_time_curves, get_scheduler, testbed_problem


def main() -> None:
    testbed = 2
    names = testbed_names(testbed)
    model = lenet()
    shard_size = 500

    # 1. Offline profiling: time-vs-data curves per device (Sec. IV-B),
    #    folded into one scheduling instance over the full MNIST-scale
    #    training set — the input every registered scheduler takes.
    problem = testbed_problem(
        testbed, "mnist", model, shard_size, with_energy=False
    )
    print(f"Testbed {testbed}: {', '.join(names)}")
    print(f"Model: {model.name} ({model.param_count():,} parameters)")
    print(f"Workload: {problem.total_shards} shards x {shard_size} samples\n")
    for name, curve in zip(names, cached_time_curves(names, model)):
        print(f"  profile {name:8s}: T(3000) = {curve(3000):7.1f} s")

    # 2. Fed-LBAP: joint partitioning + assignment (Algorithm 1).
    plan = get_scheduler("fed_lbap").schedule(problem)
    print(f"\nFed-LBAP predicted makespan: {plan.predicted_makespan_s:.1f} s")
    print(f"allocation (samples/user):   {plan.samples_per_user()}")

    # 3. Compare realized makespans against the paper's baselines:
    #    a scheduler is a registry name (`repro sched list`).
    print("\nrealized synchronous-round makespan:")
    results = {}
    for label in ("fed_lbap", "equal", "random", "proportional"):
        sched = get_scheduler(label).schedule(problem)
        times = realized_times(sched.samples_per_user(), names, model)
        results[label] = times.max()
        print(f"  {label:12s}: {times.max():8.1f} s")
    best_baseline = min(v for k, v in results.items() if k != "fed_lbap")
    print(
        f"\nFed-LBAP speedup vs best baseline: "
        f"{best_baseline / results['fed_lbap']:.2f}x"
    )


if __name__ == "__main__":
    main()
