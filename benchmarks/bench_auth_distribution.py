"""Extension: distributing the authentication function (section 6.2).

The paper remarks that "we have seen significantly larger improvements
when we tried distributing authentication".  We compare three
arrangements of a two-proxy chain with digest authentication:

- **A** conventional: every node statically stateful, the entry proxy
  authenticates every call;
- **B** SERvartuka state distribution, entry-pinned authentication;
- **C** SERvartuka distributing *both* state and authentication
  (a second policy instance with ``resource="auth"``).

Under our cost model the dynamic arrangements (B, C) clearly beat the
static one, while C ~ B at the peak: the exit node, not the auth-pinned
entry, is the capacity bottleneck of this chain, so moving auth
downstream only pays off when the *entry* node is the constraint (e.g.
the 10,200-cps point in ``examples/authenticated_trunk.py``).  The
paper's "significantly larger improvements" claim likely reflects a
testbed where the authenticating node was the bottleneck.
"""

from repro.harness.figures import FigureData
from repro.harness.parallel import SpecTemplate
from repro.harness.runner import run_scenario
from repro.harness.saturation import find_capacity
from repro.workloads.scenarios import n_series

CONFIGS = (
    ("A static + entry auth", dict(policy="static", auth="entry")),
    ("B servartuka + entry auth", dict(policy="servartuka", auth="entry")),
    ("C servartuka + distributed auth",
     dict(policy="servartuka", auth="distributed")),
)


def test_auth_distribution(benchmark, quality, save_figure):
    def run():
        rows = []
        capacities = {}
        past_knee = {}
        for label, kwargs in CONFIGS:
            config = quality.scenario_config()
            sweep = find_capacity(
                SpecTemplate("n_series", config, n=2, **kwargs),
                hint=9200, duration=quality.duration,
                warmup=quality.warmup, points=max(3, quality.sweep_points - 1),
                span=0.3,
            )
            capacities[label] = sweep.max_throughput
            # Probe robustness 15% beyond the measured capacity.
            beyond = run_scenario(
                n_series(2, 1.15 * sweep.max_throughput, config=config,
                         **kwargs),
                duration=quality.duration, warmup=quality.warmup,
            )
            past_knee[label] = beyond.throughput_cps
            rows.append([
                label, round(capacities[label]), round(past_knee[label]),
            ])
        return FigureData(
            "Extension: authentication distribution",
            "Two-series with digest auth: capacity and post-knee goodput",
            ["configuration", "capacity_cps", "goodput_at_1.15x_cps"],
            rows,
            description=__doc__.strip(),
        )

    figure = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure(figure, "auth_distribution.txt")

    values = {row[0]: (row[1], row[2]) for row in figure.rows}
    cap_a, _ = values["A static + entry auth"]
    cap_b, past_b = values["B servartuka + entry auth"]
    cap_c, past_c = values["C servartuka + distributed auth"]
    # Dynamic state distribution beats the static arrangement.
    assert cap_b > cap_a
    # Adding auth distribution does not lose meaningful capacity, and
    # past the knee both dynamic arrangements stay in the same band
    # (post-saturation goodput is noisy; 20% tolerance).
    assert cap_c >= 0.95 * cap_b
    assert past_c >= 0.80 * past_b
