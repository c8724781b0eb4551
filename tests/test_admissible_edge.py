"""The admissible set edge to edge: for each fixture model, constant density
and a mode-1 sine velocity at 0.5, 0.8 and 0.95 of the largest amplitude
that ``admissibility`` certifies, simulated at n=8.  The step extrema must
stay in the band ``[a, b]`` and no monitor may fire."""

import pytest

import fluidchain as fc

from conftest import perturbed_initial

# the largest certified amplitude, rounded down (bisection, each at the
# tables' reach: saint_venant 0.26944, isentropic_gas 6.9622,
# ideal_gas_entropy 233.25 and the power law 2.5761)
EDGE = {"sv": 0.269, "isentropic": 6.96, "ideal": 233.0, "power_law": 2.57}
# horizon per fraction of the edge: at least 100 accepted steps each; the
# ideal gas at 0.95 runs past its sharpest compression (spacing ~3e-5)
HORIZON = {"sv": (1.25, 1.25, 1.25), "isentropic": (0.3, 0.3, 0.3),
           "ideal": (0.0035, 0.002, 0.0025), "power_law": (0.7, 0.7, 0.7)}
FRACTIONS = (0.5, 0.8, 0.95)


@pytest.mark.parametrize("name", sorted(EDGE))
def test_edge_amplitude_is_certified_and_5_percent_more_is_not(request, name):
    model = request.getfixturevalue(name)
    assert fc.admissibility(model, perturbed_initial(model, EDGE[name])).admissible
    assert not fc.admissibility(model, perturbed_initial(model, 1.05 * EDGE[name])).admissible


@pytest.mark.parametrize("name", sorted(EDGE))
@pytest.mark.parametrize("index", range(len(FRACTIONS)), ids=map(str, FRACTIONS))
def test_spacings_stay_in_the_band_near_the_edge(request, name, index):
    model = request.getfixturevalue(name)
    init = perturbed_initial(model, FRACTIONS[index] * EDGE[name])
    report = fc.admissibility(model, init)
    assert report.admissible
    horizon = HORIZON[name][index]
    series = fc.simulate(model, fc.build_particles(model, init, 8), horizon,
                         fc.IntegratorConfig(snapshot_dt=horizon / 4))
    stats = series.stats
    assert stats.accepted >= 100
    slack = 1e-9 * max(1.0, report.b)          # EnvelopeReport.ok's slack
    assert report.a - slack <= stats.spacing_min_seen
    assert stats.spacing_max_seen <= report.b + slack
    assert series.warnings == []
