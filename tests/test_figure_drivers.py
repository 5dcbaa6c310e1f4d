"""Smoke tests of the per-figure experiment drivers at miniature scale.

These do not validate the paper's shapes (the benchmarks do, at a larger scale);
they validate that every driver runs end to end, produces the expected columns and
internally-consistent rows, so a benchmark failure can only be about measured
values, never about broken plumbing.
"""

from repro.datagen import NetworkTraceConfig
from repro.experiments import (
    effect_of_k_synthetic,
    figure8_workload_distribution,
    figure9_topbuckets_strategies,
    figure10_granules,
    figure11_scalability,
    figure13_network_scalability,
    figure14_network_effect_k,
)
from repro.mapreduce import ClusterConfig

TINY_NETWORK = NetworkTraceConfig(num_sessions=150, num_clients=20, num_servers=5)


class TestSyntheticDrivers:
    def test_figure8_driver(self):
        table = figure8_workload_distribution(
            sizes=(60,),
            queries=("Qb,b", "Qo,o"),
            k=10,
            num_granules=4,
            cluster=ClusterConfig(num_reducers=3),
        )
        assert len(table.rows) == 4  # 1 size x 2 queries x 2 assigners
        assert {row["assigner"] for row in table.rows} == {"DTB", "LPT"}
        assert all(row["join_seconds"] >= 0 for row in table.rows)

    def test_figure9_driver(self):
        table = figure9_topbuckets_strategies(
            num_vertices=(3,),
            families=("Qb*",),
            size=50,
            num_granules=3,
            k=10,
            strategies=("loose", "brute-force"),
        )
        assert len(table.rows) == 2
        by_strategy = {row["strategy"]: row for row in table.rows}
        assert by_strategy["loose"]["selected_combinations"] >= 1
        assert by_strategy["loose"]["total_seconds"] > 0

    def test_figure10_driver(self):
        table = figure10_granules(granules=(3, 6), queries=("Qo,m",), size=80, k=10)
        assert len(table.rows) == 2
        assert all(0.0 <= row["pruned_fraction"] <= 1.0 for row in table.rows)
        assert all(row["imbalance"] >= 1.0 for row in table.rows)

    def test_figure11_driver(self):
        table = figure11_scalability(sizes=(50,), queries=("Qb,b", "Qo,o"), k=5, num_granules=4)
        systems = {row["system"] for row in table.rows}
        assert systems == {"TKIJ-P1", "TKIJ-PB", "All-Matrix-PB", "RCCIS-PB"}
        # Every arm returns at most k results and a positive running time.
        assert all(row["results"] <= 5 for row in table.rows)
        assert all(row["total_seconds"] > 0 for row in table.rows)

    def test_effect_of_k_driver(self):
        table = effect_of_k_synthetic(ks=(5, 20), queries=("Qb,b",), size=60, num_granules=4)
        ks = table.column("k")
        assert ks == [5, 20]
        assert all(row["selected_combinations"] >= 1 for row in table.rows)


class TestNetworkDrivers:
    def test_figure13_driver(self):
        table = figure13_network_scalability(
            fractions=(0.5, 1.0),
            queries=("Qb,b",),
            k=10,
            num_granules=4,
            config=TINY_NETWORK,
        )
        assert len(table.rows) == 2
        sizes = table.column("size")
        assert sizes[1] > sizes[0]

    def test_figure14_driver(self):
        table = figure14_network_effect_k(
            ks=(5, 20), queries=("Qb,b",), num_granules=4, config=TINY_NETWORK
        )
        assert [row["k"] for row in table.rows] == [5, 20]
        assert all(row["total_seconds"] > 0 for row in table.rows)
