"""Tests for the AS map and the dataset generator."""

from collections import Counter

import pytest

from repro.core.asmap import AsMap
from repro.core.datasets import (
    DatasetSpec,
    POPULAR_PROVIDERS,
    TABLE4_COMBO_WEIGHTS,
    TIER_MARGINALS,
    generate_universe,
    tilt_combo_weights,
)


class TestAsMap:
    def test_longest_prefix_wins(self):
        asmap = AsMap()
        asmap.announce("10.0.0.0/8", 100, "Big")
        asmap.announce("10.1.0.0/16", 200, "Specific")
        assert asmap.lookup("10.1.2.3").asn == 200
        assert asmap.lookup("10.2.2.3").asn == 100

    def test_miss_returns_none(self):
        asmap = AsMap()
        asmap.announce("192.0.2.0/24", 1, "X")
        assert asmap.lookup("198.51.100.1") is None

    def test_ipv6(self):
        asmap = AsMap()
        asmap.announce("2001:db8:1::/48", 300, "Six")
        assert asmap.lookup("2001:db8:1::beef").asn == 300
        assert asmap.lookup("2001:db8:2::beef") is None

    def test_host_route(self):
        asmap = AsMap()
        asmap.announce("192.0.2.7/32", 7, "One")
        assert asmap.lookup("192.0.2.7").asn == 7

    def test_len_counts_both_families(self):
        asmap = AsMap()
        asmap.announce("192.0.2.0/24", 1, "A")
        asmap.announce("2001:db8::/32", 1, "A")
        assert len(asmap) == 2


class TestIpf:
    def test_tilt_hits_target_marginals(self):
        for tier, targets in TIER_MARGINALS.items():
            weights = tilt_combo_weights(TABLE4_COMBO_WEIGHTS, targets)
            for axis in range(3):
                marginal = sum(weight for combo, weight in weights.items() if combo[axis])
                assert marginal == pytest.approx(targets[axis], abs=0.02)

    def test_zero_cells_stay_near_zero(self):
        weights = tilt_combo_weights(TABLE4_COMBO_WEIGHTS, (0.9, 0.9, 0.7))
        assert weights[(False, True, True)] < 1e-6


@pytest.fixture(scope="module")
def notify_universe():
    return generate_universe(DatasetSpec.notify_email(scale=0.03), seed=17)


@pytest.fixture(scope="module")
def twoweek_universe():
    return generate_universe(DatasetSpec.two_week_mx(scale=0.03), seed=18)


class TestUniverseShape:
    def test_deterministic(self):
        a = generate_universe(DatasetSpec.notify_email(scale=0.005), seed=5)
        b = generate_universe(DatasetSpec.notify_email(scale=0.005), seed=5)
        assert [d.name for d in a.domains] == [d.name for d in b.domains]
        assert [m.ipv4 for m in a.mtas] == [m.ipv4 for m in b.mtas]

    def test_domain_count_scales(self, notify_universe):
        assert len(notify_universe.domains) == int(26695 * 0.03)

    def test_domain_names_unique(self, notify_universe):
        names = [domain.name for domain in notify_universe.domains]
        assert len(names) == len(set(names))

    def test_domainids_unique(self, notify_universe):
        ids = [domain.domainid for domain in notify_universe.domains]
        assert len(ids) == len(set(ids))

    def test_every_domain_has_mtas(self, notify_universe):
        for domain in notify_universe.domains:
            assert domain.mta_hosts
            for host in domain.mta_hosts:
                assert host.ipv4 or host.ipv6

    def test_tld_mix_matches_table1(self, notify_universe):
        counts = Counter(domain.tld for domain in notify_universe.domains)
        total = len(notify_universe.domains)
        assert abs(counts["com"] / total - 0.26) < 0.05
        assert abs(counts["net"] / total - 0.13) < 0.04

    def test_twoweek_tld_mix(self, twoweek_universe):
        counts = Counter(domain.tld for domain in twoweek_universe.domains)
        total = len(twoweek_universe.domains)
        assert abs(counts["com"] / total - 0.49) < 0.05
        assert abs(counts["org"] / total - 0.17) < 0.05

    def test_as_concentration(self, twoweek_universe):
        universe = twoweek_universe
        domain_share = Counter()
        for domain in universe.domains:
            seen = set()
            for host in domain.mta_hosts:
                info = universe.asmap.lookup(host.ipv4 or host.ipv6)
                assert info is not None
                if info.asn not in seen:
                    seen.add(info.asn)
                    domain_share[info.asn] += 1
        total = len(universe.domains)
        assert abs(domain_share[15169] / total - 0.32) < 0.07  # Google
        assert abs(domain_share[8075] / total - 0.20) < 0.06  # Microsoft

    def test_mta_sharing_keeps_mtas_below_domains(self, twoweek_universe):
        assert len(twoweek_universe.mtas) < len(twoweek_universe.domains)

    def test_alexa_membership_counts(self, notify_universe):
        spec = notify_universe.spec
        in_1m = sum(1 for d in notify_universe.domains if d.alexa_rank is not None)
        in_1k = sum(
            1 for d in notify_universe.domains if d.alexa_rank is not None and d.alexa_rank <= 1000
        )
        # Popular providers are force-ranked, so counts may exceed the spec
        # targets slightly.
        assert in_1m >= spec.alexa_top1m
        assert in_1k >= spec.alexa_top1k
        assert in_1m < 2 * spec.alexa_top1m

    def test_popular_providers_present_with_fixed_combos(self, notify_universe):
        by_name = {domain.name: domain for domain in notify_universe.domains}
        for name, spf, dkim, dmarc in POPULAR_PROVIDERS:
            domain = by_name[name]
            host = domain.mta_hosts[0]
            assert host.behavior.validates_spf == spf
            assert host.behavior.validates_dkim == dkim
            assert host.behavior.validates_dmarc == dmarc

    def test_local_domains_marked(self, twoweek_universe):
        locals_ = [domain for domain in twoweek_universe.domains if domain.is_local]
        assert locals_
        for domain in locals_:
            assert domain.name.endswith("byu.edu")
            assert domain.demand >= 50000

    def test_demand_is_zipf_like(self, twoweek_universe):
        demands = sorted(
            (d.demand for d in twoweek_universe.domains if not d.is_local), reverse=True
        )
        assert demands[0] > 100 * demands[len(demands) // 2]

    def test_resolution_failures_only_notify(self, notify_universe, twoweek_universe):
        failed = sum(1 for d in notify_universe.domains if d.resolution_failed)
        assert 0 < failed < 0.05 * len(notify_universe.domains)
        assert not any(d.resolution_failed for d in twoweek_universe.domains)

    def test_ipv6_fraction(self, notify_universe):
        fraction = len(notify_universe.unique_ipv6) / len(notify_universe.mtas)
        assert 0.03 < fraction < 0.18

    def test_tier_conditioning_raises_dmarc_rate(self):
        universe = generate_universe(DatasetSpec.notify_email(scale=0.06), seed=33)
        def dmarc_rate(domains):
            relevant = [d for d in domains if d.mta_hosts]
            hits = sum(
                1 for d in relevant if any(h.behavior.validates_dmarc for h in d.mta_hosts)
            )
            return hits / len(relevant)
        top = [d for d in universe.domains if d.alexa_rank is not None]
        rest = [d for d in universe.domains if d.alexa_rank is None]
        assert dmarc_rate(top) > dmarc_rate(rest)
