"""Tests for the resolver stack: cache, universe, backends, frontends."""

import pytest

from repro.dnswire import DnsName, Rcode, ResourceRecord, RRType, make_query
from repro.doe import DnsCryptClient, DoqClient
from repro.doe.dnscrypt import DnsCryptService, ProviderKey, seal, unseal
from repro.doe.doq import DoqService
from repro.errors import WireFormatError
from repro.netsim import country
from repro.netsim.host import Host, TlsConfig
from repro.resolvers import (
    DnsCache,
    DnsUniverse,
    FixedAnswerBackend,
    FlakyForwardingBackend,
    RecursiveBackend,
    ResolutionContext,
    SpoofingBackend,
)
from repro.tlssim import make_chain

WWW = DnsName.from_text("www.example.com")


def ctx(timestamp=0.0, country_code=None):
    return ResolutionContext(client_address="5.5.5.5",
                             resolver_address="7.7.7.7",
                             timestamp=timestamp,
                             client_country=country_code)


class TestDnsCache:
    def test_miss_then_hit(self):
        cache = DnsCache()
        record = ResourceRecord.a(WWW, "192.0.2.1", ttl=300)
        assert cache.get(WWW, RRType.A, now=0.0) is None
        cache.put(WWW, RRType.A, (record,), Rcode.NOERROR, now=0.0)
        hit = cache.get(WWW, RRType.A, now=10.0)
        assert hit is not None
        assert hit[0][0].rdata.address == "192.0.2.1"

    def test_ttl_expiry(self):
        cache = DnsCache()
        record = ResourceRecord.a(WWW, "192.0.2.1", ttl=60)
        cache.put(WWW, RRType.A, (record,), Rcode.NOERROR, now=0.0)
        assert cache.get(WWW, RRType.A, now=59.0) is not None
        assert cache.get(WWW, RRType.A, now=61.0) is None
        assert cache.stats.expirations == 1

    def test_negative_caching(self):
        cache = DnsCache(negative_ttl=30.0)
        cache.put(WWW, RRType.A, (), Rcode.NXDOMAIN, now=0.0)
        hit = cache.get(WWW, RRType.A, now=10.0)
        assert hit == ((), Rcode.NXDOMAIN)
        assert cache.get(WWW, RRType.A, now=40.0) is None

    def test_lru_eviction(self):
        cache = DnsCache(max_entries=2)
        for index in range(3):
            name = DnsName.from_text(f"h{index}.example.com")
            cache.put(name, RRType.A,
                      (ResourceRecord.a(name, "192.0.2.1"),),
                      Rcode.NOERROR, now=0.0)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get(DnsName.from_text("h0.example.com"),
                         RRType.A, now=0.0) is None

    def test_hit_refreshes_lru_position(self):
        cache = DnsCache(max_entries=2)
        first = DnsName.from_text("h0.example.com")
        second = DnsName.from_text("h1.example.com")
        for name in (first, second):
            cache.put(name, RRType.A,
                      (ResourceRecord.a(name, "192.0.2.1"),),
                      Rcode.NOERROR, now=0.0)
        cache.get(first, RRType.A, now=0.0)  # refresh h0
        third = DnsName.from_text("h2.example.com")
        cache.put(third, RRType.A,
                  (ResourceRecord.a(third, "192.0.2.1"),),
                  Rcode.NOERROR, now=0.0)
        assert cache.get(first, RRType.A, now=0.0) is not None

    def test_zero_ttl_not_cached(self):
        cache = DnsCache()
        cache.put(WWW, RRType.A,
                  (ResourceRecord.a(WWW, "192.0.2.1", ttl=0),),
                  Rcode.NOERROR, now=0.0)
        assert len(cache) == 0

    def test_hit_ratio(self):
        cache = DnsCache()
        cache.get(WWW, RRType.A, now=0.0)
        cache.put(WWW, RRType.A, (ResourceRecord.a(WWW, "1.2.3.4"),),
                  Rcode.NOERROR, now=0.0)
        cache.get(WWW, RRType.A, now=0.0)
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def _fill(self, cache, count, ttl=300, now=0.0, prefix="h"):
        for index in range(count):
            name = DnsName.from_text(f"{prefix}{index}.example.com")
            cache.put(name, RRType.A,
                      (ResourceRecord.a(name, "192.0.2.1", ttl=ttl),),
                      Rcode.NOERROR, now=now)

    def test_pressure_lru_counts_live_victims(self):
        cache = DnsCache(max_entries=4)
        self._fill(cache, 6)
        assert cache.stats.pressure_lru == 2
        assert cache.stats.pressure_expired == 0
        assert cache.stats.evictions == 2

    def test_pressure_prefers_purging_expired_entries(self):
        cache = DnsCache(max_entries=4)
        self._fill(cache, 4, ttl=10, now=0.0)
        # All four residents are dead by now=100: the overflow purge
        # must claim them as expired, never as LRU sacrifices.
        self._fill(cache, 2, ttl=300, now=100.0, prefix="fresh")
        assert cache.stats.pressure_expired >= 1
        assert cache.stats.pressure_lru == 0
        assert cache.stats.evictions == 0

    def test_pressure_counters_reach_the_registry(self):
        from repro import telemetry
        registry, _ = telemetry.reset_registry()
        cache = DnsCache(max_entries=2)
        self._fill(cache, 4)
        assert registry.value("resolver.cache.pressure", reason="lru") == 2


class TestCacheStats:
    def test_merge_from_sums_every_field(self):
        from repro.resolvers.cache import CacheStats
        left = CacheStats(hits=5, misses=3, evictions=1, expirations=2,
                          pressure_lru=1, pressure_expired=2)
        right = CacheStats(hits=1, misses=1, evictions=1, expirations=1,
                          pressure_lru=1, pressure_expired=1)
        merged = left.merge_from(right)
        assert merged is left
        assert (left.hits, left.misses) == (6, 4)
        assert (left.evictions, left.expirations) == (2, 3)
        assert (left.pressure_lru, left.pressure_expired) == (2, 3)
        assert left.hit_ratio == pytest.approx(0.6)

    def test_from_registry_survives_shard_merge(self):
        # The regression this guards: sharded runs keep only merged
        # telemetry, and CacheStats must be reconstructible from it.
        from repro import telemetry
        from repro.resolvers.cache import CacheStats
        from repro.telemetry import MetricsRegistry

        fragments = []
        for _ in range(2):
            registry, _ = telemetry.reset_registry()
            cache = DnsCache(max_entries=2)
            cache.get(WWW, RRType.A, now=0.0)  # miss
            cache.put(WWW, RRType.A,
                      (ResourceRecord.a(WWW, "1.2.3.4"),),
                      Rcode.NOERROR, now=0.0)
            cache.get(WWW, RRType.A, now=0.0)  # hit
            for index in range(3):
                name = DnsName.from_text(f"h{index}.example.com")
                cache.put(name, RRType.A,
                          (ResourceRecord.a(name, "192.0.2.1"),),
                          Rcode.NOERROR, now=0.0)
            fragments.append(registry)
        telemetry.reset_registry()
        merged = MetricsRegistry()
        for fragment in fragments:
            merged.merge(fragment)
        stats = CacheStats.from_registry(merged)
        assert stats.hits == 2
        assert stats.misses == 2
        assert stats.evictions == 4
        assert stats.pressure_lru == 4
        assert stats.hit_ratio == pytest.approx(0.5)


class TestUniverse:
    def test_host_a_and_resolve_public(self):
        universe = DnsUniverse()
        universe.host_a("doh.crypto.sx", "185.2.24.10")
        assert universe.resolve_public("doh.crypto.sx") == ("185.2.24.10",)

    def test_resolve_public_unknown(self):
        assert DnsUniverse().resolve_public("nope.example") == ()

    def test_longest_suffix_zone_match(self):
        universe = DnsUniverse()
        universe.host_a("a.example.com", "192.0.2.1")
        zone = universe.zone_for(DnsName.from_text("deep.a.example.com"))
        assert zone is not None
        assert zone.origin == DnsName.from_text("example.com")

    def test_authoritative_log(self):
        from repro.dnswire.zone import Zone
        universe = DnsUniverse()
        origin = DnsName.from_text("probe.test.")
        zone = Zone(origin)
        zone.add(ResourceRecord.a(origin.child("*"), "198.51.100.53"))
        universe.add_zone(zone, logged=True)
        universe.authoritative_lookup(origin.child("tok1"), RRType.A,
                                      timestamp=5.0, via_resolver="1.1.1.1")
        log = universe.log_for(origin)
        assert len(log) == 1
        assert log.queries_for(origin.child("tok1")) == [(5.0, "1.1.1.1")]

    def test_unlogged_zone_has_no_log(self):
        universe = DnsUniverse()
        universe.host_a("x.example.org", "192.0.2.1")
        from repro.errors import ScenarioError
        with pytest.raises(ScenarioError):
            universe.log_for(DnsName.from_text("example.org"))

    def test_nxdomain_for_unknown_zone(self):
        universe = DnsUniverse()
        rcode, records = universe.authoritative_lookup(
            WWW, RRType.A, 0.0, "r")
        assert rcode == Rcode.NXDOMAIN
        assert records == ()


class TestBackends:
    @pytest.fixture()
    def universe(self):
        universe = DnsUniverse()
        universe.host_a("www.example.com", "93.184.216.34")
        return universe

    def test_recursive_resolves(self, universe, rng):
        backend = RecursiveBackend(universe, rng)
        resolution = backend.resolve(make_query(WWW), ctx())
        assert resolution.response.answer_addresses() == ("93.184.216.34",)
        assert resolution.extra_ms > 0  # upstream cost on a cache miss

    def test_recursive_cache_hit_is_cheap(self, universe, rng):
        backend = RecursiveBackend(universe, rng)
        backend.resolve(make_query(WWW), ctx(timestamp=0.0))
        second = backend.resolve(make_query(WWW), ctx(timestamp=1.0))
        assert second.extra_ms < 1.0

    def test_recursive_nxdomain(self, universe, rng):
        backend = RecursiveBackend(universe, rng)
        resolution = backend.resolve(
            make_query(DnsName.from_text("missing.test.")), ctx())
        assert resolution.response.rcode() == Rcode.NXDOMAIN

    def test_fixed_answer_rewrites(self, universe, rng):
        backend = FixedAnswerBackend(RecursiveBackend(universe, rng),
                                     "198.51.100.7")
        resolution = backend.resolve(make_query(WWW), ctx())
        assert resolution.response.answer_addresses() == ("198.51.100.7",)

    def test_fixed_answer_spares_subscribers(self, universe, rng):
        backend = FixedAnswerBackend(RecursiveBackend(universe, rng),
                                     "198.51.100.7",
                                     subscribers=("5.5.5.5",))
        resolution = backend.resolve(make_query(WWW), ctx())
        assert resolution.response.answer_addresses() == ("93.184.216.34",)

    def test_fixed_answer_forces_nxdomain_to_answer(self, universe, rng):
        backend = FixedAnswerBackend(RecursiveBackend(universe, rng),
                                     "198.51.100.7")
        resolution = backend.resolve(
            make_query(DnsName.from_text("whatever.unknown.")), ctx())
        assert resolution.response.answer_addresses() == ("198.51.100.7",)

    def test_flaky_forwarding_servfails_sometimes(self, universe, rng):
        backend = FlakyForwardingBackend(
            RecursiveBackend(universe, rng.fork("inner")),
            rng.fork("flaky"), slow_upstream_probability=0.5)
        outcomes = [backend.resolve(make_query(WWW, msg_id=index),
                                    ctx()).response.rcode()
                    for index in range(200)]
        servfails = sum(1 for rcode in outcomes if rcode == Rcode.SERVFAIL)
        assert 60 < servfails < 140
        assert backend.timeouts_hit == servfails

    def test_flaky_timeout_costs_the_full_deadline(self, universe, rng):
        backend = FlakyForwardingBackend(
            RecursiveBackend(universe, rng.fork("inner")),
            rng.fork("flaky"), slow_upstream_probability=1.0,
            forward_timeout_ms=2000.0)
        resolution = backend.resolve(make_query(WWW), ctx())
        assert resolution.extra_ms == 2000.0

    def test_flaky_regional_override(self, universe, rng):
        backend = FlakyForwardingBackend(
            RecursiveBackend(universe, rng.fork("inner")),
            rng.fork("flaky"), slow_upstream_probability=1.0,
            regional_probabilities={"AP": 0.0})
        # Chinese clients sit in region AP: never flaky here.
        resolution = backend.resolve(make_query(WWW),
                                     ctx(country_code="CN"))
        assert resolution.response.rcode() == Rcode.NOERROR
        # Default probability applies elsewhere.
        resolution = backend.resolve(make_query(WWW),
                                     ctx(country_code="DE"))
        assert resolution.response.rcode() == Rcode.SERVFAIL

    def test_spoofing_backend(self, rng):
        backend = SpoofingBackend("192.0.2.66")
        resolution = backend.resolve(make_query(WWW), ctx())
        assert resolution.response.answer_addresses() == ("192.0.2.66",)


class TestAlternativeProtocols:
    @pytest.fixture()
    def dnscrypt_world(self, rng):
        from repro.netsim import Network
        network = Network()
        universe = DnsUniverse()
        universe.host_a("www.example.com", "93.184.216.34")
        key = ProviderKey("2.dnscrypt-cert.resolver.test", "pubkey123")
        host = Host(address="6.6.6.6", country_code="US",
                    point=country("US").point)
        host.bind("udp", 443, DnsCryptService(
            RecursiveBackend(universe, rng.fork("b")), key))
        network.add_host(host)
        from repro.netsim import ClientEnvironment
        env = ClientEnvironment.in_country("c", "5.4.3.2", "FR",
                                           rng.fork("e"))
        return network, env, key

    def test_seal_unseal_roundtrip(self):
        key = ProviderKey("p", "k1")
        assert unseal(key, seal(key, b"payload")) == b"payload"

    def test_unseal_rejects_wrong_key(self):
        sealed = seal(ProviderKey("p", "k1"), b"payload")
        with pytest.raises(WireFormatError):
            unseal(ProviderKey("p", "k2"), sealed)

    def test_unseal_rejects_plain_bytes(self):
        with pytest.raises(WireFormatError):
            unseal(ProviderKey("p", "k1"), b"not an envelope")

    @pytest.mark.parametrize("payload", [b"DNSC", b"DNSC\x05\xff\xfe"])
    def test_unseal_rejects_malformed_envelopes(self, payload):
        with pytest.raises(WireFormatError):
            unseal(ProviderKey("p", "k1"), payload)

    def test_service_rejects_bare_envelope(self, dnscrypt_world, rng):
        """A 4-byte ``DNSC`` datagram fails with the typed error the
        client maps to a protocol failure, not an IndexError."""
        from repro.netsim.transport import UdpExchange
        network, env, _ = dnscrypt_world
        with pytest.raises(WireFormatError):
            UdpExchange.exchange(network, env, "6.6.6.6", 443, b"DNSC",
                                 rng.fork("raw"))

    def test_dnscrypt_query(self, dnscrypt_world, rng):
        network, env, key = dnscrypt_world
        client = DnsCryptClient(network, rng.fork("c"))
        result = client.query(env, "6.6.6.6", key, make_query(WWW))
        assert result.ok
        assert result.addresses() == ("93.184.216.34",)

    def test_doq_query_and_reuse(self, rng, trust):
        from repro.netsim import ClientEnvironment, Network
        network = Network()
        universe = DnsUniverse()
        universe.host_a("www.example.com", "93.184.216.34")
        chain = make_chain(trust["ca"], "doq.test", "2018-06-01",
                           "2019-12-01")
        host = Host(address="6.6.6.7", country_code="US",
                    point=country("US").point)
        host.bind("udp", 784, DoqService(
            RecursiveBackend(universe, rng.fork("b")),
            TlsConfig(cert_chain=chain)))
        network.add_host(host)
        env = ClientEnvironment.in_country("c", "5.4.3.3", "GB",
                                           rng.fork("e"))
        client = DoqClient(network, rng.fork("c"), trust["store"])
        first = client.query(env, "6.6.6.7", make_query(WWW, msg_id=1))
        second = client.query(env, "6.6.6.7", make_query(WWW, msg_id=2))
        assert first.ok and second.ok
        assert second.reused_connection
        assert second.latency_ms < first.latency_ms

    def test_doq_rejects_invalid_certificate(self, rng, trust):
        from repro.netsim import ClientEnvironment, Network
        from repro.tlssim import self_signed
        network = Network()
        universe = DnsUniverse()
        host = Host(address="6.6.6.8", country_code="US",
                    point=country("US").point)
        host.bind("udp", 784, DoqService(
            RecursiveBackend(universe, rng.fork("b")),
            TlsConfig(cert_chain=self_signed("doq.bad", "2018-01-01",
                                             "2028-01-01"))))
        network.add_host(host)
        env = ClientEnvironment.in_country("c", "5.4.3.4", "GB",
                                           rng.fork("e"))
        client = DoqClient(network, rng.fork("c"), trust["store"])
        result = client.query(env, "6.6.6.8", make_query(WWW))
        assert not result.ok
        from repro.doe import FailureKind
        assert result.failure is FailureKind.CERTIFICATE
