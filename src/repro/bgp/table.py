"""Routing tables: the RIB and a synthetic global-table generator.

The paper's transfers move "5~8 MB for the full BGP table" (section
II-B) — a few hundred thousand prefixes in 2008–2011.  The generator
produces tables with the same wire-level character: unique prefixes of
realistic lengths, AS paths of 1–6 hops drawn from a skewed ASN pool,
and attribute sharing so that many prefixes pack into each UPDATE, as
real routers emit them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import (
    HEADER_LEN,
    MAX_MESSAGE_LEN,
    Prefix,
    UpdateMessage,
    encode_message,
)


@dataclass(frozen=True)
class Route:
    """One RIB entry: a prefix with its path attributes."""

    prefix: Prefix
    attributes: PathAttributes


class Rib:
    """A Routing Information Base keyed by prefix.

    The table's encoded transfer is cached (see :meth:`encoded_updates`)
    and dropped by every :meth:`add` and :meth:`withdraw`.
    """

    def __init__(self, routes: list[Route] | None = None) -> None:
        self._routes: dict[Prefix, Route] = {}
        self._encoded: tuple[bytes, ...] | None = None
        for route in routes or ():
            self.add(route)

    def add(self, route: Route) -> None:
        """Insert or replace the route for its prefix."""
        self._routes[route.prefix] = route
        self._encoded = None

    def withdraw(self, prefix: Prefix) -> Route | None:
        """Remove and return the route for ``prefix`` if present."""
        self._encoded = None
        return self._routes.pop(prefix, None)

    def lookup(self, prefix: Prefix) -> Route | None:
        """Exact-match lookup."""
        return self._routes.get(prefix)

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self):
        return iter(self._routes.values())

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes

    def prefixes(self) -> list[Prefix]:
        """All prefixes, in insertion order."""
        return [route.prefix for route in self._routes.values()]

    def to_updates(self, max_message_len: int = MAX_MESSAGE_LEN) -> list[UpdateMessage]:
        """Pack the whole table into UPDATE messages.

        Routes sharing a ``PathAttributes`` value ride in the same
        UPDATE until the 4096-byte limit, exactly as a router walks its
        RIB grouped by attribute set during a table transfer.
        """
        groups: dict[PathAttributes, list[Prefix]] = {}
        for route in self._routes.values():
            groups.setdefault(route.attributes, []).append(route.prefix)
        updates: list[UpdateMessage] = []
        for attributes, prefixes in groups.items():
            base_len = HEADER_LEN + 4 + len(attributes.encode())
            current: list[Prefix] = []
            used = base_len
            for prefix in prefixes:
                nlri_len = 1 + (prefix.length + 7) // 8
                if used + nlri_len > max_message_len and current:
                    updates.append(
                        UpdateMessage(tuple(current), attributes)
                    )
                    current = []
                    used = base_len
                current.append(prefix)
                used += nlri_len
            if current:
                updates.append(UpdateMessage(tuple(current), attributes))
        return updates

    def encoded_updates(self) -> tuple[bytes, ...]:
        """The full-table transfer as encoded UPDATE messages.

        Encoded on first use and kept until the table next changes, so
        every episode that announces a shared table sends the same
        bytes without re-encoding them.  The cache belongs to this
        ``Rib`` alone: two tables with equal routes encode separately.
        """
        if self._encoded is None:
            self._encoded = tuple(encode_message(u) for u in self.to_updates())
        return self._encoded

    def wire_size(self) -> int:
        """Total encoded size of the table transfer in bytes."""
        return sum(map(len, self.encoded_updates()))


# Observed prefix-length mix of the 2010-era global table (approximate).
_PREFIX_LENGTH_WEIGHTS = [
    (24, 0.53),
    (23, 0.07),
    (22, 0.08),
    (21, 0.04),
    (20, 0.05),
    (19, 0.05),
    (18, 0.04),
    (17, 0.02),
    (16, 0.09),
    (15, 0.01),
    (14, 0.01),
    (13, 0.005),
    (12, 0.005),
    (11, 0.002),
    (10, 0.002),
    (9, 0.002),
    (8, 0.004),
]


def generate_table(
    size: int,
    rng: random.Random,
    next_hop: str = "10.0.0.1",
    asn_pool: int = 3000,
    attribute_groups: int | None = None,
    wide_asn_fraction: float = 0.0,
) -> Rib:
    """Create a synthetic routing table of ``size`` unique prefixes.

    ``attribute_groups`` bounds the number of distinct attribute sets;
    by default roughly one per 60 prefixes, which yields the several-
    hundred-byte UPDATE messages real table transfers carry.
    """
    if size < 0:
        raise ValueError(f"negative table size {size}")
    if attribute_groups is None:
        attribute_groups = max(1, size // 60)
    lengths, weights = zip(*_PREFIX_LENGTH_WEIGHTS)
    # What ``choices(lengths, weights)`` computes on every call; passing
    # it precomputed leaves the draws unchanged.
    cum_weights = list(accumulate(weights))
    attribute_sets = [
        _random_attributes(rng, next_hop, asn_pool, wide_asn_fraction)
        for _ in range(attribute_groups)
    ]
    rib = Rib()
    while len(rib) < size:
        length = rng.choices(lengths, cum_weights=cum_weights)[0]
        prefix = Prefix.from_int(_random_address(rng, length), length)
        if prefix in rib:
            continue
        attributes = rng.choice(attribute_sets)
        rib.add(Route(prefix, attributes))
    return rib


def _random_address(rng: random.Random, length: int) -> int:
    address = rng.getrandbits(32)
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
    address &= mask
    # Stay inside unicast space.
    first_octet = (address >> 24) & 0xFF
    if first_octet in (0, 10, 127) or first_octet >= 224:
        address = (address & 0x00FFFFFF) | (unicast_octet(rng) << 24)
    return address


def unicast_octet(rng: random.Random) -> int:
    """A first octet drawn from routable unicast space."""
    while True:
        octet = rng.randint(1, 223)
        if octet not in (10, 127):
            return octet


def _random_attributes(
    rng: random.Random,
    next_hop: str,
    asn_pool: int,
    wide_asn_fraction: float = 0.0,
) -> PathAttributes:
    # Skewed ASN popularity: low ASNs (big transits) appear often.
    hops = rng.choices([1, 2, 3, 4, 5, 6], [5, 20, 30, 25, 15, 5])[0]
    path = []
    for _ in range(hops):
        asn = min(int(rng.paretovariate(0.6) * 100), 64000)
        asn = max(1, asn % asn_pool + 1)
        if wide_asn_fraction and rng.random() < wide_asn_fraction:
            # A post-2009 4-byte AS (carried via AS_TRANS + AS4_PATH).
            asn += 4_200_000_000
        path.append(asn)
    return PathAttributes.from_path(
        path,
        next_hop=next_hop,
        med=rng.choice([None, 0, 10, 100]),
    )
