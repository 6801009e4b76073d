"""Android resource identifiers and the obfuscation thereof.

FraudDroid-style detectors (paper Section VI-C) match views against a
lexicon of known resource-id substrings (``btn_close``, ``ad_skip``…).
The paper attributes FraudDroid's collapse on AUI detection to apps
obfuscating those ids or generating them dynamically.  This module
models both the well-named and the obfuscated regimes.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from repro.scalars import pick_many


class ResourceIdPolicy(Enum):
    """How an app names its view resources."""

    #: Human-readable ids (``com.app:id/btn_close``) — heuristics work.
    READABLE = "readable"
    #: ProGuard/R8-style obfuscation (``com.app:id/a1x``).
    OBFUSCATED = "obfuscated"
    #: Ids minted at runtime (``com.app:id/v_283711``) — unmatchable.
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class ResourceId:
    """A fully-qualified Android resource id: ``<package>:id/<entry>``."""

    package: str
    entry: str

    def __str__(self) -> str:
        return f"{self.package}:id/{self.entry}"

    @property
    def qualified(self) -> str:
        return str(self)


_OBFUSCATION_ALPHABET = string.ascii_lowercase + string.digits


def obfuscate_entry(entry: str, rng: np.random.Generator, length: int = 3) -> str:
    """Replace a readable entry name with a ProGuard-style short name."""
    del entry  # the readable name must not leak into the result
    return "".join(pick_many(rng, _OBFUSCATION_ALPHABET, length))


def make_resource_id(
    package: str,
    readable_entry: str,
    policy: ResourceIdPolicy,
    rng: Optional[np.random.Generator] = None,
) -> ResourceId:
    """Mint a resource id for a view under the app's naming policy."""
    if policy is ResourceIdPolicy.READABLE:
        return ResourceId(package, readable_entry)
    if rng is None:
        raise ValueError(f"policy {policy} requires an rng")
    if policy is ResourceIdPolicy.OBFUSCATED:
        return ResourceId(package, obfuscate_entry(readable_entry, rng))
    # DYNAMIC: runtime-generated numeric suffixes.
    return ResourceId(package, f"v_{int(rng.integers(10_000, 999_999))}")
