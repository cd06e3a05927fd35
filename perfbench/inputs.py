"""Seeded inputs for the front-door benchmark.

Everything the program under test receives is made here from the run's
``--seed`` (plus a stream name per workload), so the same seed always gives
byte-identical contracts, schedules and file trees.

Contracts come from the program's own template families
(``repro.datasets.generator``) and obfuscator.  Every contract carries a
unique trailer that no lowering stage reads, so content hashes never
collide and no content-keyed cache (graph cache, registry, tier-0 memo)
can quietly turn a "never-seen" contract into a hit:

* EVM: ``INVALID`` followed by one ``PUSH32`` of digest bytes -- an
  unreachable block after the code, like the metadata trailer compilers
  append;
* WASM: one custom section (id 0), which module parsers skip.

Obfuscating is the costly part of generation (about 2 ms per EVM and 9 ms
per WASM contract), so each stream obfuscates at most
``OBFUSCATED_POOL`` bases per platform and label and re-uses them, each time with a
fresh trailer; lowering still does the full work for every contract.

Mixes are exact counts per block (see :func:`compose`), never per-contract
coin flips, so the length of a run never changes a workload's mix.
Template families are dealt from shuffled decks and obfuscation
intensities are stratified over their range, so seeds differ in the
contracts they draw but not in the mix of work.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Tuple

from repro.evm.contracts import ALL_TEMPLATES as EVM_TEMPLATES
from repro.obfuscation.pipeline import obfuscate_sample
from repro.wasm.contracts import WASM_ALL_TEMPLATES

#: Shares every generated block keeps exactly (rounded per platform).
EVM_SHARE = 2.0 / 3.0
MALICIOUS_SHARE = 0.25

#: Obfuscation intensity range for the obfuscated share of a block.
INTENSITY_RANGE = (0.25, 1.0)

#: Freshly obfuscated bases per (platform, malicious) and stream before
#: re-use; 3:1 like the label mix.
OBFUSCATED_POOL = {
    ("evm", False): 72,
    ("evm", True): 24,
    ("wasm", False): 36,
    ("wasm", True): 12,
}

#: One slot of a composed block: (platform, malicious, obfuscated).
Slot = Tuple[str, bool, bool]


def stream_rng(seed: int, stream: str) -> random.Random:
    """An RNG for one named input stream of one seed."""
    digest = hashlib.sha256(f"perfbench:{stream}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def compose(size: int, obfuscated_share: float, rng: random.Random) -> List[Slot]:
    """A shuffled block of ``size`` slots with exact shares.

    Within each platform, ``MALICIOUS_SHARE`` of the slots are malicious
    and ``obfuscated_share`` are obfuscated (drawn independently of the
    label), each rounded to the nearest count.
    """
    num_evm = round(size * EVM_SHARE)
    slots: List[Slot] = []
    for platform, count in (("evm", num_evm), ("wasm", size - num_evm)):
        malicious = [True] * round(count * MALICIOUS_SHARE)
        malicious += [False] * (count - len(malicious))
        obfuscated = [True] * round(count * obfuscated_share)
        obfuscated += [False] * (count - len(obfuscated))
        rng.shuffle(malicious)
        rng.shuffle(obfuscated)
        slots.extend(zip([platform] * count, malicious, obfuscated))
    rng.shuffle(slots)
    return slots


class ContractFactory:
    """Makes never-seen contracts for one stream of one seed."""

    def __init__(self, seed: int, stream: str) -> None:
        self.seed = seed
        self.stream = stream
        self.rng = stream_rng(seed, stream)
        self.serial = 0
        self._templates = {
            ("evm", label): [t for t in EVM_TEMPLATES if t.label == label]
            for label in (0, 1)
        }
        self._templates.update(
            {
                ("wasm", label): [
                    t for t in WASM_ALL_TEMPLATES if t.label == label
                ]
                for label in (0, 1)
            }
        )
        self._decks: Dict[Tuple[str, int], list] = {}
        self._intensities: Dict[Tuple[str, bool], List[float]] = {}
        self._pools: Dict[Tuple[str, bool], List[bytes]] = {}
        self._pool_next: Dict[Tuple[str, bool], int] = {}

    def make(self, slot: Slot) -> bytes:
        """One contract for ``slot``, unique within this factory."""
        platform, malicious, obfuscated = slot
        if obfuscated:
            body = self._obfuscated(platform, malicious)
        else:
            body = self._template(platform, malicious)
        self.serial += 1
        tag = hashlib.sha256(
            f"{self.stream}:{self.seed}:{self.serial}".encode()
        ).digest()
        if platform == "evm":
            return body + b"\xfe\x7f" + tag
        name = b"bench"
        payload = bytes([len(name)]) + name + tag[:16]
        return body + b"\x00" + bytes([len(payload)]) + payload

    def make_block(self, size: int, obfuscated_share: float) -> List[bytes]:
        return [self.make(slot) for slot in compose(size, obfuscated_share, self.rng)]

    def _template(self, platform: str, malicious: bool) -> bytes:
        # deal templates from a shuffled deck, so every seed gets the same
        # family mix and only the parameters differ
        key = (platform, int(malicious))
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = list(self._templates[key])
            self.rng.shuffle(deck)
        template = deck.pop()
        return template.generate(random.Random(self.rng.randrange(1 << 30)))

    def _intensity(self, key: Tuple[str, bool]) -> float:
        # stratified over the pool: one draw per equal slice of the range
        deck = self._intensities.get(key)
        if deck is None:
            low, high = INTENSITY_RANGE
            size = OBFUSCATED_POOL[key]
            deck = self._intensities[key] = [
                low + (high - low) * (i + self.rng.random()) / size
                for i in range(size)]
            self.rng.shuffle(deck)
        return deck.pop()

    def _obfuscated(self, platform: str, malicious: bool) -> bytes:
        key = (platform, malicious)
        pool = self._pools.setdefault(key, [])
        if len(pool) < OBFUSCATED_POOL[key]:
            intensity = self._intensity(key)
            pool.append(
                obfuscate_sample(
                    self._template(platform, malicious),
                    platform,
                    intensity,
                    seed=self.rng.randrange(1 << 30),
                )
            )
            return pool[-1]
        index = self._pool_next.get(key, 0)
        self._pool_next[key] = index + 1
        return pool[index % len(pool)]


def zipf_cumulative(count: int) -> List[float]:
    """Prefix sums of ``1/rank`` for ranks 1..count (Zipf, s = 1)."""
    total = 0.0
    sums = []
    for rank in range(1, count + 1):
        total += 1.0 / rank
        sums.append(total)
    return sums
