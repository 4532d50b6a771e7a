"""Per-visit sampling of a page blueprint.

The browser engine asks this module one question per slot: *does this slot
load on this visit, and under what concrete URL?*  The answer depends on

* the slot's :class:`~repro.web.blueprint.InclusionRule`,
* the visiting profile's capabilities (interaction, version, headless),
* the per-visit random seed, and
* ad-rotation groups (one winner per group per visit).

Each slot draws from its own RNG stream derived from
``(visit_seed, slot_id)``, so inclusion decisions are independent of
traversal order: two profiles whose gates exclude different subtrees still
make identical draws for every slot they both reach.  This mirrors reality,
where a page's nondeterminism is a property of the page, not of the
crawler's traversal.

Keeping this logic out of the browser engine makes the dynamics directly
unit-testable: the paper's setup effects (Table 6) are exactly the effects
of these gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..rng import child_rng, token_hex
from .blueprint import PageBlueprint, ResourceSlot
from .url import URL


@dataclass(frozen=True)
class VisitConditions:
    """The blueprint-relevant capabilities of the visiting browser."""

    user_interaction: bool
    browser_version: int
    headless: bool


class SlotSampler:
    """Samples slot inclusion for one page visit.

    Rotation groups are resolved at most once per visit: the first slot of a
    group that comes up triggers the draw, and the winner is remembered.
    """

    def __init__(
        self,
        page: PageBlueprint,
        conditions: VisitConditions,
        visit_seed: int,
    ) -> None:
        self._conditions = conditions
        self._visit_seed = visit_seed
        self._rotation_winners: Dict[str, Optional[str]] = {}
        self._rotation_members = _collect_rotation_groups(page)

    def is_included(self, slot: ResourceSlot) -> bool:
        """Decide whether ``slot`` loads on this visit."""
        rule = slot.rule
        if rule.requires_interaction and not self._conditions.user_interaction:
            return False
        if rule.min_version is not None and self._conditions.browser_version < rule.min_version:
            return False
        if rule.max_version is not None and self._conditions.browser_version > rule.max_version:
            return False
        if not rule.headless_visible and self._conditions.headless:
            return False
        if rule.rotation_group is not None:
            if self._rotation_winner(rule.rotation_group) != slot.slot_id:
                return False
        if rule.probability < 1.0:
            rng = child_rng(self._visit_seed, "include", slot.slot_id)
            if rng.random() >= rule.probability:
                return False
        return True

    def concrete_url(self, slot: ResourceSlot) -> URL:
        """Materialize the slot's URL for this visit.

        Appends the per-visit session parameter and/or replaces the path's
        creative token, both drawn from the slot's visit stream.  A slot
        with neither keeps its blueprint URL and builds no stream.
        """
        url = slot.url
        if not slot.unique_path_token and slot.session_param is None:
            return url
        rng = child_rng(self._visit_seed, "url", slot.slot_id)
        if slot.unique_path_token:
            token = token_hex(rng, 6)
            url = URL(
                scheme=url.scheme,
                host=url.host,
                path=_inject_token(url.path, token),
                query=url.query,
                port=url.port,
            )
        if slot.session_param is not None:
            url = url.with_param(slot.session_param, token_hex(rng, 4))
        return url

    def sample_redirects(self, slot: ResourceSlot):
        """The redirect chain for this visit.

        Fixed ``redirect_via`` chains are returned as-is; per-visit pools
        draw a fresh hop count and partner sample each visit, so the same
        resource reaches the browser through different chains in different
        profiles — the paper's non-deterministic dependency chains.
        """
        if slot.redirect_via:
            return slot.redirect_via
        low, high = slot.redirect_hops
        if not slot.redirect_pool or high == 0:
            return ()
        rng = child_rng(self._visit_seed, "redirect", slot.slot_id)
        hops = rng.randint(low, high)
        if hops == 0:
            return ()
        return tuple(rng.sample(list(slot.redirect_pool), hops))

    def cookie_rng(self, slot: ResourceSlot, cookie_name: str):
        """The RNG stream for one cookie template on one slot."""
        return child_rng(self._visit_seed, "cookie", slot.slot_id, cookie_name)

    def _rotation_winner(self, group: str) -> Optional[str]:
        if group not in self._rotation_winners:
            members = self._rotation_members.get(group, ())
            if members:
                rng = child_rng(self._visit_seed, "rotation", group)
                self._rotation_winners[group] = rng.choice(list(members))
            else:
                self._rotation_winners[group] = None
        return self._rotation_winners[group]


def _collect_rotation_groups(page: PageBlueprint) -> Dict[str, List[str]]:
    groups: Dict[str, List[str]] = {}
    for slot in page.walk_slots():
        if slot.rule.rotation_group is not None:
            groups.setdefault(slot.rule.rotation_group, []).append(slot.slot_id)
    return groups


def _inject_token(path: str, token: str) -> str:
    """Insert ``token`` before the file extension of ``path``.

    ``/creative/banner.jpg`` → ``/creative/banner-<token>.jpg``; paths
    without an extension get the token as a new trailing segment.
    """
    head, sep, ext = path.rpartition(".")
    if sep and "/" not in ext:
        return f"{head}-{token}.{ext}"
    return f"{path.rstrip('/')}/{token}"


def expected_slot_count(page: PageBlueprint, conditions: VisitConditions) -> float:
    """The expected number of loaded slots for a page under ``conditions``.

    Used by tests and workload sizing; rotation groups are approximated by
    counting each group once.  Child slots are counted unconditionally on
    their parent (an upper bound on the true expectation).
    """
    total = 0.0
    counted_groups: set = set()
    for slot in page.walk_slots():
        rule = slot.rule
        if rule.requires_interaction and not conditions.user_interaction:
            continue
        if rule.min_version is not None and conditions.browser_version < rule.min_version:
            continue
        if rule.max_version is not None and conditions.browser_version > rule.max_version:
            continue
        if not rule.headless_visible and conditions.headless:
            continue
        if rule.rotation_group is not None:
            if rule.rotation_group in counted_groups:
                continue
            counted_groups.add(rule.rotation_group)
        total += rule.probability
    return total


def sample_page(
    page: PageBlueprint, conditions: VisitConditions, visit_seed: int
) -> Iterable[ResourceSlot]:
    """Yield the top-level slots included on a visit.

    The browser engine performs its own recursive traversal (children load
    only if the parent loaded); this helper exists for tests and examples.
    """
    sampler = SlotSampler(page, conditions, visit_seed)
    for slot in page.slots:
        if sampler.is_included(slot):
            yield slot
