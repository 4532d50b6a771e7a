"""A crawl client: one VM running one browser profile.

In the original framework each client is a virtual machine running 15
browser instances; here a client wraps one :class:`BrowserEngine` plus the
simulated wall clock of its VM.  Clients visit the pages the commander
hands them and return results; the commander owns storage and visit-id
allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..browser.cookies import CookieJar
from ..browser.engine import BrowserEngine
from ..browser.network import VisitResult
from ..browser.profile import BrowserProfile
from ..rng import child_rng
from ..web.blueprint import PageBlueprint


class CrawlClient:
    """Visits pages with one profile, keeping its own simulated clock.

    The per-visit clock models the paper's observation that profile visits
    to the same site start together but drift apart on the page level
    (average deviation 46 s): each client adds its own jittered think time
    between page visits.
    """

    def __init__(
        self,
        profile: BrowserProfile,
        seed: int,
        timeout: float = 30.0,
        browsers_per_vm: int = 15,
        stateful: bool = False,
        salvage_partial: bool = False,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.engine = BrowserEngine(profile, seed=seed, timeout=timeout)
        self.clock = 0.0
        self.browsers_per_vm = browsers_per_vm
        self.stateful = stateful
        self.salvage_partial = salvage_partial
        self._jar: Optional[CookieJar] = CookieJar() if stateful else None
        self._jitter = child_rng(seed, "client-clock", profile.name)

    def visit_page(
        self,
        page: PageBlueprint,
        site: str,
        site_rank: int,
        visit_id: int,
        attempt: int = 1,
    ) -> VisitResult:
        """Visit one page and advance the client clock.

        The visit's duration already includes any browser hold (a stalled
        page bills the full timeout, other failures their seeded
        sub-timeout duration), so the clock advances by duration plus
        navigation overhead only — adding a second post-failure pause here
        would double-count the hold and inflate cross-profile drift.

        In stateful mode the client's cookie jar carries over between
        pages (and is reset per *site* by the commander); the paper's
        stateless mode starts every visit with an empty jar.
        """
        result = self.engine.visit(
            page,
            site=site,
            site_rank=site_rank,
            visit_id=visit_id,
            started_at=self.clock,
            jar=self._jar,
            attempt=attempt,
        )
        if result.visit.partial and not self.salvage_partial:
            # Salvage is opt-in: without it the partial traffic is dropped
            # before storage and the visit is a plain failure (the paper's
            # behaviour).  ``partial`` in the store means "traffic kept".
            result = VisitResult(visit=replace(result.visit, partial=False))
        self.clock = result.visit.started_at + result.visit.duration
        self.clock += self._jitter.uniform(0.2, 2.0)  # navigation overhead
        return result

    def synchronize(self, barrier_time: float) -> None:
        """Jump the client clock forward to a site-level barrier."""
        self.clock = max(self.clock, barrier_time)

    def begin_site(self, rank: int, start_time: float) -> None:
        """Re-anchor the client deterministically at a site's start barrier.

        The clock jumps to the site's *scheduled* start and the think-time
        jitter stream is re-derived from ``(seed, profile, rank)``, so every
        ``(site, profile)`` pair produces bit-identical records regardless
        of which worker shard — or which position in the rank sequence — it
        runs in.  This is what makes the sharded crawl equivalent to the
        serial one.
        """
        self.clock = start_time
        self._jitter = child_rng(self.seed, "client-clock", self.profile.name, rank)
        self.reset_state()

    def reset_state(self) -> None:
        """Clear the stateful cookie jar (called per site)."""
        if self._jar is not None:
            self._jar.clear()


@dataclass
class SiteVisitPlan:
    """What the commander asks every client to do for one site."""

    site: str
    rank: int
    pages: List[PageBlueprint] = field(default_factory=list)

    @property
    def page_count(self) -> int:
        return len(self.pages)
