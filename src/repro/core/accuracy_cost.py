"""The accuracy-cost model of Eq. (6).

Selecting a user with few classes risks skewed gradients, so the cost of
involving user ``j`` is inversely proportional to its class count
``|U_j|``. But if user ``j`` holds classes not yet covered by the
current training set, its participation *improves* generalisation
(Sec. III-C), so the cost is discounted by ``(beta/alpha) * D_u`` where
``D_u`` is the number of shards already scheduled — the longer training
has gone on without those classes, the more appealing the outlier:

    F_j = K / |U_j|                          (no discount)
    F_j = K / |U_j| - (beta/alpha) * D_u     (discounted)

**Discount semantics.** Eq. (6) as printed grants the discount when
``U ∩ U_j = ∅`` (the user shares *no* class with the covered set). That
literal condition contradicts the paper's own Table IV: in S(I) Pixel2
shares class 8 with Mate10 yet receives the largest allocation exactly
when beta = 2, which requires the discount to apply — and to *persist*
(its unique class 7 never becomes well-represented through anyone
else). We therefore default to the *dynamic* reading the paper's results imply
(``"disjoint"``): the deduction accumulates over exactly the shards
scheduled from users sharing no class with ``j`` —

    alpha * F_j = alpha * K / |U_j| - beta * D_j,
    D_j = #shards scheduled to users k with U_k ∩ U_j = ∅

i.e. the longer training grows *without serving j's classes*, the more
appealing j becomes. This keeps the printed intersection condition (a
shard only counts toward j's discount while its source satisfies
``U ∩ U_j = ∅`` from j's perspective) but gives outliers holding
otherwise-missing classes a discount that persists and deepens, which
is what Table IV's beta = 2 columns show. Three alternatives remain for
ablation: ``"strict"`` (the printed snapshot condition), ``"unique"``
(discount while the user holds a class no other scheduled user holds),
and ``"coverage"`` (discount while some class of the user is below its
balanced share of the scheduled set).

``AccuracyCostTracker`` maintains the covered-class bookkeeping and the
scheduled-shard counter ``D_u`` incrementally for Fed-MinAvg.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Sequence, Set, Tuple

import numpy as np

__all__ = ["accuracy_cost", "AccuracyCostTracker"]


def accuracy_cost(
    user_classes: Iterable[int],
    covered: Set[int],
    num_classes: int,
    alpha: float,
    beta: float,
    scheduled_shards: int,
    discount: bool = None,
) -> float:
    """Eq. (6): the *scaled* accuracy cost ``alpha * F_j``.

    Returns the alpha-scaled value because that is the quantity the
    scheduler adds to compute time (Algorithm 2 lines 11/13 update
    ``alpha * F_j`` directly). ``discount`` forces the branch; when
    None, the strict printed condition (``covered & classes == ∅``) is
    evaluated against ``covered``.
    """
    classes = set(int(c) for c in user_classes)
    if not classes:
        raise ValueError("user must hold at least one class")
    if num_classes <= 0:
        raise ValueError("num_classes must be positive")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative")
    if scheduled_shards < 0:
        raise ValueError("scheduled_shards must be non-negative")
    base = alpha * num_classes / len(classes)
    if discount is None:
        discount = not (covered & classes)
    if discount:
        return base - beta * scheduled_shards
    return base


class AccuracyCostTracker:
    """Incremental Eq.-(6) evaluation during a Fed-MinAvg run.

    Tracks class coverage and the number of shards already scheduled
    (``D_u``), exposing the current ``alpha * F_j`` per user under one
    of four discount semantics (see module docstring):

    * ``"disjoint"`` (default) — the deduction is ``beta * D_j`` with
      ``D_j`` the shards scheduled to users sharing no class with ``j``;
    * ``"coverage"`` — discounted by ``beta * D_u`` while ``j`` holds a
      class whose scheduled shard share is below the balanced share;
    * ``"unique"`` — discounted by ``beta * D_u`` while ``j`` holds a
      class no *other scheduled* user holds;
    * ``"strict"`` — the printed Eq. (6): discounted by ``beta * D_u``
      only while ``U ∩ U_j = ∅``.
    """

    def __init__(
        self,
        user_classes: Sequence[Tuple[int, ...]],
        num_classes: int,
        alpha: float,
        beta: float,
        semantics: str = "disjoint",
    ) -> None:
        if num_classes <= 0:
            raise ValueError("num_classes must be positive")
        if alpha < 0 or beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if semantics not in ("disjoint", "coverage", "unique", "strict"):
            raise ValueError(
                "semantics must be 'disjoint', 'coverage', 'unique' or "
                "'strict'"
            )
        self.user_classes: Tuple[FrozenSet[int], ...] = tuple(
            frozenset(int(c) for c in cs) for cs in user_classes
        )
        for j, cs in enumerate(self.user_classes):
            if not cs:
                raise ValueError(f"user {j} holds no classes")
            bad = [c for c in cs if not 0 <= c < num_classes]
            if bad:
                raise ValueError(
                    f"user {j} holds out-of-range classes {bad}"
                )
        self.num_classes = num_classes
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.semantics = semantics
        self.covered: Set[int] = set()
        #: how many distinct scheduled users hold each class
        self._holders: Dict[int, Set[int]] = {}
        #: scheduled shards attributed per class (a user's shard counts
        #: 1/|U_j| toward each of its classes — shards are drawn evenly
        #: across the user's local classes when materialised)
        self._class_shards: Dict[int, float] = {}
        self.scheduled_shards = 0
        member = np.zeros((len(self.user_classes), num_classes))
        for j, cs in enumerate(self.user_classes):
            member[j, list(cs)] = 1.0
        #: disjoint[j, k]: users j and k share no class (so never j = k)
        self._disjoint = (member @ member.T == 0).astype(np.int64)
        #: per-user count of shards scheduled to class-disjoint users
        self._disjoint_shards = np.zeros(self.n_users, dtype=np.int64)
        #: undiscounted ``alpha * K / |U_j|``
        self._base = self.alpha * num_classes / member.sum(axis=1)

    @property
    def n_users(self) -> int:
        return len(self.user_classes)

    def _discounted(self, j: int) -> bool:
        if self.semantics == "strict":
            return not (self.covered & self.user_classes[j])
        if self.semantics == "unique":
            # some class of j has no scheduled holder other than j
            for c in self.user_classes[j]:
                holders = self._holders.get(c, ())
                others = len(holders) - (1 if j in holders else 0)
                if others == 0:
                    return True
            return False
        # coverage: some class of j is underrepresented vs balance
        balanced = self.scheduled_shards / self.num_classes
        for c in self.user_classes[j]:
            if self._class_shards.get(c, 0.0) < balanced - 1e-9:
                return True
        return False

    def scaled_cost(self, j: int) -> float:
        """Current ``alpha * F_j`` for user ``j``."""
        if self.semantics == "disjoint":
            return float(
                self._base[j] - self.beta * self._disjoint_shards[j]
            )
        return accuracy_cost(
            self.user_classes[j],
            self.covered,
            self.num_classes,
            self.alpha,
            self.beta,
            self.scheduled_shards,
            discount=self._discounted(j),
        )

    def scaled_costs(self) -> np.ndarray:
        """Current ``alpha * F_j`` of every user, in user order."""
        if self.semantics == "disjoint":
            return self._base - self.beta * self._disjoint_shards
        return np.array(
            [self.scaled_cost(j) for j in range(self.n_users)]
        )

    def brings_new_classes(self, j: int) -> bool:
        """True when user ``j`` holds classes outside the covered set."""
        return not (self.covered >= self.user_classes[j])

    def record_assignment(self, j: int, n_shards: int = 1) -> None:
        """Account one assignment of ``n_shards`` shards to user ``j``."""
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.covered |= self.user_classes[j]
        per_class = n_shards / len(self.user_classes[j])
        for c in self.user_classes[j]:
            self._holders.setdefault(c, set()).add(j)
            self._class_shards[c] = (
                self._class_shards.get(c, 0.0) + per_class
            )
        self._disjoint_shards += n_shards * self._disjoint[j]
        self.scheduled_shards += n_shards

    def coverage_fraction(self) -> float:
        """Fraction of test classes covered by the scheduled users."""
        return len(self.covered) / self.num_classes
