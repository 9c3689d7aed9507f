"""Registry behaviour: registration, lookup, error reporting."""

import pytest

from repro.sched import (
    Scheduler,
    available_schedulers,
    get_scheduler,
    is_registered,
    scheduler_class,
)
from repro.sched.registry import register

EXPECTED = {
    "equal",
    "fed_lbap",
    "fed_minavg",
    "min_energy",
    "olar",
    "proportional",
    "random",
}


class TestRegistry:
    def test_all_expected_schedulers_registered(self):
        assert EXPECTED <= set(available_schedulers())

    def test_available_is_sorted(self):
        names = available_schedulers()
        assert list(names) == sorted(names)

    def test_lookup_is_case_insensitive(self):
        assert scheduler_class("OLAR") is scheduler_class("olar")
        assert is_registered("  Fed_LBAP ")

    def test_get_scheduler_instantiates(self):
        s = get_scheduler("olar")
        assert isinstance(s, Scheduler)
        assert s.name == "olar"

    def test_get_scheduler_passes_kwargs(self):
        s = get_scheduler("random", seed=7)
        assert s.seed == 7
        capped = get_scheduler("min_energy", makespan_cap_s=5.0)
        assert capped.makespan_cap_s == 5.0

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="olar"):
            get_scheduler("no_such_scheduler")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register("olar")
            class Impostor(Scheduler):
                def schedule(self, problem):  # pragma: no cover
                    raise NotImplementedError

    def test_non_scheduler_rejected(self):
        with pytest.raises(TypeError, match="must subclass Scheduler"):

            @register("not_a_scheduler")
            class Plain:
                pass

        assert not is_registered("not_a_scheduler")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register("  ")
