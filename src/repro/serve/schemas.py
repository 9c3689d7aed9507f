"""Dataclass schemas validating the control-plane JSON bodies.

Every request body is parsed into a frozen dataclass through a
``from_dict`` constructor that rejects unknown keys, wrong types and
out-of-range values with a :class:`SchemaError` — the HTTP layer maps
that to a 400 with the message, so a device sending ``{"device-id":…}``
learns exactly which key it misspelled instead of a stack trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

__all__ = [
    "SchemaError",
    "RegisterRequest",
    "HeartbeatRequest",
    "RoundRequest",
]


class SchemaError(ValueError):
    """A request body failed validation (maps to HTTP 400)."""


def _check_keys(
    payload: Mapping[str, object], allowed: frozenset, what: str
) -> None:
    unknown = payload.keys() - allowed
    if unknown:
        raise SchemaError(
            f"{what}: unknown keys {sorted(unknown)!r} "
            f"(allowed: {sorted(allowed)!r})"
        )


def _req_str(payload: Mapping[str, object], key: str, what: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{what}: {key!r} must be a non-empty string")
    return value


def _opt_str(
    payload: Mapping[str, object], key: str, what: str
) -> Optional[str]:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise SchemaError(f"{what}: {key!r} must be a string")
    return value


def _opt_int(
    payload: Mapping[str, object],
    key: str,
    what: str,
    minimum: Optional[int] = None,
    maximum: Optional[int] = None,
) -> Optional[int]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what}: {key!r} must be an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{what}: {key!r} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise SchemaError(f"{what}: {key!r} must be <= {maximum}")
    return value


def _opt_soc(
    payload: Mapping[str, object], key: str, what: str
) -> Optional[float]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what}: {key!r} must be a number")
    soc = float(value)
    if not 0.0 <= soc <= 1.0:
        raise SchemaError(f"{what}: {key!r} must be in [0, 1]")
    return soc


#: the largest ``data_size`` the fleet's int64 column holds
_MAX_DATA_SIZE = 2**63 - 1


@dataclass(frozen=True)
class RegisterRequest:
    """Body of ``POST /v1/devices/register``. A ``device_id`` is one
    path segment of its routes, so it cannot hold ``/``."""

    device_id: str
    data_size: Optional[int] = None
    battery_soc: Optional[float] = None

    _KEYS = frozenset({"device_id", "data_size", "battery_soc"})

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RegisterRequest":
        what = "register"
        _check_keys(payload, cls._KEYS, what)
        device_id = _req_str(payload, "device_id", what)
        if "/" in device_id:
            raise SchemaError(f"{what}: 'device_id' must not contain '/'")
        return cls(
            device_id=device_id,
            data_size=_opt_int(
                payload, "data_size", what, minimum=1, maximum=_MAX_DATA_SIZE
            ),
            battery_soc=_opt_soc(payload, "battery_soc", what),
        )


@dataclass(frozen=True)
class HeartbeatRequest:
    """Body of ``POST /v1/devices/{id}/heartbeat`` (may be empty)."""

    battery_soc: Optional[float] = None

    _KEYS = frozenset({"battery_soc"})

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, object]
    ) -> "HeartbeatRequest":
        what = "heartbeat"
        _check_keys(payload, cls._KEYS, what)
        return cls(battery_soc=_opt_soc(payload, "battery_soc", what))


@dataclass(frozen=True)
class RoundRequest:
    """Body of ``POST /v1/rounds`` (may be empty: all defaults)."""

    scheduler: Optional[str] = None
    cohort_size: Optional[int] = None

    _KEYS = frozenset({"scheduler", "cohort_size"})

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RoundRequest":
        what = "round"
        _check_keys(payload, cls._KEYS, what)
        return cls(
            scheduler=_opt_str(payload, "scheduler", what),
            cohort_size=_opt_int(payload, "cohort_size", what, minimum=1),
        )
