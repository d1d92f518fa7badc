"""Declarative experiment specs: typed params, plain-data compute, renderers.

An :class:`ExperimentSpec` describes one paper artifact family — what it
is called, which typed parameters select a concrete instance, how to
*compute* it (a pure function returning strict-JSON plain data) and how
to *render* the computed payload into each output format.  Separating
compute from render is what makes the content-addressed cache work: the
expensive step produces data that can be stored, hashed and re-rendered
for free.

A :class:`Unit` is one concrete piece of work: a spec plus validated
params, optionally with the artifact files it should emit.  Its cache
key is ``SHA-256(spec name + canonical params + code fingerprint)``
(:func:`unit_key`), so changing a parameter *or* the code that computes
the spec invalidates exactly the affected artifacts and nothing else.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..errors import LabError

__all__ = [
    "Param",
    "UnitDef",
    "Unit",
    "ExperimentSpec",
    "canonical_params",
    "canonical_payload",
    "dump_json",
    "load_json",
    "unit_key",
]

ComputeFn = Callable[..., Any]
RenderFn = Callable[[Mapping[str, Any]], str]


@dataclass(frozen=True)
class Param:
    """One typed, hashable experiment parameter.

    ``repeated`` params take a tuple of ``type`` values (exposed on the
    CLI as a repeatable flag); ``choices`` constrains the value domain.
    ``cli`` overrides the derived flag name (``lengths`` → ``--length``).
    ``min`` is an inclusive lower bound on numeric values.
    """

    name: str
    type: type = str
    default: Any = None
    choices: tuple | None = None
    repeated: bool = False
    cli: str | None = None
    help: str = ""
    min: float | None = None

    def coerce(self, value: Any) -> Any:
        """Validate and normalize one value for this parameter."""
        if value is None:
            if self.default is None:
                return None
            raise LabError(f"param {self.name!r} must not be None")
        if self.repeated:
            if isinstance(value, (str, bytes)):
                raise LabError(f"param {self.name!r} expects a sequence, got {value!r}")
            return tuple(self._coerce_one(v) for v in value)
        return self._coerce_one(value)

    def _coerce_one(self, value: Any) -> Any:
        coerced = self.type(value)
        # NaN passes every comparison-based range check downstream; inf
        # stays legal (disk-revolve reads an infinite disk cost as "never
        # page").
        if self.type is float and math.isnan(coerced):
            raise LabError(f"param {self.name!r} must not be NaN")
        if self.choices is not None and coerced not in self.choices:
            raise LabError(
                f"param {self.name!r}: {coerced!r} not in {sorted(self.choices)}"
            )
        if self.min is not None and coerced < self.min:
            raise LabError(f"param {self.name!r} must be >= {self.min}, got {coerced!r}")
        return coerced


@dataclass(frozen=True)
class UnitDef:
    """A default unit of a spec: params plus the artifact files it emits.

    ``outputs`` is a tuple of ``(filename, format)`` pairs; the manifest
    stem defaults to the first filename without its extension.
    """

    params: Mapping[str, Any]
    outputs: tuple[tuple[str, str], ...] = ()

    @property
    def stem(self) -> str | None:
        if not self.outputs:
            return None
        name = self.outputs[0][0]
        return name.rsplit(".", 1)[0] if "." in name else name


@dataclass(frozen=True)
class Unit:
    """One concrete piece of work for the runner: spec + params (+ outputs)."""

    spec: str
    params: Mapping[str, Any] = field(default_factory=dict)
    outputs: tuple[tuple[str, str], ...] = ()
    stem: str | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: compute returning plain data + renderers.

    ``compute(params, inputs)`` receives the validated param mapping and
    a tuple with the payloads of this spec's ``deps`` (in declaration
    order); it must return strict-JSON data (no NaN/Infinity, no tuple
    keys).  ``renderers`` maps format names (``ascii``, ``csv``,
    ``json``, ...) to functions of the payload.
    """

    name: str
    title: str
    compute: ComputeFn
    renderers: Mapping[str, RenderFn]
    params: tuple[Param, ...] = ()
    #: (spec_name, params) pairs computed before this spec; their
    #: payloads arrive as ``inputs`` and their keys as manifest parents.
    deps: tuple[tuple[str, Mapping[str, Any]], ...] = ()
    default_units: tuple[UnitDef, ...] = ()
    #: explicit fingerprint override (tests, generated specs); the
    #: default fingerprints the source of the module defining ``compute``.
    code_fingerprint: str | None = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").replace("-", "").isalnum():
            raise LabError(f"invalid spec name {self.name!r}")
        if "ascii" not in self.renderers:
            raise LabError(f"spec {self.name!r} must define an 'ascii' renderer")
        seen = set()
        for p in self.params:
            if p.name in seen:
                raise LabError(f"spec {self.name!r}: duplicate param {p.name!r}")
            seen.add(p.name)

    def fingerprint(self) -> str:
        """SHA-256 of the compute code (or the explicit override).

        The default hashes the full source of the module defining
        ``compute`` — renderers and helpers live there too, so editing
        any of them invalidates the spec's cached artifacts.
        """
        if self.code_fingerprint is not None:
            return self.code_fingerprint
        return _module_fingerprint(self.compute)

    def validate_params(self, given: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Fill defaults, coerce types, reject unknown names."""
        pending = dict(given or {})
        out: dict[str, Any] = {}
        for p in self.params:
            value = pending.pop(p.name, p.default)
            out[p.name] = p.coerce(value)
        if pending:
            known = [p.name for p in self.params]
            raise LabError(
                f"spec {self.name!r}: unknown params {sorted(pending)} (known: {known})"
            )
        return out


_FINGERPRINT_CACHE: dict[str, str] = {}


def _module_fingerprint(fn: Callable) -> str:
    target = inspect.unwrap(fn)
    module = inspect.getmodule(target)
    mod_name = getattr(module, "__name__", None) or repr(target)
    cached = _FINGERPRINT_CACHE.get(mod_name)
    if cached is not None:
        return cached
    try:
        source = inspect.getsource(module)
    except (OSError, TypeError):  # builtins, REPL-defined callables
        source = repr(target)
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    _FINGERPRINT_CACHE[mod_name] = digest
    return digest


#: Strict JSON has no Infinity: ``dump_json`` writes each infinite float
#: as ``{"$float": "Infinity"}`` (or ``"-Infinity"``) and ``load_json``
#: reads it back.  NaN stays rejected.
_NONFINITE_TAG = "$float"
_INF_NAMES = {math.inf: "Infinity", -math.inf: "-Infinity"}
_INF_VALUES = {name: value for value, name in _INF_NAMES.items()}


def _tag_infinities(value: Any) -> Any:
    if isinstance(value, float) and math.isinf(value):
        return {_NONFINITE_TAG: _INF_NAMES[value]}
    if isinstance(value, dict):
        return {k: _tag_infinities(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_tag_infinities(v) for v in value]
    return value


def _untag_infinity(obj: dict) -> Any:
    if len(obj) == 1 and obj.get(_NONFINITE_TAG) in _INF_VALUES:
        return _INF_VALUES[obj[_NONFINITE_TAG]]
    return obj


def dump_json(value: Any, **kwargs: Any) -> str:
    """``json.dumps`` with strict JSON's one encoding of ±inf.

    Raises ``ValueError`` on NaN and ``TypeError`` on non-JSON types.
    Data without infinities serializes exactly as plain ``json.dumps``.
    """
    try:
        return json.dumps(value, allow_nan=False, **kwargs)
    except ValueError:
        return json.dumps(_tag_infinities(value), allow_nan=False, **kwargs)


def load_json(text: str) -> Any:
    """Inverse of :func:`dump_json`: decodes tagged infinities to floats."""
    if _NONFINITE_TAG not in text:
        return json.loads(text)
    return json.loads(text, object_hook=_untag_infinity)


def canonical_params(params: Mapping[str, Any]) -> str:
    """Canonical JSON for hashing: sorted keys, no whitespace, strict."""
    try:
        return dump_json(params, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise LabError(f"params are not strict-JSON canonicalizable: {exc}") from exc


def canonical_payload(payload: Any) -> str:
    """Canonical JSON of a computed payload (the hashed cache content)."""
    try:
        return dump_json(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise LabError(f"payload is not strict-JSON serializable: {exc}") from exc


def unit_key(spec: ExperimentSpec, params: Mapping[str, Any]) -> str:
    """Content address of one (spec, params, code) unit."""
    body = "\n".join((spec.name, canonical_params(params), spec.fingerprint()))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()
