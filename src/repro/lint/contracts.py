"""Shape/dtype contracts for the vectorized kernel stack.

The merge/build kernels pass flat ``int64``/``uint8`` arrays between
each other with implicit shape conventions — ``spans`` is ``(r, 2)``,
``level_offsets`` aligns with ``frame_ids``, packed bitsets are
``uint8`` rows.  A silent dtype or dimension drift there produces wrong
trees, not crashes.  This module makes those conventions explicit:

    @contract("labels:(r,b):uint8, spans:(r,2):int64? -> ids:(n):int64")
    def kernel(labels, spans=None): ...

**DSL.**  ``params -> results``; each item is ``name:(dims):dtype``.
Dims are symbols (``n``, ``r``) or integer literals; symbols must bind
consistently *within one call*.  ``?`` marks a nullable array,
``name:[spec]`` a sequence whose elements each match ``spec`` (symbols
shared across elements), and ``*`` an unchecked value.  Parameters not
named in the contract are unchecked; results may be named or bare.

**Runtime mode** (sanitizer-style): when ``REPRO_CONTRACTS=1`` is set
(or :func:`enable` is called — the test suite does both), every
decorated kernel asserts its contract on the real arrays flowing
through it.  :func:`exempt` suspends checking for a call's dynamic
extent — the frozen per-object oracles under ``tests/`` use it so the
pre-vectorization implementations stay bit-for-bit untouched by
instrumentation semantics.  Checks are duck-typed (``value.shape`` /
``value.dtype``) so this module stays stdlib-only like the rest of
``repro.lint``.

**At import**: bad DSL, or a contract naming a parameter the signature
lacks, raises :class:`ContractSyntaxError` when the decorator runs, so
a malformed contract breaks every import of its module.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "contract", "exempt", "enable", "disable", "enabled",
    "parse_contract", "Contract", "ArraySpec", "ContractError",
    "ContractSyntaxError",
]


class ContractError(AssertionError):
    """A runtime contract violation (subclass of AssertionError)."""


class ContractSyntaxError(ValueError):
    """The contract string does not parse."""


Dim = Union[str, int]


@dataclass(frozen=True)
class ArraySpec:
    """One array's declared shape/dtype (``(n,2):int64?``)."""

    dims: Optional[Tuple[Dim, ...]]  #: None = any rank
    dtype: Optional[str]             #: None = any dtype
    optional: bool = False           #: ``?`` — None allowed
    any: bool = False                #: ``*`` — unchecked


@dataclass(frozen=True)
class ParamSpec:
    name: str
    spec: ArraySpec
    each: bool = False  #: ``name:[spec]`` — sequence of arrays


@dataclass(frozen=True)
class ResultSpec:
    name: Optional[str]
    spec: ArraySpec


@dataclass(frozen=True)
class Contract:
    text: str
    params: Tuple[ParamSpec, ...]
    results: Tuple[ResultSpec, ...]


_NAME_RE = re.compile(r"^[A-Za-z_]\w*$")


def _split_top(text: str, sep: str = ",") -> List[str]:
    """Split on ``sep`` outside parentheses/brackets."""
    parts: List[str] = []
    depth = 0
    cur: List[str] = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _parse_aspec(text: str) -> ArraySpec:
    text = text.strip()
    if text == "*":
        return ArraySpec(None, None, any=True)
    optional = text.endswith("?")
    if optional:
        text = text[:-1].strip()
    m = re.match(r"^\((?P<dims>[^)]*)\)(?::(?P<dtype>[\w]+))?$", text)
    if m is None:
        # dtype-only form: ``name:int64`` (any rank)
        if _NAME_RE.match(text):
            return ArraySpec(None, text, optional=optional)
        raise ContractSyntaxError(f"bad array spec {text!r}")
    dims: List[Dim] = []
    dim_text = m.group("dims").strip()
    if dim_text:
        for part in dim_text.split(","):
            part = part.strip()
            if not part:
                raise ContractSyntaxError(
                    f"empty dimension in {text!r}")
            if part.lstrip("-").isdigit():
                dims.append(int(part))
            elif _NAME_RE.match(part):
                dims.append(part)
            else:
                raise ContractSyntaxError(
                    f"bad dimension {part!r} in {text!r}")
    return ArraySpec(tuple(dims), m.group("dtype"), optional=optional)


def parse_contract(text: str) -> Contract:
    """Parse the DSL; raises :class:`ContractSyntaxError` on errors."""
    if text.count("->") != 1:
        raise ContractSyntaxError(
            "contract needs exactly one '->' separator")
    param_text, result_text = text.split("->")

    params: List[ParamSpec] = []
    for item in _split_top(param_text):
        name, sep, spec_text = item.partition(":")
        name = name.strip()
        if not sep or not _NAME_RE.match(name):
            raise ContractSyntaxError(
                f"bad parameter item {item!r} (want 'name:spec')")
        spec_text = spec_text.strip()
        each = spec_text.startswith("[") and spec_text.endswith("]")
        if each:
            spec_text = spec_text[1:-1].strip()
        params.append(ParamSpec(name, _parse_aspec(spec_text), each))

    results: List[ResultSpec] = []
    for item in _split_top(result_text):
        name, sep, spec_text = item.partition(":")
        if sep and _NAME_RE.match(name.strip()) and \
                not name.strip() == "":
            results.append(ResultSpec(name.strip(),
                                      _parse_aspec(spec_text)))
        else:
            results.append(ResultSpec(None, _parse_aspec(item)))

    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ContractSyntaxError("duplicate parameter names")
    return Contract(text, tuple(params), tuple(results))


# -- runtime mode ----------------------------------------------------------

def _env_on() -> bool:
    return os.environ.get("REPRO_CONTRACTS", "") not in ("", "0")


_ENABLED = _env_on()
_EXEMPT_DEPTH = 0


def enable() -> None:
    """Turn runtime contract checking on (conftest calls this)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn runtime contract checking off."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """True when calls should be checked right now."""
    return _ENABLED and _EXEMPT_DEPTH == 0


def exempt(fn):
    """Suspend contract checks for this call's dynamic extent.

    For frozen reference implementations whose internals predate the
    contracts and must not change behavior under instrumentation.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _EXEMPT_DEPTH
        _EXEMPT_DEPTH += 1
        try:
            return fn(*args, **kwargs)
        finally:
            _EXEMPT_DEPTH -= 1
    wrapper.__contract_exempt__ = True
    return wrapper


def _describe(value) -> str:
    shape = getattr(value, "shape", None)
    dtype = getattr(value, "dtype", None)
    if shape is None:
        return f"{type(value).__name__}"
    return f"shape={tuple(shape)} dtype={dtype}"


def _check_value(label: str, name: str, spec: ArraySpec, value,
                 env: Dict[str, int]) -> None:
    if spec.any:
        return
    if value is None:
        if spec.optional:
            return
        raise ContractError(f"{label}: {name} is None but the "
                            f"contract does not mark it optional ('?')")
    shape = getattr(value, "shape", None)
    if shape is None:
        raise ContractError(
            f"{label}: {name} is not an array "
            f"(got {type(value).__name__})")
    if spec.dims is not None:
        if len(shape) != len(spec.dims):
            raise ContractError(
                f"{label}: {name} rank mismatch — contract says "
                f"{spec.dims}, got {_describe(value)}")
        for dim, actual in zip(spec.dims, shape):
            if isinstance(dim, int):
                if actual != dim:
                    raise ContractError(
                        f"{label}: {name} dim mismatch — contract "
                        f"pins {dim}, got {_describe(value)}")
            else:
                bound = env.setdefault(dim, int(actual))
                if bound != actual:
                    raise ContractError(
                        f"{label}: {name} dim symbol {dim!r} bound to "
                        f"{bound} elsewhere in this call, got "
                        f"{_describe(value)}")
    if spec.dtype is not None:
        actual_dtype = str(getattr(value, "dtype", None))
        if actual_dtype != spec.dtype:
            raise ContractError(
                f"{label}: {name} dtype mismatch — contract says "
                f"{spec.dtype}, got {_describe(value)}")


def _check_param(label: str, param: ParamSpec, value,
                 env: Dict[str, int]) -> None:
    if param.each:
        if value is None:
            if param.spec.optional:
                return
            raise ContractError(
                f"{label}: {param.name} is None but not optional")
        for i, item in enumerate(value):
            _check_value(label, f"{param.name}[{i}]", param.spec, item,
                         env)
        return
    _check_value(label, param.name, param.spec, value, env)


def contract(text: str):
    """Attach a shape/dtype contract to a kernel (see module docs)."""
    spec = parse_contract(text)

    def deco(fn):
        sig_names = list(inspect.signature(fn).parameters)
        positions = {name: i for i, name in enumerate(sig_names)}
        unknown = [p.name for p in spec.params
                   if p.name not in positions]
        if unknown:
            raise ContractSyntaxError(
                f"{fn.__qualname__}: contract names parameters "
                f"{unknown} not in the signature {sig_names}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not (_ENABLED and _EXEMPT_DEPTH == 0):
                return fn(*args, **kwargs)
            label = fn.__qualname__
            env: Dict[str, int] = {}
            for param in spec.params:
                if param.name in kwargs:
                    value = kwargs[param.name]
                elif positions[param.name] < len(args):
                    value = args[positions[param.name]]
                else:
                    continue  # defaulted — nothing to check
                _check_param(label, param, value, env)
            result = fn(*args, **kwargs)
            if spec.results:
                if len(spec.results) == 1:
                    res = spec.results[0]
                    _check_value(label, res.name or "result",
                                 res.spec, result, env)
                else:
                    if not isinstance(result, tuple) \
                            or len(result) != len(spec.results):
                        raise ContractError(
                            f"{label}: contract declares "
                            f"{len(spec.results)} results, got "
                            f"{type(result).__name__}")
                    for i, res in enumerate(spec.results):
                        _check_value(label,
                                     res.name or f"result[{i}]",
                                     res.spec, result[i], env)
            return result

        wrapper.__contract__ = spec
        wrapper.__contract_text__ = text
        return wrapper

    return deco
