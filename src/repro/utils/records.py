"""One type-driven codec for the frozen run-description dataclasses.

``RunSpec``, ``BandwidthOverride``, ``LinkFault``, ``AuthorityFault``,
``FaultPlan`` and ``ClientWorkload`` declare each field once; their
``key()`` / ``to_dict()`` / ``from_dict()`` delegate here, so a field cannot
be declared and then forgotten in the cache key or the serialized form.

What a field's annotation means:

=====================  ===================  ==============  ================
annotation             ``record_key``       ``to_dict``     ``from_dict``
=====================  ===================  ==============  ================
``int``                as is                as is           ``int(v)``
``float``              ``float(v)``         as is           ``float(v)``
``str``                as is                as is           as is
``Any``                ``canonical_value``  as is           as is
a dataclass            its ``record_key``   its dict        its ``from_dict``
``Optional[X]``        ``None`` or as ``X`` (all three)
``Tuple[X, ...]``      tuple of ``X``       list of ``X``   tuple of ``X``
``Tuple[X, Y, Z]``     tuple, per position  list            tuple
=====================  ===================  ==============  ================

Any other annotation is a ``TypeError`` the first time the class is used.
``from_dict`` ignores keys that are not fields (older dicts carry a
``"format"`` version number) and leaves missing keys to the dataclass
defaults.  Type hints are resolved once per class, not per call.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache, partial
from typing import Any, Callable, Dict, Mapping, Tuple, Union, get_args, get_origin, get_type_hints

#: (to key form, to JSON form, from JSON form) for one annotation.
_Codec = Tuple[Callable[[Any], Any], Callable[[Any], Any], Callable[[Any], Any]]


def canonical_value(value: Any) -> Any:
    """Normalize an untyped (``Any``) value for hashing.

    ``DirectoryProtocolConfig(connection_timeout=30)`` and ``...=30.0``
    compare equal, so their specs must hash equally too: ints and floats
    collapse to float (bools excepted — they are ints but mean flags).
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    return value


def _identity(value: Any) -> Any:
    return value


def _optional(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else convert(value)


def _each(convert: Callable[[Any], Any], container: Callable) -> Callable[[Any], Any]:
    return lambda values: container([convert(value) for value in values])


def _positional(converts: Tuple[Callable[[Any], Any], ...], container: Callable) -> Callable[[Any], Any]:
    return lambda values: container(
        [convert(value) for convert, value in zip(converts, values)]
    )


@lru_cache(maxsize=None)
def _codec(hint: Any) -> _Codec:
    """The three converters of one annotation (see the module table)."""
    if hint is float:
        return (float, _identity, float)
    if hint is int:
        return (_identity, _identity, int)
    if hint is str:
        return (_identity, _identity, _identity)
    if hint is Any:
        return (canonical_value, _identity, _identity)
    if dataclasses.is_dataclass(hint):
        return (record_key, record_to_dict, partial(record_from_dict, hint))
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union and len(args) == 2 and type(None) in args:
        inner = _codec(args[0] if args[1] is type(None) else args[1])
        return (_optional(inner[0]), _optional(inner[1]), _optional(inner[2]))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        key, dump, load = _codec(args[0])
        return (_each(key, tuple), _each(dump, list), _each(load, tuple))
    if origin is tuple and args:
        keys, dumps, loads = zip(*(_codec(arg) for arg in args))
        return (_positional(keys, tuple), _positional(dumps, list), _positional(loads, tuple))
    raise TypeError("no record codec for field type %r" % (hint,))


@lru_cache(maxsize=None)
def _field_codecs(cls: type) -> Tuple[Tuple[Any, ...], ...]:
    """``(field name, *codec)`` per dataclass field, in declaration order."""
    hints = get_type_hints(cls)
    return tuple((field.name,) + _codec(hints[field.name]) for field in dataclasses.fields(cls))


def record_key(record: Any) -> Tuple:
    """Canonical tuple of every field of ``record``, in declaration order."""
    return tuple(
        [key(getattr(record, name)) for name, key, _dump, _load in _field_codecs(type(record))]
    )


def record_to_dict(record: Any) -> Dict[str, Any]:
    """JSON-serializable form of ``record``: every field by name."""
    return {
        name: dump(getattr(record, name))
        for name, _key, dump, _load in _field_codecs(type(record))
    }


def record_from_dict(cls: type, data: Mapping[str, Any]) -> Any:
    """Rebuild a ``cls`` from :func:`record_to_dict` output."""
    return cls(
        **{name: load(data[name]) for name, _key, _dump, load in _field_codecs(cls) if name in data}
    )
