"""Readers of values from outside the program: config files, flags and scenario fixtures.

A reader returns the value it is given as its kind, or raises TypeError
or ValueError that names the value.  A number may come as a string, as
every flag does; true and false are not numbers.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Reader", "exactly", "integer", "list_of", "number", "one_of"]

Reader = Callable[[Any], Any]


def number(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def integer(value: Any) -> int:
    whole = value if type(value) is int else number(value)
    if isinstance(whole, float) and not whole.is_integer():
        raise ValueError(f"{value!r} is not an integral number")
    return int(whole)


def exactly(kind: type, what: str) -> Reader:
    def read(value: Any) -> Any:
        if not isinstance(value, kind):
            raise TypeError(f"{value!r} is not {what}")
        return value

    return read


def list_of(read: Reader, length: int | None = None) -> Reader:
    def read_list(value: Any) -> list:
        if not isinstance(value, list) or length not in (None, len(value)):
            raise TypeError(f"{value!r} is not a list" + ("" if length is None else f" of {length}"))
        return [read(item) for item in value]

    return read_list


def one_of(choices: tuple[str, ...]) -> Reader:
    def read(value: Any) -> str:
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {', '.join(choices)}")
        return value

    return read
