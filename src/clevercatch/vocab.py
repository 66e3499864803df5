"""Ordered name-to-index vocabularies for drugs and prescribers."""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import ValidationError


class Vocabulary:
    """Immutable first-appearance-ordered mapping between names and indices."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        self.names: tuple[str, ...] = tuple(names)
        self._index: dict[str, int] = {}
        for i, name in enumerate(self.names):
            if name in self._index:
                raise ValidationError(f"duplicate vocabulary entry {name!r}")
            self._index[name] = i

    @property
    def size(self) -> int:
        return len(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.names == other.names

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown vocabulary entry {name!r}") from None

