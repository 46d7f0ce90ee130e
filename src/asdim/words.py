"""Exact word arithmetic in finitely generated free groups.

Generators are atoms, made by a Registry or a certificate reader and
never identified by display name: a generator is equal only to itself.
Words are immutable sequences of signed letters; every operation is
pure.  The only mutable object is the Registry.  No code path in the
package is concurrent; a registry belongs to one pipeline at a time.

The package's records (words, generators, presentations, chain nodes,
reports) are immutable __slots__ classes on _Record.  Their fields are
set once, by the constructor; assigning to one raises AttributeError.
They compare and hash by value, except that a Word ignores its reduced
flag and a Generator is equal only to itself, and x._replace(**changes)
is a copy of x with the named fields changed, as on a NamedTuple.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

__all__ = [
    "Generator",
    "Letter",
    "Registry",
    "Word",
    "EMPTY_WORD",
    "concat",
    "cyclic_reduce",
    "equal_as_cyclic_words",
    "exponent_sum",
    "fold_runs",
    "format_word",
    "generator_power",
    "inverse",
    "letter_pair",
    "occurrence_count",
    "reduce_word",
    "single",
    "substitute",
]

_set = object.__setattr__
_new = tuple.__new__


class _Record:
    """An immutable record whose fields are its class's __slots__, in
    order.  The constructor takes them positionally or by keyword, the
    ones in _defaults optional; equality and hashing are over all fields
    of records of the same class; repr is ClassName(field=value, ...)."""

    __slots__ = ()
    _defaults: dict[str, Any] = {}
    _setters: tuple = ()

    def __init_subclass__(cls) -> None:
        # Each field's slot setter, in order: the quickest way to set a
        # field past the __setattr__ below.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if kwargs or len(args) != len(self._setters):
            args = self._bind(args, kwargs)
        for setter, value in zip(self._setters, args):
            setter(self, value)

    def _bind(self, args: tuple, kwargs: dict[str, Any]) -> list:
        """Every field's value from a constructor call's arguments."""
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in self._defaults:
                values.append(self._defaults[name])
            else:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
        for name in kwargs:
            raise TypeError(f"{type(self).__name__} got a stray value for {name!r}")
        return values

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: records are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: records are immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes: Any) -> Any:
        """A copy with the named fields changed, built by the constructor."""
        values = [
            changes.pop(name) if name in changes else getattr(self, name)
            for name in self.__slots__
        ]
        return type(self)(*values, **changes)


class Generator(_Record):
    """A generator atom, equal only to itself.

    A Registry or a certificate reader makes every atom.  Equality and
    hashing are object's own, so set and dict lookups and comparisons of
    letters run without calling back into Python.  Two atoms may share a
    display name; a certificate identifies generators by name, so the
    engine keeps the names within one chain distinct.
    """

    __slots__ = ("name",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, name: str) -> None:
        _set(self, "name", name)

    def __repr__(self) -> str:
        return self.name


class Letter(NamedTuple):
    """A signed occurrence of a generator.  sign is +1 or -1."""

    gen: Generator
    sign: int

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)


def letter_pair(g: Generator) -> tuple[Letter, Letter]:
    """The letters g and g^-1, made by tuple.__new__ without the
    Python-level __new__ that a NamedTuple call runs."""
    return _new(Letter, (g, 1)), _new(Letter, (g, -1))


class Word(_Record):
    """An immutable letter sequence: letters is a tuple of Letters.

    The reduced flag records that no adjacent cancelling pair exists.  It
    is set by reduce_word (and by constructions that preserve it) and is
    excluded from equality: words are equal iff their letters are.
    """

    __slots__ = ("letters", "reduced")

    def __init__(self, letters: tuple[Letter, ...] = (), reduced: bool = False) -> None:
        _set(self, "letters", letters)
        _set(self, "reduced", reduced)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


EMPTY_WORD = Word((), reduced=True)


def single(gen: Generator, sign: int = 1) -> Word:
    return Word((_new(Letter, (gen, sign)),), reduced=True)


def generator_power(gen: Generator, n: int) -> Word:
    """The word gen^n, n may be negative or zero.

    >>> r = Registry(); t = r.declare("t")
    >>> format_word(generator_power(t, -2))
    't^-2'
    """
    return Word((_new(Letter, (gen, 1 if n >= 0 else -1)),) * abs(n), reduced=True)


def concat(*words: Word) -> Word:
    """Plain concatenation, no reduction."""
    if len(words) == 1:
        return words[0]
    letters: list[Letter] = []
    for w in words:
        letters.extend(w.letters)
    return Word(tuple(letters))


def inverse(w: Word) -> Word:
    """The group inverse: letters reversed, signs flipped."""
    letters = [_new(Letter, (g, -sign)) for g, sign in reversed(w.letters)]
    return Word(tuple(letters), reduced=w.reduced)


def reduce_word(w: Word) -> Word:
    """The unique freely reduced form of w, via a single stack scan.

    >>> r = Registry(); a, b = r.declare("a"), r.declare("b")
    >>> format_word(reduce_word(concat(single(a), single(a, -1))))
    '1'
    >>> format_word(reduce_word(concat(single(a), single(b), single(b, -1), single(a))))
    'a^2'
    """
    if w.reduced:
        return w
    stack: list[Letter] = []
    push, pop = stack.append, stack.pop
    for l in w.letters:
        if stack:
            top = stack[-1]
            if top.sign == -l.sign and top.gen is l.gen:
                pop()
                continue
        push(l)
    return Word(tuple(stack), reduced=True)


def fold_runs(runs: Iterable[Sequence]) -> list[list]:
    """Free reduction on runs (key, exponent, ...), keys compared by
    identity; a Letter is the run (gen, sign).  Adjacent runs of one key
    merge into the first, and a zero exponent drops out.  The reduced
    word's runs come back as lists with distinct adjacent keys and nonzero
    exponents, so two words are freely equal iff their folded runs are.
    The work is linear in the number of runs, whatever the exponents.

    >>> r = Registry(); a, b = r.declare("a"), r.declare("b")
    >>> fold_runs([(a, 3), (b, 2), (b, -2), (a, -1)]) == [[a, 2]]
    True
    """
    stack: list[list] = []
    top: list | None = None
    for run in runs:
        if top is not None and top[0] is run[0]:
            top[1] += run[1]
            if not top[1]:
                stack.pop()
                top = stack[-1] if stack else None
        elif run[1]:
            top = [*run]
            stack.append(top)
    return stack


def cyclic_reduce(w: Word) -> Word:
    """Strip mutually cancelling first/last letters after free reduction,
    leaving the cyclically reduced core, a conjugate of w.

    >>> r = Registry(); a, b = r.declare("a"), r.declare("b")
    >>> format_word(cyclic_reduce(concat(single(a), single(b), single(a, -1))))
    'b'
    """
    red = reduce_word(w)
    ls = red.letters
    i, j = 0, len(ls)
    while j - i >= 2 and ls[i].gen is ls[j - 1].gen and ls[i].sign == -ls[j - 1].sign:
        i += 1
        j -= 1
    # Contiguous slices of a reduced word are reduced.
    return red if i == 0 else Word(ls[i:j], reduced=True)


def exponent_sum(w: Word, gen: Generator) -> int:
    x, x_inv = letter_pair(gen)
    return w.letters.count(x) - w.letters.count(x_inv)


def occurrence_count(w: Word, gen: Generator) -> int:
    x, x_inv = letter_pair(gen)
    return w.letters.count(x) + w.letters.count(x_inv)


def substitute(w: Word, images: Mapping[Generator, Word]) -> Word:
    """Apply the homomorphism determined by images and freely reduce.

    A generator with no image maps to itself.  A letter g^-1 maps to the
    inverse of images[g], computed once per generator.
    """
    letters: list[Letter] = []
    inverted: dict[Generator, tuple[Letter, ...]] = {}
    for l in w.letters:
        img = images.get(l.gen)
        if img is None:
            letters.append(l)
        elif l.sign > 0:
            letters.extend(img.letters)
        else:
            inv = inverted.get(l.gen)
            if inv is None:
                inv = inverted[l.gen] = inverse(img).letters
            letters.extend(inv)
    return reduce_word(Word(tuple(letters)))


def equal_as_cyclic_words(a: Word, b: Word) -> bool:
    """Whether a and b have the same cyclic core up to rotation.

    Linear time: unless the cores are equal as they stand, a
    prefix-function (Knuth-Morris-Pratt) search for a's core in b's core
    doubled.
    """
    ca = cyclic_reduce(a).letters
    cb = cyclic_reduce(b).letters
    if len(ca) != len(cb):
        return False
    if ca == cb:
        return True
    return _occurs_in(ca, cb + cb[:-1])


def _occurs_in(pattern: tuple, text: tuple) -> bool:
    """Whether pattern (nonempty) is a contiguous run of text."""
    m = len(pattern)
    # fail[i]: length of the longest proper border of pattern[: i + 1].
    fail = [0] * m
    k = 0
    for i in range(1, m):
        while k and pattern[i] != pattern[k]:
            k = fail[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        fail[i] = k
    k = 0
    for x in text:
        while k and x != pattern[k]:
            k = fail[k - 1]
        if x == pattern[k]:
            k += 1
            if k == m:
                return True
    return False


def format_word(w: Word) -> str:
    """Render a word in the presentation grammar, runs collapsed to powers.

    The empty word renders as "1".  One loop over the letters counts the
    current run and writes it when a different letter starts the next.
    """
    letters = w.letters
    if not letters:
        return "1"
    parts: list[str] = []
    run, n = letters[0], 0
    for l in letters:
        if l == run:
            n += 1
            continue
        e = run.sign * n
        parts.append(run.gen.name if e == 1 else f"{run.gen.name}^{e}")
        run, n = l, 1
    e = run.sign * n
    parts.append(run.gen.name if e == 1 else f"{run.gen.name}^{e}")
    return " ".join(parts)


class Registry:
    """Allocates generator atoms, a new one on every call.  The only
    per-registry state is the count behind the display names of
    embedding pairs, so those names are deterministic."""

    def __init__(self) -> None:
        self._pair_count = 0

    def declare(self, name: str) -> Generator:
        if not name:
            raise ValueError("generator name must be nonempty")
        return Generator(name)

    def embedding_pair(self) -> tuple[Generator, Generator]:
        """A fresh (t#k, b#k) pair for an embedding substitution; k counts
        per registry so rendered names are deterministic."""
        self._pair_count += 1
        k = self._pair_count
        return Generator(f"t#{k}"), Generator(f"b#{k}")
