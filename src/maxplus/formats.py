"""Text formats: vectors, labeled functions, posets, and functional representers.

All formats are exact and round-trip: parse(print(v)) == v.
"""

from __future__ import annotations

import re
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

from .scalars import MAX_LITERAL_DIGITS, _parse_tokens, format_scalar, parse_scalar
from .semimodules import FinVector, _from_scalars

if TYPE_CHECKING:  # each is imported where its type is built, so a verb loads only its own
    from .functionals import FunctionalRep
    from .order import FiniteIS
    from .semialgebra import AlgebraElement


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: Optional[int] = None):
        where = f"line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


def parse_vector_line(line: str, lineno: int = 1,
                      labels: Optional[Tuple[str, ...]] = None) -> FinVector:
    """One line of scalars; labels, if given, is the checked labeling of a '# labels:' header."""
    tokens = line.split()
    if not tokens:
        raise ParseError("empty vector line", lineno)
    try:
        coords = _parse_tokens(tokens)
    except ValueError:
        # Columns are needed only to report the bad token.  \S+ splits as str.split
        # does, so this scan meets the token that failed and always raises.
        for m in re.finditer(r"\S+", line):
            try:
                parse_scalar(m.group())
            except ValueError:
                raise ParseError(f"bad scalar token {m.group()!r}", lineno,
                                 m.start() + 1) from None
    if labels is not None and len(labels) != len(coords):
        raise ParseError(f"expected {len(labels)} coordinates, got {len(coords)}", lineno)
    return _from_scalars(coords, labels)


def _labels_header(line: str, lineno: int) -> Optional[Tuple[str, ...]]:
    m = re.match(r"#\s*labels:\s*(.*)$", line)
    if m is None:
        return None
    labels = tuple(m.group(1).split())
    if not labels:
        raise ParseError("labels header names no coordinates", lineno)
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate coordinate labels", lineno)
    return labels


def parse_vectors(text: str) -> List[FinVector]:
    """One vector per line; an optional '# labels:' header names the coordinates."""
    labels = None
    vectors: List[FinVector] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            header = _labels_header(stripped, lineno)
            if header is not None:
                if vectors:
                    raise ParseError("labels header must precede the vectors", lineno)
                labels = header
            continue
        # unstripped, so a bad token's column counts from the line start
        vectors.append(parse_vector_line(line, lineno, labels))
    if not vectors:
        raise ParseError("no vectors in input", 1)
    return vectors


def format_vector(v: FinVector) -> str:
    return " ".join(map(format_scalar, v.coords))


def format_vectors(vs: List[FinVector]) -> str:
    lines = []
    if vs and vs[0].labels is not None:
        lines.append("# labels: " + " ".join(vs[0].labels))
    lines.extend(format_vector(v) for v in vs)
    return "\n".join(lines) + "\n"


def parse_functions(text: str) -> List[AlgebraElement]:
    """Same as the vector format, but the labels header is mandatory."""
    from .semialgebra import AlgebraElement  # only the function verbs load it
    vectors = parse_vectors(text)
    if vectors[0].labels is None:
        raise ParseError("function files require a '# labels:' header", 1)
    return [AlgebraElement(v) for v in vectors]


def format_functions(fs: List[AlgebraElement]) -> str:
    return format_vectors([f.vec for f in fs])


def parse_functional(text: str) -> FunctionalRep:
    """A '# functional-representer dim=N' header followed by one vector line."""
    from .functionals import FunctionalRep  # the completion verbs never load it
    lines = [(i, l) for i, l in enumerate(text.splitlines(), start=1) if l.strip()]
    if not lines:
        raise ParseError("empty functional file", 1)
    lineno, header = lines[0]
    m = re.match(r"#\s*functional-representer\s+dim=([0-9]+)$", header.strip())
    if m is None:
        raise ParseError("missing '# functional-representer dim=N' header", lineno)
    # int() would refuse a longer one, naming no line; a program may lower its limit (0: none)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # from Python 3.10.7
    digits = min(limit or MAX_LITERAL_DIGITS, MAX_LITERAL_DIGITS)
    if len(m.group(1)) > digits:
        raise ParseError(f"declared dim has more than {digits} digits", lineno)
    dim = int(m.group(1))
    # unstripped, so a bad token's column counts from the line start
    body = [(i, l) for i, l in lines[1:] if not l.lstrip().startswith("#")]
    if len(body) != 1:
        raise ParseError("functional files contain exactly one representer line", lineno)
    rep = parse_vector_line(body[0][1], body[0][0])
    if rep.dim != dim:
        raise ParseError(f"declared dim={dim} but representer has {rep.dim} coordinates",
                         body[0][0])
    return FunctionalRep(rep)


def format_functional(f: FunctionalRep) -> str:
    return f"# functional-representer dim={f.dim}\n{format_vector(f.representer)}\n"


def parse_poset(text: str) -> FiniteIS:
    """First line 'elements: a b c', then one 'a < b' cover relation per line."""
    from .order import COMPLETION_MAX_CUTS, FiniteIS  # only the completion verbs load it
    lines = [(i, l.strip()) for i, l in enumerate(text.splitlines(), start=1)
             if l.strip() and not l.strip().startswith("#")]
    if not lines:
        raise ParseError("empty poset file", 1)
    lineno, header = lines[0]
    m = re.match(r"elements:\s*(.*)$", header)
    if m is None:
        raise ParseError("poset files start with an 'elements:' line", lineno)
    elements = tuple(m.group(1).split())
    comment = next((e for e in elements if e.startswith("#")), None)
    if comment is not None:  # its relation lines would print as comments
        raise ParseError(f"element label {comment!r} starts with '#'", lineno)
    if len(elements) > COMPLETION_MAX_CUTS:  # no completion accepts it: refuse before the closure
        raise ParseError(f"completion limited to {COMPLETION_MAX_CUTS} cuts "
                         f"(order.COMPLETION_MAX_CUTS), got {len(elements)} elements", lineno)
    pairs = []
    for lineno, line in lines[1:]:
        pm = re.match(r"(\S+)\s*<\s*(\S+)$", line)
        if pm is None:
            raise ParseError(f"expected a cover relation 'a < b', got {line!r}", lineno)
        pairs.append((pm.group(1), pm.group(2)))
    try:
        return FiniteIS.from_pairs(elements, pairs)
    except ValueError as exc:
        raise ParseError(str(exc), lines[0][0]) from exc


def format_poset(s: FiniteIS) -> str:
    """The 'elements:' line, then each cover relation: i < j with nothing strictly between."""
    n = len(s.elements)
    downs = [s.down_set(j) for j in range(n)]
    lines = ["elements: " + " ".join(s.elements)]
    for i in range(n):
        up = s.upper_bounds([i])
        lines.extend(f"{s.elements[i]} < {s.elements[j]}" for j in range(n)
                     if i != j and up & downs[j] == {i, j})
    return "\n".join(lines) + "\n"
