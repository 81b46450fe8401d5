"""What a regeneration of recorded test data changes, entry by entry.

tests/test_golden.py and tests/test_cli.py print these lines before they
rewrite their data files, so that every moved root or byte is named.
"""


def _leaves(value, path=""):
    """(path, leaf) of every scalar in nested dicts and lists, and of every
    line of a multi-line string: dict keys joined by '.', list indices in
    brackets, line numbers after ' line '."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    elif isinstance(value, str) and "\n" in value:
        for i, line in enumerate(value.splitlines(), 1):
            yield f"{path} line {i}", line
    else:
        yield path, value


def _hex_float(value):
    try:
        return float.fromhex(value) if isinstance(value, str) and "0x" in value else None
    except ValueError:
        return None


def changes(old: dict, new: dict) -> list[str]:
    """One line per field whose value differs between the entries of old
    and new (an entry absent from one side has no fields there):
    'entry field: old -> new', with the relative change of a hex float."""
    lines = []
    for entry in list(new) + [e for e in old if e not in new]:
        before, after = dict(_leaves(old.get(entry, {}))), dict(_leaves(new.get(entry, {})))
        for field in list(after) + [f for f in before if f not in after]:
            a, b = before.get(field), after.get(field)
            if a == b:
                continue
            line = f"{entry} {field}: {a!r} -> {b!r}"
            x, y = _hex_float(a), _hex_float(b)
            if x is not None and y is not None and x != 0.0:
                line += f" (relative {abs(y - x) / abs(x):.2g})"
            lines.append(line)
    return lines
