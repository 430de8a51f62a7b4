"""Shared test helpers."""


def all_compositions(n):
    """Every composition of n, in the order of the bitmask of its cuts."""
    for bits in range(1 << (n - 1)):
        parts, last = [], 1
        for i in range(n - 1):
            if bits >> i & 1:
                parts.append(last)
                last = 1
            else:
                last += 1
        parts.append(last)
        yield tuple(parts)
