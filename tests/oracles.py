"""Independent brute-force oracles the implementation is checked against.

These deliberately share no code with the package: naive O(n^2) ranking,
direct formula evaluation, Decimal index arithmetic, scipy reference
distributions, and a record codec that walks each field's type hint on every
row (only its exception type comes from the package).
"""
import dataclasses
import functools
import math
import types
import typing
from decimal import Decimal, ROUND_CEILING
from itertools import product

import numpy as np
from scipy import stats as sps

Z975 = 1.9599639845400536


def wilson_oracle(k, n, z=Z975):
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, 100 * (center - half)), min(100.0, 100 * (center + half))


def naive_midranks(values):
    out = []
    for x in values:
        less = sum(1 for y in values if y < x)
        equal = sum(1 for y in values if y == x)
        out.append(less + (equal + 1) / 2)
    return out


def kruskal_oracle(groups):
    pooled = [x for g in groups for x in g]
    n = len(pooled)
    if all(x == pooled[0] for x in pooled):
        return 0.0, 1.0
    ranks = naive_midranks(pooled)
    h = 0.0
    start = 0
    for g in groups:
        rs = sum(ranks[start : start + len(g)])
        h += rs * rs / len(g)
        start += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    tie_sum = 0.0
    for x in set(pooled):
        t = pooled.count(x)
        tie_sum += t**3 - t
    h /= 1.0 - tie_sum / (n**3 - n)
    return h, float(sps.chi2.sf(h, len(groups) - 1))


def wilcoxon_oracle(diffs):
    diffs = [d for d in diffs if d != 0.0]
    n = len(diffs)
    if n == 0:
        return 0.0, 1.0
    ranks = naive_midranks([abs(d) for d in diffs])
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    w_minus = sum(r for d, r in zip(diffs, ranks) if d < 0)
    w = min(w_plus, w_minus)
    if n <= 12:
        hits = 0
        for signs in product((0, 1), repeat=n):
            total = sum(r for s, r in zip(signs, ranks) if s)
            if total <= w + 1e-12:
                hits += 1
        return w, min(1.0, 2.0 * hits / 2**n)
    mean = n * (n + 1) / 4.0
    tie_sum = 0.0
    absd = [abs(d) for d in diffs]
    for x in set(absd):
        t = absd.count(x)
        tie_sum += t**3 - t
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_sum / 48.0
    z = (w - mean + 0.5) / math.sqrt(var)
    return w, min(1.0, 2.0 * float(sps.norm.cdf(z)))


def spearman_oracle(x, y):
    rx = naive_midranks(x)
    ry = naive_midranks(y)
    rho = float(np.corrcoef(rx, ry)[0, 1])
    n = len(x)
    if abs(rho) >= 1.0:
        return math.copysign(1.0, rho), 0.0
    t = rho * math.sqrt((n - 2) / (1 - rho * rho))
    return rho, min(1.0, 2.0 * float(sps.t.sf(abs(t), n - 2)))


def rank_biserial_oracle(diffs):
    diffs = [d for d in diffs if d != 0.0]
    ranks = naive_midranks([abs(d) for d in diffs])
    plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    minus = sum(r for d, r in zip(diffs, ranks) if d < 0)
    return (plus - minus) / sum(ranks)


def quantile_oracle(scores, alpha):
    """Sort-and-index with Decimal arithmetic for the order-statistic index."""
    n = len(scores)
    m = int(
        (Decimal(n + 1) * (Decimal(1) - Decimal(str(alpha)))).to_integral_value(
            rounding=ROUND_CEILING
        )
    )
    if m > n:
        return math.inf, m
    return sorted(scores)[m - 1], m


def coverage_oracle(items):
    hits = 0
    total = 0
    for lower, upper, truth in items:
        total += 1
        if lower <= truth and truth <= upper:
            hits += 1
    return None if total == 0 else hits / total


def cv_oracle(value, lower, upper):
    if abs(value) < 1e-9:
        return None
    return (upper - lower) / abs(value)


def mdape_oracle(predictions_and_truths):
    apes = sorted(
        100.0 * abs(p - t) / abs(t) for p, t in predictions_and_truths if t != 0.0
    )
    if not apes:
        return None
    mid = len(apes) // 2
    if len(apes) % 2:
        return apes[mid]
    return (apes[mid - 1] + apes[mid]) / 2


def winrate_oracle(pairs):
    wins = sum(1 for p, t in pairs if abs(p - t) < abs(50.0 - t))
    return wins / len(pairs)


def nll_gaussian_oracle(value, lower, upper, truth):
    sigma = max((upper - lower) / (2 * Z975), 1e-9, 1e-6 * abs(value))
    return -float(sps.norm.logpdf(truth, loc=value, scale=sigma))


def nll_binomial_oracle(value, n, k):
    p = min(max(value / 100.0, 1e-6), 1 - 1e-6)
    return -float(sps.binom.logpmf(k, n, p))


# The record codec, one field at a time: load_row_reference(cls, row) must
# give what jsonlio.load_row gives, the same record or the same error.

def _ref_as_str(value):
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _ref_as_bool(value):
    if type(value) is not bool:
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _ref_as_int(value):
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _ref_as_float(value):
    if type(value) is float:
        return value
    if type(value) is not int:
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _ref_as_object(value):
    if type(value) is not dict:
        raise TypeError(f"expected an object, got {value!r}")
    return value


def _ref_as_list(item, value):
    if type(value) is not list:
        raise TypeError(f"expected a list, got {value!r}")
    return [item(v) for v in value]


_REF_CHECKED = {
    str: _ref_as_str, bool: _ref_as_bool, int: _ref_as_int, float: _ref_as_float,
    dict: _ref_as_object, object: lambda value: value,
}


def _ref_converter(hint):
    if hint in _REF_CHECKED:
        return _REF_CHECKED[hint]
    if dataclasses.is_dataclass(hint):
        return functools.partial(load_row_reference, hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # only X | None
        (inner,) = (_ref_converter(a) for a in args if a is not type(None))
        return lambda value: None if value is None else inner(value)
    if origin is dict:
        key, item = map(_ref_converter, args)
        return lambda value: {key(k): item(v) for k, v in _ref_as_object(value).items()}
    if origin is list:
        return functools.partial(_ref_as_list, _ref_converter(args[0]))
    return hint  # str-Enums convert by calling the type


def load_row_reference(cls, row):
    """`cls(**fields)`, each field read from `row` and checked against its hint."""
    # Imported here: the benchmark loads this module without the package on its path.
    from elicitbench.errors import SchemaError

    if type(row) is not dict:
        raise SchemaError(f"{cls.__name__} row: expected an object, got {row!r}")
    hints = typing.get_type_hints(cls)
    try:
        kwargs = {}
        for f in dataclasses.fields(cls):
            try:
                value = row[f.name]
            except KeyError:
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                    raise
                continue
            convert = f.metadata.get("load") or _ref_converter(hints[f.name])
            try:
                kwargs[f.name] = convert(value)
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{cls.__name__} row: {f.name}: {exc}") from exc
        return cls(**kwargs)
    except KeyError as exc:
        raise SchemaError(f"{cls.__name__} row: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{cls.__name__} row: {exc}") from exc
