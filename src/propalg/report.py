"""One report type for every verdict.

Every check in the package returns a Report: a dict whose keys read as
attributes.  Where a check decides something, its verdict key is PASS,
FAIL (with a witness or certificate) or UNKNOWN (with the bound it
reached).  to_json is the one place that decides how a report is written,
and JSON must go through it: json.dumps(report) writes a Report as a plain
dict and fails on a witness chain, whose keys are simplex tuples.

>>> r = Report(verdict="FAIL", witness={(0, 2): -1, (0, 1): 2}, bound=(3, 4))
>>> r.verdict, r.ok
('FAIL', False)
>>> r.to_json()
{'verdict': 'FAIL', 'witness': [[[0, 1], 2], [[0, 2], -1]], 'bound': [3, 4]}
"""


class Report(dict):
    """The keys of one verdict, readable as attributes."""

    __slots__ = ()

    def __getattr__(self, key):
        try:
            return self[key]
        except KeyError:
            raise AttributeError(key) from None

    @property
    def ok(self) -> bool:
        return self.get("verdict") == "PASS"

    def to_json(self) -> dict:
        return {k: _json(v) for k, v in self.items()}


def _json(x):
    # objects render themselves; a chain (a dict keyed by simplices) becomes
    # sorted [simplex, coefficient] pairs; tuples become lists
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, dict):
        if x and all(isinstance(k, tuple) for k in x):
            return [[list(s), c] for s, c in sorted(x.items())]
        return {k: _json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json(v) for v in x]
    return x
