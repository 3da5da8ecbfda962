"""Run one ``z2lie`` command in this process with its layers' functions wrapped.

    PYTHONPATH=src python3 perfbench/traced.py <z2lie arguments...>

The command's report goes to stdout exactly as ``z2lie`` writes it, and
its exit code is ``z2lie``'s.  The per-layer counts and times go to
stderr as the last line, one flat JSON object of ``<probe>.<field>``
numbers, where a probe is one wrapped function or method.

The wrappers are installed from outside the package: each target is
replaced on the module or class that defines it, and on every ``z2lie``
module that bound the same object with ``from .x import y`` (``cli``
binds ``verify_identities``, ``extended_bch`` and others at import time).
Hot methods keep aggregate counters only, never one span per call.  A
probe's ``self_s`` is its time minus the time of the probes it called.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (probe, module, attribute path, extra recorder or None)
TARGETS = (
    ("algebra.element_mul", "z2lie.algebra", "Element.__mul__", None),
    ("algebra.invert", "z2lie.algebra", "Element.invert", None),
    ("algebra.is_alternative", "z2lie.algebra", "is_alternative", None),
    ("algebra.is_associative", "z2lie.algebra", "is_associative", None),
    ("algebra.validate_z2", "z2lie.algebra", "validate_z2", None),
    ("brackets.verify_identities", "z2lie.brackets", "verify_identities", "trials"),
    ("brackets.generate_subalgebra", "z2lie.brackets", "generate_subalgebra", None),
    ("brackets.angle", "z2lie.brackets", "angle", None),
    ("brackets.square", "z2lie.brackets", "square", None),
    ("catalog.composition_check", "z2lie.catalog", "composition_check", None),
    ("catalog.division_check", "z2lie.catalog", "division_check", None),
    ("bch.series_mul", "z2lie.bch", "Series.__mul__", None),
    ("bch.extended_bch", "z2lie.bch", "extended_bch", "words"),
    ("bch.bracket_basis_fit", "z2lie.bch", "bracket_basis_fit", None),
    ("bch.compare_printed_series", "z2lie.bch", "compare_printed_series", None),
    ("linalg.span_add", "z2lie.linalg", "FractionSpan.add", "useful"),
    ("linalg.span_reduce", "z2lie.linalg", "FractionSpan.reduce", None),
    ("linalg.solve_columns", "z2lie.linalg", "solve_columns", None),
    ("blockmodel.mat_exp", "z2lie.blockmodel", "mat_exp", None),
    ("blockmodel.mat_log", "z2lie.blockmodel", "mat_log", None),
    ("blockmodel.sample_xi_group", "z2lie.blockmodel", "sample_xi_group", None),
    ("blockmodel.tangent_basis", "z2lie.blockmodel", "tangent_basis", None),
    ("blockmodel.xi_closure_check", "z2lie.blockmodel", "xi_closure_check", None),
    ("cli.dump", "z2lie.cli", "_dump", None),
)


def _record_extra(kind, probe, result):
    if kind == "trials":
        probe["trials"] += sum(check.trials for check in result.checks)
    elif kind == "words":
        probe["words"] = max(probe["words"], len(result.terms))
    elif kind == "useful":
        probe["useful"] += bool(result)


class Tracer:
    """Aggregate counters for wrapped callables, with nested self time."""

    def __init__(self):
        self.probes = {}
        self.missing = []
        self._child_time = []  # one accumulator per active wrapped call

    def wrap(self, name, func, extra):
        probe = self.probes[name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        if extra:
            probe[extra] = 0
        stack = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                probe["calls"] += 1
                probe["s"] += elapsed
                probe["self_s"] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
            if extra:
                _record_extra(extra, probe, result)
            return result

        return wrapper

    def install(self, targets=TARGETS):
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "z2lie" or name.startswith("z2lie."))
        ]
        for name, module_name, path, extra in targets:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, extra)
            setattr(owner, attr, wrapper)
            if outer:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def flat(self):
        out = {
            f"{name}.{field}": value
            for name, probe in self.probes.items()
            for field, value in probe.items()
        }
        out["missing"] = self.missing
        return out


def main(argv):
    import z2lie.cli

    tracer = Tracer()
    tracer.install()
    code = z2lie.cli.main(argv)
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps(tracer.flat(), sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
