"""In-memory span tracer that wraps the package's public functions from outside.

``Tracer.install()`` replaces each traced function with a timing wrapper in
every ``swlp`` module that holds it under its own name, so calls made by
name from another module (``harness`` calls ``step`` and ``recompose`` this
way) are seen too.  ``uninstall()`` puts the originals back, so untraced
rounds run the unmodified program.

A span is ``(name index, parent span id, start ns, end ns, self ns)``.  Self
time is the span's duration minus the durations of its direct children.
Spans stay in memory until ``write()``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import warnings
from collections import defaultdict
from pathlib import Path

# (module, function) pairs the tracer wraps; the metric prefix is
# ``<module>.<function>``.  ``dyadic.cumulative_below`` is a method of
# ``DyadicFilter`` and is wrapped on the class.
TRACED = (
    ("grid", "transform"),
    ("grid", "inverse_transform"),
    ("grid", "mult"),
    ("grid", "dealias"),
    ("grid", "helmholtz_split"),
    ("grid", "dump_field"),
    ("dyadic", "default_filter"),
    ("dyadic", "dyadic_block"),
    ("dyadic", "cumulative_below"),
    ("besov", "lp_norm"),
    ("besov", "block_norms"),
    ("besov", "hybrid_besov_norm"),
    ("besov", "besov_norm"),
    ("besov", "besov_minus1_infty"),
    ("paraproduct", "para"),
    ("paraproduct", "remainder"),
    ("quasi", "heat_evolve"),
    ("quasi", "log_density"),
    ("quasi", "heat_estimate_ratio"),
    ("solver", "step"),
    ("solver", "assemble_rhs"),
    ("solver", "recompose"),
    ("solver", "full_residual"),
    ("solver", "cfl_number"),
    ("solver", "grad_norm_field"),
    ("harness", "run"),
    ("harness", "fit_series"),
    ("sweeps", "sweep_ratios"),
)

ROOT = "bench.round"
_MIB = float(1 << 20)
_LOG_TAIL_MESSAGE = "log-density truncation"


def _fft_bytes(args, result) -> int:
    """Bytes one forward or inverse transform reads and writes."""
    return int(args[0].nbytes) + int(result.nbytes)


def _dump_bytes(args, result) -> int:
    """Bytes ``dump_field(field, path)`` wrote, read back from the files."""
    field, path = args[0], Path(args[1])
    total = path.with_suffix(".json").stat().st_size
    for c in range(field.ncomp):
        total += Path(f"{path}.c{c}.bin").stat().st_size
    return total


_BYTES = {
    "grid.transform": ("grid.fft_mib", _fft_bytes),
    "grid.inverse_transform": ("grid.fft_mib", _fft_bytes),
    "grid.dump_field": ("grid.dump_field.mib", _dump_bytes),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT] + [f"{m}.{f}" for m, f in TRACED]
        self._index = {n: i for i, n in enumerate(self.names)}
        self.spans: list[tuple | None] = []
        self.bytes: dict[str, int] = defaultdict(int)
        self.tail_warnings = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._patched: list[tuple[object, str, object]] = []
        self._warn_ctx = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = self._index[name]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        extra = _BYTES.get(name)
        moved = self.bytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                spans[sid] = (idx, parent[0] if parent else -1, t0, t1, dur - frame[1])
            if extra is not None:
                moved[extra[0]] += extra[1](args, result)
            return result

        return traced

    def install(self) -> None:
        import swlp.dyadic

        mods = [m for k, m in sys.modules.items() if k == "swlp" or k.startswith("swlp.")]
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            if fn_name == "cumulative_below":
                cls = swlp.dyadic.DyadicFilter
                orig = cls.cumulative_below
                self._set(cls, fn_name, self._wrap(name, orig), orig)
                continue
            orig = getattr(sys.modules[f"swlp.{mod_name}"], fn_name)
            wrapper = self._wrap(name, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, wrapper, orig)
        self._warn_ctx = warnings.catch_warnings()
        self._warn_ctx.__enter__()
        warnings.filterwarnings("always", message=_LOG_TAIL_MESSAGE)
        show = warnings.showwarning

        def count(message, category, filename, lineno, file=None, line=None):
            if str(message).startswith(_LOG_TAIL_MESSAGE):
                self.tail_warnings += 1
            else:
                show(message, category, filename, lineno, file, line)

        warnings.showwarning = count

    def _set(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._patched.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()
        if self._warn_ctx is not None:
            self._warn_ctx.__exit__(None, None, None)
            self._warn_ctx = None

    def root(self, fn):
        """Wrap a callable in the root span, whose self time is the benchmark's own."""
        return self._wrap(ROOT, fn)

    # -- aggregation ------------------------------------------------------

    def summary(self, rounds: int) -> dict[str, float]:
        """Per-round means of calls and self seconds, plus the derived figures."""
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        run_idx = self._index["harness.run"]
        step_idx = self._index["solver.step"]
        dump_idx = self._index["grid.dump_field"]
        snap_idx = self._index["solver.full_residual"]
        diag_ns = step_ns = 0
        snapshots = 0
        spans = self.spans
        for idx, parent, t0, t1, own in spans:
            calls[idx] += 1
            self_ns[idx] += own
            if idx == step_idx:
                step_ns += t1 - t0
            if parent >= 0 and spans[parent][0] == run_idx:
                if idx not in (step_idx, dump_idx):
                    diag_ns += t1 - t0
                if idx == snap_idx:
                    snapshots += 1
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / rounds
            out[f"{name}.s"] = self_ns[i] / 1e9 / rounds
        for key in ("grid.fft_mib", "grid.dump_field.mib"):
            out[key] = self.bytes[key] / _MIB / rounds
        out["quasi.log_density.tail_warnings"] = self.tail_warnings / rounds
        out["harness.diagnostics.s"] = diag_ns / 1e9 / rounds
        per_snapshot = diag_ns / 1e9 / snapshots if snapshots else 0.0
        per_step = step_ns / 1e9 / calls[step_idx] if calls[step_idx] else 0.0
        out["harness.diag_per_snapshot_s"] = per_snapshot
        out["harness.step_per_call_s"] = per_step
        out["harness.diag_per_step"] = per_snapshot / per_step if per_step else 0.0
        out["trace.self_sum_s"] = sum(self_ns.values()) / 1e9 / rounds
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "parent", "start_ns", "end_ns", "self_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))
