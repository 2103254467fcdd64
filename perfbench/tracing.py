"""Span recording around calls into the airsep modules, from outside the package.

Nothing here edits ``src/``: the benchmark replaces module attributes with
wrappers for the duration of a run and restores them afterwards. A function
imported by name into several modules (``featurize`` in ``ppo`` and
``harness``, for example) is replaced in every module that holds it, so a call
is recorded whichever module makes it.

Two recorders exist:

* :class:`CycleProbe` is always on. It timestamps each return of
  ``airspace.step`` (one decision cycle) and the start of each timed loop
  (a ``ppo.collect_rollouts`` or ``harness.run_episode`` call). It records the
  active aircraft of every step, safety events by kind, the transitions each
  rollout returns and the steps of each episode that ends. It costs one clock
  read and a dictionary update per step.
* :class:`Tracer` is on only for ``--trace 1``. It records a span (name, start,
  end, parent) for every call into the public functions listed in
  :data:`TRACED`, kept in memory and written out once the run ends. Per-step
  traffic comes from the probe, matched to the ``airspace.step`` spans in order.
"""

import csv
import functools
import os
import statistics
import sys
import time

import numpy as np

#: (module, attribute) pairs wrapped by the tracer; ``Class.method`` patches a method
TRACED = (
    ("config", "load_training_config"),
    ("numerics", "backward"),
    ("numerics", "save_checkpoint"),
    ("numerics", "load_checkpoint"),
    ("airspace", "make_world"),
    ("airspace", "step"),
    ("airspace", "detect_events"),
    ("featurize", "featurize"),
    ("reward", "compute_reward"),
    ("policy", "init_params"),
    ("policy", "act"),
    ("policy", "forward"),
    ("policy", "forward_tensors"),
    ("policy", "save_policy"),
    ("policy", "load_policy"),
    ("ppo", "train"),
    ("ppo", "collect_rollouts"),
    ("ppo", "compute_gae"),
    ("ppo", "ppo_update"),
    ("ppo", "clip_grad_norm"),
    ("ppo", "Adam.step"),
    ("harness", "run_episode"),
)

#: active-aircraft counts at which per-step featurize and airspace costs are reported;
#: 15, not 16, is the top one because many case-C seeds never have all 16 aloft at once
DENSITIES = (2, 10, 15)


class Patcher:
    """Replaces attributes across the airsep modules and undoes it on exit."""

    def __init__(self):
        self._undo = []

    def replace_function(self, module_name, attr, make_wrapper):
        """Wrap ``airsep.<module>.<attr>`` everywhere it is bound in the package.

        Raises AttributeError when the attribute does not exist.
        """
        owner = getattr(sys.modules["airsep"], module_name)
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            cls = getattr(owner, cls_name)
            self._set(cls, meth, make_wrapper(getattr(cls, meth)))
            return
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if name != "airsep" and not name.startswith("airsep."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, holder, key, value):
        self._undo.append((holder, key, holder.__dict__[key]))
        setattr(holder, key, value)

    def restore(self):
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()


class SetupDone(Exception):
    """Raised at the start of the first timed loop when only set-up is measured."""


class CycleProbe:
    """Loop starts, decision-cycle latencies and traffic, with tracing off or on.

    A timed loop is one ``ppo.collect_rollouts`` or ``harness.run_episode``
    call; what a process does before its first loop starts is set-up. A cycle
    is the wall time between consecutive returns of ``airspace.step`` within
    one loop: featurize every active aircraft, choose its advisory, advance
    the world, plus the caller's bookkeeping. The first cycle of a loop is
    timed from the loop's start. Steps with no active aircraft make no
    decision and are not cycles.

    With ``stop_at_loop`` set, the first loop start raises :class:`SetupDone`.
    """

    def __init__(self, stop_at_loop=False):
        self.stop_at_loop = stop_at_loop
        self.loop_starts = []     # perf_counter at the start of each timed loop
        self.cycle_ms = []
        self.active = []          # active aircraft per cycle, beside cycle_ms
        self.step_active = []     # active aircraft of every airspace.step call, 0 included
        self.events = {"conflict": 0, "los": 0, "nmac": 0}
        self.transitions = []     # per collect_rollouts call
        self.episode_steps = []   # steps of each world that finished during the run
        self._world_steps = {}
        self._last = None

    def loop_started(self):
        self._last = time.perf_counter()
        self.loop_starts.append(self._last)
        if self.stop_at_loop:
            raise SetupDone()

    def install(self, patcher):
        probe = self

        def wrap_step(step):
            @functools.wraps(step)
            def timed_step(world, joint_actions):
                probe.step_active.append(len(joint_actions))
                result = step(world, joint_actions)
                now = time.perf_counter()
                if joint_actions:
                    probe.cycle_ms.append((now - probe._last) * 1e3)
                    probe.active.append(len(joint_actions))
                    for event in result.events:
                        probe.events[event.kind.value] += 1
                probe._last = now
                # the entry holds the world, so its id is not reused while counted
                steps = probe._world_steps.pop(id(world), (world, 0))[1] + 1
                if world.is_done():
                    probe.episode_steps.append(steps)
                else:
                    probe._world_steps[id(world)] = (world, steps)
                return result

            return timed_step

        def wrap_collect(collect):
            @functools.wraps(collect)
            def counted_collect(*args, **kwargs):
                probe.loop_started()
                buffer = collect(*args, **kwargs)
                probe.transitions.append(len(buffer))
                return buffer

            return counted_collect

        def wrap_episode(run_episode):
            @functools.wraps(run_episode)
            def marked_episode(*args, **kwargs):
                probe.loop_started()
                return run_episode(*args, **kwargs)

            return marked_episode

        for module, attr, wrap in (
            ("airspace", "step", wrap_step),
            ("ppo", "collect_rollouts", wrap_collect),
            ("harness", "run_episode", wrap_episode),
        ):
            patcher.replace_function(module, attr, wrap)

    def cycle_stats(self):
        """Cycle latency percentiles, overall and per active-aircraft count."""
        ms = np.asarray(self.cycle_ms)
        active = np.asarray(self.active)
        by_active = {
            str(n): {"cycles": int((active == n).sum()), "p50_ms": float(np.median(ms[active == n]))}
            for n in np.unique(active)
        }
        return {
            "samples": int(ms.size),
            "p50_ms": float(np.percentile(ms, 50)) if ms.size else 0.0,
            "p99_ms": float(np.percentile(ms, 99)) if ms.size else 0.0,
            "by_active": by_active,
        }

    def descriptors(self):
        """Active aircraft per cycle and intruders per observation (histograms),
        transitions per update, lengths of the episodes that ended, safety events."""
        active = np.asarray(self.active, dtype=np.int64)
        per_obs = np.bincount(active - 1, weights=active).astype(np.int64) if active.size else np.zeros(0)
        return {
            "active_aircraft_per_step": _histogram(np.bincount(active) if active.size else []),
            "intruders_per_observation": _histogram(per_obs),
            "transitions_per_update": list(self.transitions),
            "episode_steps": list(self.episode_steps),
            "events": dict(self.events),
        }


def _histogram(counts):
    return {str(k): int(c) for k, c in enumerate(counts) if c}


class Tracer:
    """In-memory spans around calls into the airsep modules."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []    # [name, start, end, parent, note]
        self._stack = []

    def install(self, patcher):
        for module, attr in TRACED:
            patcher.replace_function(module, attr, functools.partial(self._wrap, f"{module}.{attr}"))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def write(self, path):
        """Spans as CSV: run id, span id, name, start and end (s), parent span id."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("run_id", "span", "name", "start_s", "end_s", "parent"))
            for sid, (name, start, end, parent, _) in enumerate(self.spans):
                writer.writerow((self.run_id, sid, name, repr(start), repr(end), parent))

    def layer_metrics(self, probe):
        """Per-layer numbers: mean time and self time per call, counts, density buckets.

        Traffic per step comes from ``probe``, which saw the same
        ``airspace.step`` calls in the same order. A metric is None when the
        run made no call it could be measured from (``ppo`` on evaluation,
        ``harness`` on training, a density the traffic never reached). The
        per-layer metrics ``BENCHMARK.json`` lists are measured by every workload.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, total, self_total = {}, {}, {}
        for sid, (name, start, end, parent, _) in enumerate(spans):
            if name == "policy.forward_tensors" and parent >= 0 and spans[parent][0] == "policy.forward":
                name = "policy.forward_tensors.nograd"
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_total[name] = self_total.get(name, 0.0) + dur - child_time[sid]

        def mean_ms(name, table=total):
            return 1e3 * table[name] / calls[name] if calls.get(name) else None

        m = {}
        for name in (
            "ppo.Adam.step", "ppo.clip_grad_norm", "ppo.compute_gae", "policy.forward_tensors",
            "policy.forward_tensors.nograd", "policy.act", "numerics.backward",
            "numerics.save_checkpoint", "numerics.load_checkpoint", "featurize.featurize",
            "airspace.detect_events", "airspace.make_world", "reward.compute_reward",
            "config.load_training_config",
        ):
            m[f"{name}.ms"] = mean_ms(name)
        for name in ("ppo.ppo_update", "ppo.collect_rollouts", "airspace.step", "harness.run_episode"):
            m[f"{name}.self_ms"] = mean_ms(name, self_total)
        m["policy.init_params.ms"] = mean_ms("policy.init_params")
        # per decision, so training and evaluation each report their own loop and policy cost
        decisions = sum(probe.active)
        for metric, names in (
            ("loop.self_ms_per_decision", ("ppo.collect_rollouts", "harness.run_episode")),
            ("policy.self_ms_per_decision", (
                "policy.act", "policy.forward", "policy.forward_tensors", "policy.forward_tensors.nograd",
            )),
        ):
            busy = sum(self_total.get(name, 0.0) for name in names)
            m[metric] = 1e3 * busy / decisions if decisions else None
        m["numerics.backward.calls"] = calls.get("numerics.backward")

        notes = _collect_notes(spans)
        updates = calls.get("ppo.ppo_update")
        m["ppo.transitions_per_update"] = _mean(probe.transitions) if updates else None
        m["ppo.minibatches_per_update"] = calls.get("ppo.Adam.step", 0) / updates if updates else None
        tokens = notes["policy.act"]
        m["policy.tokens_per_obs.mean"] = _mean(tokens)
        m["policy.tokens_per_obs.max"] = _max(tokens)
        m["numerics.save_checkpoint.bytes"] = _mean(notes["numerics.save_checkpoint"])
        per_episode = {}
        for name, _, _, parent, _ in spans:
            if name == "policy.act" and parent >= 0 and spans[parent][0] == "harness.run_episode":
                per_episode[parent] = per_episode.get(parent, 0) + 1
        m["harness.agent_steps"] = _mean(list(per_episode.values()))

        active = probe.active
        m["airspace.active_aircraft.mean"] = _mean(active)
        m["airspace.active_aircraft.max"] = _max(active)
        for kind, count in probe.events.items():
            m[f"airspace.events_per_step.{kind}"] = count / len(active) if active else None
        steps = _per_step(spans, child_time, probe.step_active)
        m["featurize.per_step.ms"] = _mean([s[1] for s in steps])
        for n in DENSITIES:
            at = [s for s in steps if s[0] == n]
            m[f"airspace.steps.n{n}"] = len(at) or None
            m[f"featurize.per_step.ms.n{n}"] = _mean([s[1] for s in at])
            m[f"airspace.step.self_ms.n{n}"] = _mean([s[2] for s in at])
            m[f"airspace.detect_events.ms.n{n}"] = _mean([s[3] for s in at])
        return m


def span_cost_s(n=20000):
    """Measured cost of recording one span, from an empty traced function."""
    noop = Tracer("calibration")._wrap("noop", lambda: None)
    bare = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        bare()
    return max((t1 - t0) - (time.perf_counter() - t1), 0.0) / n


def _collect_notes(spans):
    out = {name: [] for name in _NOTES}
    for name, _, _, _, note in spans:
        if name in out and note is not None:
            out[name].append(note)
    return out


def _per_step(spans, child_time, step_active):
    """(active, featurize ms, step self ms, detect_events ms) per decision step.

    ``step_active`` holds the active aircraft of each ``airspace.step`` call in
    call order. Featurize calls are charged to the next ``airspace.step`` under
    the same parent span, which is how both the rollout loop and the
    evaluation loop order them: featurize every agent, then step.
    """
    detect = {}
    for name, start, end, parent, _ in spans:
        if name == "airspace.detect_events" and parent >= 0:
            detect[parent] = detect.get(parent, 0.0) + end - start
    step_spans = [sid for sid, span in enumerate(spans) if span[0] == "airspace.step"]
    if len(step_spans) != len(step_active):
        raise RuntimeError(f"{len(step_spans)} airspace.step spans but {len(step_active)} probed steps")
    active_of = dict(zip(step_spans, step_active))
    pending = {}
    steps = []
    for sid, (name, start, end, parent, _) in enumerate(spans):
        if name == "featurize.featurize":
            pending[parent] = pending.get(parent, 0.0) + end - start
        elif name == "airspace.step" and active_of[sid]:
            steps.append((
                active_of[sid],
                1e3 * pending.pop(parent, 0.0),
                1e3 * (end - start - child_time[sid]),
                1e3 * detect.get(sid, 0.0),
            ))
    return steps


def _mean(values):
    return float(statistics.fmean(values)) if len(values) else None


def _max(values):
    return max(values) if len(values) else None


_NOTES = {
    "policy.act": lambda args, result: 1 + args[0].n_intruders,
    "numerics.save_checkpoint": lambda args, result: os.path.getsize(result),
}
