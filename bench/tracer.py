"""Per-layer tracing for the benchmark, installed from outside the package.

A ``Tracer`` replaces public functions and methods of bftensemble with
wrappers that time them, and restores the originals on ``uninstall``.  Spans
are not kept one per call: each traced name aggregates into one
``[calls, self_ns]`` pair, because a PBFT frame makes over a thousand traced
calls.  Self time is a span's duration minus the time of the traced spans
it encloses, so the self times of all names add up to the time spent inside
the outermost spans (``root_ns``).

A function imported elsewhere with ``from .x import name`` is rebound in
every bftensemble module that holds it, so no call site escapes the trace.
"""
from __future__ import annotations

from collections import Counter
from time import perf_counter_ns

# (module, function) pairs traced under "<module>.<function>".
FUNCTIONS = (
    ("core", "digest"),
    ("simnet", "payload_digest_hex"),
    ("voter", "tally"),
    ("harness", "produce_output"),
    ("episode", "run_episode"),
    ("campaign", "randomize_episode"),
)

# (module, class, method) triples traced under "<module>.<class>.<method>",
# or under the fourth field when there is one: EquivocatingReplica's overrides
# are traced under Replica's names.
METHODS = (
    ("core", "KeyRegistry", "sign"),
    ("core", "KeyRegistry", "verify"),
    ("messages", "Signed", "verify"),
    ("simnet", "NetworkPolicy", "fate"),
    ("consensus", "Replica", "handle"),
    ("consensus", "Replica", "on_round"),
    ("consensus", "Replica", "make_checkpoint"),
    ("consensus", "Replica", "apply_snapshot"),
    ("consensus", "EquivocatingReplica", "handle", "consensus.Replica.handle"),
    ("consensus", "EquivocatingReplica", "on_round", "consensus.Replica.on_round"),
    ("supervisor", "Supervisor", "review"),
)


def method_name(module: str, cls: str, method: str, *traced_as: str) -> str:
    return traced_as[0] if traced_as else f"{module}.{cls}.{method}"


# Names traced with extra counts by dedicated wrappers below.
SPECIAL = (
    "core.canonical",
    "messages.payload",
    "simnet.World.send",
    "simnet.World.advance_round",
    "voter.fast_path_agree",
)

TRACED_NAMES = tuple(dict.fromkeys(
    [f"{mod}.{fn}" for mod, fn in FUNCTIONS]
    + [method_name(*row) for row in METHODS]
    + list(SPECIAL)
))


class Tracer:
    """Aggregated spans and counts for one traced stretch of episodes."""

    def __init__(self, mods: dict):
        """``mods`` maps short names ("core", "simnet", ...) to the package's
        modules, and should include the package itself under any other key."""
        self.mods = mods
        self.stats: dict[str, list[int]] = {name: [0, 0] for name in TRACED_NAMES}
        self.counts: Counter = Counter()
        # child time accumulated by each open span; slot 0 collects the
        # outermost spans, so it ends up holding their total duration
        self._stack = [0]
        self._undo: list[tuple[object, str, object]] = []

    @property
    def root_ns(self) -> int:
        return self._stack[0]

    def reset(self) -> None:
        for rec in self.stats.values():
            rec[0] = rec[1] = 0
        self.counts.clear()
        self._stack[:] = [0]

    # --- wrappers ------------------------------------------------------------

    def span(self, name: str, fn):
        """Return ``fn`` wrapped in a span that aggregates under ``name``."""
        rec = self.stats[name]
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                rec[1] += elapsed - stack.pop()
                stack[-1] += elapsed
                rec[0] += 1

        traced.__wrapped__ = fn
        return traced

    def _canonical(self, fn):
        # canonical() recurses through the module global for nested lists;
        # only the outermost call is a span, and its bytes are counted once.
        traced = self.span("core.canonical", fn)
        counts = self.counts
        inside = [False]

        def canonical(*fields):
            if inside[0]:
                return fn(*fields)
            inside[0] = True
            try:
                out = traced(*fields)
            finally:
                inside[0] = False
            counts["core.canonical.bytes"] += len(out)
            return out

        canonical.__wrapped__ = fn
        return canonical

    def _sign_message(self, fn):
        counts = self.counts

        def sign_message(*args, **kwargs):
            counts["messages.sign_message"] += 1
            return fn(*args, **kwargs)

        sign_message.__wrapped__ = fn
        return sign_message

    def _send(self, fn):
        traced = self.span("simnet.World.send", fn)
        counts = self.counts

        def send(world, *args, **kwargs):
            seq, queued = world._seq, len(world._queue)
            traced(world, *args, **kwargs)
            # every recipient takes a sequence number; those not queued
            # were dropped, muted or partitioned away
            counts["simnet.dropped"] += (world._seq - seq) - (len(world._queue) - queued)

        send.__wrapped__ = fn
        return send

    def _advance_round(self, fn):
        traced = self.span("simnet.World.advance_round", fn)
        counts = self.counts

        def advance_round(world):
            scanned = len(world._queue)
            due = traced(world)
            counts["simnet.scanned"] += scanned
            counts["simnet.delivered"] += len(due)
            # due envelopes to or from a muted module are dropped on delivery
            counts["simnet.dropped"] += scanned - len(world._queue) - len(due)
            for env in due:
                counts["simnet.kind." + env.kind] += 1
            return due

        advance_round.__wrapped__ = fn
        return advance_round

    def _fast_path_agree(self, fn):
        traced = self.span("voter.fast_path_agree", fn)
        counts = self.counts

        def fast_path_agree(*args, **kwargs):
            result = traced(*args, **kwargs)
            if result.rounds_used == 1 and result.verdict.decided:
                counts["voter.fastpath_hits"] += 1
            return result

        fast_path_agree.__wrapped__ = fn
        return fast_path_agree

    # --- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` in every package module that holds it."""
        for mod in self.mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = self.mods
        core, messages, simnet, voter = mods["core"], mods["messages"], mods["simnet"], mods["voter"]

        for m, fn in FUNCTIONS:
            original = getattr(mods[m], fn)
            self._rebind(original, self.span(f"{m}.{fn}", original))
        self._rebind(core.canonical, self._canonical(core.canonical))
        self._rebind(messages.sign_message, self._sign_message(messages.sign_message))
        self._rebind(voter.fast_path_agree, self._fast_path_agree(voter.fast_path_agree))

        for row in METHODS:
            cls, meth = getattr(mods[row[0]], row[1]), row[2]
            if meth in vars(cls):
                self._set(cls, meth, self.span(method_name(*row), vars(cls)[meth]))
        for cls in vars(messages).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == messages.__name__
                and "payload" in vars(cls)
            ):
                self._set(cls, "payload", self.span("messages.payload", vars(cls)["payload"]))
        self._set(simnet.World, "send", self._send(simnet.World.send))
        self._set(simnet.World, "advance_round", self._advance_round(simnet.World.advance_round))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
