"""Property tests for the fault-injection engine's determinism and safety.

Three invariant families:

* **Plan determinism** — compiling a :class:`FaultSpec` is a pure
  function of ``(spec, dims)``, and the stateless per-message decisions
  form an identical injected event stream for identical seeds (hypothesis
  sweeps the spec space).
* **Run determinism** — a faulty run's decision stream is byte-identical
  across repeated executions, and identical whether the network injects
  through the per-recipient hook path or not at all when the plan is
  semantically empty (hooks-vs-inline equivalence).
* **Safety under faults** — the streaming safety check holds across a
  seed × fault-config matrix of crash, partition, message-fault and
  combined plans: compliance-checked fault plans stay inside the sleepy
  model, where safety is unconditional.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tobsvd import TobSvdConfig, TobSvdProtocol
from repro.faults import FaultPlan, FaultSpec, PartitionWindow
from repro.harness.scenarios import (
    crash_recovery_scenario,
    partition_scenario,
    stable_scenario,
)


class _Payload:
    def __init__(self, tag: str) -> None:
        self._tag = tag

    def digest(self) -> str:
        return self._tag


class _Envelope:
    def __init__(self, tag: str) -> None:
        self.payload = _Payload(tag)


def _message_stream(plan: FaultPlan, count: int = 120) -> list[tuple]:
    """The injected per-message decision stream over a fixed traffic shape."""

    stream = []
    for i in range(count):
        sender, recipient = i % plan.n, (i * 7 + 1) % plan.n
        envelope = _Envelope(f"payload-{i}")
        time = (i * 3) % plan.horizon if plan.horizon else 0
        stream.append(
            (
                plan.copies(sender, recipient, envelope, time),
                plan.spike(sender, recipient, envelope, time),
            )
        )
    return stream


def _decisions(result) -> list[tuple]:
    return [
        (e.time, e.view, e.validator, e.log) for e in result.trace.decisions
    ]


fault_specs = st.builds(
    FaultSpec,
    seed=st.integers(0, 2**16),
    crash_count=st.integers(0, 3),
    crash_view=st.integers(1, 3),
    drop_rate=st.floats(0.0, 0.4),
    duplicate_rate=st.floats(0.0, 0.4),
    delay_spike_rate=st.floats(0.0, 0.4),
    partitions=st.integers(0, 2),
)


class TestPlanDeterminism:
    @given(fault_specs)
    @settings(max_examples=40)
    def test_compile_and_decisions_pure_in_spec(self, spec):
        a = spec.compile(n=10, delta=2, horizon=200)
        b = spec.compile(n=10, delta=2, horizon=200)
        assert a.crash_windows == b.crash_windows
        assert a.partition_windows == b.partition_windows
        assert a.plan_id == b.plan_id
        assert _message_stream(a) == _message_stream(b)

    def test_different_seeds_give_different_streams(self):
        base = FaultSpec(seed=0, drop_rate=0.3, duplicate_rate=0.2)
        reference = _message_stream(base.compile(n=10, delta=2, horizon=200))
        differing = sum(
            _message_stream(base.with_seed(seed).compile(n=10, delta=2, horizon=200))
            != reference
            for seed in range(1, 9)
        )
        assert differing == 8  # 120 Bernoulli samples per stream: collision ~ 0

    @given(fault_specs)
    @settings(max_examples=20)
    def test_spec_id_roundtrips_with_plan(self, spec):
        assert FaultSpec.from_dict(spec.to_dict()).spec_id == spec.spec_id


class TestRunDeterminism:
    def test_faulty_run_is_repeatable(self):
        streams = [
            _decisions(
                crash_recovery_scenario(
                    n=10, num_views=6, delta=2, seed=3, drop_rate=0.05
                ).run()
            )
            for _ in range(2)
        ]
        assert streams[0] and streams[0] == streams[1]

    def test_partition_run_is_repeatable(self):
        streams = [
            _decisions(partition_scenario(n=10, num_views=6, delta=2, seed=5).run())
            for _ in range(2)
        ]
        assert streams[0] and streams[0] == streams[1]

    def test_hooks_vs_inline_byte_identity(self):
        # A plan whose only "fault" is a partition window far past the
        # horizon: has_message_faults is True, so the network routes
        # every send through the per-recipient injection hooks — but no
        # decision ever fires.  The decision stream must be byte-equal
        # to the plain run that never leaves the shared-fanout fast
        # path: injection plumbing itself is behaviour-invariant.
        config = TobSvdConfig(n=8, num_views=6, delta=2, seed=1)
        idle_plan = FaultPlan(
            spec=FaultSpec(),
            n=config.n,
            delta=config.delta,
            horizon=config.horizon,
            crash_windows=(),
            partition_windows=(
                PartitionWindow(10**9, 10**9 + 1, (0,)),
            ),
        )
        assert idle_plan.has_message_faults
        hooked = TobSvdProtocol(config, fault_plan=idle_plan).run()
        plain = stable_scenario(n=8, num_views=6, delta=2, seed=1).run()
        assert _decisions(hooked) == _decisions(plain)
        assert hooked.network.fault_drops == 0
        assert hooked.network.fault_duplicates == 0


# The acceptance matrix: >= 3 seeds x >= 4 fault configurations, each run
# under bounded retention so the *streaming* safety reducer is what
# certifies the run.
_FAULT_MATRIX = [
    ("crash", dict(crash_count=2, crash_view=2, crash_deltas=8)),
    ("partition", dict(partitions=1, partition_fraction=0.25, partition_view=2)),
    ("messages", dict(drop_rate=0.1, duplicate_rate=0.1, delay_spike_rate=0.05)),
    (
        "combined",
        dict(
            crash_count=1,
            crash_view=3,
            drop_rate=0.05,
            partitions=1,
            partition_fraction=0.2,
            partition_view=1,
        ),
    ),
]


class TestSafetyUnderFaults:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "name,params", _FAULT_MATRIX, ids=[name for name, _ in _FAULT_MATRIX]
    )
    def test_streaming_safety_holds(self, name, params, seed):
        spec = FaultSpec(seed=seed, **params)
        builder = {
            "crash": crash_recovery_scenario,
            "partition": partition_scenario,
        }.get(name)
        if builder is not None:
            protocol = builder(
                n=10, num_views=8, delta=2, seed=seed,
                fault_spec=spec, trace_mode="bounded",
            )
        else:
            config = TobSvdConfig(n=10, num_views=8, delta=2, seed=seed)
            plan = spec.compile(
                n=config.n, delta=config.delta, horizon=config.horizon,
                view_ticks=config.time.view_ticks,
            )
            protocol = stable_scenario(
                n=10, num_views=8, delta=2, seed=seed,
                trace_mode="bounded", fault_plan=plan,
            )
        result = protocol.run()
        analysis = result.analysis
        assert analysis.safety().safe, f"{name} seed={seed} violated safety"
        if name in ("crash", "combined"):
            assert analysis.fault_summary()["crashes"] > 0
        if name == "partition":
            summary = analysis.fault_summary()
            assert summary["partitions"] > 0 and summary["heals"] > 0
