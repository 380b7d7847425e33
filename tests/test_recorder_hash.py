"""``Recorder.content_hash`` is ``sample_stream_hash`` computed from columns.

:func:`~repro.sim.recorder.sample_stream_hash` is the definition of a
recorded stream's hash (the golden suite pins it);
:meth:`~repro.sim.recorder.Recorder.content_hash` feeds SHA-256 the same
bytes straight from the recorder's columns.  These differential properties
fill recorders through both append paths -- the registered-layout
``append_tick`` and the object-based ``record`` with per-row key layouts
that differ in key set and order -- with the values most likely to break a
hand-rolled encoder: ``nan``, infinities, ``-0.0``, subnormals, ints in
float columns, and names with quotes, ``%`` and non-ASCII text.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.recorder import Recorder, SimulationSample, sample_stream_hash

SPECIAL_FLOATS = (
    float("nan"),
    float("inf"),
    float("-inf"),
    -0.0,
    0.0,
    5e-324,
    2.2250738585072e-308,
    1e-310,
    1.7976931348623157e308,
)

numbers = st.one_of(
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(min_value=-(10**12), max_value=10**12),
)

names = st.one_of(
    st.text(max_size=8),
    st.sampled_from(
        (
            "big",
            "it's",
            'say "hi"',
            "'\"",
            "café",
            "日本語",
            "%s%%",
            "{0}",
            "back\\slash",
        )
    ),
)

counts = st.integers(min_value=0, max_value=10**6)

#: Key layouts: empty, single-key and multi-key, in any order.
layouts = st.lists(names, unique=True, max_size=4).map(tuple)


def values_for(layout):
    return st.tuples(*(numbers for _ in layout))


@st.composite
def tick_rows(draw, cluster_keys, node_keys):
    """One ``append_tick`` argument tuple aligned with the registered layout."""
    cluster = values_for(cluster_keys)
    return (
        draw(numbers),
        draw(names),
        draw(names),
        draw(numbers),
        draw(numbers),
        draw(counts),
        draw(counts),
        draw(counts),
        draw(numbers),
        draw(cluster),
        draw(values_for(node_keys)),
        draw(cluster),
        draw(cluster),
        draw(cluster),
        draw(numbers),
    )


@st.composite
def samples(draw, candidate_layouts):
    """One sample whose mappings each take a layout from ``candidate_layouts``."""

    def mapping():
        layout = draw(st.sampled_from(candidate_layouts))
        return dict(zip(layout, draw(values_for(layout))))

    return SimulationSample(
        time_s=draw(numbers),
        app_name=draw(names),
        phase_name=draw(names),
        fps=draw(numbers),
        target_fps=draw(numbers),
        frames_demanded=draw(counts),
        frames_displayed=draw(counts),
        frames_dropped=draw(counts),
        power_total_w=draw(numbers),
        power_per_cluster_w=mapping(),
        temperatures_c=mapping(),
        frequencies_mhz=mapping(),
        max_limits_mhz=mapping(),
        utilisations=mapping(),
        interaction_activity=draw(numbers),
    )


@st.composite
def candidate_layouts(draw):
    """1-3 layouts: permutations of one key set (same keys, other order) or others."""
    base = draw(layouts)
    return draw(
        st.lists(
            st.one_of(st.permutations(base).map(tuple), layouts), min_size=1, max_size=3
        )
    )


class TestColumnarHash:
    def test_empty_recorder(self):
        recorder = Recorder()
        assert recorder.content_hash() == sample_stream_hash([])
        assert recorder.content_hash() == hashlib.sha256().hexdigest()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_append_tick_matches_definition(self, data):
        cluster_keys = data.draw(layouts, label="cluster_keys")
        node_keys = data.draw(layouts, label="node_keys")
        rows = data.draw(
            st.lists(tick_rows(cluster_keys, node_keys), max_size=6), label="rows"
        )
        recorder = Recorder()
        recorder.register_layout(cluster_keys, node_keys)
        for row in rows:
            recorder.append_tick(*row)
        fast = recorder.content_hash()
        # One layout per field: hashed from the columns, no sample built.
        assert recorder._materialised == []
        assert fast == sample_stream_hash(recorder.samples)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_record_matches_definition(self, data):
        candidates = data.draw(candidate_layouts(), label="layouts")
        stream = data.draw(st.lists(samples(candidates), max_size=6), label="samples")
        recorder = Recorder()
        for sample in stream:
            recorder.record(sample)
        assert recorder.content_hash() == sample_stream_hash(stream)
        assert recorder.content_hash() == sample_stream_hash(recorder.samples)

    def test_rows_with_differing_layouts_match_definition(self):
        """Same keys in another order, another key set, single-key and empty."""
        layouts_by_row = (
            {"big": 1.0, "little": -0.0},
            {"little": float("nan"), "big": 2},
            {"gpu": 5e-324},
            {},
        )
        stream = [
            SimulationSample(
                time_s=float(i),
                app_name="café \"it's\"",
                phase_name="%s",
                fps=float("inf"),
                target_fps=60,
                frames_demanded=i,
                frames_displayed=i,
                frames_dropped=0,
                power_total_w=-0.0,
                power_per_cluster_w=mapping,
                temperatures_c=mapping,
                frequencies_mhz=mapping,
                max_limits_mhz=mapping,
                utilisations=mapping,
                interaction_activity=0.5,
            )
            for i, mapping in enumerate(layouts_by_row)
        ]
        recorder = Recorder()
        for sample in stream:
            recorder.record(sample)
        assert recorder.content_hash() == sample_stream_hash(stream)
