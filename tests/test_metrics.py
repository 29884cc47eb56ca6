import random

import pytest

from _scenarios import random_annotation, random_hypothesis, random_partition_annotation
from scdkit import dataio, metrics
from scdkit.dataio import segment_longform
from scdkit.metrics import (
    Annotation,
    ChangeHypothesis,
    PrecisionRecallReport,
    SegmentationReport,
    SpeakerSegment,
    change_intervals,
    f1_score,
    hypothesis_segments,
    mono_speaker_ranges,
    pooled_precision_recall,
    pooled_segmentation,
    purity_coverage,
    score_changes,
    speaker_coverage,
    _union,
)


def ann(rec_id, *segs):
    return Annotation(rec_id, tuple(SpeakerSegment(s, a, b) for s, a, b in segs))


FIG1 = ann("fig1", ("A", 0.0, 10.0), ("B", 10.5, 20.0), ("C", 19.0, 25.0))


def overlap(a, b):
    return max(0, min(a[1], b[1]) - max(a[0], b[0]))


class TestIntervalSet:
    """Interval sets are sorted tuples of disjoint (start_ms, end_ms) spans."""

    def test_merges_overlap_and_touch(self):
        s = _union([(0, 2000), (2000, 3000), (2500, 4000), (6000, 7000)])
        assert s == ((0, 4000), (6000, 7000))

    def test_absorbs_inner_point_keeps_lone_point(self):
        s = _union([(0, 4000), (2000, 2000), (9000, 9000)])
        assert s == ((0, 4000), (9000, 9000))

    def test_zero_length_intersection_counts(self):
        a = ann("r", ("A", 0.0, 10.0), ("B", 10.0, 20.0))
        assert change_intervals(a) == ((10000, 10000),)
        # the window [9.75, 10.0] ends on the point; [9.01, 9.99] misses it
        assert score_changes(a, ChangeHypothesis("r", (9.875,)), collar=0.125).n_correct == 1
        assert score_changes(a, ChangeHypothesis("r", (9.5,)), collar=0.49).n_correct == 0

    def test_rejects_backwards_interval(self):
        with pytest.raises(ValueError):
            SpeakerSegment("A", 2.0, 1.0)


class TestMonoSpeakerRanges:
    def test_three_speaker_layout(self):
        u = mono_speaker_ranges(FIG1)
        assert u == ((0, 10000), (10500, 19000), (20000, 25000))

    def test_single_speaker(self):
        u = mono_speaker_ranges(ann("r", ("A", 0.0, 5.0)))
        assert u == ((0, 5000),)

    def test_full_overlap_has_no_mono_time(self):
        u = mono_speaker_ranges(ann("r", ("A", 0.0, 5.0), ("B", 0.0, 5.0)))
        assert len(u) == 0

    def test_same_speaker_overlap_is_mono(self):
        u = mono_speaker_ranges(ann("r", ("A", 0.0, 5.0), ("A", 3.0, 8.0)))
        assert u == ((0, 8000),)

    def test_touching_turns_split_at_the_change_instant(self):
        # the instant at 5 s is covered by both speakers, so it is not mono time
        a = ann("r", ("A", 0.0, 5.0), ("B", 5.0, 10.0))
        assert mono_speaker_ranges(a) == ((0, 5000), (5000, 10000))
        assert change_intervals(a) == ((5000, 5000),)


class TestChangeIntervals:
    def test_three_speaker_layout(self):
        ubar = change_intervals(FIG1)
        assert ubar == ((10000, 10500), (19000, 20000))

    def test_exact_switch_is_zero_length_point(self):
        ubar = change_intervals(ann("r", ("A", 0.0, 10.0), ("B", 10.0, 20.0)))
        assert ubar == ((10000, 10000),)

    def test_single_speaker_empty(self):
        assert len(change_intervals(ann("r", ("A", 0.0, 5.0)))) == 0

    def test_same_speaker_gap_is_a_change_interval(self):
        ubar = change_intervals(ann("r", ("A", 0.0, 5.0), ("A", 6.0, 10.0)))
        assert ubar == ((5000, 6000),)

    def test_gap_exactly_gap_merge_merges(self):
        rng = random.Random(4343)
        misses = []
        for _ in range(3000):
            first_end = rng.randint(1, 60000)
            gap = rng.randint(1, 3000)
            second = (first_end + gap, first_end + gap + rng.randint(1, 5000))
            a = ann("r", ("A", 0.0, first_end / 1000), ("A", second[0] / 1000, second[1] / 1000))
            if speaker_coverage(a, gap) != {"A": ((0, second[1]),)}:
                misses.append((first_end, gap))
            # one millisecond less and the gap stays
            assert speaker_coverage(a, gap - 1) == {"A": ((0, first_end), second)}
        assert misses == []

    def test_gap_merge_removes_small_same_speaker_gap(self):
        a = ann("r", ("A", 0.0, 5.0), ("A", 6.0, 10.0))
        hyp = ChangeHypothesis("r", ())
        assert score_changes(a, hyp, gap_merge=1.0).n_intervals == 0
        assert score_changes(a, hyp, gap_merge=0.0).n_intervals == 1

    @pytest.mark.parametrize("seed", range(30))
    def test_complementarity(self, seed):
        rng = random.Random(seed)
        a = random_annotation(rng)
        u = mono_speaker_ranges(a)
        ubar = change_intervals(a)
        assert _union(u + ubar) == ((round(a.t_min * 1000), round(a.t_max * 1000)),)
        cross = sum(overlap(x, y) for x in u for y in ubar)
        assert cross == 0
        # together they tile the span, also when every turn touches the next
        for tiled in (a, random_partition_annotation(random.Random(seed))):
            parts = sorted(mono_speaker_ranges(tiled) + change_intervals(tiled))
            assert parts[0][0] == round(tiled.t_min * 1000)
            assert parts[-1][1] == round(tiled.t_max * 1000)
            # each part starts where the one before ends
            assert all(prev[1] == nxt[0] for prev, nxt in zip(parts, parts[1:]))


class TestScoreChanges:
    def test_fig1_layout(self):
        hyp = ChangeHypothesis("fig1", (10.2, 15.0, 19.5))
        r = score_changes(FIG1, hyp, collar=0.25)
        assert r.precision == 2 / 3
        assert r.recall_count == 1.0
        assert r.n_fa == 1
        assert r.n_correct == 2
        assert r.n_intervals == 2
        assert r.n_fr == 0

    def test_collar_reaches_interval(self):
        hyp = ChangeHypothesis("fig1", (9.8,))
        r = score_changes(FIG1, hyp, collar=0.25)
        assert r.n_correct == 1  # [9.55, 10.05] touches [10, 10.5]
        r0 = score_changes(FIG1, hyp, collar=0.0)
        assert r0.n_correct == 0

    def test_perfect_predictor(self):
        hyp = ChangeHypothesis("fig1", (10.25, 19.5))
        r = score_changes(FIG1, hyp, collar=0.25)
        assert r.precision == 1.0
        assert r.recall_count == 1.0
        assert r.recall_duration == 1.0
        assert r.f1 == 1.0

    def test_empty_predictor(self):
        r = score_changes(FIG1, ChangeHypothesis("fig1", ()), collar=0.25)
        assert r.precision is None
        assert r.recall_count == 0.0
        assert r.f1 is None

    def test_predictions_outside_span_dropped(self):
        hyp = ChangeHypothesis("fig1", (-1.0, 0.0, 25.0, 26.0))
        r = score_changes(FIG1, hyp, collar=0.25)
        # boundary points are kept, strictly-outside ones are dropped
        assert r.n_predictions_kept == 2
        assert r.n_predictions_dropped == 2

    def test_two_predictions_in_one_interval_both_correct(self):
        hyp = ChangeHypothesis("fig1", (19.2, 19.8))
        r = score_changes(FIG1, hyp, collar=0.0)
        assert r.n_correct == 2
        assert r.n_hit == 1

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValueError):
            score_changes(FIG1, ChangeHypothesis("other", (1.0,)))

    def test_zero_length_interval_matchable_with_zero_duration_weight(self):
        a = ann("r", ("A", 0.0, 10.0), ("B", 10.0, 20.0))
        r = score_changes(a, ChangeHypothesis("r", (10.1,)), collar=0.25)
        assert r.n_correct == 1
        assert r.recall_count == 1.0
        assert r.recall_duration is None  # the only interval has zero duration

    def test_prediction_exactly_one_collar_away_matches(self):
        # A ends at a_end and B starts at b_start, so [a_end, b_start] is the
        # change interval (a point when they touch); a prediction exactly one
        # collar before it or after it must match.
        rng = random.Random(4242)
        misses = []
        for _ in range(3000):
            a_end = rng.randint(1, 60000)
            b_start = a_end + rng.choice([0, rng.randint(1, 3000)])
            collar = rng.randint(0, 2000)
            a = ann("r", ("A", 0.0, a_end / 1000), ("B", b_start / 1000, (b_start + 5000) / 1000))
            t = rng.choice([max(0, a_end - collar), b_start + collar])
            r = score_changes(a, ChangeHypothesis("r", (t / 1000,)), collar=collar / 1000)
            if t in (a_end - collar, b_start + collar) and r.n_correct != 1:
                misses.append((a_end, b_start, collar, t))
        assert misses == []

    @pytest.mark.parametrize("seed", range(25))
    def test_collar_monotonicity(self, seed):
        rng = random.Random(1000 + seed)
        a = random_annotation(rng)
        h = random_hypothesis(rng)
        last_p, last_r = None, None
        for collar in (0.0, 0.1, 0.25, 0.5, 1.0):
            r = score_changes(a, h, collar=collar)
            if r.precision is not None and last_p is not None:
                assert r.precision >= last_p
            if r.recall_count is not None and last_r is not None:
                assert r.recall_count >= last_r
            last_p, last_r = r.precision, r.recall_count


def brute_purity_coverage(segments, timestamps):
    """Independent double-loop recomputation straight from the definitions."""
    t_min = min(s for _, s, _ in segments)
    t_max = max(e for _, _, e in segments)
    by_spk = {}
    for spk, s, e in segments:
        by_spk.setdefault(spk, []).append((s, e))
    ref_units = []
    for ivs in by_spk.values():
        ivs.sort()
        cs, ce = ivs[0]
        for s, e in ivs[1:]:
            if s <= ce:
                ce = max(ce, e)
            else:
                ref_units.append((cs, ce))
                cs, ce = s, e
        ref_units.append((cs, ce))
    cuts = sorted({t for t in timestamps if t_min < t < t_max})
    bounds = [t_min] + cuts + [t_max]
    hyp = list(zip(bounds, bounds[1:]))

    def ov(a, b):
        return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))

    cov = sum(max(ov(r, h) for h in hyp) for r in ref_units) / sum(e - s for s, e in ref_units)
    pur = sum(max(ov(h, r) for r in ref_units) for h in hyp) / sum(e - s for s, e in hyp)
    return pur, cov


class TestPurityCoverage:
    def test_mid_cut(self):
        a = ann("r", ("A", 0.0, 10.0), ("B", 10.0, 20.0))
        r = purity_coverage(a, ChangeHypothesis("r", (15.0,)))
        assert r.coverage == pytest.approx(0.75, abs=1e-9)
        assert r.purity == pytest.approx(0.75, abs=1e-9)

    def test_single_speaker_no_predictions(self):
        a = ann("r", ("A", 0.0, 5.0))
        r = purity_coverage(a, ChangeHypothesis("r", ()))
        assert r.purity == 1.0
        assert r.coverage == 1.0
        assert r.f1 == 1.0

    def test_exact_boundary_cut(self):
        a = ann("r", ("A", 0.0, 10.0), ("B", 10.0, 20.0))
        r = purity_coverage(a, ChangeHypothesis("r", (10.0,)))
        assert r.coverage == 1.0
        assert r.purity == 1.0

    def test_segment_in_a_gap_counts_in_the_purity_denominator(self):
        # the middle segment [10, 20] s overlaps no speaker: best overlap 0,
        # but its length is in purity_den, which is the whole span
        a = ann("r", ("A", 0.0, 10.0), ("B", 20.0, 30.0))
        r = purity_coverage(a, ChangeHypothesis("r", (10.0, 20.0)))
        assert (r.purity_num, r.purity_den) == (20.0, 30.0)
        assert r.purity == 20 / 30
        assert (r.coverage_num, r.coverage_den, r.coverage) == (20.0, 20.0, 1.0)

    def test_cut_at_span_edges_is_ignored(self):
        a = ann("r", ("A", 0.0, 10.0))
        segs = hypothesis_segments(speaker_coverage(a), ChangeHypothesis("r", (0.0, 10.0)))
        assert segs == [(0, 10000)]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        rng = random.Random(2000 + seed)
        a = random_annotation(rng)
        h = random_hypothesis(rng)
        r = purity_coverage(a, h)
        pur, cov = brute_purity_coverage(
            [(s.speaker, s.start, s.end) for s in a.segments], h.timestamps)
        assert r.purity == pytest.approx(pur, abs=1e-9)
        assert r.coverage == pytest.approx(cov, abs=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    def test_duality_swaps_scores(self, seed):
        rng = random.Random(3000 + seed)
        a = random_partition_annotation(rng)
        h = random_hypothesis(rng)
        direct = purity_coverage(a, h)
        # rebuild: hypothesis segments become anonymous speakers, the
        # annotation's interior boundaries become the predictions
        hyp_segs = hypothesis_segments(speaker_coverage(a), h)
        dual_ann = Annotation(a.recording_id, tuple(
            SpeakerSegment(f"h{i}", start / 1000, end / 1000)
            for i, (start, end) in enumerate(hyp_segs)))
        interior = tuple(s.end for s in a.segments[:-1])
        dual_hyp = ChangeHypothesis(a.recording_id, interior)
        swapped = purity_coverage(dual_ann, dual_hyp)
        assert swapped.coverage == direct.purity
        assert swapped.purity == direct.coverage


class TestF1:
    def test_exact_values(self):
        assert f1_score(1.0, 1.0) == 1.0
        assert f1_score(0.5, 0.5) == 0.5
        assert f1_score(0.0, 0.0) == 0.0

    def test_reported_rounding_spot_checks(self):
        assert f"{100 * f1_score(0.781, 0.558):.1f}" == "65.1"
        assert f"{100 * f1_score(0.776, 0.652):.1f}" == "70.9"


class TestPooling:
    def test_pooled_rates_from_summed_counts(self):
        a1 = FIG1
        h1 = ChangeHypothesis("fig1", (10.2, 15.0, 19.5))
        a2 = ann("rec2", ("A", 0.0, 4.0), ("B", 4.5, 9.0))
        h2 = ChangeHypothesis("rec2", ())
        r1 = score_changes(a1, h1, collar=0.25)
        r2 = score_changes(a2, h2, collar=0.25)
        pooled = pooled_precision_recall([r1, r2])
        assert pooled.n_predictions_kept == 3
        assert pooled.precision == 2 / 3
        assert pooled.n_intervals == 3
        assert pooled.recall_count == 2 / 3

    def test_pooled_rejects_mixed_collars(self):
        h = ChangeHypothesis("fig1", (10.2,))
        with pytest.raises(ValueError):
            pooled_precision_recall([
                score_changes(FIG1, h, collar=0.25),
                score_changes(FIG1, h, collar=0.5),
            ])

    def test_pooled_rejects_off_grid_durations(self):
        r = score_changes(FIG1, ChangeHypothesis("fig1", (10.2,)), collar=0.25)
        off_grid = PrecisionRecallReport(**{**vars(r), "hit_duration": 0.0004})
        with pytest.raises(ValueError, match="hit_duration"):
            pooled_precision_recall([r, off_grid])
        s = purity_coverage(FIG1, ChangeHypothesis("fig1", ()))
        off_grid = SegmentationReport(**{**vars(s), "coverage_num": 1.2345})
        with pytest.raises(ValueError, match="coverage_num"):
            pooled_segmentation([s, off_grid])

    def test_pooled_segmentation_sums_durations(self):
        a1 = ann("r1", ("A", 0.0, 10.0), ("B", 10.0, 20.0))
        a2 = ann("r2", ("A", 0.0, 10.0))
        s1 = purity_coverage(a1, ChangeHypothesis("r1", (15.0,)))
        s2 = purity_coverage(a2, ChangeHypothesis("r2", ()))
        pooled = pooled_segmentation([s1, s2])
        # coverage: (10 + 5 + 10) / 30, purity identical here
        assert pooled.coverage == pytest.approx(25 / 30, abs=1e-12)
        assert pooled.purity == pytest.approx(25 / 30, abs=1e-12)


class TestValidation:
    @pytest.mark.parametrize("bad", [1.0005, 0.0001, 12.3456789])
    def test_off_grid_seconds_rejected(self, bad):
        with pytest.raises(ValueError, match="at most 3 decimal places"):
            SpeakerSegment("A", bad, 20.0)
        with pytest.raises(ValueError, match="at most 3 decimal places"):
            SpeakerSegment("A", 0.0, bad)
        with pytest.raises(ValueError, match="at most 3 decimal places"):
            ChangeHypothesis("r", (1.0, bad))
        hyp = ChangeHypothesis("fig1", (10.2,))
        with pytest.raises(ValueError, match="collar"):
            score_changes(FIG1, hyp, collar=bad)
        with pytest.raises(ValueError, match="gap_merge"):
            score_changes(FIG1, hyp, gap_merge=bad)
        with pytest.raises(ValueError, match="gap_merge"):
            purity_coverage(FIG1, hyp, gap_merge=bad)
        with pytest.raises(ValueError, match="target"):
            segment_longform(FIG1, bad)

    @pytest.mark.parametrize("make", [
        lambda: SpeakerSegment("A", 1e12, 1e12 + 1),
        lambda: SpeakerSegment("A", 0.0, 1e12),
        lambda: ChangeHypothesis("r", (1e12,)),
        lambda: ChangeHypothesis("r", (-1e12,)),
        lambda: score_changes(FIG1, ChangeHypothesis("fig1", ()), collar=1e12),
    ])
    def test_times_of_10_to_the_12_s_or_more_rejected(self, make):
        with pytest.raises(ValueError, match=r"below 10\*\*12 s in magnitude"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: SpeakerSegment("A", 10**400, 10**400 + 1),
        lambda: SpeakerSegment("A", 0, 10**400),
        lambda: ChangeHypothesis("r", (10**400,)),
        lambda: score_changes(FIG1, ChangeHypothesis("fig1", ()), collar=10**400),
        lambda: score_changes(FIG1, ChangeHypothesis("fig1", ()), gap_merge=10**400),
        lambda: purity_coverage(FIG1, ChangeHypothesis("fig1", ()), gap_merge=-10**400),
        lambda: segment_longform(FIG1, 10**400),
    ], ids=["start", "end", "stamp", "collar", "gap_merge", "purity_gap_merge", "target"])
    def test_int_too_large_for_a_float_is_a_value_error(self, make):
        # math.isfinite would raise OverflowError on such an int
        with pytest.raises(ValueError, match=r"below 10\*\*12 s in magnitude"):
            make()

    def test_largest_times_accepted(self):
        assert SpeakerSegment("A", 0.0, 999999999999.999).span == (0, 999999999999999)
        assert ChangeHypothesis("r", (-999999999999.999,)).stamps_ms == (-999999999999999,)

    def test_stored_ms_are_not_compared_or_shown(self):
        seg = SpeakerSegment("A", 1.5, 3.25)
        assert seg.span == (1500, 3250)
        assert repr(seg) == "SpeakerSegment(speaker='A', start=1.5, end=3.25)"
        hyp = ChangeHypothesis("r", (3.0, 1.25, 3.0))
        assert hyp.stamps_ms == (1250, 3000)
        assert repr(hyp) == "ChangeHypothesis(recording_id='r', timestamps=(1.25, 3.0))"
        assert ChangeHypothesis(hyp.recording_id, (2.0,)).stamps_ms == (2000,)

    def test_each_time_is_converted_once_at_construction(self, monkeypatch):
        hyp = ChangeHypothesis("fig1", (10.2, 19.5))
        calls = []
        for module in (metrics, dataio):
            real = module._ms
            monkeypatch.setattr(module, "_ms",
                                lambda s, what, real=real: calls.append(what) or real(s, what))
        score_changes(FIG1, hyp, collar=0.25, gap_merge=0.5)
        purity_coverage(FIG1, hyp, gap_merge=0.5)
        segment_longform(FIG1, 12.0)
        dataio.serialize_rttm([FIG1])
        assert calls == ["gap_merge", "collar", "gap_merge", "target"]

    def test_zero_length_segment_rejected(self):
        with pytest.raises(ValueError):
            SpeakerSegment("A", 5.0, 5.0)

    def test_empty_annotation_rejected(self):
        with pytest.raises(ValueError):
            Annotation("r", ())

    def test_annotation_entries_must_be_segments(self):
        with pytest.raises(TypeError, match="expected SpeakerSegment, got str"):
            Annotation("r", "abc")

    @pytest.mark.parametrize("bad", ["", "A B", " A", "A\t", "A\u00a0B"])
    def test_ids_are_one_rttm_field(self, bad):
        # serialize_rttm writes the ids as single fields, and parse_rttm splits on whitespace
        rule = "must be non-empty and contain no whitespace"
        with pytest.raises(ValueError, match=f"^speaker id {rule}"):
            SpeakerSegment(bad, 0.0, 1.0)
        with pytest.raises(ValueError, match=f"^recording id {rule}"):
            Annotation(bad, (SpeakerSegment("A", 0.0, 1.0),))

    @pytest.mark.parametrize("bad", ["", "a b", "a\tb", " r", "r\n"])
    def test_hypothesis_id_is_one_stamps_field(self, bad):
        # serialize_change_stamps writes the id before a tab, and the reader strips it
        with pytest.raises(ValueError,
                           match="^recording id must be non-empty and contain no whitespace"):
            ChangeHypothesis(bad, (1.0,))

    def test_hypothesis_sorts_and_dedups(self):
        h = ChangeHypothesis("r", (3.0, 1.0, 3.0, 2.0))
        assert h.timestamps == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError):
            SpeakerSegment("A", bad, 5.0)
        with pytest.raises(ValueError):
            SpeakerSegment("A", 1.0, bad)
        with pytest.raises(ValueError):
            ChangeHypothesis("r", (1.0, bad))
        hyp = ChangeHypothesis("fig1", (10.2,))
        with pytest.raises(ValueError):
            score_changes(FIG1, hyp, collar=bad)
        with pytest.raises(ValueError):
            score_changes(FIG1, hyp, gap_merge=bad)
        with pytest.raises(ValueError):
            purity_coverage(FIG1, hyp, gap_merge=bad)

    def test_negative_gap_merge_rejected(self):
        hyp = ChangeHypothesis("fig1", (10.2,))
        with pytest.raises(ValueError, match=r"^gap_merge must be >= 0, got -1\.0$"):
            score_changes(FIG1, hyp, gap_merge=-1.0)
        with pytest.raises(ValueError, match=r"^gap_merge must be >= 0, got -5\.0$"):
            purity_coverage(FIG1, hyp, gap_merge=-5.0)
