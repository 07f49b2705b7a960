"""The random-order trial path, diffed against the references in
``reference.py``: the compiled bisecting kernel against the scanning one,
the one splitmix64 shuffle against the old private copy, the
histogram-based TrialStats against the one that keeps a Fraction per trial,
its block-table CSV rows against one f-string per row, and the
classify-by-length reduction against its trials replayed one by one and
its length draws made inline. The kernel modes are also diffed against the
Python policies they stand for, replayed by ``harness._trials``, and
chunked kernel calls against one."""

import io
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    ListTrialStats,
    arb_length_draws,
    fstring_csv_rows,
    permutation_raw,
    replay_arb_expectation,
    scanning_single_length_trials_raw,
)

from revsel import _engine
from revsel._engine import run_single_length_trials
from revsel.adversary import (
    gen_call_control_bad,
    gen_greedy_bad,
    gen_random_instance,
    gen_random_order_bad,
)
from revsel.algorithms import (
    ARB_SUBROUTINES,
    ArbPolicy,
    FunctionMemorylessPolicy,
    ThresholdPolicy,
    ThresholdPolicyTables,
    make_policy,
)
from revsel.core import ArrivalSequence, Interval
from revsel.harness import (
    TrialStats,
    _fold,
    _trial_runner,
    _trials,
    exact_ratio,
    run_arb_expectation,
    run_policy,
    run_random_order,
)
from revsel.rng import Stream, permutation

SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**63, 2**64 - 1, -1, -(2**40)]),
    st.integers(-(2**70), 2**70),
)


# Small coordinates make touching endpoints and exact copies common.
@st.composite
def kernel_inputs(draw, max_lengths=3):
    """(starts, ends) of one length or of several, with copies appended.
    Several lengths often are a pair a, 2a with an a-long row that overlaps
    a 2a-long one at one end: call-control keeps a lone conflicting member
    of exactly twice the arrival's length."""
    lengths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=max_lengths, unique=True))
    pair = max_lengths > 1 and draw(st.booleans())
    if pair:
        a = draw(st.integers(1, 4))
        lengths = [a, 2 * a]
    rows = draw(
        st.lists(st.tuples(st.integers(-4, 20), st.sampled_from(lengths)), min_size=1, max_size=14)
    )
    if pair:
        s = draw(st.integers(-4, 20))
        rows += [(s, 2 * a), (draw(st.sampled_from([s - a + 1, s + 2 * a - 1])), a)]
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    rows = draw(st.permutations(rows))
    return [s for s, _ in rows], [s + length for s, length in rows]


@st.composite
def kernel_modes(draw, top=2):
    """Kernel arguments after the interval lists: a mode in 0..top and
    threshold tables. The scanning reference knows modes 0-2."""
    mode = draw(st.integers(0, top))
    table = st.dictionaries(st.integers(1, 7), st.integers(0, 1), max_size=5)
    left, right = draw(table), draw(table)
    return (
        mode,
        sorted(left),
        [left[k] for k in sorted(left)],
        draw(st.integers(0, 1)),
        sorted(right),
        [right[k] for k in sorted(right)],
        draw(st.integers(0, 1)),
    )


def mode_policy(mode, fl_keys, fl_vals, fl_default, fr_keys, fr_vals, fr_default):
    """The Python policy that kernel mode 0-4 with these tables stands for."""
    if mode == 0:
        return ThresholdPolicy(ThresholdPolicyTables(
            left=dict(zip(fl_keys, fl_vals)),
            right=dict(zip(fr_keys, fr_vals)),
            left_default=fl_default,
            right_default=fr_default,
        ))
    pid = ("always-replace", "never-replace", "greedy-subsume", "call-control")[mode - 1]
    return make_policy(pid)


compiled = pytest.mark.skipif(not _engine.COMPILED, reason="compiled engine not built")


def raw_trials(starts, ends, modes, trials, seed):
    """The raw trial kernel on unit weights from trial 0, with `modes`
    (kernel_modes' mode and tables) packed into its policy tuple."""
    return _engine._impl.run_single_length_trials_raw(
        starts, ends, (*modes, 0, 1), trials, seed, [], 0
    )


@compiled
@given(kernel_inputs(), kernel_modes(), st.integers(1, 25), SEEDS)
@settings(max_examples=400, deadline=None)
def test_kernel_matches_scanning_reference(intervals, modes, trials, seed):
    starts, ends = intervals
    assert raw_trials(starts, ends, modes, trials, seed) == (
        scanning_single_length_trials_raw(starts, ends, *modes, trials, seed)
    )


@compiled
def test_kernel_matches_reference_on_dense_single_length_instances():
    for seed in range(6):
        seq = gen_random_instance(40, 1, "unit", seed)
        starts = [iv.start for iv in seq]
        ends = [iv.end for iv in seq]
        for mode in range(3):
            modes = (mode, [2, 5], [1, 0], 1, [3], [1], 0)
            assert raw_trials(starts, ends, modes, 60, seed) == (
                scanning_single_length_trials_raw(starts, ends, *modes, 60, seed)
            )


@given(st.integers(1, 64), SEEDS, st.integers(0, 2**33))
@settings(max_examples=300, deadline=None)
def test_permutation_matches_old_private_splitmix64(n, seed, trial):
    assert permutation(n, seed, trial) == permutation_raw(n, seed, trial)


@given(st.integers(0, 2**64 - 1), st.lists(st.integers(), max_size=40))
@settings(max_examples=200, deadline=None)
def test_stream_shuffle_draws_like_randbelow(state, items):
    """Stream.shuffle keeps the exact draws of a randbelow Fisher-Yates and
    leaves the stream where that loop leaves it."""
    shuffled, stream = list(items), Stream(state)
    stream.shuffle(shuffled)
    expected, ref = list(items), Stream(state)
    for i in range(len(expected) - 1, 0, -1):
        j = ref.randbelow(i + 1)
        expected[i], expected[j] = expected[j], expected[i]
    assert shuffled == expected
    assert stream.next_u64() == ref.next_u64()


def test_randbelow_refuses_bounds_past_one_draw():
    """randbelow(2**64) is one draw as it stands; a larger bound, which no
    64-bit draw could pass, raises instead of rejecting draws forever, also
    through a memoryless policy's acceptance function."""
    assert Stream(7).randbelow(2**64) == Stream(7).next_u64()
    for n in (0, 2**64 + 1, 10**30):
        with pytest.raises(ValueError, match="randbelow"):
            Stream(7).randbelow(n)
    seq = ArrivalSequence([Interval(0, 0, 1)])
    policy = FunctionMemorylessPolicy(lambda *_: Fraction(1, 2**64 + 1))
    with pytest.raises(ValueError, match="randbelow"):
        run_policy(policy, seq, Stream.for_trial(1, 0))


# -- TrialStats ------------------------------------------------------------------

ALG_INTS = st.lists(st.integers(0, 5), min_size=1, max_size=60)
ALG_FRACTIONS = st.lists(
    st.builds(Fraction, st.integers(0, 12), st.integers(1, 4)), min_size=1, max_size=60
)
QUANTILES = [Fraction(0), Fraction(1, 100), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
             Fraction(9, 10), Fraction(1)]


def _reference(seed, opt, algs):
    exact = [Fraction(a) for a in algs]
    return ListTrialStats(
        trials=len(algs),
        seed=seed,
        ratio_samples=[exact_ratio(opt, a) for a in exact],
        alg_samples=exact,
        opt_value=opt,
    )


def trial_samples(policy, seq, trials, seed):
    """Each trial's raw ALG in trial order, from the runner that
    run_random_order folds."""
    return _trial_runner(policy, seq, seed)(0, trials)


def _fold_list(stats, algs, out=None):
    """`algs` folded into `stats` a chunk at a time, as the harness folds
    a trial loop's output."""
    return _fold(stats, len(algs), lambda lo, count: algs[lo : lo + count], out)


def _assert_same_stats(stats, ref, csv_text):
    """`csv_text` is the CSV the harness wrote while folding `stats`; its
    rows carry each trial's ALG and ratio."""
    assert stats.trials == ref.trials
    assert csv_text == ref.to_csv()
    assert stats.mean_alg == ref.mean_alg
    if None in ref.ratio_samples:
        with pytest.raises(ValueError):
            stats.mean_ratio
    else:
        assert stats.mean_ratio == ref.mean_ratio
    for threshold in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)):
        assert stats.fraction_with_ratio_at_least(threshold) == (
            ref.fraction_with_ratio_at_least(threshold)
        )
        assert stats.fraction_with_ratio_exactly(threshold) == (
            ref.fraction_with_ratio_exactly(threshold)
        )
    assert stats.fraction_with_ratio_exactly(None) == ref.fraction_with_ratio_exactly(None)
    for q in QUANTILES:
        assert stats.quantile(q) == ref.quantile(q)
    assert math.isclose(stats.alg_std(), ref.alg_std(), rel_tol=1e-12, abs_tol=1e-12)


@given(st.one_of(ALG_INTS, ALG_FRACTIONS), st.integers(0, 6), SEEDS)
@settings(max_examples=300, deadline=None)
def test_trial_stats_match_list_reference(algs, opt, seed):
    # opt 0 with alg 0 gives ratio 1; alg 0 below a positive opt gives inf.
    buf = io.StringIO()
    stats = _fold_list(TrialStats(seed, Fraction(opt)), algs, buf)
    _assert_same_stats(stats, _reference(seed, Fraction(opt), algs), buf.getvalue())


def test_trial_stats_quantile_ties_and_infinity():
    algs = [2, 2, 0, 1, 2, 0, 1, 1]
    buf = io.StringIO()
    stats = _fold_list(TrialStats(3, Fraction(2)), algs, buf)
    _assert_same_stats(stats, _reference(3, Fraction(2), algs), buf.getvalue())
    # sorted ratios: 1, 1, 1, 2, 2, 2, inf, inf
    assert stats.quantile(Fraction(3, 8)) == 1  # rank 3, the last tied 1
    assert stats.quantile(Fraction(1, 2)) == 2  # rank 4, the first tied 2
    assert stats.quantile(Fraction(3, 4)) == 2
    assert stats.quantile(Fraction(7, 8)) is None  # infinity sorts last
    assert stats.histogram == {2: 3, 1: 3, 0: 2}


def test_trial_stats_csv_to_a_file_handle(tmp_path):
    algs = [0, 3, 3, 1] * 3000 + [2]  # more rows than one chunk; a value new in the last
    path = tmp_path / "trials.csv"
    with open(path, "w", encoding="utf-8") as fh:
        _fold_list(TrialStats(-7, Fraction(3)), algs, fh)
    expected = _reference(-7, Fraction(3), algs).to_csv()
    assert path.read_bytes() == expected.encode()
    assert expected.startswith("trial,seed,alg,opt,ratio\r\n0,-7,0/1,3/1,inf\r\n")
    buf = io.StringIO()
    _fold_list(TrialStats(-7, Fraction(3)), algs, buf)
    assert buf.getvalue() == expected


# Trial numbers at and around the thousands and the write chunks.
ROW_EDGES = st.builds(
    lambda edge, shift: max(0, edge + shift),
    st.sampled_from([0, 999, 1000, 4095, 4096, 9999, 10**6 - 1]),
    st.integers(-2, 2),
)
RAW_POOLS = st.one_of(
    st.tuples(st.lists(st.integers(0, 40), min_size=1, max_size=4), st.integers(1, 6)),
    st.tuples(
        st.lists(st.builds(Fraction, st.integers(0, 12), st.integers(1, 4)), min_size=1,
                 max_size=4),
        st.just(1),
    ),
)


@given(ROW_EDGES, st.integers(0, 2500), RAW_POOLS, st.integers(0, 2**32), st.integers(0, 6),
       SEEDS)
@settings(max_examples=200, deadline=None)
def test_block_table_rows_match_fstring_rows(lo, count, pool, pick, opt, seed):
    """The block-table rows against one f-string per row, for a chunk of
    `count` trials from trial lo, over kernel sums with a scale and over
    Fractions; ALG 0 below a positive OPT gives the ratio inf."""
    values, scale = pool
    raws = random.Random(pick).choices(values, k=count)
    stats = TrialStats(seed, Fraction(opt), scale)
    stats.add(raws)
    buf = io.StringIO()
    stats.to_csv(buf, lo, raws)
    header = "trial,seed,alg,opt,ratio\r\n" if lo == 0 else ""
    assert buf.getvalue() == header + fstring_csv_rows(lo, raws, seed, Fraction(opt), scale)


def test_random_order_stats_match_reference_on_both_paths():
    seq = ArrivalSequence(
        Interval(i, s, s + 4) for i, s in enumerate([0, 2, 2, 4, 5, 8, 1, 3, 6])
    )
    starts = [iv.start for iv in seq]
    ends = [iv.end for iv in seq]
    for pid, mode in (("always-replace", 1), ("never-replace", 2), ("one-dir-left", 0)):
        algs = scanning_single_length_trials_raw(
            starts, ends, mode, [], [], 1, [], [], 0, 70, 2**63
        )
        ref = _reference(2**63, Fraction(3), algs)  # OPT: [0,4), [4,8), [8,12)
        python_only = make_policy(pid)
        python_only.kernel_spec = lambda: None
        for policy in (make_policy(pid), python_only):
            buf = io.StringIO()
            stats = run_random_order(policy, seq, 70, seed=2**63, out=buf)
            _assert_same_stats(stats, ref, buf.getvalue())


class _Discard:
    """A text sink that keeps nothing."""

    def write(self, text):
        pass


@compiled
def test_random_order_memory_stays_constant_in_the_trial_count():
    """Chunks are folded and written as they come, so 20 times the trials
    take no more memory; keeping a slot per trial took 1.5 MB more here."""
    seq = gen_random_order_bad(3, 4, 2, 10)
    policy = make_policy("one-dir-left")
    run_random_order(policy, seq, 5000, seed=1, out=_Discard())  # build lazy tables
    peaks = []
    tracemalloc.start()
    try:
        for trials in (10_000, 200_000):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_random_order(policy, seq, trials, seed=1, out=_Discard())
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 256 * 1024, peaks


# -- multi-length kernel modes against the Python policy path ---------------------

MULTI_LENGTH_POLICIES = ("greedy-subsume", "call-control", "always-replace", "never-replace")


def _assert_paths_agree(seq, trials, seed):
    """The harness, and the compiled kernel where one is loaded, match the
    policy replayed in Python."""
    starts = [iv.start for iv in seq]
    ends = [iv.end for iv in seq]
    for pid in MULTI_LENGTH_POLICIES:
        policy = make_policy(pid)
        expected = _trials(policy, seq, seed, trials)
        assert trial_samples(policy, seq, trials, seed) == expected
        raw = run_single_length_trials(starts, ends, policy.kernel_spec(), trials, seed)
        assert raw == (expected if _engine.COMPILED else None)


@given(
    st.one_of(
        kernel_inputs().map(lambda se: ArrivalSequence(
            Interval(i, s, e) for i, (s, e) in enumerate(zip(*se)))),
        st.builds(gen_greedy_bad, st.integers(2, 4)),
        st.builds(gen_call_control_bad, st.integers(2, 4)),
    ),
    st.integers(1, 12),
    SEEDS,
)
@settings(max_examples=300, deadline=None)
def test_multi_length_kernel_modes_match_python_policies(seq, trials, seed):
    _assert_paths_agree(seq, trials, seed)


@pytest.mark.parametrize("rows", [
    [(-3, 1), (1, 5), (0, 2)],  # twice 2 is not below 4: no displacement
    [(-4, 1), (1, 6), (0, 2)],  # twice 2 is below 5: both members go
    [(0, 4), (0, 2), (2, 4)],  # proper containment sharing an endpoint
    [(0, 4), (0, 4), (4, 8), (1, 3), (1, 3)],  # exact copies never displace
])
def test_multi_length_kernel_modes_at_their_boundaries(rows):
    seq = ArrivalSequence(Interval(i, s, e) for i, (s, e) in enumerate(rows))
    # At seed 3, 80 trials include all six orders of three arrivals.
    _assert_paths_agree(seq, 80, seed=3)


# -- weighted instances and the memoryless mode -----------------------------------

WEIGHT_VALUES = {
    "unit": st.just(Fraction(1)),
    "int": st.builds(Fraction, st.integers(0, 6)),
    "rational": st.builds(Fraction, st.integers(0, 12), st.integers(1, 6)),
}


@st.composite
def weighted_instances(draw, max_lengths=3):
    """An instance from kernel_inputs() with unit, integer or rational
    weights; copies may carry different weights."""
    starts, ends = draw(kernel_inputs(max_lengths))
    values = WEIGHT_VALUES[draw(st.sampled_from(sorted(WEIGHT_VALUES)))]
    weights = draw(st.lists(values, min_size=len(starts), max_size=len(starts)))
    return ArrivalSequence(
        Interval(i, s, e, w) for i, (s, e, w) in enumerate(zip(starts, ends, weights))
    )


MEMORYLESS_POLICIES = tuple(f"rand-memoryless:p={p}" for p in ("0", "1", "1/2", "1/3", "5/7"))


def _assert_kernel_matches_python_policies(seq, trials, seed):
    """Every kernel-mode policy, through the harness and in the compiled
    kernel where one is loaded, matches the policy replayed in Python; each
    gives the exact ALG times the weights' scale."""
    _, starts, ends, weights, _ = seq.columns
    pids = MULTI_LENGTH_POLICIES + MEMORYLESS_POLICIES
    if len(seq.lengths()) == 1:
        pids += ("one-dir-left", "one-dir-right")
    for pid in pids:
        policy = make_policy(pid)
        expected = _trials(policy, seq, seed, trials)
        assert trial_samples(policy, seq, trials, seed) == expected
        raw = run_single_length_trials(
            starts, ends, policy.kernel_spec(), trials, seed, weights=weights
        )
        assert raw == (expected if _engine.COMPILED else None)


@compiled
@given(weighted_instances(), st.integers(0, 12), st.lists(st.integers(0, 12), max_size=4),
       SEEDS, st.sampled_from([0, 1, 4095, 2**40]))
@settings(max_examples=150, deadline=None)
def test_chunked_kernel_calls_match_one_call(seq, trials, cuts, seed, first):
    """Kernel calls over consecutive ranges of trials, each passing its
    first trial index, concatenate to one call over the whole range, in
    every mode with no weights, all-1 weights and the instance's weights;
    all-1 weights count as no weights do, also in the raw kernel, where
    explicit all-1 weights take the weighted loop, which sums the final
    members' weights by position, and no weights the counting loop; and the
    call from trial `first` gives the Python loop's trials from there."""
    _, starts, ends, weights, _ = seq.columns
    bounds = sorted({0, trials, *(min(c, trials) for c in cuts)})
    pids = MULTI_LENGTH_POLICIES + MEMORYLESS_POLICIES
    if len(seq.lengths()) == 1:
        pids += ("one-dir-left", "one-dir-right")
    for pid in pids:
        policy = make_policy(pid)
        spec = policy.kernel_spec()
        counts = []
        for w in ([], [1] * len(seq), weights):
            one = run_single_length_trials(starts, ends, spec, trials, seed, w, first)
            chunks = []
            for lo, hi in zip(bounds, bounds[1:]):
                chunks += run_single_length_trials(
                    starts, ends, spec, hi - lo, seed, w, first + lo
                )
            assert chunks == one
            counts.append(one)
        assert counts[0] == counts[1]
        # The wrapper turns all-1 weights into [] before the kernel sees them.
        args = _engine._kernel_args(starts, ends, spec)
        if args is not None:
            raw = [
                _engine._impl.run_single_length_trials_raw(*args[:3], trials, seed, w, first)
                for w in ([1] * len(seq), [])
            ]
            assert raw[0] == raw[1] == counts[0]
        assert one == _trials(policy, seq, seed, trials, first)


def test_negative_first_trial_index_is_rejected():
    spec = make_policy("never-replace").kernel_spec()
    with pytest.raises(ValueError, match="first trial index"):
        run_single_length_trials([0], [1], spec, 3, 1, first=-1)
    if _engine.COMPILED:
        args = ([0], [1], (2, [], [], 0, [], [], 0, 0, 1), 3, 1, [])
        assert _engine._impl.run_single_length_trials_raw(*args, 0) == [1, 1, 1]
        with pytest.raises(ValueError, match="first trial index"):
            _engine._impl.run_single_length_trials_raw(*args, -1)


@given(weighted_instances(), st.integers(1, 10), SEEDS)
@settings(max_examples=200, deadline=None)
def test_memoryless_and_weighted_kernel_trials_match_python_policies(seq, trials, seed):
    _assert_kernel_matches_python_policies(seq, trials, seed)


def test_weighted_kernel_trials_on_generated_instances():
    for seed in range(4):
        for mode in ("int", "rational"):
            seq = gen_random_instance(25, 3, mode, seed)
            _assert_kernel_matches_python_policies(seq, 15, seed)


# -- the classify-by-length reduction ---------------------------------------------


@given(
    weighted_instances(max_lengths=5),
    st.sampled_from(sorted(ARB_SUBROUTINES)),
    st.integers(1, 30),
    SEEDS,
)
@settings(max_examples=300, deadline=None)
def test_arb_expectation_matches_trial_replay(seq, subroutine, trials, seed):
    policy = ArbPolicy(subroutine)
    buf = io.StringIO()
    arb = run_arb_expectation(policy, seq, trials, seed, out=buf)
    ref, choices, distinct = replay_arb_expectation(policy, seq, trials, seed)
    assert buf.getvalue() == ref.to_csv()
    assert list(arb.length_choices.items()) == list(choices.items())
    lengths = list(dict.fromkeys(iv.length for iv in seq))
    last = Counter(arb_length_draws(lengths, seed, t)[-1][0] for t in range(trials))
    assert arb.length_choices == last
    assert arb.distinct_lengths == distinct
    assert arb.stats.mean_alg == ref.mean_alg
