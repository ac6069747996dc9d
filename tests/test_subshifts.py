import itertools

import pytest
from hypothesis import given, settings, strategies as st

from horoshift import (FullShift, FullShiftZ, InputError, LinearGF2, Pattern,
                       ResourceBudgetError, SFT, SkewActionSpec, WindowFilling,
                       complete_upward, config_distance, enumerate_fillings,
                       ledrappier, skew_exponent, validate)
from horoshift.subshifts import box_sites, count_fillings, spec_from_dict


class TestSpecs:
    def test_ledrappier_support(self):
        spec = ledrappier()
        assert spec.support == ((0, 0), (0, 1), (1, 0))
        assert spec.alphabet == (0, 1)

    def test_linear_check_at(self):
        spec = ledrappier()
        assert validate(spec, {(0, 0): 1, (1, 0): 1, (0, 1): 0})
        assert not validate(spec, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        # partial assignments never reject
        assert validate(spec, {(0, 0): 1, (1, 0): 1})

    def test_sft_needs_forbidden(self):
        with pytest.raises(InputError):
            SFT((0, 1), [])

    def test_fullshift_accepts_everything(self):
        spec = FullShift((0, 1))
        assert validate(spec, Pattern({(0, 0): 1, (5, 5): 0}))

    def test_spec_round_trip(self):
        for spec in (ledrappier(), FullShift((0, 1, 2)),
                     SFT((0, 1), [Pattern({(0, 0): 1, (1, 0): 1})])):
            again = spec_from_dict(spec.to_dict())
            assert again.to_dict() == spec.to_dict()

    def test_spec_from_dict_unknown(self):
        with pytest.raises(InputError):
            spec_from_dict({"kind": "mystery"})


class TestValidate:
    def test_rule_examples(self):
        spec = ledrappier()
        assert validate(spec, Pattern({(0, 0): 1, (1, 0): 1, (0, 1): 0}))
        assert not validate(spec, Pattern({(0, 0): 1, (1, 0): 0, (0, 1): 0}))

    def test_partial_support_is_vacuous(self):
        spec = ledrappier()
        assert validate(spec, Pattern({(0, 0): 1, (1, 0): 0}))

    def test_alphabet_enforced(self):
        with pytest.raises(InputError):
            validate(ledrappier(), Pattern({(0, 0): 2}))

    def test_sft_forbidden_detected(self):
        spec = SFT((0, 1), [Pattern({(0, 0): 1, (1, 0): 1})])
        assert not validate(spec, Pattern({(3, 3): 1, (4, 3): 1}))
        assert validate(spec, Pattern({(3, 3): 1, (4, 3): 0}))


class TestEnumerate:
    def test_counts_frozen(self):
        spec = ledrappier()
        assert count_fillings(spec, 1) == 32
        assert count_fillings(spec, 2) == 512
        # a zero bottom edge leaves exactly two free bits on the right column
        clamp = {(x, -1): 0 for x in (-1, 0, 1)}
        assert count_fillings(spec, 1, clamp=clamp) == 4

    def test_fullshift_count(self):
        assert count_fillings(FullShift((0, 1)), 1) == 512

    def test_linear_count_is_power_of_two(self):
        # admissible fillings form a GF(2) vector space
        for N in (1, 2, 3):
            c = count_fillings(ledrappier(), N)
            assert c & (c - 1) == 0

    def test_every_streamed_filling_is_valid(self):
        spec = ledrappier()
        fillings = list(enumerate_fillings(spec, 2))
        for f in fillings:
            assert validate(spec, Pattern(f.symbols))
        assert len(set(fillings)) == len(fillings)

    def test_contradictory_clamp_empty(self):
        spec = ledrappier()
        clamp = {(0, 0): 1, (1, 0): 0, (0, 1): 0}
        assert count_fillings(spec, 1, clamp=clamp) == 0

    def test_clamp_outside_window(self):
        with pytest.raises(InputError):
            count_fillings(ledrappier(), 1, clamp={(5, 0): 0})

    def test_budget(self):
        with pytest.raises(ResourceBudgetError) as exc:
            count_fillings(ledrappier(), 2, budget=100)
        assert exc.value.count == 100

    def test_stream_order_deterministic(self):
        a = [tuple(sorted(f.symbols.items())) for f in enumerate_fillings(ledrappier(), 1)]
        b = [tuple(sorted(f.symbols.items())) for f in enumerate_fillings(ledrappier(), 1)]
        assert a == b

    def test_raster_order(self):
        assert box_sites(1) == [(-1, -1), (0, -1), (1, -1),
                                (-1, 0), (0, 0), (1, 0),
                                (-1, 1), (0, 1), (1, 1)]


HARD_SQUARE = SFT((0, 1), [Pattern({(0, 0): 1, (1, 0): 1}),
                           Pattern({(0, 0): 1, (0, 1): 1})])


def _placed(support, sites):
    """Every translate of ``support`` lying inside ``sites``, by definition;
    the anchors cover the windows (within [-2, 2]^2) and supports (offsets
    in 0..2) of these tests."""
    return [[(z[0] + s[0], z[1] + s[1]) for s in support]
            for z in itertools.product(range(-4, 3), repeat=2)
            if all((z[0] + s[0], z[1] + s[1]) in sites for s in support)]


def _admissible(spec, symbols):
    """The spec's rule on every translate inside the assigned sites."""
    if isinstance(spec, LinearGF2):
        return all(sum(symbols[c] for c in cells) % 2 == 0
                   for cells in _placed(spec.support, symbols))
    if isinstance(spec, SFT):
        return not any(
            all(symbols[c] == v for c, v in zip(cells, p.symbols.values()))
            for p in spec.forbidden for cells in _placed(list(p.symbols), symbols))
    return True


def _brute_force(spec, N, clamp):
    """All admissible assignments of the window, lexicographic in raster order."""
    sites = box_sites(N)
    choices = [[clamp[s]] if s in clamp else sorted(spec.alphabet) for s in sites]
    fillings = (dict(zip(sites, values)) for values in itertools.product(*choices))
    return [f for f in fillings if _admissible(spec, f)]


class TestCheckPlan:
    @pytest.mark.parametrize("spec, clamp", [
        (FullShift((0, 1)), {}),
        (ledrappier(), {}),
        (ledrappier(), {(x, -1): 0 for x in (-1, 0, 1)}),
        (HARD_SQUARE, {}),
        (SFT((0, 1, 2), [Pattern({(0, 0): 2})]), {}),
        (SFT((0, 1), [Pattern({(0, 0): 1, (2, 0): 0, (1, 2): 1})]), {}),
    ], ids=["fullshift", "ledrappier", "ledrappier-clamped", "hard-square",
            "single-site", "three-cells-apart"])
    def test_stream_equals_brute_force(self, spec, clamp):
        stream = [f.symbols for f in enumerate_fillings(spec, 1, clamp=clamp)]
        assert stream == _brute_force(spec, 1, clamp)

    @pytest.mark.parametrize("spec", [ledrappier(), HARD_SQUARE],
                             ids=["ledrappier", "hard-square"])
    @given(symbols=st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(0, 1)))
    @settings(max_examples=200, deadline=None)
    def test_validate_is_the_definition(self, spec, symbols):
        assert validate(spec, symbols) == _admissible(spec, symbols)


class TestCompleteUpward:
    def test_triangle(self):
        pat = complete_upward(ledrappier(), [(1, 0, 0, 0)])
        assert pat[(0, 0)] == 1 and pat[(0, 1)] == 1 and pat[(0, 2)] == 1
        assert pat[(0, 3)] == 1
        assert validate(ledrappier(), pat)

    def test_pascal_mod_two(self):
        # x_{i,j} = sum_k C(j,k) x_{i+k,0} over GF(2): a centered impulse
        # spreads as binomial coefficients mod 2
        pat = complete_upward(ledrappier(), [(0, 0, 1, 0, 0)])
        from math import comb
        for j in range(5):
            for i in range(5 - j):
                want = comb(j, 2 - i) % 2 if 0 <= 2 - i <= j else 0
                assert pat[(i, j)] == want

    def test_consistent_initial_rows_accepted(self):
        pat = complete_upward(ledrappier(), [(1, 1, 0), (0, 1)])
        assert pat[(0, 2)] == 1
        assert validate(ledrappier(), pat)

    def test_inconsistent_initial_rows_rejected(self):
        with pytest.raises(InputError):
            complete_upward(ledrappier(), [(1, 1, 0), (1, 1)])

    def test_wrong_spec_rejected(self):
        with pytest.raises(InputError):
            complete_upward(LinearGF2([(0, 0), (2, 0)]), [(1, 0)])

    def test_repeated_site_rule_completes(self):
        # (0, 0) twice cancels: the rule is x_{i,j+1} = x_{i+1,j}, not
        # Ledrappier's, and the completion must respect it
        spec = LinearGF2([(0, 0), (0, 0), (1, 0), (0, 1)])
        pat = complete_upward(spec, [(1, 0, 1)])
        assert validate(spec, pat)
        assert [pat[(0, j)] for j in range(3)] == [1, 0, 1]

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_any_bottom_row_completes(self, row):
        pat = complete_upward(ledrappier(), [tuple(row)])
        assert validate(ledrappier(), pat)


def _fill(N, fn):
    return WindowFilling(N, {s: fn(s) for s in box_sites(N)})


class TestConfigDistance:
    def test_examples(self):
        x = _fill(2, lambda s: 0)
        y = _fill(2, lambda s: 1 if s == (2, -2) else 0)
        z = _fill(2, lambda s: 1 if s == (0, 1) else 0)
        assert config_distance(x, y) == 0.25
        assert config_distance(x, z) == 0.5
        assert config_distance(x, x) == 0.0

    def test_origin_disagreement(self):
        x = _fill(1, lambda s: 0)
        y = _fill(1, lambda s: 1 if s == (0, 0) else 0)
        assert config_distance(x, y) == 1.0

    def test_symmetry_and_window_mismatch(self):
        x = _fill(1, lambda s: 0)
        y = _fill(1, lambda s: abs(s[0]))
        assert config_distance(x, y) == config_distance(y, x)
        with pytest.raises(InputError):
            config_distance(x, _fill(2, lambda s: 0))


class TestSkew:
    def test_exponent_map(self):
        spec = SkewActionSpec(FullShiftZ(), 1, -2)
        assert skew_exponent(spec, (4, 1)) == 2
        for m in range(-5, 6):
            assert skew_exponent(spec, (2 * m, m)) == 0

    def test_base_expansivity(self):
        assert FullShiftZ().expansivity_k == 1

    def test_zero_map_rejected(self):
        with pytest.raises(InputError):
            SkewActionSpec(FullShiftZ(), 0, 0)

    def test_round_trip_dict(self):
        spec = SkewActionSpec(FullShiftZ(), 1, -2)
        d = spec.to_dict()
        assert d["alpha"] == 1 and d["beta"] == -2
        assert d["base"]["kind"] == "full-shift-z"
