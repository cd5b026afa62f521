"""Tests for zero-forcing precoding and antenna selection."""

import itertools
import re

import numpy as np
import pytest

from rsmsim import mimo
from rsmsim.mimo import (
    SingularChannel,
    TooManySubsets,
    select_antennas,
    selection_for_indices,
    zf_precoder,
)
from oracles import random_channel


def alpha_by_explicit_inverse(h_active):
    gram = h_active @ h_active.conj().T
    return 1.0 / float(np.real(np.trace(np.linalg.inv(gram))))


def full_selection(h):
    """The selection of every row of ``h``."""
    return selection_for_indices(h, range(len(h)))


class TestZfPrecoder:
    def test_orthonormal_rows(self):
        h = np.hstack([np.eye(3), np.zeros((3, 5))])
        sel = full_selection(h)
        np.testing.assert_allclose(zf_precoder(sel), h.conj().T, atol=1e-12)
        assert sel.alpha == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_scaling_law(self):
        c = 2.5
        h = c * np.hstack([np.eye(3), np.zeros((3, 5))])
        assert full_selection(h).alpha == pytest.approx(c * c / 3.0, rel=1e-12)

    def test_random_channel_inverts_and_normalizes(self):
        h = random_channel(2, 8, seed=0)
        sel = full_selection(h)
        b = zf_precoder(sel)
        np.testing.assert_allclose(h @ b, np.eye(2), atol=1e-8)
        assert sel.alpha == pytest.approx(alpha_by_explicit_inverse(h), rel=1e-10)
        assert sel.alpha * np.real(np.trace(b.conj().T @ b)) == pytest.approx(1.0, abs=1e-8)

    def test_zero_interference_per_stream(self):
        # H_a B maps any spatial/modulation excitation straight through.
        h = random_channel(4, 16, seed=1)
        b = zf_precoder(full_selection(h))
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = rng.integers(0, 2, size=4)
            x = rng.standard_normal() + 1j * rng.standard_normal()
            out = h @ (b @ (s * x))
            np.testing.assert_allclose(out, s * x, atol=1e-8)

    def test_singular_raises(self):
        h = np.ones((2, 4), dtype=complex)  # duplicated rows
        with pytest.raises(SingularChannel):
            full_selection(h)


class TestSelectAntennas:
    def test_single_antenna_picks_largest_row(self):
        h = np.diag([1.0, 3.0, 2.0]).astype(complex)
        sel = select_antennas(h, 1)
        assert sel.active_indices == (1,)
        assert sel.alpha == pytest.approx(9.0, rel=1e-12)

    def test_matches_bruteforce_enumeration(self):
        h = random_channel(4, 8, seed=3)
        sel = select_antennas(h, 2)
        best = max(
            itertools.combinations(range(4), 2),
            key=lambda idx: alpha_by_explicit_inverse(h[list(idx)]),
        )
        assert sel.active_indices == best
        assert sel.alpha == pytest.approx(
            alpha_by_explicit_inverse(h[list(best)]), rel=1e-10
        )

    def test_full_subset_is_only_choice(self):
        h = random_channel(3, 8, seed=4)
        sel = select_antennas(h, 3)
        assert sel.active_indices == (0, 1, 2)
        assert sel.alpha == pytest.approx(alpha_by_explicit_inverse(h), rel=1e-10)

    def test_optimal_over_100_trials(self):
        for seed in range(100):
            h = random_channel(6, 12, seed=100 + seed)
            sel = select_antennas(h, 3)
            for idx in itertools.combinations(range(6), 3):
                assert sel.alpha >= alpha_by_explicit_inverse(h[list(idx)]) - 1e-9

    def test_alpha_scales_quadratically(self):
        h = random_channel(5, 10, seed=7)
        sel1 = select_antennas(h, 2)
        sel2 = select_antennas(3.0 * h, 2)
        assert sel2.active_indices == sel1.active_indices
        assert sel2.alpha == pytest.approx(9.0 * sel1.alpha, rel=1e-10)

    def test_subset_cap(self, monkeypatch):
        # C(14, 7) = 3432 subsets: under the default cap, over a cap of 1000.
        h = random_channel(14, 20, seed=8)
        monkeypatch.setattr(mimo, "MAX_SUBSETS", 1000)
        with pytest.raises(TooManySubsets):
            select_antennas(h, 7)

    def test_all_singular_raises(self):
        h = np.ones((4, 6), dtype=complex)
        with pytest.raises(SingularChannel):
            select_antennas(h, 2)

    def test_tie_breaks_lexicographic(self):
        # Two identical best singletons: index 0 must win.
        h = np.diag([2.0, 2.0, 1.0]).astype(complex)
        assert select_antennas(h, 1).active_indices == (0,)

    def test_selection_for_indices(self):
        h = random_channel(5, 10, seed=10)
        sel = selection_for_indices(h, (0, 1, 2))
        assert sel.active_indices == (0, 1, 2)
        assert sel.alpha == pytest.approx(alpha_by_explicit_inverse(h[:3]), rel=1e-10)

    @pytest.mark.parametrize("n_active", [1, 3, 4])
    def test_precoder_from_selection_reuses_its_gram_matrix(self, n_active, monkeypatch):
        # The selection's Gram matrix gives the bits of H_a^H inv(H_a H_a^H)
        # without another eigendecomposition.
        h = random_channel(8, 32, seed=20 + n_active)
        for sel in (select_antennas(h, n_active), selection_for_indices(h, range(n_active))):
            h_active = sel.h_active
            want = h_active.conj().T @ np.linalg.inv(h_active @ h_active.conj().T)
            monkeypatch.setattr(np.linalg, "eigvalsh", None)
            b = zf_precoder(sel)
            monkeypatch.undo()
            assert b.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_active", [1, 2, 4, 8])
    def test_stacked_scores_match_the_unstacked_rows(self, n_active):
        # Both searches score a stack of subsets; a subset alone gives the
        # same bits.
        for seed in range(20):
            h = random_channel(8, 32, seed=300 + seed)
            for sel in (select_antennas(h, n_active), selection_for_indices(h, range(n_active))):
                gram, rcond, alpha = mimo._power_factor(h[list(sel.active_indices)])
                assert sel.gram.tobytes() == gram.tobytes()
                assert sel.alpha == float(alpha)
                (stacked_rcond,) = mimo._power_factor(sel.h_active[None])[1]
                assert stacked_rcond.tobytes() == rcond.tobytes()

    def test_n_active_exceeding_rows_rejected(self):
        with pytest.raises(ValueError):
            select_antennas(random_channel(2, 4, seed=11), 3)


class TestRcondRule:
    """One reciprocal-condition rule decides for every entry point."""

    def channel(self, rcond):
        # Orthogonal rows, so the Gram matrix of rows (0, 1) is diag(1, rcond)
        # up to rounding; row 2 is weaker, so (0, 1) is the best pair while it
        # counts as regular, (0, 2) never does and (1, 2) always does.
        h = np.zeros((3, 4), dtype=complex)
        h[0, 0], h[1, 1], h[2, 2] = 1.0, np.sqrt(rcond), np.sqrt(rcond / 2)
        return h

    def test_just_below_the_floor_is_singular_everywhere(self):
        rcond = 0.999 * mimo.RCOND_MIN
        h = self.channel(rcond)
        message = re.escape(f"rcond={rcond:.3e}")
        with pytest.raises(SingularChannel, match=message):
            full_selection(h[:2])
        with pytest.raises(SingularChannel, match=message):
            selection_for_indices(h, (0, 1))
        # Skipped although its power factor beats the pair it settles on.
        assert select_antennas(h, 2).active_indices == (1, 2)

    def test_just_above_the_floor_is_regular_everywhere(self):
        rcond = 1.001 * mimo.RCOND_MIN
        h = self.channel(rcond)
        alpha = 1.0 / (1.0 + 1.0 / rcond)
        assert full_selection(h[:2]).alpha == pytest.approx(alpha, rel=1e-9)
        assert selection_for_indices(h, (0, 1)).alpha == pytest.approx(alpha, rel=1e-9)
        sel = select_antennas(h, 2)
        assert sel.active_indices == (0, 1)
        assert sel.alpha == pytest.approx(alpha, rel=1e-9)

    #: rcond of each Gram matrix the bound test builds, from 1e-1 to just above the floor
    RCONDS = (*10.0 ** -np.arange(1, 8), 1.001 * mimo.RCOND_MIN)

    @pytest.mark.parametrize("n_active", range(2, 9))
    def test_the_floor_bounds_the_identity_error(self, n_active):
        # H_a = U diag(s) V^H with the rows' Gram matrix at a chosen rcond;
        # ZF leaves |H_a B - I| within 8 eps / rcond at every rcond the floor
        # accepts.
        rng = np.random.default_rng(500 + n_active)
        eps = np.finfo(float).eps
        for rcond in self.RCONDS:
            s = np.sqrt(rcond) ** np.linspace(0.0, 1.0, n_active)
            for _ in range(20):
                u = np.linalg.qr(random_channel(n_active, n_active, rng.integers(2**32)))[0]
                v = np.linalg.qr(random_channel(32, n_active, rng.integers(2**32)))[0]
                h = (u * s) @ v.conj().T
                sel = full_selection(h)
                error = float(np.abs(h @ zf_precoder(sel) - np.eye(n_active)).max())
                assert error <= 8 * eps / rcond, (rcond, error)
